//! The metric names every run prints, with their units. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

use crate::grid::MACHINES;

/// End-to-end metrics, printed by every untraced run (`--trace 0`). Each
/// is defined on every workload and steady enough across runs to gate on;
/// `rss_peak_mb`, `failed_ratio` and the serve latencies are printed by
/// name in each run's summary instead (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("paper_err_max_pct", "%"),
    ("residual_max_pct", "%"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// that does no work on a workload reports 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for m in MACHINES {
        add(&format!("memsim.prime_ns_per_access.{m}"), "ns");
        add(&format!("memsim.measure_ns_per_access.{m}"), "ns");
        add(&format!("memsim.prime_share.{m}"), "ratio");
    }
    for m in MACHINES {
        add(&format!("machines.spawn_us.{m}"), "us");
        add(&format!("machines.sim_probe_ms.{m}"), "ms");
    }
    add("machines.spawns", "count");
    add("machines.probe_share", "ratio");
    add("coherence.pull_probe_ms", "ms");
    add("interconnect.deposit_probe_ms", "ms");
    add("interconnect.fetch_probe_ms", "ms");
    add("machines.memo.hit_us", "us");
    add("machines.memo.hit_ratio", "ratio");
    add("machines.memo.entries", "count");
    add("analytic.predict_us", "us");
    add("analytic.trusted_ratio", "ratio");
    for m in MACHINES {
        add(&format!("analytic.anchor_s.{m}"), "s");
    }
    add("core.runner_us_per_cell", "us");
    add("core.storage.write_us", "us");
    add("core.storage.write_fsync_us", "us");
    add("core.storage.read_us", "us");
    for source in SOURCES {
        add(&format!("serve.latency_p50_ms.{source}"), "ms");
        add(&format!("serve.samples.{source}"), "count");
    }
    add("serve.p50_ms", "ms");
    add("serve.p99_ms", "ms");
    add("serve.probe_p99_ms", "ms");
    add("serve.sweep_hit_p99_ms", "ms");
    add("serve.sweep_miss_p50_ms", "ms");
    add("serve.samples.probe", "count");
    add("serve.reuse_ratio", "ratio");
    add("serve.memo_hit_ratio", "ratio");
    add("serve.queue_depth_peak", "count");
    add("serve.connect_us", "us");
    add("serve.http.read_us", "us");
    add("serve.http.write_us", "us");
    add("trace.overhead_pct", "%");
    add("trace.unaccounted_pct", "%");
    add("trace.ledger_gap_max_pct", "%");
    out
}

/// The `X-Gasnub-Source` values of served sweeps.
pub const SOURCES: [&str; 4] = ["computed", "coalesced", "memory", "disk"];
