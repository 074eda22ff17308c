//! Ablation studies: the design choices the paper credits, switched off.
//!
//! Each ablation returns `(with, without)` bandwidth pairs so the harness
//! (and the `ablations` Criterion bench) can print the effect of the
//! mechanism alone.

use gasnub_machines::{ablation, Machine, MachineId, MachineSpec, MeasureLimits, TransferEngine};

/// One ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Stable identifier.
    pub id: &'static str,
    /// Which machine the mechanism belongs to.
    pub machine: MachineId,
    /// What is switched off.
    pub description: &'static str,
    /// Bandwidth with the mechanism (MB/s).
    pub with_mb_s: f64,
    /// Bandwidth without it (MB/s).
    pub without_mb_s: f64,
}

impl Ablation {
    /// The speedup the mechanism provides.
    pub fn speedup(&self) -> f64 {
        self.with_mb_s / self.without_mb_s
    }
}

fn engine(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(MeasureLimits {
        max_measure_words: 32 * 1024,
        max_prime_words: 2 * 1024 * 1024,
    })
    .build()
    .expect("built-in specs build")
}

/// Runs every ablation study.
pub fn run_all() -> Vec<Ablation> {
    let mut out = Vec::new();
    let ws = 8 << 20;

    // T3E stream buffers (paper footnote 3: ~120 MB/s without streaming).
    {
        let mut with = engine(MachineSpec::t3e());
        let mut without = engine(ablation::t3e_without_streams());
        out.push(Ablation {
            id: "t3e-streams-off",
            machine: MachineId::CrayT3e,
            description: "T3E stream buffers disabled (early test vehicle, footnote 3)",
            with_mb_s: with.local_load(ws, 1).mb_s,
            without_mb_s: without.local_load(ws, 1).mb_s,
        });
    }

    // T3D read-ahead logic (§3.2: "can be turned on/off at program load time").
    {
        let mut with = engine(MachineSpec::t3d());
        let mut without = engine(ablation::t3d_without_read_ahead());
        out.push(Ablation {
            id: "t3d-read-ahead-off",
            machine: MachineId::CrayT3d,
            description: "T3D external read-ahead logic disabled",
            with_mb_s: with.local_load(ws, 1).mb_s,
            without_mb_s: without.local_load(ws, 1).mb_s,
        });
    }

    // T3D write-buffer coalescing (§3.2: coalesces into 32-byte entities).
    {
        let mut with = engine(MachineSpec::t3d());
        let mut without = engine(ablation::t3d_without_coalescing());
        out.push(Ablation {
            id: "t3d-coalescing-off",
            machine: MachineId::CrayT3d,
            description: "T3D write-back queue coalescing disabled (contiguous deposits)",
            with_mb_s: with.remote_deposit(ws, 1).expect("T3D deposits").mb_s,
            without_mb_s: without.remote_deposit(ws, 1).expect("T3D deposits").mb_s,
        });
    }

    // T3D prefetch FIFO vs blocking remote loads (§3.2).
    {
        let mut with = engine(MachineSpec::t3d());
        let mut without = engine(ablation::t3d_blocking_fetch());
        out.push(Ablation {
            id: "t3d-blocking-fetch",
            machine: MachineId::CrayT3d,
            description: "T3D prefetch FIFO unused: transparent blocking remote loads",
            with_mb_s: with.remote_fetch(ws, 1).expect("T3D fetch").mb_s,
            without_mb_s: without.remote_fetch(ws, 1).expect("T3D fetch").mb_s,
        });
    }

    // T3D node-pair link sharing (footnote 1: 70 MB/s per PE when shared).
    {
        let mut with = engine(MachineSpec::t3d());
        let mut without = engine(ablation::t3d_paired_traffic());
        out.push(Ablation {
            id: "t3d-paired-traffic",
            machine: MachineId::CrayT3d,
            description: "both PEs of a T3D node pair communicate simultaneously",
            with_mb_s: with.remote_deposit(ws, 1).expect("T3D deposits").mb_s,
            without_mb_s: without.remote_deposit(ws, 1).expect("T3D deposits").mb_s,
        });
    }

    // 8400 bus burst protocol (§3.1: 2.4 GB/s peak, 1.6 GB/s under the
    // best burst protocol). A single latency-bound consumer barely notices,
    // so the ablation reports the protocol's *ceiling* — the rate the bus
    // sustains for back-to-back line transactions, which is what bounds the
    // four-processor transposes of figs 15-17.
    {
        let bus_on = MachineSpec::dec8400()
            .smp_config()
            .expect("the 8400 is bus-based")
            .bus
            .clone();
        let mut bus_off = bus_on.clone();
        bus_off.burst = false;
        let line = 64;
        out.push(Ablation {
            id: "dec8400-burst-off",
            machine: MachineId::Dec8400,
            description: "DEC 8400 bus burst transfer protocol disabled (line-transaction ceiling)",
            with_mb_s: bus_on.effective_mb_s(line),
            without_mb_s: bus_off.effective_mb_s(line),
        });
    }

    // 8400 L3-blocked communication (§6.1/§9: blocked cache-to-cache
    // transfers beat DRAM-to-DRAM remote copies for strided data).
    {
        let mut m = engine(MachineSpec::dec8400());
        let blocked = m.remote_load(2 << 20, 16).expect("8400 pulls").mb_s;
        let unblocked = m.remote_load(32 << 20, 16).expect("8400 pulls").mb_s;
        out.push(Ablation {
            id: "dec8400-blocked-transpose",
            machine: MachineId::Dec8400,
            description: "strided pull from the producer's L3 (blocked) vs from DRAM",
            with_mb_s: blocked,
            without_mb_s: unblocked,
        });
    }

    out
}

/// Renders the ablation table.
pub fn render(ablations: &[Ablation]) -> String {
    let mut out = format!(
        "{:<26}{:>12}{:>12}{:>9}  {}\n",
        "ablation", "with MB/s", "without", "speedup", "description"
    );
    for a in ablations {
        out.push_str(&format!(
            "{:<26}{:>12.1}{:>12.1}{:>8.2}x  {}\n",
            a.id,
            a.with_mb_s,
            a.without_mb_s,
            a.speedup(),
            a.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mechanism_helps() {
        let all = run_all();
        assert_eq!(all.len(), 7);
        for a in &all {
            assert!(
                a.speedup() > 1.05,
                "{} must show a benefit: {} vs {}",
                a.id,
                a.with_mb_s,
                a.without_mb_s
            );
        }
    }

    #[test]
    fn streams_matter_most_on_the_t3e() {
        let all = run_all();
        let streams = all.iter().find(|a| a.id == "t3e-streams-off").unwrap();
        assert!(
            streams.speedup() > 2.0,
            "stream buffers are worth >2x: {}",
            streams.speedup()
        );
    }

    #[test]
    fn render_mentions_every_id() {
        let all = run_all();
        let text = render(&all);
        for a in &all {
            assert!(text.contains(a.id));
        }
    }
}
