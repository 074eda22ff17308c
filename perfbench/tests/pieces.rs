//! Tests of the benchmark's own pieces.

use gasnub_core::{Grid, ResilientSweep};
use gasnub_machines::MachineSpec;
use gasnub_perfbench::check::{References, Tally};
use gasnub_perfbench::grid::{seeded_grid, DEFAULT_SEED, HELD_OUT_SEED};
use gasnub_perfbench::metrics::{per_layer, END_TO_END};
use gasnub_perfbench::mix::{Client, Kind};
use gasnub_perfbench::scratch::Scratch;
use gasnub_perfbench::spans::{self, Span};
use gasnub_perfbench::stats::{median, percentile};

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(10.0));
    assert_eq!(percentile(&v[..19], 50.0), None, "9 samples beyond p50");
    let big: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&big, 99.0), Some(990.0));
    assert_eq!(percentile(&big[..999], 99.0), None, "9 samples beyond p99");
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
}

#[test]
fn seeded_grids_span_every_cache_regime_of_every_machine() {
    assert_eq!(seeded_grid(DEFAULT_SEED), Grid::quick());
    let specs = [
        MachineSpec::dec8400(),
        MachineSpec::t3d(),
        MachineSpec::t3e(),
    ];
    let strides = Grid::paper_strides();
    let sets = Grid::paper_working_sets(8 << 20);
    for seed in (0..400).chain([HELD_OUT_SEED]) {
        let grid = seeded_grid(seed);
        assert_eq!(grid.strides.len(), 5);
        assert_eq!(grid.working_sets.len(), 5);
        assert_eq!(grid.strides[0], 1, "seed {seed}: stride 1 is always swept");
        assert!(grid.strides.windows(2).all(|w| w[0] < w[1]));
        assert!(grid.working_sets.windows(2).all(|w| w[0] < w[1]));
        assert!(grid.strides.iter().all(|s| strides.contains(s)));
        assert!(grid.working_sets.iter().all(|w| sets.contains(w)));
        assert!(grid.working_sets.iter().any(|&w| w >= 4 << 20));
        for spec in &specs {
            let mut lower = 0u64;
            for level in &spec.node_config().hierarchy.levels {
                let cap = level.cache.capacity_bytes;
                assert!(
                    grid.working_sets.iter().any(|&w| w > lower && w <= cap),
                    "seed {seed}: no working set resident in {}'s {cap}-byte level",
                    spec.label()
                );
                lower = cap;
            }
            assert!(
                grid.working_sets.iter().any(|&w| w > lower),
                "seed {seed}: no working set reaches {}'s memory",
                spec.label()
            );
        }
    }
    assert_ne!(seeded_grid(1), seeded_grid(2));
}

fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        root: 1,
        name,
        machine: "",
        start,
        end,
    }
}

#[test]
fn self_times_subtract_children_and_the_ledger_balances() {
    let nested = vec![
        span(1, None, "core.sweep", 0, 100),
        span(2, Some(1), "memsim.probe", 10, 40),
        span(3, Some(2), "machines.memo", 20, 30),
        span(4, Some(1), "machines.spawn", 50, 70),
    ];
    let own = spans::self_times(&nested);
    assert_eq!((own[&1], own[&2], own[&3], own[&4]), (50, 20, 10, 20));
    let layers = spans::layer_self_times(&nested);
    assert_eq!(layers["core"], 50);
    assert_eq!(layers["machines"], 30);
    assert_eq!(layers["memsim"], 20);
    assert_eq!(spans::ledger(&nested), (0.0, 100));

    // Overlapping siblings count their shared interval twice: the ledger
    // reports the 10% it over-attributes.
    let overlapping = vec![
        span(1, None, "core.sweep", 0, 100),
        span(2, Some(1), "memsim.probe", 10, 40),
        span(3, Some(1), "machines.spawn", 30, 60),
    ];
    let (gap, total) = spans::ledger(&overlapping);
    assert_eq!(total, 110);
    assert!((gap - 0.1).abs() < 1e-12);

    // A child running past its parent is clipped to the parent.
    let escaping = vec![
        span(1, None, "core.sweep", 0, 100),
        span(2, Some(1), "memsim.probe", 90, 130),
    ];
    assert_eq!(spans::self_times(&escaping)[&1], 90);
    assert!((spans::ledger(&escaping).0 - 0.3).abs() < 1e-12);
}

#[test]
fn the_request_mix_is_deterministic_per_seed() {
    let stream = |seed: u64, client: u64| {
        let mut c = Client::new(seed, client, 2);
        (0..300).map(|_| c.next_connection()).collect::<Vec<_>>()
    };
    assert_eq!(stream(7, 0), stream(7, 0));
    assert_ne!(stream(7, 0), stream(8, 0));
    assert_ne!(stream(7, 0), stream(7, 1));

    let requests: Vec<_> = [stream(7, 0), stream(7, 1)]
        .concat()
        .into_iter()
        .flatten()
        .collect();
    assert!(stream(7, 0).iter().all(|c| (1..=8).contains(&c.len())));
    let share =
        |k: Kind| requests.iter().filter(|r| r.kind == k).count() as f64 / requests.len() as f64;
    assert!((share(Kind::Probe) - 0.60).abs() < 0.05);
    assert!((share(Kind::SharedSweep) - 0.25).abs() < 0.05);
    assert!((share(Kind::UniqueSweep) - 0.15).abs() < 0.05);
    let mut unique: Vec<_> = requests
        .iter()
        .filter(|r| r.kind == Kind::UniqueSweep)
        .map(|r| r.grid.working_sets.clone())
        .collect();
    let n = unique.len();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), n, "unique grids never repeat a working set");
    assert!(requests
        .iter()
        .all(|r| r.grid.working_sets.iter().all(|&w| w <= 130 << 10)));
}

#[test]
fn a_corrupted_payload_counts_as_failed() {
    let scratch = Scratch::new(std::path::Path::new(env!("CARGO_TARGET_TMPDIR")), "corrupt")
        .expect("scratch directory");
    let path = scratch.join("ck.json");
    let grid = Grid::quick();
    ResilientSweep::new(&path)
        .with_fsync(false)
        .run("synthetic surface", &grid, |ws, s| {
            Some(ws as f64 / s as f64)
        })
        .expect("synthetic sweep");
    let payload = gasnub_core::read_verified(&path)
        .expect("readable")
        .expect("written");
    let mut refs = References::default();
    refs.insert("surface", payload.clone());

    let mut tally = Tally::default();
    assert!(refs.check(&"surface", &payload, 25, &mut tally));
    let mut corrupted = payload.into_bytes();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x01;
    let corrupted = String::from_utf8(corrupted).expect("still UTF-8");
    assert!(!refs.check(&"surface", &corrupted, 25, &mut tally));
    assert!(
        !refs.check(&"other", "{}", 1, &mut tally),
        "no reference is a failure"
    );
    assert_eq!((tally.attempted, tally.failed), (51, 26));
    assert!(tally.failed_ratio() > 0.5);
}

/// The names between `"<section>"` and the next `]` of `BENCHMARK.json`.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("array closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&json, "per_layer"), layers);
}

#[test]
fn the_committed_reference_covers_every_drawable_cell() {
    use gasnub_perfbench::grid::{ops_for, reference_grid, MACHINES};
    use gasnub_perfbench::reference::Reference;
    let reference = Reference::committed().expect("the committed table parses");
    let grid = reference_grid();
    for seed in 0..200 {
        let seeded = seeded_grid(seed);
        assert!(seeded.strides.iter().all(|s| grid.strides.contains(s)));
        assert!(seeded
            .working_sets
            .iter()
            .all(|w| grid.working_sets.contains(w)));
    }
    for machine in MACHINES {
        for op in ops_for(machine) {
            for i in 0..grid.cells() {
                let (ws, stride) = grid.cell(i);
                let v = reference.value(machine, op, ws, stride);
                assert!(
                    v.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{machine} {} ws={ws} stride={stride}: {v:?}",
                    op.label()
                );
            }
        }
    }
    assert!(Reference::parse("t3d\tload\t512\tnot-a-number\t0").is_err());
}
