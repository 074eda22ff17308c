//! The sweep workloads: `sweep-sim` (a user's first `gasnub sweep` of
//! each surface, every cell simulated) and `sweep-warm` (the same
//! surfaces answered from the probe memo and the analytic tier).

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use gasnub_analytic::{TieredMachine, TieredSpec};
use gasnub_core::{read_verified, Grid, ResilientSweep, Surface as Values, SweepOp};
use gasnub_machines::{
    memo, Machine, MachineRegistry, MachineSpec, MeasureLimits, ProbePath, ProbeTier, SpawnEngine,
    TransferEngine,
};
use gasnub_memsim::SimError;
use gasnub_perfbench::check::{References, Tally};
use gasnub_perfbench::grid::{ops_for, reference_grid, seeded_grid, MACHINES};
use gasnub_perfbench::reference::{row, Reference};
use gasnub_perfbench::scratch::Scratch;
use gasnub_perfbench::spans::{Span, Spans};
use gasnub_perfbench::stats::median;

use crate::layers;
use crate::{Args, Outcome};

/// Set-up repetitions of `sweep-sim`, whose set-up takes milliseconds.
const SIM_SETUP_REPS: usize = 51;

/// Set-up repetitions of `sweep-warm`, whose set-up is a full first pass.
const WARM_SETUP_REPS: usize = 3;

/// One surface a user sweeps: a machine, an operation and what the CLI
/// derives from them before the first cell.
pub struct Surface {
    /// Machine label.
    pub machine: &'static str,
    /// Index of the machine in [`MACHINES`].
    pub m: usize,
    /// The operation.
    pub op: SweepOp,
    /// The resolved spec, at the CLI's measurement caps.
    pub spec: MachineSpec,
    /// The engine's display name, which the checkpoint title carries.
    pub name: String,
}

impl Surface {
    /// The checkpoint title at `tier`, as `gasnub sweep` spells it.
    pub fn title(&self, tier: ProbeTier) -> String {
        self.op.checkpoint_title(&self.name, false, tier)
    }
}

/// Resolves the 12 surfaces the way `gasnub sweep` does: registry
/// discovery, spec resolution at fast limits, and one engine spawn for the
/// checkpoint title.
pub fn resolve() -> Result<Vec<Surface>, String> {
    let registry = MachineRegistry::discover();
    let mut out = Vec::new();
    for (m, machine) in MACHINES.into_iter().enumerate() {
        let spec = registry
            .resolve(machine)
            .map_err(|e| e.to_string())?
            .clone()
            .with_limits(MeasureLimits::fast());
        let name = spec.spawn_engine().map_err(|e| e.to_string())?.name();
        for op in ops_for(machine) {
            out.push(Surface {
                machine,
                m,
                op,
                spec: spec.clone(),
                name: name.clone(),
            });
        }
    }
    Ok(out)
}

/// Which path answered a probe, for engines that can say.
pub trait Answered: Machine {
    /// Whether the last probe was answered by the analytic model.
    fn analytic(&self) -> bool;
}

impl Answered for TransferEngine {
    fn analytic(&self) -> bool {
        false
    }
}

impl Answered for TieredMachine {
    fn analytic(&self) -> bool {
        self.last_path() == ProbePath::Analytic
    }
}

/// The span name of a probe: analytic answers, memo hits, and simulations
/// attributed to the layer whose model does the work.
fn probe_span_name(analytic: bool, memo_hit: bool, op: SweepOp) -> &'static str {
    if analytic {
        "analytic.predict"
    } else if memo_hit {
        "machines.memo"
    } else {
        match op {
            SweepOp::RemoteLoad => "coherence.pull",
            SweepOp::RemoteDeposit => "interconnect.deposit",
            SweepOp::RemoteFetch => "interconnect.fetch",
            _ => "memsim.probe",
        }
    }
}

/// Whether a span name is a simulated probe.
fn is_sim_probe(name: &str) -> bool {
    matches!(
        name,
        "memsim.probe" | "coherence.pull" | "interconnect.deposit" | "interconnect.fetch"
    )
}

/// Wraps a spawner so every engine spawn is a `machines.spawn` span of
/// the sweep it serves.
struct TimedSpawner<'a, S> {
    inner: &'a S,
    spans: &'a Spans,
    root: u64,
    machine: &'static str,
}

impl<S: SpawnEngine> SpawnEngine for TimedSpawner<'_, S> {
    type Engine = S::Engine;

    fn spawn_engine(&self) -> Result<S::Engine, SimError> {
        let open = self.spans.child_of(self.root, self.root);
        let engine = self.inner.spawn_engine();
        self.spans.close(open, "machines.spawn", self.machine);
        engine
    }
}

/// One finished sweep.
pub struct SweepRun {
    /// The checkpoint payload.
    pub payload: String,
    /// The surface values.
    pub values: Values,
    /// Wall time of the runner call, in seconds.
    pub wall: f64,
    /// Cells the runner recorded as failed or left pending.
    pub bad_cells: u64,
}

/// Runs one fresh-checkpoint sweep the way `gasnub sweep` does (1 worker,
/// spec hash, batched fsync); with `spans`, also records the sweep, its
/// engine spawns and its probes as spans.
fn sweep<S>(
    path: &Path,
    surface: &Surface,
    tier: ProbeTier,
    grid: &Grid,
    spawner: &S,
    spans: Option<&Spans>,
) -> Result<SweepRun, String>
where
    S: SpawnEngine,
    S::Engine: Answered,
{
    let _ = std::fs::remove_file(path);
    let runner = ResilientSweep::new(path).with_spec_hash(surface.spec.spec_hash());
    let title = surface.title(tier);
    let (op, machine) = (surface.op, surface.machine);
    // The wall clock brackets the root span, so time outside the span
    // shows as unaccounted in the ledger.
    let start = Instant::now();
    let root = spans.map(Spans::root);
    let outcome = match (spans, &root) {
        (Some(s), Some(root)) => {
            let id = root.id();
            let timed = TimedSpawner {
                inner: spawner,
                spans: s,
                root: id,
                machine,
            };
            runner.run_parallel(&title, grid, 1, &timed, |engine, ws, stride| {
                let open = s.child_of(id, id);
                let hits = memo::stats().0;
                let mb_s = op.measure(engine, ws, stride);
                let name = probe_span_name(engine.analytic(), memo::stats().0 > hits, op);
                s.close(open, name, machine);
                mb_s
            })
        }
        _ => runner.run_parallel(&title, grid, 1, spawner, |engine, ws, stride| {
            op.measure(engine, ws, stride)
        }),
    };
    if let (Some(s), Some(root)) = (spans, root) {
        s.close(root, "core.sweep", machine);
    }
    let wall = start.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| format!("{title}: {e}"))?;
    let payload = read_verified(path)
        .map_err(|e| format!("{title}: {e}"))?
        .ok_or_else(|| format!("{title}: no checkpoint after the sweep"))?;
    let _ = std::fs::remove_file(path);
    Ok(SweepRun {
        payload,
        values: outcome.surface,
        wall,
        bad_cells: (outcome.failed.len() + outcome.pending) as u64,
    })
}

/// Reference payloads by surface index and tier.
type SurfaceRefs = References<(usize, ProbeTier)>;

/// Runs sweeps into one scratch checkpoint and checks each payload
/// against `refs`.
struct Sweeper<'a> {
    grid: &'a Grid,
    scratch: &'a Scratch,
    refs: &'a SurfaceRefs,
}

impl Sweeper<'_> {
    fn run<S>(
        &self,
        i: usize,
        surface: &Surface,
        tier: ProbeTier,
        spawner: &S,
        spans: Option<&Spans>,
        acc: &mut Acc,
    ) -> Result<(), String>
    where
        S: SpawnEngine,
        S::Engine: Answered,
    {
        let path = self.scratch.join("sweep.json");
        let run = sweep(&path, surface, tier, self.grid, spawner, spans)?;
        let cells = self.grid.cells() as u64;
        if run.bad_cells > 0 {
            acc.tally.fail(
                run.bad_cells,
                format!(
                    "{}: {} cells failed or pending",
                    surface.title(tier),
                    run.bad_cells
                ),
            );
        }
        self.refs.check(
            &(i, tier),
            &run.payload,
            cells - run.bad_cells,
            &mut acc.tally,
        );
        if spans.is_some() {
            acc.traced.wall += run.wall;
            acc.traced.cells += cells;
        } else {
            acc.plain.wall += run.wall;
            acc.plain.cells += cells;
            acc.walls.entry((i, tier)).or_default().push(run.wall);
        }
        Ok(())
    }
}

/// Wall time and cells of one side (untraced or traced) of the measured
/// sweeps.
#[derive(Default)]
struct Side {
    wall: f64,
    cells: u64,
}

/// What the measured sweeps accumulate.
#[derive(Default)]
struct Acc {
    tally: Tally,
    plain: Side,
    traced: Side,
    /// Untraced sweep wall times (s) per surface and tier, one per round.
    walls: HashMap<(usize, ProbeTier), Vec<f64>>,
    memo_entries: usize,
}

/// Reference payloads of every surface at the sim tier, rendered by the
/// runner from the committed `--cold` values (no simulation), plus the
/// payloads themselves for the storage timings.
fn references(
    surfaces: &[Surface],
    grid: &Grid,
    reference: &Reference,
    scratch: &Scratch,
) -> Result<(SurfaceRefs, Vec<String>), String> {
    let mut refs = References::default();
    let mut payloads = Vec::new();
    let path = scratch.join("reference.json");
    for (i, s) in surfaces.iter().enumerate() {
        for c in 0..grid.cells() {
            let (ws, stride) = grid.cell(c);
            if reference.value(s.machine, s.op, ws, stride).is_none() {
                return Err(format!(
                    "the committed reference lacks {} ws={ws} stride={stride}; \
                     regenerate it with --write-reference",
                    s.title(ProbeTier::Simulate)
                ));
            }
        }
        let _ = std::fs::remove_file(&path);
        ResilientSweep::new(&path)
            .with_spec_hash(s.spec.spec_hash())
            .with_fsync(false)
            .run(&s.title(ProbeTier::Simulate), grid, |ws, stride| {
                reference.value(s.machine, s.op, ws, stride)
            })
            .map_err(|e| e.to_string())?;
        let payload = read_verified(&path)
            .map_err(|e| e.to_string())?
            .ok_or("the reference rendering left no checkpoint")?;
        refs.insert((i, ProbeTier::Simulate), payload.clone());
        payloads.push(payload);
    }
    let _ = std::fs::remove_file(&path);
    Ok((refs, payloads))
}

/// Sweeps every surface of [`reference_grid`] cold on one thread and
/// writes the values as the reference table.
///
/// # Errors
///
/// Sweep and file-system failures.
pub fn write_reference(path: &Path, scratch: &Scratch) -> Result<(), String> {
    let grid = reference_grid();
    let surfaces = resolve()?;
    gasnub_memsim::set_cold_path(true);
    let mut table = String::from(
        "# machine\top\tws_bytes\tstride\tMB/s as f64 bits (hex)\n\
         # --cold, single-thread values of every cell a seeded grid can draw.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference\n",
    );
    let ck = scratch.join("write-reference.json");
    let result = surfaces.iter().try_for_each(|s| {
        let run = sweep(&ck, s, ProbeTier::Simulate, &grid, &s.spec, None)?;
        if run.bad_cells > 0 {
            return Err(format!(
                "{}: {} cells failed",
                s.title(ProbeTier::Simulate),
                run.bad_cells
            ));
        }
        for c in 0..grid.cells() {
            let (ws, stride) = grid.cell(c);
            let v = run
                .values
                .value(ws, stride)
                .ok_or("a swept cell has no value")?;
            table.push_str(&row(s.machine, s.op, ws, stride, v));
        }
        Ok(())
    });
    gasnub_memsim::set_cold_path(false);
    result?;
    std::fs::write(path, table).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs whole rounds of `measure` over every surface until `seconds` of
/// sweep wall time have accumulated in `acc` from this call: stopping
/// mid-round would let the surface mix, and with it the rate, depend on
/// where the clock ran out. In the traced run every surface is swept
/// untraced and traced back to back (order flipped every round), so the
/// trace overhead is a paired comparison.
fn measure_rounds(
    args: &Args,
    seconds: f64,
    surfaces: usize,
    spans: &Spans,
    acc: &mut Acc,
    mut measure: impl FnMut(usize, Option<&Spans>, &mut Acc) -> Result<(), String>,
) -> Result<(), String> {
    let start = acc.plain.wall + acc.traced.wall;
    for round in 0.. {
        for i in 0..surfaces {
            if args.trace {
                let traced_first = round % 2 == 1;
                for traced in [traced_first, !traced_first] {
                    measure(i, traced.then_some(spans), acc)?;
                }
            } else {
                measure(i, None, acc)?;
            }
        }
        if acc.plain.wall + acc.traced.wall - start >= seconds {
            break;
        }
    }
    acc.memo_entries = memo::len();
    Ok(())
}

/// End-to-end metrics of the untraced sweeps. On the sweep workloads a
/// request is one surface, as one `gasnub sweep` run asks for it. Rates
/// use each surface's median wall time over the rounds, so one round
/// slowed by the host does not move them.
fn end_to_end(acc: &Acc, out: &mut Outcome) -> Result<(), String> {
    let medians: Vec<f64> = acc.walls.values().filter_map(|w| median(w)).collect();
    let per_round: f64 = medians.iter().sum();
    let sweeps: usize = acc.walls.values().map(Vec::len).sum();
    let cells_per_sweep = acc.plain.cells as f64 / sweeps as f64;
    out.set(
        "cells_per_s",
        cells_per_sweep * medians.len() as f64 / per_round,
    );
    out.set("req_per_s", medians.len() as f64 / per_round);
    let rounds = acc.walls.values().map(Vec::len).min().unwrap_or(0);
    out.note(format!(
        "{sweeps} sweeps ({} cells) in {:.3} s over {rounds} rounds; failed_ratio {}; \
         rss_peak_mb {:.2} MB",
        acc.plain.cells,
        acc.plain.wall,
        acc.tally.failed_ratio(),
        layers::rss_peak_mb()?
    ));
    Ok(())
}

/// Per-layer metrics read off the sweep spans.
fn sweep_layers(spans: &[Span], acc: &Acc, out: &mut Outcome) {
    let own = gasnub_perfbench::spans::self_times(spans);
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let sweeps = roots.len().max(1) as f64;
    let root_ns: u64 = roots.iter().map(|s| s.dur()).sum();
    let spawns = spans.iter().filter(|s| s.name == "machines.spawn").count();
    out.set("machines.spawns", spawns as f64 / sweeps);
    let probe_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some() && s.name != "machines.spawn")
        .map(Span::dur)
        .sum();
    out.set(
        "machines.probe_share",
        probe_ns as f64 / root_ns.max(1) as f64,
    );
    let mean_ms = |keep: &dyn Fn(&Span) -> bool| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.dur() as f64 / 1e6)
            .collect();
        gasnub_perfbench::stats::mean(&d).unwrap_or(0.0)
    };
    for m in MACHINES {
        out.set(
            format!("machines.sim_probe_ms.{m}"),
            mean_ms(&|s| is_sim_probe(s.name) && s.machine == m),
        );
    }
    out.set(
        "coherence.pull_probe_ms",
        mean_ms(&|s| s.name == "coherence.pull"),
    );
    out.set(
        "interconnect.deposit_probe_ms",
        mean_ms(&|s| s.name == "interconnect.deposit"),
    );
    out.set(
        "interconnect.fetch_probe_ms",
        mean_ms(&|s| s.name == "interconnect.fetch"),
    );
    let runner_ns: u64 = roots.iter().map(|s| own[&s.id]).sum();
    out.set(
        "core.runner_us_per_cell",
        runner_ns as f64 / 1e3 / acc.traced.cells.max(1) as f64,
    );
    let analytic = spans
        .iter()
        .filter(|s| s.name == "analytic.predict")
        .count();
    let hits = spans.iter().filter(|s| s.name == "machines.memo").count();
    let probes = spans
        .iter()
        .filter(|s| s.parent.is_some() && s.name != "machines.spawn")
        .count();
    out.set(
        "machines.memo.hit_ratio",
        hits as f64 / (probes - analytic).max(1) as f64,
    );
    out.set("machines.memo.entries", acc.memo_entries as f64);
    let (worst, accounted) = gasnub_perfbench::spans::ledger(spans);
    let wall_ns = acc.traced.wall * 1e9;
    out.set("trace.ledger_gap_max_pct", worst * 100.0);
    out.set(
        "trace.unaccounted_pct",
        (wall_ns - accounted as f64) / wall_ns * 100.0,
    );
    out.set(
        "trace.overhead_pct",
        (acc.plain.cells as f64 / acc.plain.wall) / (acc.traced.cells as f64 / acc.traced.wall)
            * 100.0
            - 100.0,
    );
    let layers = gasnub_perfbench::spans::layer_self_times(spans);
    let shares: Vec<String> = layers
        .iter()
        .map(|(layer, ns)| format!("{layer}={:.1}%", *ns as f64 / root_ns.max(1) as f64 * 100.0))
        .collect();
    out.note(format!(
        "traced {} sweeps, {} cells; layer self-time shares: {}",
        roots.len(),
        acc.traced.cells,
        shares.join(" ")
    ));
}

/// The ledger check: every sweep's self times must add up to its wall
/// time within [`layers::LEDGER_TOLERANCE`].
fn check_ledger(spans: &[Span], tally: &mut Tally) {
    let (worst, _) = gasnub_perfbench::spans::ledger(spans);
    if worst > layers::LEDGER_TOLERANCE {
        tally.fail_check(format!(
            "span ledger: a root's self times miss its wall time by {:.2}%",
            worst * 100.0
        ));
    }
}

/// Serve-only per-layer metrics, which the sweep workloads do not touch.
fn no_serve_layers(out: &mut Outcome) {
    for name in gasnub_perfbench::metrics::per_layer()
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| n.starts_with("serve."))
    {
        out.set(name, 0.0);
    }
}

/// `sweep-sim`: every (machine, op) surface of the seeded grid on the sim
/// tier, with the memo cleared before each sweep so every cell simulates.
pub fn sweep_sim(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let grid = seeded_grid(args.seed);
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut surfaces = Vec::new();
    for _ in 0..SIM_SETUP_REPS {
        let t = Instant::now();
        surfaces = resolve()?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let reference = Reference::committed()?;
    let (refs, payloads) = references(&surfaces, &grid, &reference, scratch)?;

    let spans = Spans::new();
    let sweeper = Sweeper {
        grid: &grid,
        scratch,
        refs: &refs,
    };
    let mut acc = Acc::default();
    measure_rounds(
        args,
        args.seconds,
        surfaces.len(),
        &spans,
        &mut acc,
        |i, spans, acc| {
            memo::clear();
            let s = &surfaces[i];
            sweeper.run(i, s, ProbeTier::Simulate, &s.spec, spans, acc)
        },
    )?;
    let mut tally = acc.tally.clone();
    if args.trace {
        let recorded = spans.take();
        check_ledger(&recorded, &mut tally);
        sweep_layers(&recorded, &acc, &mut out);
        layers::side_layers(&surfaces, &grid, &payloads, scratch, &mut tally, &mut out)?;
        no_serve_layers(&mut out);
        layers::write_spans(&recorded, args)?;
    } else {
        out.set("setup_s", median(&setup).unwrap_or(0.0));
        end_to_end(&acc, &mut out)?;
        out.set("paper_err_max_pct", layers::paper_err_max_pct(&surfaces)?);
        let models = layers::fresh_models(&surfaces, false)?;
        out.set(
            "residual_max_pct",
            layers::residual_max_pct(&surfaces, &models, &reference, &mut tally),
        );
    }
    out.tally = tally;
    Ok(out)
}

/// `sweep-warm`: after a set-up first pass, every surface twice per
/// round, each into a fresh checkpoint: on the sim tier (all memo hits)
/// and on the auto tier (trusted cells analytic, the rest memo hits).
pub fn sweep_warm(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let grid = seeded_grid(args.seed);
    let reference = Reference::committed()?;
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut refs = None;
    let mut acc = Acc::default();
    let spans = Spans::new();
    let mut last = None;
    // Each set-up is followed by a third of the measured rounds, so the
    // measurement spans the whole run: this host's file-system latency
    // drifts by 2-3x over tens of seconds, and one short window would
    // report the drift.
    for _ in 0..WARM_SETUP_REPS {
        memo::clear();
        let t = Instant::now();
        let surfaces = resolve()?;
        let tiered = (0..MACHINES.len())
            .map(|m| {
                let spec = layers::first_surface(&surfaces, m).spec.clone();
                TieredSpec::new(spec, ProbeTier::Auto).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let path = scratch.join("setup.json");
        let mut first = Vec::new();
        for (i, s) in surfaces.iter().enumerate() {
            first.push((
                i,
                ProbeTier::Simulate,
                sweep(&path, s, ProbeTier::Simulate, &grid, &s.spec, None)?,
            ));
        }
        for (i, s) in surfaces.iter().enumerate() {
            first.push((
                i,
                ProbeTier::Auto,
                sweep(&path, s, ProbeTier::Auto, &grid, &tiered[s.m], None)?,
            ));
        }
        setup.push(t.elapsed().as_secs_f64());

        let current = match refs.take() {
            Some(current) => current,
            None => {
                // The first set-up's auto payloads become the references
                // once checked cell by cell against the model and the
                // committed simulated values.
                let (mut refs, payloads) = references(&surfaces, &grid, &reference, scratch)?;
                let auto: Vec<&SweepRun> = first
                    .iter()
                    .filter(|f| f.1 == ProbeTier::Auto)
                    .map(|f| &f.2)
                    .collect();
                let models: Vec<_> = tiered.iter().map(|t| t.model().clone()).collect();
                check_auto(&surfaces, &grid, &models, &auto, &reference, &mut tally);
                for &(i, tier, ref run) in &first {
                    if tier == ProbeTier::Auto {
                        refs.insert((i, tier), run.payload.clone());
                    }
                }
                (refs, payloads)
            }
        };
        for (i, tier, run) in &first {
            if current.0.get(&(*i, *tier)) != Some(run.payload.as_str()) {
                tally.fail_check(format!(
                    "{}: first-pass payload differs from its reference",
                    surfaces[*i].title(*tier)
                ));
            }
        }
        let sweeper = Sweeper {
            grid: &grid,
            scratch,
            refs: &current.0,
        };
        let chunk = args.seconds / WARM_SETUP_REPS as f64;
        measure_rounds(
            args,
            chunk,
            surfaces.len(),
            &spans,
            &mut acc,
            |i, spans, acc| {
                let s = &surfaces[i];
                sweeper.run(i, s, ProbeTier::Simulate, &s.spec, spans, acc)?;
                sweeper.run(i, s, ProbeTier::Auto, &tiered[s.m], spans, acc)
            },
        )?;
        last = Some((surfaces, tiered));
        refs = Some(current);
    }
    let (surfaces, tiered) = last.expect("at least one set-up ran");
    let (_, payloads) = refs.expect("at least one set-up ran");
    tally.merge(acc.tally.clone());

    if args.trace {
        let recorded = spans.take();
        check_ledger(&recorded, &mut tally);
        sweep_layers(&recorded, &acc, &mut out);
        layers::side_layers(&surfaces, &grid, &payloads, scratch, &mut tally, &mut out)?;
        no_serve_layers(&mut out);
        layers::write_spans(&recorded, args)?;
    } else {
        out.set("setup_s", median(&setup).unwrap_or(0.0));
        end_to_end(&acc, &mut out)?;
        out.set("paper_err_max_pct", layers::paper_err_max_pct(&surfaces)?);
        let models: Vec<_> = tiered.iter().map(|t| t.model().clone()).collect();
        out.set(
            "residual_max_pct",
            layers::residual_max_pct(&surfaces, &models, &reference, &mut tally),
        );
    }
    out.tally = tally;
    Ok(out)
}

/// Checks the first auto-tier payload of every surface cell by cell: a
/// cell the model trusts carries the model's answer, within the spec's
/// calibration tolerance of simulation; every other cell carries the
/// simulated value bit for bit.
fn check_auto(
    surfaces: &[Surface],
    grid: &Grid,
    models: &[std::sync::Arc<gasnub_analytic::AnalyticModel>],
    auto: &[&SweepRun],
    reference: &Reference,
    tally: &mut Tally,
) {
    let sim = |i: usize, ws: u64, stride: u64| {
        reference.value(surfaces[i].machine, surfaces[i].op, ws, stride)
    };
    let predictions = layers::predict_all(surfaces, grid, models);
    layers::residual(surfaces, models, &predictions, sim, tally);
    for (i, ws, stride, p) in predictions.cells() {
        let got = auto[i].values.value(ws, stride).map(f64::to_bits);
        let want = match p {
            gasnub_analytic::Prediction::Trusted(m) => Some(m.mb_s.to_bits()),
            _ => sim(i, ws, stride).map(f64::to_bits),
        };
        if got != want {
            tally.fail_check(format!(
                "{} ws={ws} stride={stride}: auto-tier cell is neither the model's nor sim's answer",
                surfaces[i].title(ProbeTier::Auto)
            ));
        }
    }
}
