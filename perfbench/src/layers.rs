//! Layer measurements that need no workload traffic: accuracy against the
//! paper and the simulator, and micro-timings of one layer's public entry
//! points on the workload's own inputs.

use std::sync::Arc;
use std::time::Instant;

use gasnub_analytic::{AnalyticModel, Prediction};
use gasnub_core::storage::{read_verified, write_durable};
use gasnub_core::Grid;
use gasnub_machines::calibration::run_calibration;
use gasnub_machines::{memo, words_of, Machine, Measurement, SpawnEngine};
use gasnub_memsim::engine::MemoryEngine;
use gasnub_memsim::trace::StridedPass;
use gasnub_perfbench::check::{rel_err, Tally};
use gasnub_perfbench::grid::MACHINES;
use gasnub_perfbench::reference::Reference;
use gasnub_perfbench::scratch::{output_root, Scratch};
use gasnub_perfbench::spans::{write_tsv, Span};
use gasnub_perfbench::stats::median;

use crate::sweeps::Surface;
use crate::{Args, Outcome};

/// How far one sweep's or request's self times may miss its wall time.
pub const LEDGER_TOLERANCE: f64 = 0.03;

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The first surface of machine `m`.
pub fn first_surface(surfaces: &[Surface], m: usize) -> &Surface {
    surfaces
        .iter()
        .find(|s| s.m == m)
        .expect("every machine has surfaces")
}

/// One analytic model per machine, uncalibrated. With `clear_memo` the
/// probe memo is emptied first, so the first predictions time the anchor
/// simulations themselves.
pub fn fresh_models(
    surfaces: &[Surface],
    clear_memo: bool,
) -> Result<Vec<Arc<AnalyticModel>>, String> {
    if clear_memo {
        memo::clear();
    }
    (0..MACHINES.len())
        .map(|m| {
            AnalyticModel::new(&first_surface(surfaces, m).spec)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The analytic tier's answer for every cell of every surface.
#[derive(Debug)]
pub struct Predictions {
    cells: Vec<(usize, u64, u64, Prediction)>,
    /// Seconds of the first prediction pass per machine: the anchor
    /// calibration, when the models were fresh.
    pub anchor_s: [f64; 3],
    /// Mean µs per prediction once anchors are calibrated.
    pub predict_us: f64,
    /// Trusted cells divided by cells.
    pub trusted_ratio: f64,
}

impl Predictions {
    /// `(surface, ws, stride, prediction)` for every cell.
    pub fn cells(&self) -> impl Iterator<Item = (usize, u64, u64, &Prediction)> {
        self.cells
            .iter()
            .map(|(i, ws, stride, p)| (*i, *ws, *stride, p))
    }
}

/// Predicts every cell of `grid` on every surface with `models` (one per
/// machine), timing the first pass per machine and a second pass.
pub fn predict_all(
    surfaces: &[Surface],
    grid: &Grid,
    models: &[Arc<AnalyticModel>],
) -> Predictions {
    let cells: Vec<(u64, u64)> = (0..grid.cells()).map(|i| grid.cell(i)).collect();
    let predict = |i: usize, ws: u64, stride: u64| {
        let s = &surfaces[i];
        let req = s.op.request(ws, stride);
        models[s.m].predict(req.op, ws, req.stride, req.stride2, s.spec.limits())
    };
    let mut anchor_s = [0.0; 3];
    for (m, secs) in anchor_s.iter_mut().enumerate() {
        let t = Instant::now();
        for i in (0..surfaces.len()).filter(|&i| surfaces[i].m == m) {
            for &(ws, stride) in &cells {
                std::hint::black_box(predict(i, ws, stride));
            }
        }
        *secs = t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let mut out = Vec::new();
    for i in 0..surfaces.len() {
        for &(ws, stride) in &cells {
            out.push((i, ws, stride, predict(i, ws, stride)));
        }
    }
    let predict_us = t.elapsed().as_secs_f64() * 1e6 / out.len().max(1) as f64;
    let trusted = out
        .iter()
        .filter(|c| matches!(c.3, Prediction::Trusted(_)))
        .count();
    Predictions {
        trusted_ratio: trusted as f64 / out.len().max(1) as f64,
        cells: out,
        anchor_s,
        predict_us,
    }
}

/// Compares every trusted prediction with `sim`, the simulated value of
/// cell `(surface, ws, stride)`, which is only asked for trusted cells.
/// Returns the largest |analytic − sim| / sim in percent; a cell outside
/// its spec's calibration tolerance is a failed check.
pub fn residual(
    surfaces: &[Surface],
    models: &[Arc<AnalyticModel>],
    predictions: &Predictions,
    mut sim: impl FnMut(usize, u64, u64) -> Option<f64>,
    tally: &mut Tally,
) -> f64 {
    let mut worst = 0.0f64;
    for &(i, ws, stride, ref p) in &predictions.cells {
        let s = &surfaces[i];
        let title = || s.title(gasnub_machines::ProbeTier::Auto);
        match p {
            Prediction::Trusted(m) => {
                let Some(v) = sim(i, ws, stride) else {
                    tally.fail_check(format!(
                        "{} ws={ws} stride={stride}: analytic answers an op sim does not support",
                        title()
                    ));
                    continue;
                };
                let err = rel_err(m.mb_s, v);
                worst = worst.max(err * 100.0);
                let tolerance = models[s.m].tolerance();
                if err > tolerance {
                    tally.fail_check(format!(
                        "{} ws={ws} stride={stride}: analytic {:.1} vs sim {v:.1} MB/s exceeds ±{:.0}%",
                        title(),
                        m.mb_s,
                        tolerance * 100.0
                    ));
                }
            }
            Prediction::Unsupported => tally.fail_check(format!(
                "{} ws={ws} stride={stride}: the analytic tier calls a swept op unsupported",
                title()
            )),
            Prediction::Untrusted => {}
        }
    }
    worst
}

/// `residual_max_pct`: the residual of the analytic tier on
/// [`Grid::quick`], whatever the seed, so the figure moves with the code
/// and not with the seeded grid. Simulated values come from the committed
/// reference.
pub fn residual_max_pct(
    surfaces: &[Surface],
    models: &[Arc<AnalyticModel>],
    reference: &Reference,
    tally: &mut Tally,
) -> f64 {
    let predictions = predict_all(surfaces, &Grid::quick(), models);
    residual(
        surfaces,
        models,
        &predictions,
        |i, ws, stride| reference.value(surfaces[i].machine, surfaces[i].op, ws, stride),
        tally,
    )
}

/// The largest relative deviation from the paper's calibration table, in
/// percent, at the sweep's measurement caps.
pub fn paper_err_max_pct(surfaces: &[Surface]) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for m in 0..MACHINES.len() {
        let mut engine = first_surface(surfaces, m)
            .spec
            .spawn_engine()
            .map_err(|e| e.to_string())?;
        for (point, measured) in run_calibration(&mut engine) {
            worst = worst.max(rel_err(measured, point.paper_mb_s) * 100.0);
        }
    }
    Ok(worst)
}

/// Times `MemoryEngine::prime_trace` and `run_trace` on machine `m`'s node
/// with the local-load passes of every grid cell, and checks that the
/// bandwidth they give equals the probe's answer for the same cell.
fn memsim_layers(
    surface: &Surface,
    grid: &Grid,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = &surface.spec;
    let limits = spec.limits();
    let (mut prime_ns, mut prime_n, mut measure_ns, mut measure_n) = (0.0, 0u64, 0.0, 0u64);
    let mut probe = spec.spawn_engine().map_err(|e| e.to_string())?;
    for i in 0..grid.cells() {
        let (ws, stride) = grid.cell(i);
        let words = words_of(ws);
        let mut engine =
            MemoryEngine::try_new(spec.node_config().clone()).map_err(|e| e.to_string())?;
        let prime_words = limits.prime_words(words);
        let prime = StridedPass::new(0, words, stride).take(prime_words as usize);
        let measure = StridedPass::new(0, words, stride).take(limits.measure_words(words) as usize);
        let t0 = Instant::now();
        engine.prime_trace(prime);
        let t1 = Instant::now();
        let stats = engine.run_trace(measure);
        let t2 = Instant::now();
        prime_ns += t1.duration_since(t0).as_nanos() as f64;
        measure_ns += t2.duration_since(t1).as_nanos() as f64;
        prime_n += prime_words;
        measure_n += stats.accesses;
        let traced = Measurement::new(stats.bytes, stats.cycles, spec.clock_mhz()).mb_s;
        let probed = probe.local_load(ws, stride).mb_s;
        if traced.to_bits() != probed.to_bits() {
            tally.fail_check(format!(
                "{} ws={ws} stride={stride}: memsim passes give {traced} MB/s, the probe {probed}",
                surface.machine
            ));
        }
    }
    let m = surface.machine;
    out.set(
        format!("memsim.prime_ns_per_access.{m}"),
        prime_ns / prime_n.max(1) as f64,
    );
    out.set(
        format!("memsim.measure_ns_per_access.{m}"),
        measure_ns / measure_n.max(1) as f64,
    );
    out.set(
        format!("memsim.prime_share.{m}"),
        prime_ns / (prime_ns + measure_ns),
    );
    Ok(())
}

/// Median µs of one engine spawn.
fn spawn_us(surface: &Surface) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        let engine = surface.spec.spawn_engine().map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        drop(std::hint::black_box(engine));
    }
    Ok(median(&samples).unwrap_or(0.0))
}

/// Median µs of a memo-hit probe: each grid cell of `surface` is probed
/// once to fill the memo, then timed over five passes.
fn memo_hit_us(surface: &Surface, grid: &Grid, tally: &mut Tally) -> Result<f64, String> {
    let mut engine = surface.spec.spawn_engine().map_err(|e| e.to_string())?;
    let cells: Vec<(u64, u64)> = (0..grid.cells()).map(|i| grid.cell(i)).collect();
    for &(ws, stride) in &cells {
        surface.op.measure(&mut engine, ws, stride);
    }
    let mut passes = Vec::new();
    for _ in 0..5 {
        let hits = memo::stats().0;
        let t = Instant::now();
        for &(ws, stride) in &cells {
            std::hint::black_box(surface.op.measure(&mut engine, ws, stride));
        }
        passes.push(t.elapsed().as_secs_f64() * 1e6 / cells.len() as f64);
        if memo::stats().0 - hits != cells.len() as u64 {
            tally.fail_check(format!(
                "{}: repeated probes missed the memo",
                surface.title(gasnub_machines::ProbeTier::Simulate)
            ));
        }
    }
    Ok(median(&passes).unwrap_or(0.0))
}

/// Median µs of a checkpoint write (without and with fsync) and of a
/// verified read, over the workload's own payloads.
pub fn storage_layers(
    payloads: &[String],
    scratch: &Scratch,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<(), String> {
    let path = scratch.join("storage.json");
    let (mut write, mut fsync, mut read) = (Vec::new(), Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..3 {
        for payload in payloads {
            let t = Instant::now();
            write_durable(&path, payload, false).map_err(|e| e.to_string())?;
            write.push(us(t));
            let t = Instant::now();
            write_durable(&path, payload, true).map_err(|e| e.to_string())?;
            fsync.push(us(t));
            let t = Instant::now();
            let back = read_verified(&path).map_err(|e| e.to_string())?;
            read.push(us(t));
            if back.as_deref() != Some(payload.as_str()) {
                tally.fail_check("a checkpoint read back differs from what was written");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    out.set("core.storage.write_us", median(&write).unwrap_or(0.0));
    out.set("core.storage.write_fsync_us", median(&fsync).unwrap_or(0.0));
    out.set("core.storage.read_us", median(&read).unwrap_or(0.0));
    Ok(())
}

/// The per-layer metrics measured beside the workload on its seeded grid:
/// memsim passes, engine spawns, memo hits, checkpoint storage on
/// `payloads`, and analytic anchors and predictions.
pub fn side_layers(
    surfaces: &[Surface],
    grid: &Grid,
    payloads: &[String],
    scratch: &Scratch,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<(), String> {
    for (m, machine) in MACHINES.iter().enumerate() {
        let surface = first_surface(surfaces, m);
        memsim_layers(surface, grid, tally, out)?;
        out.set(format!("machines.spawn_us.{machine}"), spawn_us(surface)?);
    }
    out.set(
        "machines.memo.hit_us",
        memo_hit_us(first_surface(surfaces, 0), grid, tally)?,
    );
    storage_layers(payloads, scratch, tally, out)?;
    // Last: fresh models on an emptied memo, so the first pass times the
    // anchor simulations.
    let predictions = predict_all(surfaces, grid, &fresh_models(surfaces, true)?);
    for (m, machine) in MACHINES.iter().enumerate() {
        out.set(
            format!("analytic.anchor_s.{machine}"),
            predictions.anchor_s[m],
        );
    }
    out.set("analytic.predict_us", predictions.predict_us);
    out.set("analytic.trusted_ratio", predictions.trusted_ratio);
    Ok(())
}

/// Writes the run's spans next to the scratch directories.
pub fn write_spans(spans: &[Span], args: &Args) -> Result<(), String> {
    let dir = output_root();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload(), args.seed));
    write_tsv(spans, &path).map_err(|e| format!("{}: {e}", path.display()))
}
