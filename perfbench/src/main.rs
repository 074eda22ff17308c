//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep-sim|sweep-warm|serve-mixed|all> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --write-reference
//! ```
//!
//! Each workload runs in a process of its own (`all` starts one child per
//! workload), so the process-global probe memo and the cold-path flag
//! cannot leak between workloads and the peak resident memory belongs to
//! one workload. An untraced run prints the end-to-end metrics; a traced
//! run prints the per-layer metrics from spans recorded around calls into
//! each layer. Every run checks the answers it got; the last line of
//! standard output is one JSON object with the verdict and the metrics.
//! The exit code is 0 only when every check passed.

mod layers;
mod serve;
mod sweeps;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use gasnub_perfbench::check::Tally;
use gasnub_perfbench::grid::DEFAULT_SEED;
use gasnub_perfbench::metrics::{per_layer, END_TO_END};
use gasnub_perfbench::scratch::{output_root, Scratch};

const WORKLOADS: [&str; 3] = ["sweep-sim", "sweep-warm", "serve-mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    /// The input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What a workload run produced: the work tally (output checks included)
/// and its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed units of work.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result (sample counts,
    /// notes).
    pub notes: Vec<String>,
}

impl Args {
    /// The workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let root = output_root();
    let scratch =
        Scratch::new(&root, &format!("{}-seed{}", args.workload, args.seed)).map_err(|e| {
            format!(
                "cannot create scratch directory under {}: {e}",
                root.display()
            )
        })?;
    match args.workload.as_str() {
        "sweep-sim" => sweeps::sweep_sim(args, &scratch),
        "sweep-warm" => sweeps::sweep_warm(args, &scratch),
        _ => serve::serve_mixed(args, &scratch),
    }
}

/// Renders a metric value with all its digits (JSON has no NaN or
/// infinity; those are refused before this point).
fn number(value: f64) -> String {
    format!("{value}")
}

/// Prints the notes, the metric table and the result line; returns
/// whether the run is correct.
fn emit(args: &Args, mut outcome: Outcome) -> bool {
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, _) in &expected {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => outcome
                .tally
                .fail_check(format!("metric {name} is not finite ({v})")),
            None => outcome
                .tally
                .fail_check(format!("metric {name} was not measured")),
        }
    }
    for line in &outcome.notes {
        println!("# {line}");
    }
    for e in &outcome.tally.errors {
        println!("# FAILED: {e}");
    }
    println!(
        "# {} seed={} trace={} attempted={} failed={} failed_ratio={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.failed_ratio()
    );
    let mut fields = Vec::new();
    for (name, unit) in &expected {
        let value = outcome
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("{name:<36} {:>16.4} {unit}", value);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    let correct = outcome.tally.failed == 0 && outcome.tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        fields.join(", ")
    );
    correct
}

/// Runs every workload in a child process of its own and relays their
/// output.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        println!("## {workload}");
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        print!("{}", String::from_utf8_lossy(&out.stdout));
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

/// Where `--write-reference` puts the table, relative to the checkout.
const REFERENCE_PATH: &str = "perfbench/reference/cold-cells.tsv";

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--write-reference") {
        let written = Scratch::new(&output_root(), "write-reference")
            .map_err(|e| e.to_string())
            .and_then(|scratch| sweeps::write_reference(Path::new(REFERENCE_PATH), &scratch));
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: --write-reference: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run_workload(&args) {
        Ok(outcome) => {
            if emit(&args, outcome) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}
