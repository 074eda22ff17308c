//! The repository benchmark's testable pieces: percentiles, the seeded
//! grid, the span recorder, the serve request mix, payload checks, the
//! committed reference values and per-run scratch directories.
//!
//! The workloads themselves live in the `perfbench` binary; see
//! `perfbench/README.md` for what each one measures and why.

pub mod check;
pub mod grid;
pub mod metrics;
pub mod mix;
pub mod reference;
pub mod scratch;
pub mod spans;
pub mod stats;
