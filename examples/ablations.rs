//! Runs the ablation suite: each hardware mechanism the paper credits,
//! switched off, with the bandwidth it was worth.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use gasnub::machines::{ablation, Machine, MachineSpec, MeasureLimits, TransferEngine};

fn build(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(MeasureLimits::fast())
        .build()
        .expect("built-in specs build")
}

fn main() {
    let ws = 8 << 20;

    println!(
        "{:<44}{:>10}{:>10}{:>9}",
        "mechanism", "with", "without", "worth"
    );

    let row = |name: &str, with: f64, without: f64| {
        println!(
            "{:<44}{:>10.0}{:>10.0}{:>8.2}x",
            name,
            with,
            without,
            with / without
        );
    };

    {
        let mut a = build(MachineSpec::t3e());
        let mut b = build(ablation::t3e_without_streams());
        row(
            "T3E stream buffers (contiguous DRAM loads)",
            a.local_load(ws, 1).mb_s,
            b.local_load(ws, 1).mb_s,
        );
    }
    {
        let mut a = build(MachineSpec::t3d());
        let mut b = build(ablation::t3d_without_read_ahead());
        row(
            "T3D read-ahead logic (contiguous DRAM loads)",
            a.local_load(ws, 1).mb_s,
            b.local_load(ws, 1).mb_s,
        );
    }
    {
        let mut a = build(MachineSpec::t3d());
        let mut b = build(ablation::t3d_without_coalescing());
        row(
            "T3D WBQ coalescing (contiguous deposits)",
            a.remote_deposit(ws, 1).unwrap().mb_s,
            b.remote_deposit(ws, 1).unwrap().mb_s,
        );
    }
    {
        let mut a = build(MachineSpec::t3d());
        let mut b = build(ablation::t3d_blocking_fetch());
        row(
            "T3D prefetch FIFO (contiguous fetches)",
            a.remote_fetch(ws, 1).unwrap().mb_s,
            b.remote_fetch(ws, 1).unwrap().mb_s,
        );
    }
    {
        let mut a = build(MachineSpec::dec8400());
        row(
            "8400 L3 blocking (strided pulls, 2 MB vs 32 MB)",
            a.remote_load(2 << 20, 16).unwrap().mb_s,
            a.remote_load(32 << 20, 16).unwrap().mb_s,
        );
    }
}
