//! Full memory-system characterization of one machine: every surface the
//! paper draws for it, rendered as terminal tables.
//!
//! ```text
//! cargo run --release --example characterize -- t3e
//! cargo run --release --example characterize -- dec8400 --full
//! ```

use gasnub::core::profile::MachineProfile;
use gasnub::core::sweep::Grid;
use gasnub::machines::{Machine, MachineSpec, MeasureLimits};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("t3d");
    let full = args.iter().any(|a| a == "--full");

    let spec = match which {
        "dec8400" => MachineSpec::dec8400(),
        "t3d" => MachineSpec::t3d(),
        "t3e" => MachineSpec::t3e(),
        other => {
            eprintln!("unknown machine {other:?}; use dec8400 | t3d | t3e");
            std::process::exit(2);
        }
    };
    let mut machine = spec.build().expect("built-in specs build");

    let (local_grid, remote_grid) = if full {
        machine.set_limits(MeasureLimits::new());
        (Grid::paper_local(), Grid::paper_remote())
    } else {
        machine.set_limits(MeasureLimits::fast());
        (
            Grid {
                strides: vec![1, 2, 4, 8, 16, 64],
                working_sets: Grid::paper_working_sets(16 << 20),
            },
            Grid {
                strides: vec![1, 2, 4, 8, 16, 64],
                working_sets: Grid::paper_working_sets(8 << 20),
            },
        )
    };

    eprintln!(
        "characterizing {} ({} cells per surface) …",
        machine.name(),
        local_grid.cells()
    );
    let profile = MachineProfile::measure(&mut machine, &local_grid, &remote_grid);
    println!("{}", profile.report());
}
