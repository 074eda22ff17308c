//! The seeded sweep grid and the surfaces the sweep workloads request.

use gasnub_core::{Grid, SweepOp};
use gasnub_memsim::rng::Rng;

/// The seed whose grid is [`Grid::quick`], so figures stay comparable
/// with the earlier `BENCH_*.json` snapshots.
pub const DEFAULT_SEED: u64 = 0;

/// The seed kept out of tuning, for confirming claims.
pub const HELD_OUT_SEED: u64 = 1997;

/// The paper's three machines, in the order every workload visits them.
pub const MACHINES: [&str; 3] = ["dec8400", "t3d", "t3e"];

/// The operations a user sweeps on `machine`: load, store, strided-load
/// copy, and the machine's own remote operation (the 8400's coherent
/// pull, the T3D's deposit, the T3E's E-register fetch).
pub fn ops_for(machine: &str) -> [SweepOp; 4] {
    let remote = match machine {
        "dec8400" => SweepOp::RemoteLoad,
        "t3d" => SweepOp::RemoteDeposit,
        _ => SweepOp::RemoteFetch,
    };
    [
        SweepOp::LocalLoad,
        SweepOp::LocalStore,
        SweepOp::CopyStridedLoads,
        remote,
    ]
}

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;

/// The stride classes a seeded grid draws one stride from each of (after
/// stride 1). Members of a class cost the simulator within a few percent
/// of each other, measured over every surface at the quick grid's working
/// sets.
const STRIDE_CLASSES: [&[u64]; 4] = [&[2, 3], &[8, 12], &[16, 31, 32], &[63, 64, 128, 192]];

/// The working-set bands a seeded grid draws one set from each of: one
/// resident in every machine's L1, one in the 8400/T3E L2, one in the
/// 8400 L3 (memory elsewhere).
const WS_BANDS: [&[u64]; 3] = [
    &[512, KB, 2 * KB, 4 * KB],
    &[16 * KB, 32 * KB, 64 * KB],
    &[256 * KB, 512 * KB],
];

/// The working sets every grid ends with: they carry almost all of the
/// simulation cost.
const FIXED_WS: [u64; 2] = [4 * MB, 8 * MB];

/// The grid of `seed`: stride 1 plus one stride from each stride class,
/// and one working set from each band, then 4 MB and 8 MB. The seed
/// changes the inputs but not the amount of simulation, which would
/// otherwise make `cells_per_s` measure the seed instead of the code.
pub fn seeded_grid(seed: u64) -> Grid {
    if seed == DEFAULT_SEED {
        return Grid::quick();
    }
    let mut rng = Rng::new(seed).fork(0x6752_4944);
    let mut pick = |pool: &[u64]| pool[rng.gen_range(0, pool.len() as u64) as usize];
    let mut strides = vec![1];
    strides.extend(STRIDE_CLASSES.map(&mut pick));
    let mut working_sets: Vec<u64> = WS_BANDS.map(&mut pick).to_vec();
    working_sets.extend(FIXED_WS);
    Grid {
        strides,
        working_sets,
    }
}

/// Every cell any seed can draw (the quick grid included): the grid of
/// the committed reference values.
pub fn reference_grid() -> Grid {
    let mut strides = vec![1];
    strides.extend(STRIDE_CLASSES.iter().flat_map(|c| c.iter().copied()));
    let mut working_sets: Vec<u64> = WS_BANDS.iter().flat_map(|b| b.iter().copied()).collect();
    working_sets.extend(FIXED_WS);
    Grid {
        strides,
        working_sets,
    }
}
