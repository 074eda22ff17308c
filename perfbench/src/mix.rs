//! The seeded request mix of the `serve-mixed` workload.
//!
//! Each client draws connections of 1–8 keep-alive requests. About 60% of
//! requests are `/v1/probe` calls on a small key space (memo hits after
//! the first pass), about 25% are `/v1/sweep` calls on a fixed set of
//! small shared grids (memory, disk or coalesced hits after the first),
//! and about 15% are sweeps of a grid no other request asks for (always
//! computed). The same seed and client give the same stream.

use gasnub_core::{Grid, SweepOp};
use gasnub_memsim::rng::Rng;

use crate::grid::{ops_for, MACHINES};

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One cell through `/v1/probe`.
    Probe,
    /// A surface of one of the shared grids.
    SharedSweep,
    /// A surface of a grid unique to this request.
    UniqueSweep,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What it asks for.
    pub kind: Kind,
    /// The machine label.
    pub machine: &'static str,
    /// The operation.
    pub op: SweepOp,
    /// The grid: a single cell for probes.
    pub grid: Grid,
    /// The JSON body sent.
    pub body: String,
}

impl Request {
    /// The endpoint.
    pub fn path(&self) -> &'static str {
        match self.kind {
            Kind::Probe => "/v1/probe",
            Kind::SharedSweep | Kind::UniqueSweep => "/v1/sweep",
        }
    }

    /// Grid cells the answer covers.
    pub fn cells(&self) -> u64 {
        self.grid.cells() as u64
    }

    fn probe(machine: &'static str, op: SweepOp, ws: u64, stride: u64) -> Self {
        Request {
            kind: Kind::Probe,
            machine,
            op,
            grid: Grid {
                strides: vec![stride],
                working_sets: vec![ws],
            },
            body: format!(
                r#"{{"machine":"{machine}","op":"{}","stride":{stride},"ws_bytes":{ws}}}"#,
                op.label()
            ),
        }
    }

    fn sweep(kind: Kind, machine: &'static str, op: SweepOp, grid: Grid) -> Self {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let body = format!(
            r#"{{"grid":{{"strides":[{}],"working_sets":[{}]}},"machine":"{machine}","op":"{}"}}"#,
            list(&grid.strides),
            list(&grid.working_sets),
            op.label()
        );
        Request {
            kind,
            machine,
            op,
            grid,
            body,
        }
    }
}

/// The shared grids: small enough that a first computation takes
/// milliseconds.
fn shared_grids() -> [Grid; 4] {
    let g = |strides: &[u64], working_sets: &[u64]| Grid {
        strides: strides.to_vec(),
        working_sets: working_sets.to_vec(),
    };
    [
        g(&[1, 8], &[2048, 32768]),
        g(&[1, 2, 64], &[2048, 32768]),
        g(&[1, 4, 16], &[4096, 65536]),
        g(&[1, 3, 32], &[8192, 16384]),
    ]
}

/// Every shared sweep request: 4 grids × 3 machines × 4 operations.
pub fn shared_sweeps() -> Vec<Request> {
    let mut out = Vec::new();
    for grid in shared_grids() {
        for machine in MACHINES {
            for op in ops_for(machine) {
                out.push(Request::sweep(Kind::SharedSweep, machine, op, grid.clone()));
            }
        }
    }
    out
}

/// The shared sweeps an earlier server instance computes during set-up
/// (two thirds of them, chosen by `seed`): their first request in the
/// measured run is served from disk.
pub fn precomputed(seed: u64) -> Vec<Request> {
    let mut all = shared_sweeps();
    Rng::new(seed).fork(0x5052_4543).shuffle(&mut all);
    all.truncate(all.len() * 2 / 3);
    all
}

/// Distinct largest working sets of unique grids: 64 KB plus 8 bytes per
/// slot keeps every one under 130 KB, so a computed sweep takes
/// milliseconds, not seconds.
const UNIQUE_WS_SLOTS: u64 = 8192;

/// One client's request stream.
#[derive(Debug)]
pub struct Client {
    rng: Rng,
    client: u64,
    clients: u64,
    unique: u64,
    shared: Vec<Request>,
}

impl Client {
    /// The stream of client `client` out of `clients` under `seed`.
    pub fn new(seed: u64, client: u64, clients: u64) -> Self {
        Client {
            rng: Rng::new(seed).fork(0x4d49_5800 + client),
            client,
            clients,
            unique: 0,
            shared: shared_sweeps(),
        }
    }

    /// The requests of the next keep-alive connection (1 to 8).
    pub fn next_connection(&mut self) -> Vec<Request> {
        let n = self.rng.gen_range(1, 9);
        (0..n).map(|_| self.next_request()).collect()
    }

    fn next_request(&mut self) -> Request {
        let draw = self.rng.gen_range(0, 100);
        if draw < 60 {
            let machine = MACHINES[self.rng.gen_range(0, 3) as usize];
            let op = if self.rng.gen_bool(0.5) {
                SweepOp::LocalLoad
            } else {
                SweepOp::LocalStore
            };
            let ws = 2048u64 << self.rng.gen_range(0, 5);
            let stride = 1u64 << self.rng.gen_range(0, 4);
            Request::probe(machine, op, ws, stride)
        } else if draw < 85 {
            let i = self.rng.gen_range(0, self.shared.len() as u64) as usize;
            self.shared[i].clone()
        } else {
            let machine = MACHINES[self.rng.gen_range(0, 3) as usize];
            let op = if self.rng.gen_bool(0.5) {
                SweepOp::LocalLoad
            } else {
                SweepOp::LocalStore
            };
            // Interleaving the clients' counters makes every unique grid's
            // largest working set distinct across the whole run.
            let k = (self.unique * self.clients + self.client) % UNIQUE_WS_SLOTS;
            self.unique += 1;
            let grid = Grid {
                strides: vec![1, 2 + self.rng.gen_range(0, 62)],
                working_sets: vec![2048, 65536 + 8 * k],
            };
            Request::sweep(Kind::UniqueSweep, machine, op, grid)
        }
    }
}
