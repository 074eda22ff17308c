//! The probe vocabulary: operations, tiers, requests and paths.
//!
//! A [`ProbeRequest`] names the operation, the grid cell and the
//! measurement caps of one probe; [`dispatch`] is the one place that maps
//! a request onto a [`Machine`]'s per-op methods. [`ProbeTier`] is the
//! execution tier a caller asks for (`--tier`), and [`ProbePath`] records
//! which path answered (the analytic crate's tiered machine reports it
//! through its `last_path`).

use crate::limits::MeasureLimits;
use crate::machine::{Machine, Measurement};

/// Which probe a request runs. Also the operation half of every memo key
/// (see [`crate::memo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOp {
    /// [`Machine::local_load`] — strided Load-Sum.
    LocalLoad,
    /// [`Machine::local_store`] — strided Store-Constant.
    LocalStore,
    /// [`Machine::local_copy`] — copy with a load and a store stride.
    LocalCopy,
    /// [`Machine::local_gather`] — indexed loads over a permutation.
    LocalGather,
    /// [`Machine::remote_load`] — pure remote loads (the 8400's pull).
    RemoteLoad,
    /// [`Machine::remote_fetch`] — strided remote loads, contiguous local
    /// stores.
    RemoteFetch,
    /// [`Machine::remote_deposit`] — contiguous local loads, strided remote
    /// stores.
    RemoteDeposit,
}

impl ProbeOp {
    /// Short ASCII label ("local_load", "remote_fetch", ...), matching the
    /// `probe.*` event names of the trace layer.
    pub fn label(self) -> &'static str {
        match self {
            ProbeOp::LocalLoad => "local_load",
            ProbeOp::LocalStore => "local_store",
            ProbeOp::LocalCopy => "local_copy",
            ProbeOp::LocalGather => "local_gather",
            ProbeOp::RemoteLoad => "remote_load",
            ProbeOp::RemoteFetch => "remote_fetch",
            ProbeOp::RemoteDeposit => "remote_deposit",
        }
    }

    /// Whether this operation crosses the machine's remote path.
    pub fn is_remote(self) -> bool {
        matches!(
            self,
            ProbeOp::RemoteLoad | ProbeOp::RemoteFetch | ProbeOp::RemoteDeposit
        )
    }
}

/// Which execution tier a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeTier {
    /// Analytic answer where the model is trusted for the cell, full
    /// simulation everywhere else (fault plans, recorders, boundary cells).
    Auto,
    /// Force the analytic model, trusted or not (model validation).
    Analytic,
    /// Force the full cycle-accounting simulation (the historical default).
    #[default]
    Simulate,
}

impl ProbeTier {
    /// Parses the CLI spelling (`auto` / `analytic` / `sim`).
    pub fn parse(label: &str) -> Option<ProbeTier> {
        match label {
            "auto" => Some(ProbeTier::Auto),
            "analytic" => Some(ProbeTier::Analytic),
            "sim" => Some(ProbeTier::Simulate),
            _ => None,
        }
    }

    /// The CLI spelling of this tier.
    pub fn label(self) -> &'static str {
        match self {
            ProbeTier::Auto => "auto",
            ProbeTier::Analytic => "analytic",
            ProbeTier::Simulate => "sim",
        }
    }
}

/// One probe, fully described: the operation, the grid cell and the
/// measurement caps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRequest {
    /// The operation to measure.
    pub op: ProbeOp,
    /// Working set in bytes.
    pub ws_bytes: u64,
    /// Primary stride in 64-bit words (load stride for copies; ignored by
    /// gathers).
    pub stride: u64,
    /// Secondary stride (store stride for [`ProbeOp::LocalCopy`]; 0
    /// elsewhere).
    pub stride2: u64,
    /// Measurement caps to install before probing; `None` keeps the
    /// machine's current caps.
    pub limits: Option<MeasureLimits>,
}

impl ProbeRequest {
    /// A request for `op` at `(ws_bytes, stride)` with the machine's
    /// current caps.
    pub fn new(op: ProbeOp, ws_bytes: u64, stride: u64) -> Self {
        ProbeRequest {
            op,
            ws_bytes,
            stride,
            stride2: if op == ProbeOp::LocalCopy { 1 } else { 0 },
            limits: None,
        }
    }

    /// Sets the secondary (store) stride of a copy.
    #[must_use]
    pub fn with_stride2(mut self, stride2: u64) -> Self {
        self.stride2 = stride2;
        self
    }

    /// Sets the measurement caps to install before probing.
    #[must_use]
    pub fn with_limits(mut self, limits: MeasureLimits) -> Self {
        self.limits = Some(limits);
        self
    }
}

/// Which path answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbePath {
    /// The closed-form analytic model.
    Analytic,
    /// The cycle-accounting simulator (directly or via the memo).
    Simulated,
}

/// Maps a request onto a [`Machine`]'s per-op probe methods — the single
/// place the request/SPI translation lives. Installs the request's
/// measurement caps first (when it carries any). `None` when the machine
/// does not support the operation (deterministic — support depends on the
/// machine and the op, never on the cell).
pub fn dispatch<M: Machine + ?Sized>(machine: &mut M, req: &ProbeRequest) -> Option<Measurement> {
    if let Some(limits) = req.limits {
        if machine.limits() != limits {
            machine.set_limits(limits);
        }
    }
    match req.op {
        ProbeOp::LocalLoad => Some(machine.local_load(req.ws_bytes, req.stride)),
        ProbeOp::LocalStore => Some(machine.local_store(req.ws_bytes, req.stride)),
        ProbeOp::LocalCopy => {
            Some(machine.local_copy(req.ws_bytes, req.stride, req.stride2.max(1)))
        }
        ProbeOp::LocalGather => Some(machine.local_gather(req.ws_bytes)),
        ProbeOp::RemoteLoad => machine.remote_load(req.ws_bytes, req.stride),
        ProbeOp::RemoteFetch => machine.remote_fetch(req.ws_bytes, req.stride),
        ProbeOp::RemoteDeposit => machine.remote_deposit(req.ws_bytes, req.stride),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MachineSpec, SpawnEngine};

    #[test]
    fn tier_labels_round_trip() {
        for tier in [ProbeTier::Auto, ProbeTier::Analytic, ProbeTier::Simulate] {
            assert_eq!(ProbeTier::parse(tier.label()), Some(tier));
        }
        assert_eq!(ProbeTier::parse("warp"), None);
        assert_eq!(ProbeTier::default(), ProbeTier::Simulate);
    }

    #[test]
    fn dispatch_matches_direct_probe_calls() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let mut a = spec.spawn_engine().unwrap();
        let mut b = spec.spawn_engine().unwrap();
        let req = ProbeRequest::new(ProbeOp::LocalLoad, 64 << 10, 8);
        let via_request = dispatch(&mut a, &req);
        let direct = b.local_load(64 << 10, 8);
        assert_eq!(
            via_request.unwrap().cycles.to_bits(),
            direct.cycles.to_bits()
        );
    }

    #[test]
    fn dispatch_applies_request_limits() {
        let spec = MachineSpec::t3e();
        let mut engine = spec.spawn_engine().unwrap();
        let req =
            ProbeRequest::new(ProbeOp::LocalStore, 32 << 10, 2).with_limits(MeasureLimits::fast());
        let _ = dispatch(&mut engine, &req);
        assert_eq!(engine.limits(), MeasureLimits::fast());
    }

    #[test]
    fn copy_requests_carry_both_strides() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let mut via = spec.spawn_engine().unwrap();
        let mut direct = spec.spawn_engine().unwrap();
        let req = ProbeRequest::new(ProbeOp::LocalCopy, 1 << 20, 1).with_stride2(16);
        let a = dispatch(&mut via, &req).unwrap();
        let b = direct.local_copy(1 << 20, 1, 16);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    }
}
