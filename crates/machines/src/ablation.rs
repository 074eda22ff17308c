//! The paper's ablations and machine variants, as edits of the built-in
//! specs.
//!
//! Each function loads a paper machine from its zoo file and changes the
//! parameters one mechanism depends on, so the variant differs from the
//! machine only where the paper says it does. The §5.1 contention factors
//! are the only machine numbers here; everything else comes from the file.

use crate::spec::{MachineSpec, SpecKind};

/// The §5.1 "all four processors accessing DRAM" contention factors, as
/// `(streamed, random)` DRAM cost multipliers: -8% contiguous, -25%
/// strided.
const DEC8400_CONTENTION: (f64, f64) = (1.10, 1.45);

/// The T3D with the external read-ahead logic disabled ("can be turned
/// on/off at program load time", §3.2).
pub fn t3d_without_read_ahead() -> MachineSpec {
    let mut spec = MachineSpec::t3d();
    if let SpecKind::Torus { node, .. } = spec.kind_mut() {
        node.hierarchy.dram_stream = None;
    }
    spec
}

/// The T3D with write-buffer coalescing disabled, locally and in the
/// deposit circuitry.
pub fn t3d_without_coalescing() -> MachineSpec {
    let mut spec = MachineSpec::t3d();
    if let SpecKind::Torus { node, remote, .. } = spec.kind_mut() {
        if let Some(wb) = &mut node.hierarchy.write_buffer {
            wb.coalesce = false;
        }
        remote.dest_write.coalesce = false;
    }
    spec
}

/// The footnote-1 T3D where both PEs of the node pair communicate at once:
/// the link payload rate and the shared NI's injection port are split
/// between the pair (≈ 70 MB/s each).
pub fn t3d_paired_traffic() -> MachineSpec {
    let mut spec = MachineSpec::t3d();
    if let SpecKind::Torus { remote, .. } = spec.kind_mut() {
        remote.link.cycles_per_byte *= 2.0;
        remote.ni.message.per_message_cycles *= 2.0;
        remote.ni.message.per_byte_cycles *= 2.0;
    }
    spec
}

/// The T3D with the prefetch FIFO unused: "remote loads can be performed
/// in a transparent blocking manner at minimal speed".
pub fn t3d_blocking_fetch() -> MachineSpec {
    let mut spec = MachineSpec::t3d();
    if let SpecKind::Torus { remote, .. } = spec.kind_mut() {
        remote.ni.prefetch_fifo_depth = 1;
    }
    spec
}

/// The footnote-3 T3E test vehicle with streaming support disabled
/// (measured ~120 MB/s contiguous from DRAM). Without stream buffers the
/// 21164 cannot overlap its misses either: each fill blocks for the full
/// access.
pub fn t3e_without_streams() -> MachineSpec {
    let mut spec = MachineSpec::t3e();
    if let SpecKind::Eregs { node, .. } = spec.kind_mut() {
        node.hierarchy.dram_stream = None;
        node.cpu.miss_overlap = 1.0;
    }
    spec
}

/// The §5.1 DEC 8400 where all four processors access DRAM at once:
/// streamed DRAM accesses cost 1.10x, random ones 1.45x.
pub fn dec8400_contended() -> MachineSpec {
    let mut spec = MachineSpec::dec8400();
    if let SpecKind::Smp { smp, .. } = spec.kind_mut() {
        let (stream, random) = DEC8400_CONTENTION;
        smp.node.hierarchy.dram_stream_contention = stream;
        smp.node.hierarchy.dram_contention = random;
    }
    spec
}

/// The DEC 8400 with `nodes` processors: the paper "repeated some
/// measurements on an eight processor system" (§2). Zero processors fail
/// at [`MachineSpec::build`].
pub fn dec8400_processors(nodes: usize) -> MachineSpec {
    let mut spec = MachineSpec::dec8400();
    if let SpecKind::Smp { smp, .. } = spec.kind_mut() {
        smp.nodes = nodes;
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant differs from its machine, so it memoizes and
    /// checkpoints under its own identity.
    #[test]
    fn variants_change_the_spec() {
        let t3d = MachineSpec::t3d();
        for variant in [
            t3d_without_read_ahead(),
            t3d_without_coalescing(),
            t3d_paired_traffic(),
            t3d_blocking_fetch(),
        ] {
            assert_ne!(variant.spec_hash(), t3d.spec_hash());
            assert_eq!(variant.label(), "t3d");
        }
        assert_ne!(
            t3e_without_streams().spec_hash(),
            MachineSpec::t3e().spec_hash()
        );
        let dec = MachineSpec::dec8400();
        assert_ne!(dec8400_contended().spec_hash(), dec.spec_hash());
        assert_ne!(dec8400_processors(8).spec_hash(), dec.spec_hash());
        assert_eq!(dec8400_processors(4), dec);
    }
}
