//! Immutable machine specifications and the engine-spawning factory.
//!
//! A [`MachineSpec`] is the *description* of a machine: clock and hierarchy
//! parameters, NI/topology configuration, and any fault plan already folded
//! in. It owns no mutable simulation state, is `Clone + Send + Sync`, and
//! can be shared freely across threads. [`MachineSpec::build`] turns it
//! into a fresh [`TransferEngine`] — the cheap per-run object that owns all
//! mutable state. The [`SpawnEngine`] trait abstracts that factory step so
//! the sweep layer (`gasnub-core`) can hand every grid cell its own engine.
//!
//! Machine *identity* is data, not code: a spec is defined by a spec file
//! (see [`crate::specfile`] for the dialect), and the paper machines
//! ([`MachineSpec::dec8400`], [`MachineSpec::t3d`], [`MachineSpec::t3e`])
//! are embedded zoo files parsed through the same loader. The file is the
//! only place a machine's parameters are written down; the paper's
//! ablations ([`crate::ablation`]) start from the loaded spec and edit it.
//! The [`MachineId`] enum survives only as a *model-family tag* — a
//! handful of consumers (shmem call overheads, FFT scalability models,
//! figure renderers) model the three paper machines specifically and key
//! off it; everything else identifies a machine by its
//! [`MachineSpec::label`] and [`MachineSpec::spec_hash`].

use gasnub_coherence::smp::SmpConfig;
use gasnub_faults::FaultPlan;
use gasnub_interconnect::bus::BusJitterConfig;
use gasnub_interconnect::link::LinkConfig;
use gasnub_interconnect::ni::{ERegistersConfig, NiLossConfig, T3dNiConfig};
use gasnub_memsim::config::NodeConfig;
use gasnub_memsim::dram::DramConfig;
use gasnub_memsim::write_buffer::WriteBufferConfig;
use gasnub_memsim::{ConfigError, SimError};

use crate::engine::TransferEngine;
use crate::limits::MeasureLimits;
use crate::machine::{Machine, MachineId};
use crate::specfile::{self, SpecError};

/// Remote-path parameters of a `torus` spec: the T3D's fetch/deposit
/// circuitry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct T3dRemoteParams {
    /// Network interface (packet costs, prefetch FIFO, node-pair sharing).
    pub ni: T3dNiConfig,
    /// Torus link (CPU cycles; 0.5 cycles/byte = 300 MB/s at 150 MHz).
    pub link: LinkConfig,
    /// Extra wire bytes per packet (the T3D sends address + data).
    pub header_bytes: u64,
    /// Destination-side write path (same coalescing write queue shape the
    /// deposit circuitry drives). `drain_cycles_per_entry` is unused — the
    /// actual service time comes from `dest_dram`'s row state.
    pub dest_write: WriteBufferConfig,
    /// Destination DRAM as driven by the deposit circuitry: page-mode
    /// writes are fast, but large-stride deposits reopen a row per word.
    pub dest_dram: DramConfig,
    /// Hops between the benchmark's source and destination PEs.
    pub hops: u32,
}

/// Remote-path parameters of an `eregs` spec: the T3E's E-registers and
/// faster torus.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct T3eRemoteParams {
    /// The E-register block.
    pub eregs: ERegistersConfig,
    /// Torus link (0.25 cycles/byte = 1.2 GB/s at 300 MHz).
    pub link: LinkConfig,
    /// Cycles per coalesced block transfer (contiguous puts/gets).
    pub block_cycles: f64,
    /// Block size the E-register gather/scatter uses for unit-stride data.
    pub block_bytes: u64,
    /// Extra per-word cycles for non-unit-stride (single-word) operations.
    pub strided_word_extra_cycles: f64,
    /// Destination memory as seen by incoming single-word puts:
    /// word-interleaved banks whose busy windows produce the even-stride
    /// ripples of Fig. 8 ("the same bank is hit in consecutive receives").
    pub dest_word_banks: DramConfig,
    /// Hops between source and destination PEs.
    pub hops: u32,
}

/// The model family of a spec, plus its full parameterization.
///
/// The family selects the simulation backend; it deliberately does *not*
/// name a machine. A two-socket NUMA node is a `Torus` (the remote socket
/// is one hop over the processor interconnect), a many-core server is an
/// `Smp` — same models, different parameter files.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SpecKind {
    /// A snooping-bus SMP; remote transfers are coherent consumer pulls.
    Smp {
        smp: SmpConfig,
        bus_jitter: Option<BusJitterConfig>,
    },
    /// One node plus NI fetch/deposit circuitry over point-to-point links.
    Torus {
        node: NodeConfig,
        remote: T3dRemoteParams,
        ni_loss: Option<NiLossConfig>,
    },
    /// One node plus an E-register block/word remote path.
    Eregs {
        node: NodeConfig,
        remote: T3eRemoteParams,
        ni_loss: Option<NiLossConfig>,
    },
    /// A single node without remote paths (local probes only).
    Node { node: NodeConfig },
}

impl SpecKind {
    /// The deterministic seed for the gather probe's index permutation.
    /// Keyed by model family so a zoo-loaded paper machine shuffles
    /// identically to its built-in twin.
    pub(crate) fn gather_seed(&self) -> u64 {
        match self {
            SpecKind::Smp { .. } => 0x8400,
            SpecKind::Torus { .. } => 0x73d,
            SpecKind::Eregs { .. } => 0x73e,
            SpecKind::Node { .. } => 0xC05705,
        }
    }
}

/// An immutable, thread-shareable machine description.
///
/// Construction is free of validation — errors surface when
/// [`MachineSpec::build`] assembles the engine. Specs loaded from files
/// ([`MachineSpec::from_spec_str`]) *are* validated at load time, because
/// a file's errors should point at the file.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Model-family tag; `Custom` for everything but the paper machines.
    id: MachineId,
    /// Short registry label ("t3d", "numa2s", …) — the name the CLI
    /// resolves and tables report.
    label: String,
    /// Optional human-readable display name; `None` falls back to the
    /// canonical id display ("Cray T3D") or the label.
    display: Option<String>,
    /// Alternative labels the registry also resolves.
    aliases: Vec<String>,
    /// One-line description for machine listings.
    summary: String,
    /// Relative tolerance for calibration assertions, when the spec
    /// carries calibrated bandwidth expectations.
    calibration_tolerance: Option<f64>,
    kind: SpecKind,
    limits: MeasureLimits,
}

/// Embedded spec files: the built-in machines are ordinary zoo files,
/// parsed through the same loader as everything under `machines/zoo/`.
macro_rules! zoo_file {
    ($name:literal) => {
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../machines/zoo/",
            $name
        ))
    };
}

/// The embedded spec text of the built-in machines, in registry order.
pub(crate) const BUILTIN_SPECS: &[(&str, &str)] = &[
    ("dec8400", zoo_file!("dec8400.toml")),
    ("t3d", zoo_file!("t3d.toml")),
    ("t3e", zoo_file!("t3e.toml")),
    ("custom", zoo_file!("custom.toml")),
];

fn builtin(label: &str) -> MachineSpec {
    let text = BUILTIN_SPECS
        .iter()
        .find(|(name, _)| *name == label)
        .map(|(_, text)| *text)
        .expect("builtin spec table covers every builtin label");
    MachineSpec::from_spec_str(text).expect("embedded builtin specs must parse")
}

impl MachineSpec {
    /// The paper's four-processor DEC AlphaServer 8400 (§3.1): 300 MHz
    /// 21164s with 8 KB L1, 96 KB L2 and a 4 MB board-level L3 on a
    /// coherent bus. Remote transfers are coherent consumer *pulls*,
    /// supplied cache-to-cache or by home memory; there is no deposit.
    pub fn dec8400() -> Self {
        builtin("dec8400")
    }

    /// The paper's Cray T3D PE (§3.2): a 150 MHz 21064 with only an 8 KB
    /// L1, external read-ahead logic, a coalescing write-back queue, and
    /// fetch/deposit circuitry on a 3D torus.
    pub fn t3d() -> Self {
        builtin("t3d")
    }

    /// The paper's Cray T3E PE (§3.3): a 300 MHz 21164 (L1/L2 on chip, no
    /// L3) with six stream buffers and 512 E-registers, through which
    /// fetch and deposit are symmetric.
    pub fn t3e() -> Self {
        builtin("t3e")
    }

    /// A user-described single-node machine (local probes only): the
    /// paper's methodology applied to any node design. Remote probes
    /// return `None`.
    pub fn custom(name: impl Into<String>, node: NodeConfig) -> Self {
        MachineSpec {
            id: MachineId::Custom,
            label: "custom".to_string(),
            display: Some(name.into()),
            aliases: Vec::new(),
            summary: String::new(),
            calibration_tolerance: None,
            kind: SpecKind::Node { node },
            limits: MeasureLimits::new(),
        }
    }

    /// The paper-parameter spec for a machine id. `Custom` resolves to the
    /// reference node the test presets describe, so every id the CLI can
    /// parse also names a machine that runs.
    pub fn for_id(id: MachineId) -> Self {
        match id {
            MachineId::Dec8400 => Self::dec8400(),
            MachineId::CrayT3d => Self::t3d(),
            MachineId::CrayT3e => Self::t3e(),
            MachineId::Custom => builtin("custom"),
        }
    }

    /// Assembles a spec from decoded parts (the loader's constructor).
    pub(crate) fn from_parts(
        id: MachineId,
        label: String,
        display: Option<String>,
        aliases: Vec<String>,
        summary: String,
        calibration_tolerance: Option<f64>,
        kind: SpecKind,
    ) -> Self {
        MachineSpec {
            id,
            label,
            display,
            aliases,
            summary,
            calibration_tolerance,
            kind,
            limits: MeasureLimits::new(),
        }
    }

    /// Parses a machine spec file (see [`crate::specfile`] for the
    /// dialect). The three paper machines keep their canonical
    /// [`MachineId`]; any other spec is [`MachineId::Custom`].
    ///
    /// # Errors
    ///
    /// Returns a structured [`SpecError`] locating the offending line/key
    /// for syntax errors, unknown or missing keys, type mismatches, and
    /// out-of-range values.
    pub fn from_spec_str(text: &str) -> Result<Self, SpecError> {
        specfile::parse_spec(text)
    }

    /// Serializes this spec to the file dialect [`from_spec_str`] reads.
    /// The round trip is exact: `from_spec_str(to_spec_string(s)) == s`
    /// (measurement limits are runtime caps, not part of the description,
    /// and are not serialized).
    ///
    /// [`from_spec_str`]: MachineSpec::from_spec_str
    pub fn to_spec_string(&self) -> String {
        specfile::render_spec(self)
    }

    /// A stable 64-bit identity hash (FNV-1a over the canonical
    /// serialization). Two specs hash equal iff they describe the same
    /// machine — checkpoint headers store this so a resumed sweep can
    /// refuse a checkpoint written by a different machine description.
    pub fn spec_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.to_spec_string().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// The model-family tag (paper machines keep their canonical id; every
    /// other spec is `Custom`).
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// The short registry label ("t3d", "numa2s", …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The human-readable display name: the spec's `display` field, the
    /// canonical machine name for paper machines, or the label.
    pub fn display_name(&self) -> String {
        match (&self.display, self.id) {
            (Some(d), _) => d.clone(),
            (None, MachineId::Custom) => self.label.clone(),
            (None, id) => id.to_string(),
        }
    }

    /// Optional explicit display name from the spec file.
    pub(crate) fn display(&self) -> Option<&str> {
        self.display.as_deref()
    }

    /// Alternative labels the registry resolves to this spec.
    pub fn aliases(&self) -> &[String] {
        &self.aliases
    }

    /// One-line description for machine listings.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Relative tolerance for calibration assertions, if the spec sets one.
    pub fn calibration_tolerance(&self) -> Option<f64> {
        self.calibration_tolerance
    }

    /// The processor clock in MHz.
    pub fn clock_mhz(&self) -> f64 {
        match &self.kind {
            SpecKind::Smp { smp, .. } => smp.node.cpu.clock_mhz,
            SpecKind::Torus { node, .. }
            | SpecKind::Eregs { node, .. }
            | SpecKind::Node { node } => node.cpu.clock_mhz,
        }
    }

    /// Whether this spec's model family has a remote path (so `faults`,
    /// `remote_fetch` and friends apply).
    pub fn has_remote_path(&self) -> bool {
        !matches!(self.kind, SpecKind::Node { .. })
    }

    /// The node-level memory configuration (caches, DRAM, CPU issue
    /// costs) this spec builds its processing element from. For SMP
    /// specs this is the per-node configuration behind the shared bus.
    pub fn node_config(&self) -> &NodeConfig {
        match &self.kind {
            SpecKind::Smp { smp, .. } => &smp.node,
            SpecKind::Torus { node, .. }
            | SpecKind::Eregs { node, .. }
            | SpecKind::Node { node } => node,
        }
    }

    /// The full SMP description (bus, coherence protocol, home memory) of
    /// a bus-based spec; `None` for every other model family.
    pub fn smp_config(&self) -> Option<&SmpConfig> {
        match &self.kind {
            SpecKind::Smp { smp, .. } => Some(smp),
            _ => None,
        }
    }

    /// The model family name ("smp", "torus", "eregs", "node").
    pub fn model_family(&self) -> &'static str {
        match &self.kind {
            SpecKind::Smp { .. } => "smp",
            SpecKind::Torus { .. } => "torus",
            SpecKind::Eregs { .. } => "eregs",
            SpecKind::Node { .. } => "node",
        }
    }

    pub(crate) fn kind(&self) -> &SpecKind {
        &self.kind
    }

    /// Mutable parameters, for the ablations that edit a loaded spec.
    pub(crate) fn kind_mut(&mut self) -> &mut SpecKind {
        &mut self.kind
    }

    /// Replaces the measurement caps every spawned engine starts with.
    #[must_use]
    pub fn with_limits(mut self, limits: MeasureLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The measurement caps spawned engines start with.
    pub fn limits(&self) -> MeasureLimits {
        self.limits
    }

    /// Folds a fault plan into the spec: failed/degraded torus channels
    /// become more hops and a scaled per-byte link rate, network interfaces
    /// pick up the plan's loss model, and bus-based machines give their
    /// arbiter deterministic jitter. Same plan, same cycle counts — the
    /// transform happens once here, not per engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the plan disconnects the canonical remote
    /// pair, or for a node-only machine (which has no remote path or shared
    /// bus to degrade).
    pub fn with_faults(mut self, plan: &FaultPlan) -> Result<Self, SimError> {
        match &mut self.kind {
            SpecKind::Smp { bus_jitter, .. } => {
                *bus_jitter = Some(plan.bus_jitter());
            }
            SpecKind::Torus {
                remote, ni_loss, ..
            } => {
                let impact = plan.remote_impact()?;
                remote.hops = impact.hops.max(remote.hops);
                remote.link.cycles_per_byte *= impact.per_byte_scale();
                *ni_loss = Some(plan.ni_loss());
            }
            SpecKind::Eregs {
                remote, ni_loss, ..
            } => {
                let impact = plan.remote_impact()?;
                remote.hops = impact.hops.max(remote.hops);
                remote.link.cycles_per_byte *= impact.per_byte_scale();
                // The coalesced block path is paced by the same bottleneck
                // channel.
                remote.block_cycles *= impact.per_byte_scale();
                *ni_loss = Some(plan.ni_loss());
            }
            SpecKind::Node { .. } => {
                return Err(SimError::unsupported(
                    "fault plans on machines without a remote path or shared bus",
                ));
            }
        }
        Ok(self)
    }

    /// Validates the description and assembles a fresh engine.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any component description is invalid.
    pub fn build(self) -> Result<TransferEngine, ConfigError> {
        TransferEngine::from_spec(&self)
    }
}

/// A thread-shareable factory of independent probe engines.
///
/// The sweep layer is generic over this: each grid cell spawns its own
/// engine, so cells need no synchronization and can run on any thread.
/// Because every probe starts by flushing all mutable state, a fresh engine
/// measures exactly what a reused one would — parallel results are
/// bit-identical to sequential ones.
pub trait SpawnEngine: Sync {
    /// The engine type this factory produces.
    type Engine: Machine + Send;

    /// Builds one independent engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the underlying description is invalid.
    fn spawn_engine(&self) -> Result<Self::Engine, SimError>;
}

impl SpawnEngine for MachineSpec {
    type Engine = TransferEngine;

    fn spawn_engine(&self) -> Result<TransferEngine, SimError> {
        Ok(TransferEngine::from_spec(self)?)
    }
}

/// Any `Sync` closure producing a machine is a factory; this keeps ad-hoc
/// uses (tests, custom wrappers) free of boilerplate.
impl<F, M> SpawnEngine for F
where
    F: Fn() -> M + Sync,
    M: Machine + Send,
{
    type Engine = M;

    fn spawn_engine(&self) -> Result<M, SimError> {
        Ok(self())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_send_sync_and_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<MachineSpec>();
    }

    #[test]
    fn for_id_covers_every_label() {
        for id in [
            MachineId::Dec8400,
            MachineId::CrayT3d,
            MachineId::CrayT3e,
            MachineId::Custom,
        ] {
            let spec = MachineSpec::for_id(id);
            assert_eq!(spec.id(), id);
            assert_eq!(spec.label(), id.label());
            let engine = spec.build().expect("paper parameters must validate");
            assert_eq!(engine.id(), id);
            assert_eq!(engine.label(), id.label());
        }
    }

    #[test]
    fn builtin_spec_hashes_are_pinned() {
        // The embedded zoo files are the only source of the paper
        // machines' parameters. Any edit that changes a decoded value
        // changes the canonical rendering and therefore the hash, so it
        // fails here and has to be made on purpose.
        let pinned = [
            (MachineSpec::dec8400(), 0x42ba_7dba_cdf4_561c_u64),
            (MachineSpec::t3d(), 0x983a_669e_808b_0b2f),
            (MachineSpec::t3e(), 0x6821_90e1_4a56_ac52),
            (
                MachineSpec::for_id(MachineId::Custom),
                0x852c_290d_6b5a_b5b9,
            ),
        ];
        for (spec, hash) in pinned {
            assert_eq!(spec.spec_hash(), hash, "{} spec hash moved", spec.label());
        }
    }

    #[test]
    fn display_names_keep_their_canonical_form() {
        assert_eq!(MachineSpec::dec8400().display_name(), "DEC 8400");
        assert_eq!(MachineSpec::t3d().display_name(), "Cray T3D");
        assert_eq!(MachineSpec::t3e().display_name(), "Cray T3E");
        assert_eq!(
            MachineSpec::for_id(MachineId::Custom).display_name(),
            "reference custom node"
        );
    }

    #[test]
    fn smp_config_only_on_bus_specs() {
        let smp = MachineSpec::dec8400();
        assert_eq!(smp.smp_config().map(|c| &c.node), Some(smp.node_config()));
        assert!(MachineSpec::t3d().smp_config().is_none());
        assert!(MachineSpec::for_id(MachineId::Custom)
            .smp_config()
            .is_none());
    }

    #[test]
    fn spawned_engines_match_built_engines() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let mut spawned = spec.spawn_engine().unwrap();
        let mut built = spec.build().unwrap();
        assert_eq!(spawned.name(), "Cray T3D (150 MHz)");
        assert_eq!(built.name(), spawned.name());
        let a = spawned.remote_deposit(1 << 20, 16).unwrap();
        let b = built.remote_deposit(1 << 20, 16).unwrap();
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
        let a = spawned.local_load(1 << 20, 2);
        let b = built.local_load(1 << 20, 2);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    }

    #[test]
    fn faults_on_node_only_specs_are_unsupported() {
        let plan = FaultPlan::new(1, 0.5).unwrap();
        let spec = MachineSpec::for_id(MachineId::Custom);
        assert!(spec.with_faults(&plan).is_err());
    }

    #[test]
    fn fault_plans_fold_into_the_spec_deterministically() {
        let plan = FaultPlan::new(7, 0.6).unwrap();
        let a = MachineSpec::t3d()
            .with_faults(&plan)
            .unwrap()
            .with_limits(MeasureLimits::fast());
        let b = MachineSpec::t3d()
            .with_faults(&plan)
            .unwrap()
            .with_limits(MeasureLimits::fast());
        let ma = a
            .spawn_engine()
            .unwrap()
            .remote_deposit(1 << 20, 8)
            .unwrap();
        let mb = b
            .spawn_engine()
            .unwrap()
            .remote_deposit(1 << 20, 8)
            .unwrap();
        assert_eq!(ma.cycles.to_bits(), mb.cycles.to_bits());
    }

    #[test]
    fn spec_hash_distinguishes_machines_and_is_stable() {
        let hashes: Vec<u64> = [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
            MachineSpec::for_id(MachineId::Custom),
        ]
        .iter()
        .map(MachineSpec::spec_hash)
        .collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b, "distinct machines must hash differently");
            }
        }
        assert_eq!(
            MachineSpec::t3d().spec_hash(),
            MachineSpec::t3d().spec_hash()
        );
    }

    #[test]
    fn closures_are_spawners() {
        fn takes_spawner<S: SpawnEngine>(s: &S) -> MachineId {
            s.spawn_engine().unwrap().id()
        }
        let spawner = || {
            MachineSpec::t3e()
                .with_limits(MeasureLimits::fast())
                .build()
                .unwrap()
        };
        assert_eq!(takes_spawner(&spawner), MachineId::CrayT3e);
    }

    // The paper's §3 geometry, read from the loaded zoo files.

    fn remotes() -> (T3dRemoteParams, T3eRemoteParams) {
        let SpecKind::Torus { remote: t3d, .. } = MachineSpec::t3d().kind().clone() else {
            panic!("the t3d is a torus machine");
        };
        let SpecKind::Eregs { remote: t3e, .. } = MachineSpec::t3e().kind().clone() else {
            panic!("the t3e is an eregs machine");
        };
        (t3d, t3e)
    }

    #[test]
    fn all_node_configs_validate() {
        for spec in [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
        ] {
            spec.node_config().validate().unwrap();
        }
    }

    #[test]
    fn smp_config_validates() {
        MachineSpec::dec8400()
            .smp_config()
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn remote_params_validate() {
        let (t3d, t3e) = remotes();
        t3d.ni.validate().unwrap();
        t3d.link.validate().unwrap();
        t3d.dest_write.validate().unwrap();
        t3e.eregs.validate().unwrap();
        t3e.link.validate().unwrap();
        t3e.dest_word_banks.validate().unwrap();
    }

    #[test]
    fn clock_rates_match_paper() {
        assert_eq!(MachineSpec::dec8400().clock_mhz(), 300.0);
        assert_eq!(MachineSpec::t3d().clock_mhz(), 150.0);
        assert_eq!(MachineSpec::t3e().clock_mhz(), 300.0);
    }

    #[test]
    fn cache_geometry_matches_paper() {
        const KB: u64 = 1024;
        const MB: u64 = 1024 * KB;
        let dec = MachineSpec::dec8400();
        let n = dec.node_config();
        assert_eq!(n.hierarchy.levels[0].cache.capacity_bytes, 8 * KB);
        assert_eq!(n.hierarchy.levels[1].cache.capacity_bytes, 96 * KB);
        assert_eq!(n.hierarchy.levels[1].cache.associativity, 3);
        assert_eq!(n.hierarchy.levels[2].cache.capacity_bytes, 4 * MB);
        let t3d = MachineSpec::t3d();
        assert_eq!(
            t3d.node_config().hierarchy.levels.len(),
            1,
            "the T3D has only an on-chip L1"
        );
        let t3e = MachineSpec::t3e();
        let e = t3e.node_config();
        assert_eq!(e.hierarchy.levels.len(), 2, "the T3E has no L3");
        assert_eq!(e.hierarchy.dram_stream.as_ref().unwrap().slots, 6);
    }

    #[test]
    fn bus_peak_is_2_4_gb_s() {
        let bus = MachineSpec::dec8400().smp_config().unwrap().bus.clone();
        assert!((bus.peak_mb_s() - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn t3d_link_is_300_mb_s() {
        let link = remotes().0.link;
        assert!((link.bandwidth_mb_s(150.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn eregister_count_is_512() {
        assert_eq!(remotes().1.eregs.count, 512);
    }
}
