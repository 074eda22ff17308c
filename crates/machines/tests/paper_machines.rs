//! The paper machines and their ablations, loaded from the zoo files.
//!
//! Each module checks one machine's calibrated plateaus and mechanisms
//! (§5) against the bandwidths the paper quotes, plus the ablations that
//! switch one mechanism off. The last module runs a user-described node
//! through the same probes.

use gasnub_machines::{ablation, Machine, MachineId, MachineSpec, MeasureLimits, TransferEngine};

const MB: u64 = 1024 * 1024;
const KB: u64 = 1024;

/// The caps every plateau check here measures under.
const LIMITS: MeasureLimits = MeasureLimits {
    max_measure_words: 16 * 1024,
    max_prime_words: 2 * 1024 * 1024,
};

fn build(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(LIMITS)
        .build()
        .expect("built-in parameters must validate")
}

mod dec8400 {
    use super::*;

    fn machine() -> TransferEngine {
        build(MachineSpec::dec8400())
    }

    #[test]
    fn l1_plateau_near_1100() {
        let m = machine().local_load(4 * KB, 1);
        assert!(
            (m.mb_s - 1100.0).abs() / 1100.0 < 0.15,
            "L1 plateau: got {}",
            m.mb_s
        );
    }

    #[test]
    fn l2_plateau_near_700() {
        let m = machine().local_load(64 * KB, 1);
        assert!(
            (m.mb_s - 700.0).abs() / 700.0 < 0.15,
            "L2 plateau: got {}",
            m.mb_s
        );
    }

    #[test]
    fn l3_contiguous_near_600_and_strided_near_120() {
        let mut mach = machine();
        let contig = mach.local_load(2 * MB, 1);
        assert!(
            (contig.mb_s - 600.0).abs() / 600.0 < 0.2,
            "L3 contig: got {}",
            contig.mb_s
        );
        let strided = mach.local_load(2 * MB, 16);
        assert!(
            (strided.mb_s - 120.0).abs() / 120.0 < 0.25,
            "L3 strided: got {}",
            strided.mb_s
        );
    }

    #[test]
    fn dram_contiguous_near_150_and_strided_near_28() {
        let mut mach = machine();
        let contig = mach.local_load(32 * MB, 1);
        assert!(
            (contig.mb_s - 150.0).abs() / 150.0 < 0.2,
            "DRAM contig: got {}",
            contig.mb_s
        );
        let strided = mach.local_load(32 * MB, 16);
        assert!(
            (strided.mb_s - 28.0).abs() / 28.0 < 0.35,
            "DRAM strided: got {}",
            strided.mb_s
        );
    }

    #[test]
    fn remote_pull_near_140_contig_22_strided() {
        let mut mach = machine();
        let contig = mach.remote_load(32 * MB, 1).unwrap();
        assert!(
            (contig.mb_s - 140.0).abs() / 140.0 < 0.25,
            "remote contig: got {}",
            contig.mb_s
        );
        let strided = mach.remote_load(32 * MB, 16).unwrap();
        assert!(
            (strided.mb_s - 22.0).abs() / 22.0 < 0.35,
            "remote strided: got {}",
            strided.mb_s
        );
    }

    #[test]
    fn remote_is_order_of_magnitude_below_local_peak() {
        let mut mach = machine();
        let local_peak = mach.local_load(4 * KB, 1).mb_s;
        let remote_peak = mach.remote_load(32 * MB, 1).unwrap().mb_s;
        assert!(
            local_peak / remote_peak > 5.0,
            "{local_peak} vs {remote_peak}"
        );
    }

    #[test]
    fn local_copy_near_57_contig() {
        let m = machine().local_copy(32 * MB, 1, 1);
        assert!(
            (m.mb_s - 57.0).abs() / 57.0 < 0.35,
            "copy contig: got {}",
            m.mb_s
        );
    }

    #[test]
    fn no_deposit_support() {
        assert!(machine().remote_deposit(MB, 1).is_none());
    }

    #[test]
    fn eight_processor_system_measures_identically_when_idle() {
        // §2: "We used a four processor system and also repeated some
        // measurements on an eight processor system." With the other
        // processors idle, per-processor results match.
        let mut four = machine();
        let mut eight = ablation::dec8400_processors(8).build().unwrap();
        eight.set_limits(four.limits());
        let a = four.local_load(32 * MB, 1).mb_s;
        let b = eight.local_load(32 * MB, 1).mb_s;
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        let ra = four.remote_load(32 * MB, 16).unwrap().mb_s;
        let rb = eight.remote_load(32 * MB, 16).unwrap().mb_s;
        assert!((ra - rb).abs() / ra < 0.05, "{ra} vs {rb}");
        assert!(ablation::dec8400_processors(0).build().is_err());
    }

    #[test]
    fn contended_variant_is_slower_mostly_for_strided() {
        let mut idle = machine();
        let mut loaded = ablation::dec8400_contended().build().unwrap();
        loaded.set_limits(idle.limits());
        let idle_contig = idle.local_load(32 * MB, 1).mb_s;
        let load_contig = loaded.local_load(32 * MB, 1).mb_s;
        let idle_strided = idle.local_load(32 * MB, 16).mb_s;
        let load_strided = loaded.local_load(32 * MB, 16).mb_s;
        let contig_drop = 1.0 - load_contig / idle_contig;
        let strided_drop = 1.0 - load_strided / idle_strided;
        assert!(
            contig_drop > 0.0 && contig_drop < 0.15,
            "contig drop {contig_drop}"
        );
        assert!(
            strided_drop > 0.15 && strided_drop < 0.40,
            "strided drop {strided_drop}"
        );
    }
}

mod t3d {
    use super::*;

    fn machine() -> TransferEngine {
        build(MachineSpec::t3d())
    }

    #[test]
    fn l1_plateau_near_600() {
        let m = machine().local_load(4 * KB, 1);
        assert!((m.mb_s - 600.0).abs() / 600.0 < 0.15, "L1: got {}", m.mb_s);
    }

    #[test]
    fn dram_contiguous_near_195() {
        let m = machine().local_load(8 * MB, 1);
        assert!(
            (m.mb_s - 195.0).abs() / 195.0 < 0.2,
            "DRAM contig: got {}",
            m.mb_s
        );
    }

    #[test]
    fn dram_strided_near_43() {
        let m = machine().local_load(8 * MB, 16);
        assert!(
            (m.mb_s - 43.0).abs() / 43.0 < 0.3,
            "DRAM strided: got {}",
            m.mb_s
        );
    }

    #[test]
    fn contiguous_dram_beats_dec8400_by_30_percent() {
        // §5.3: "Contiguous loads from local DRAM memory on the Cray T3D are
        // about 30% faster than in the DEC 8400."
        let t3d = machine().local_load(8 * MB, 1).mb_s;
        let mut dec = MachineSpec::dec8400().build().unwrap();
        dec.set_limits(MeasureLimits {
            max_measure_words: 16 * 1024,
            max_prime_words: 2 * 1024 * 1024,
        });
        let dec_bw = dec.local_load(32 * MB, 1).mb_s;
        let ratio = t3d / dec_bw;
        assert!(
            ratio > 1.1 && ratio < 1.6,
            "T3D/8400 contiguous DRAM ratio {ratio}"
        );
    }

    #[test]
    fn read_ahead_ablation_loses_the_edge() {
        let with = machine().local_load(8 * MB, 1).mb_s;
        let mut without = ablation::t3d_without_read_ahead().build().unwrap();
        without.set_limits(machine().limits());
        let wo = without.local_load(8 * MB, 1).mb_s;
        assert!(with / wo > 1.2, "read-ahead must matter: {with} vs {wo}");
    }

    #[test]
    fn local_copy_contiguous_near_100() {
        let m = machine().local_copy(8 * MB, 1, 1);
        assert!(
            (m.mb_s - 100.0).abs() / 100.0 < 0.25,
            "copy contig: got {}",
            m.mb_s
        );
    }

    #[test]
    fn strided_stores_beat_strided_loads_locally() {
        // Fig 10: the write-back queue makes contiguous-load/strided-store
        // copies (~70 MB/s) much faster than strided-load/contiguous-store
        // copies (~40 MB/s).
        let mut mach = machine();
        let strided_stores = mach.local_copy(8 * MB, 1, 16).mb_s;
        let strided_loads = mach.local_copy(8 * MB, 16, 1).mb_s;
        assert!(
            strided_stores > 1.3 * strided_loads,
            "strided stores {strided_stores} vs strided loads {strided_loads}"
        );
        assert!(
            (strided_stores - 70.0).abs() / 70.0 < 0.3,
            "got {strided_stores}"
        );
    }

    #[test]
    fn deposit_contiguous_near_120() {
        let m = machine().remote_deposit(8 * MB, 1).unwrap();
        assert!(
            (m.mb_s - 120.0).abs() / 120.0 < 0.25,
            "deposit contig: got {}",
            m.mb_s
        );
    }

    #[test]
    fn deposit_strided_near_60() {
        let m = machine().remote_deposit(8 * MB, 16).unwrap();
        assert!(
            m.mb_s > 45.0 && m.mb_s < 80.0,
            "deposit strided: got {}",
            m.mb_s
        );
    }

    #[test]
    fn fetch_is_much_slower_than_deposit() {
        // §5.4: deposits preferred; naive remote loads are an order of
        // magnitude below the network bandwidth.
        let mut mach = machine();
        let deposit = mach.remote_deposit(8 * MB, 1).unwrap().mb_s;
        let fetch = mach.remote_fetch(8 * MB, 1).unwrap().mb_s;
        assert!(deposit > 3.0 * fetch, "deposit {deposit} vs fetch {fetch}");
        assert!(fetch > 15.0 && fetch < 40.0, "fetch: got {fetch}");
    }

    #[test]
    fn blocking_fetch_is_worse_than_fifo_fetch() {
        let mut fifo = machine();
        let mut blocking = ablation::t3d_blocking_fetch().build().unwrap();
        blocking.set_limits(fifo.limits());
        let f = fifo.remote_fetch(MB, 1).unwrap().mb_s;
        let b = blocking.remote_fetch(MB, 1).unwrap().mb_s;
        assert!(f > 2.0 * b, "FIFO {f} vs blocking {b}");
    }

    #[test]
    fn coalescing_ablation_hurts_contiguous_deposits() {
        let mut with = machine();
        let mut without = ablation::t3d_without_coalescing().build().unwrap();
        without.set_limits(with.limits());
        let w = with.remote_deposit(MB, 1).unwrap().mb_s;
        let wo = without.remote_deposit(MB, 1).unwrap().mb_s;
        assert!(w > 1.3 * wo, "coalescing must matter: {w} vs {wo}");
    }

    #[test]
    fn paired_traffic_halves_link_bandwidth_effect() {
        let mut single = machine();
        let mut paired = ablation::t3d_paired_traffic().build().unwrap();
        paired.set_limits(single.limits());
        let s = single.remote_deposit(MB, 1).unwrap().mb_s;
        let p = paired.remote_deposit(MB, 1).unwrap().mb_s;
        assert!(
            p < s,
            "paired traffic must reduce deposit bandwidth: {p} vs {s}"
        );
    }
}

mod t3e {
    use super::*;

    fn machine() -> TransferEngine {
        build(MachineSpec::t3e())
    }

    #[test]
    fn l1_and_l2_match_the_8400() {
        // §5.5: "the local memory access performance of the T3E resembles
        // the picture of the DEC 8400 in the performance of its L1 and L2".
        let mut t3e = machine();
        let l1 = t3e.local_load(4 * KB, 1).mb_s;
        let l2 = t3e.local_load(64 * KB, 1).mb_s;
        assert!((l1 - 1100.0).abs() / 1100.0 < 0.15, "L1: got {l1}");
        assert!((l2 - 700.0).abs() / 700.0 < 0.15, "L2: got {l2}");
    }

    #[test]
    fn dram_contiguous_near_430() {
        let m = machine().local_load(8 * MB, 1);
        assert!(
            (m.mb_s - 430.0).abs() / 430.0 < 0.2,
            "DRAM contig: got {}",
            m.mb_s
        );
    }

    #[test]
    fn dram_strided_near_42_matching_t3d() {
        // §5.5: "These accesses seem stuck at about 42 MByte/s on the T3E
        // (43 MByte/s on the T3D)."
        let t3e = machine().local_load(8 * MB, 16).mb_s;
        assert!((t3e - 42.0).abs() / 42.0 < 0.3, "T3E strided: got {t3e}");
        let mut t3d = MachineSpec::t3d().build().unwrap();
        t3d.set_limits(machine().limits());
        let t3d_bw = t3d.local_load(8 * MB, 16).mb_s;
        let ratio = t3e / t3d_bw;
        assert!(
            ratio > 0.7 && ratio < 1.4,
            "strided DRAM stuck across generations: {ratio}"
        );
    }

    #[test]
    fn streams_ablation_collapses_contiguous_dram() {
        // Footnote 3: the test vehicle without streaming measured about
        // 120 MB/s.
        let with = machine().local_load(8 * MB, 1).mb_s;
        let mut without = ablation::t3e_without_streams().build().unwrap();
        without.set_limits(machine().limits());
        let wo = without.local_load(8 * MB, 1).mb_s;
        assert!(with / wo > 2.0, "streams must matter: {with} vs {wo}");
        assert!(wo < 250.0, "streams-off must fall well below 430: got {wo}");
    }

    #[test]
    fn remote_contiguous_near_350_both_directions() {
        let mut mach = machine();
        let put = mach.remote_deposit(8 * MB, 1).unwrap().mb_s;
        let get = mach.remote_fetch(8 * MB, 1).unwrap().mb_s;
        assert!((put - 350.0).abs() / 350.0 < 0.15, "put contig: got {put}");
        assert!((get - 350.0).abs() / 350.0 < 0.15, "get contig: got {get}");
    }

    #[test]
    fn strided_fetch_near_140() {
        let m = machine().remote_fetch(8 * MB, 16).unwrap();
        assert!(
            (m.mb_s - 140.0).abs() / 140.0 < 0.2,
            "get strided: got {}",
            m.mb_s
        );
    }

    #[test]
    fn strided_deposit_near_70_for_power_of_two_strides() {
        let mut mach = machine();
        for stride in [8u64, 16, 32, 64] {
            let m = mach.remote_deposit(8 * MB, stride).unwrap();
            assert!(
                (m.mb_s - 70.0).abs() / 70.0 < 0.25,
                "put stride {stride}: got {}",
                m.mb_s
            );
        }
    }

    #[test]
    fn odd_stride_deposits_ripple_upwards() {
        // Fig 8/14: odd strides avoid the destination bank conflicts.
        let mut mach = machine();
        let odd = mach.remote_deposit(8 * MB, 15).unwrap().mb_s;
        let even = mach.remote_deposit(8 * MB, 16).unwrap().mb_s;
        assert!(odd > 1.5 * even, "odd {odd} vs even {even}");
    }

    #[test]
    fn fetch_beats_deposit_for_even_strides() {
        // §5.6: "fetches are more advantageous for even strides than
        // deposits."
        let mut mach = machine();
        let get = mach.remote_fetch(8 * MB, 16).unwrap().mb_s;
        let put = mach.remote_deposit(8 * MB, 16).unwrap().mb_s;
        assert!(get > 1.5 * put, "get {get} vs put {put}");
    }

    #[test]
    fn remote_contiguous_is_4x_t3d_and_2x_8400() {
        // §5.6: "This is more than four times the bandwidth in the Cray T3D
        // and twice the bandwidth in the DEC 8400."
        let t3e = machine().remote_deposit(8 * MB, 1).unwrap().mb_s;
        let mut t3d = MachineSpec::t3d().build().unwrap();
        t3d.set_limits(machine().limits());
        let t3d_bw = t3d.remote_deposit(8 * MB, 1).unwrap().mb_s;
        let mut dec = MachineSpec::dec8400().build().unwrap();
        dec.set_limits(machine().limits());
        let dec_bw = dec.remote_load(32 * MB, 1).unwrap().mb_s;
        assert!(t3e / t3d_bw > 2.4, "T3E/T3D remote ratio {}", t3e / t3d_bw);
        assert!(t3e / dec_bw > 1.7, "T3E/8400 remote ratio {}", t3e / dec_bw);
    }

    #[test]
    fn local_copy_contiguous_near_200() {
        let m = machine().local_copy(8 * MB, 1, 1);
        assert!(
            (m.mb_s - 200.0).abs() / 200.0 < 0.3,
            "copy contig: got {}",
            m.mb_s
        );
    }

    #[test]
    fn gather_is_the_slowest_dram_pattern() {
        // Indexed accesses defeat both the line overfetch amortization and
        // the stream buffers *and* thrash DRAM rows.
        let mut mach = machine();
        let gather = mach.local_gather(8 * MB).mb_s;
        let strided = mach.local_load(8 * MB, 16).mb_s;
        let contig = mach.local_load(8 * MB, 1).mb_s;
        assert!(
            gather <= strided * 1.05,
            "gather {gather} vs strided {strided}"
        );
        assert!(gather < contig / 5.0, "gather {gather} vs contig {contig}");
        // But cache-resident gathers run at the L1 plateau.
        let small = mach.local_gather(4 * KB).mb_s;
        assert!(small > 800.0, "L1-resident gather: {small}");
    }

    #[test]
    fn remote_copy_bandwidth_at_least_local_copy_bandwidth() {
        // §9: "On all three machines, the straight remote memory copy
        // bandwidth (or communication performance) is equal to or higher
        // than the local copy performance."
        let mut mach = machine();
        let local = mach.local_copy(8 * MB, 1, 1).mb_s;
        let remote = mach.remote_deposit(8 * MB, 1).unwrap().mb_s;
        assert!(remote >= 0.9 * local, "remote {remote} vs local {local}");
    }
}

mod custom {
    use super::*;
    use gasnub_memsim::config::presets;

    fn machine() -> TransferEngine {
        MachineSpec::custom("test node", presets::tiny_test_node())
            .with_limits(MeasureLimits::fast())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        let mut node = presets::tiny_test_node();
        node.cpu.clock_mhz = 0.0;
        assert!(MachineSpec::custom("bad", node).build().is_err());
    }

    #[test]
    fn custom_machine_has_plateaus() {
        let mut m = machine();
        let l1 = m.local_load(4 << 10, 1).mb_s;
        let dram = m.local_load(2 << 20, 1).mb_s;
        assert!(l1 > 2.0 * dram, "L1 {l1} vs DRAM {dram}");
    }

    #[test]
    fn custom_machine_sweeps_through_core_apis() {
        // A custom machine is a first-class `Machine`: the generic sweep
        // infrastructure accepts it.
        let mut m = machine();
        let probe: &mut dyn Machine = &mut m;
        assert_eq!(probe.id(), MachineId::Custom);
        assert!(probe.remote_fetch(1 << 20, 1).is_none());
        let copy = probe.local_copy(1 << 20, 1, 1);
        assert!(copy.mb_s > 0.0);
        let gather = probe.local_gather(1 << 20);
        assert!(gather.mb_s > 0.0);
    }

    #[test]
    fn name_includes_clock() {
        let m = machine();
        assert!(m.name().contains("test node"));
        assert!(m.name().contains("100"));
    }

    #[test]
    fn builder_spec_spawns_equivalent_engines() {
        use gasnub_machines::SpawnEngine;
        let spec = MachineSpec::custom("test node", presets::tiny_test_node())
            .with_limits(MeasureLimits::fast());
        let mut spawned = spec.spawn_engine().unwrap();
        let mut built = spec.build().unwrap();
        let a = spawned.local_load(1 << 20, 4);
        let b = built.local_load(1 << 20, 4);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    }
}
