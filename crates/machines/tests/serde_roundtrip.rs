//! Configuration types behave as value types: cloneable and comparable.

use gasnub_machines::calibration::calibration_table;
use gasnub_machines::machine::Measurement;
use gasnub_machines::MachineSpec;

#[test]
fn measurement_is_a_value_type() {
    let m = Measurement::new(4096, 128.0, 300.0);
    let copied = m;
    assert_eq!(m, copied);
    assert!((m.mb_s - 4096.0 * 300.0 / 128.0).abs() < 1e-9);
}

#[test]
fn configs_are_cloneable_and_stable() {
    let t3e = MachineSpec::t3e();
    let node = t3e.node_config();
    assert_eq!(
        node,
        &node.clone(),
        "machine descriptions must be value types"
    );
    let smp = MachineSpec::dec8400().smp_config().cloned().unwrap();
    assert_eq!(smp, smp.clone());
    assert_eq!(MachineSpec::t3d(), MachineSpec::t3d().clone());
    assert_eq!(t3e, t3e.clone());
}

#[test]
fn calibration_table_is_self_consistent() {
    let table = calibration_table();
    assert!(
        table.len() >= 28,
        "the table covers the paper's quoted values"
    );
    for p in &table {
        assert!(p.paper_mb_s > 0.0, "{}: paper value must be positive", p.id);
        assert!(
            p.tolerance > 0.0 && p.tolerance < 1.0,
            "{}: tolerance sane",
            p.id
        );
        assert!(!p.source.is_empty());
        assert_eq!(
            table.iter().filter(|q| q.id == p.id).count(),
            1,
            "duplicate id {}",
            p.id
        );
    }
}
