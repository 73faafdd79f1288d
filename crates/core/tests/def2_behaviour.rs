//! Focused tests for Definition-2 behaviour inside Procedure 1: the
//! fallback to Definition 1, set growth, and determinism under the
//! stricter counting.

use ndetect_circuits::figure1;
use ndetect_core::{construct_test_set_series, DetectionDefinition, Procedure1Config};
use ndetect_faults::FaultUniverse;
use ndetect_netlist::NetlistBuilder;

/// On a circuit where every pair of tests for some fault shares
/// detecting common bits, Definition 2 can never reach n = 2 for that
/// fault; the paper's fallback ("use Definition 1 instead") must keep
/// the sets valid n-detection sets under Definition 1.
#[test]
fn definition2_falls_back_to_definition1() {
    // g = AND(a, c): g/1 has T = {00,01,10}: tests 00,01 share "0-"
    // which detects g/1 => similar; 00,10 share "-0" which detects =>
    // similar; 01,10 share "--" which does NOT detect => different.
    // So Definition 2 can count at most 2 detections; n = 3 must fall
    // back to Definition 1 and still include all three tests.
    let mut b = NetlistBuilder::new("and2");
    let a = b.input("a");
    let c = b.input("c");
    let g = b.and("g", &[a, c]).unwrap();
    b.output(g);
    let n = b.build().unwrap();
    let u = FaultUniverse::build(&n).unwrap();

    let config = Procedure1Config {
        nmax: 3,
        num_test_sets: 16,
        definition: DetectionDefinition::SufficientlyDifferent,
        ..Default::default()
    };
    let series = construct_test_set_series(&u, &config).unwrap();
    let g1 = u
        .targets()
        .iter()
        .position(|f| f.value && n.lines().line(f.line).name() == "g")
        .unwrap();
    for k in 0..16 {
        // The n = 3 stage: the Definition-1 requirement is still met
        // thanks to the fallback — every fault detected min(n, N(f))
        // times.
        let set = &series.sets[2][k];
        for t_f in u.target_sets() {
            assert!(set.detection_count(t_f) >= 3.min(t_f.len()), "set {k}");
        }
        // g/1 has only 3 tests; all of them must be present at n = 3.
        assert_eq!(set.detection_count(u.target_set(g1)), 3);
    }
}

/// Definition 2 produces sets at least as large as Definition 1 for the
/// same seed on the example circuit (stricter counting needs more
/// tests), and remains deterministic.
#[test]
fn definition2_sets_are_no_smaller_and_deterministic() {
    let u = FaultUniverse::build(&figure1::netlist()).unwrap();
    let base = Procedure1Config {
        nmax: 4,
        num_test_sets: 12,
        ..Default::default()
    };
    let d1 = construct_test_set_series(&u, &base).unwrap();
    let cfg2 = Procedure1Config {
        definition: DetectionDefinition::SufficientlyDifferent,
        ..base
    };
    let d2a = construct_test_set_series(&u, &cfg2).unwrap();
    let d2b = construct_test_set_series(&u, &cfg2).unwrap();
    assert_eq!(d2a.sets, d2b.sets, "definition 2 must be deterministic");
    let avg = |s: &ndetect_core::TestSetSeries| -> f64 {
        s.sets[3].iter().map(|t| t.len() as f64).sum::<f64>() / 12.0
    };
    assert!(
        avg(&d2a) + 1e-9 >= avg(&d1),
        "def2 avg {} < def1 avg {}",
        avg(&d2a),
        avg(&d1)
    );
}

/// At n = 1 a single detection has no pair to compare, so both
/// definitions make the same choices whenever the candidate pool is the
/// whole of `T(f)`; on the example circuit with this seed the resulting
/// sets coincide exactly (a deterministic regression pin — divergence
/// would indicate a change in selection logic, not necessarily a bug).
#[test]
fn definitions_coincide_at_n_equals_one() {
    let u = FaultUniverse::build(&figure1::netlist()).unwrap();
    let base = Procedure1Config {
        nmax: 1,
        num_test_sets: 8,
        ..Default::default()
    };
    let d1 = construct_test_set_series(&u, &base).unwrap();
    let d2 = construct_test_set_series(
        &u,
        &Procedure1Config {
            definition: DetectionDefinition::SufficientlyDifferent,
            ..base
        },
    )
    .unwrap();
    assert_eq!(d1.sets[0], d2.sets[0]);
}
