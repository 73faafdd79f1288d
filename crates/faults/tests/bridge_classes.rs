//! Differential test of the universe build. Every target set `T(f)` it
//! reports must equal `ndetect_testutil::DetectionOracle`'s. It never
//! simulates a bridge: it masks the victim stem fault's detection set
//! with the aggressor's fault-free row and stores each distinct result
//! once. Every `T(g)` it reports must still equal the oracle's, which
//! flips the victim by the bridge's definition, and the classes must be
//! non-empty, pairwise distinct and in first-occurrence order, at 1 and
//! 4 threads.

use ndetect_circuits::figure1::netlist as figure1;
use ndetect_faults::{enumerate_bridges_among, ExplicitTargets, FaultUniverse, UniverseOptions};
use ndetect_netlist::Netlist;
use ndetect_seq::{expand, FaultModel};
use ndetect_sim::VectorSet;
use ndetect_testutil::{arb_netlist_sized, DetectionOracle};
use proptest::prelude::*;
use std::collections::HashSet;

/// The thread counts every universe is built at.
const THREADS: [usize; 2] = [1, 4];

fn build(netlist: &Netlist, explicit: Option<&ExplicitTargets>, threads: usize) -> FaultUniverse {
    let options = UniverseOptions::with_threads(threads);
    match explicit {
        Some(explicit) => FaultUniverse::build_explicit(netlist, explicit, options),
        None => FaultUniverse::build_with(netlist, options),
    }
    .expect("fits exhaustive simulation")
}

/// The class index covers every bridge; the classes are non-empty and
/// pairwise distinct, and the index opens them in order.
fn assert_classes_well_formed(u: &FaultUniverse, label: &str) {
    assert_eq!(u.bridge_class_of().len(), u.bridges().len(), "{label}");
    assert_eq!(u.bridge_sets().len(), u.bridges().len(), "{label}");
    let mut seen = HashSet::new();
    for (c, set) in u.bridge_classes().iter().enumerate() {
        assert!(!set.is_empty(), "{label}: class {c} is empty");
        assert!(seen.insert(set.words()), "{label}: class {c} repeats");
    }
    let mut opened = 0;
    for (j, &c) in u.bridge_class_of().iter().enumerate() {
        let c = c as usize;
        assert!(c <= opened, "{label}: bridge {j} skips ahead to class {c}");
        if c == opened {
            opened += 1;
        }
    }
    assert_eq!(opened, u.bridge_classes().len(), "{label}: unused class");
}

/// Checks one circuit: the reference universe against the oracle target
/// by target and bridge by bridge, then the build at every thread count
/// against the reference.
fn assert_bridge_sets_match_oracle(netlist: &Netlist, explicit: Option<&ExplicitTargets>) {
    let label = netlist.name();
    let reference = build(netlist, explicit, THREADS[0]);
    let sim = reference.simulator();
    let oracle = DetectionOracle::new(netlist);
    for (i, &fault) in reference.targets().iter().enumerate() {
        assert_eq!(
            reference.target_set(i).to_vec(),
            oracle.stuck_set(fault.line, fault.value),
            "{label} target {}",
            fault.name(netlist)
        );
    }
    let stems = match explicit {
        Some(explicit) => explicit.bridge_stems.clone(),
        None => netlist.multi_input_gate_stems(),
    };
    let enumerated = enumerate_bridges_among(
        netlist,
        sim.reachability(),
        reference.options().bridge_model,
        &stems,
    );

    // Every enumerated bridge: an empty oracle set is an undetectable
    // bridge, any other is the universe's next bridge with that set.
    let mut j = 0;
    for fault in &enumerated {
        let expected = VectorSet::from_vectors(
            sim.space().num_patterns(),
            oracle.bridge_set(
                fault.victim,
                fault.victim_value,
                fault.aggressor,
                fault.aggressor_value,
            ),
        );
        let name = fault.name(netlist);
        if expected.is_empty() {
            continue;
        }
        assert_eq!(reference.bridges()[j], *fault, "{label}: bridge {j}");
        assert_eq!(reference.bridge_set(j), &expected, "{label} {name}");
        assert_eq!(&reference.bridge_sets()[j], &expected, "{label} {name}");
        j += 1;
    }
    assert_eq!(j, reference.bridges().len(), "{label}: detectable bridges");
    assert_eq!(
        reference.num_undetectable_bridges(),
        enumerated.len() - j,
        "{label}: undetectable bridges"
    );
    assert!(reference
        .bridge_sets()
        .iter()
        .zip(0..)
        .all(|(set, j)| set == reference.bridge_set(j)));

    for threads in THREADS {
        let u = build(netlist, explicit, threads);
        let label = format!("{label} threads {threads}");
        assert_classes_well_formed(&u, &label);
        assert_eq!(u.targets(), reference.targets(), "{label}");
        assert_eq!(u.target_sets(), reference.target_sets(), "{label}");
        assert_eq!(u.bridges(), reference.bridges(), "{label}");
        assert_eq!(u.bridge_classes(), reference.bridge_classes(), "{label}");
        assert_eq!(u.bridge_class_of(), reference.bridge_class_of(), "{label}");
    }
}

#[test]
fn figure1_bridge_sets_match_the_oracle() {
    assert_bridge_sets_match_oracle(&figure1(), None);
}

#[test]
fn suite_bridge_sets_match_the_oracle() {
    for name in ["c17", "cse"] {
        let netlist = ndetect_circuits::build(name).expect("suite circuit builds");
        assert_bridge_sets_match_oracle(&netlist, None);
    }
}

#[test]
fn s27_transition_bridge_sets_match_the_oracle() {
    let seq = ndetect_circuits::build_seq("s27").expect("s27 builds");
    let expanded = expand(&seq, FaultModel::Transition).expect("s27 expands");
    assert_bridge_sets_match_oracle(expanded.netlist(), Some(&expanded.explicit_targets()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random netlists of 1 to 8 inputs and up to 20 gates: dense
    /// single-block DAGs, and spaces of up to 4 blocks.
    #[test]
    fn random_bridge_sets_match_the_oracle(netlist in arb_netlist_sized(8, 20)) {
        assert_bridge_sets_match_oracle(&netlist, None);
    }
}
