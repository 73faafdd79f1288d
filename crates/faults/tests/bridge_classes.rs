//! Differential test of the bridge sweep. A universe never simulates a
//! bridge: it masks the victim stem fault's detection set with the
//! aggressor's fault-free row and stores each distinct result once. Every
//! `T(g)` it reports must still equal the full-cone oracle's, the
//! per-fault `detection_set_bridge*` calls must agree with it, and the
//! classes must be non-empty, pairwise distinct and in first-occurrence
//! order, at every thread count and memory budget.

use ndetect_faults::{enumerate_bridges_among, ExplicitTargets, FaultUniverse, UniverseOptions};
use ndetect_netlist::{Netlist, NetlistBuilder};
use ndetect_seq::{expand, FaultModel};
use ndetect_sim::MemoryBudget;
use ndetect_testutil::arb_netlist_sized;
use proptest::prelude::*;
use std::collections::HashSet;

/// The thread × budget grid every universe is rebuilt under: unbounded,
/// and 1 KiB, which tiles every multi-block space.
const CONFIGS: [(usize, MemoryBudget); 4] = [
    (1, MemoryBudget::Unbounded),
    (4, MemoryBudget::Unbounded),
    (1, MemoryBudget::Bytes(1024)),
    (4, MemoryBudget::Bytes(1024)),
];

fn figure1() -> Netlist {
    let mut b = NetlistBuilder::new("figure1");
    let i1 = b.input("1");
    let i2 = b.input("2");
    let i3 = b.input("3");
    let i4 = b.input("4");
    let g9 = b.and("9", &[i1, i2]).unwrap();
    let g10 = b.and("10", &[i2, i3]).unwrap();
    let g11 = b.or("11", &[i3, i4]).unwrap();
    b.output(g9);
    b.output(g10);
    b.output(g11);
    b.build().unwrap()
}

fn build(
    netlist: &Netlist,
    explicit: Option<&ExplicitTargets>,
    config: (usize, MemoryBudget),
) -> FaultUniverse {
    let options = UniverseOptions {
        threads: config.0,
        mem_budget: config.1,
        ..UniverseOptions::default()
    };
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

/// Checks one circuit: the reference universe against the oracle bridge
/// by bridge, then every thread × budget build against the reference.
fn assert_bridge_sets_match_oracle(netlist: &Netlist, explicit: Option<&ExplicitTargets>) {
    let label = netlist.name();
    let reference = build(netlist, explicit, CONFIGS[0]);
    let sim = reference.simulator();
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
    let mut scratch = sim.new_scratch();
    let mut j = 0;
    for (k, fault) in enumerated.iter().enumerate() {
        let oracle = sim.detection_set_bridge_full_cone(netlist, fault);
        let name = fault.name(netlist);
        if k % 5 == 0 {
            assert_eq!(
                sim.detection_set_bridge(netlist, fault),
                oracle,
                "{label} {name}"
            );
            assert_eq!(
                sim.detection_set_bridge_with(netlist, fault, &mut scratch),
                oracle,
                "{label} {name}"
            );
            assert_eq!(
                sim.detection_set_bridge_threaded(netlist, fault, 4),
                oracle,
                "{label} {name}"
            );
        }
        if oracle.is_empty() {
            continue;
        }
        assert_eq!(reference.bridges()[j], *fault, "{label}: bridge {j}");
        assert_eq!(reference.bridge_set(j), &oracle, "{label} {name}");
        assert_eq!(&reference.bridge_sets()[j], &oracle, "{label} {name}");
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

    for config in CONFIGS {
        let u = build(netlist, explicit, config);
        let label = format!("{label} threads {} budget {}", config.0, config.1);
        // 1 KiB tiles every multi-block space whose full-width data
        // plane does not fit it.
        if config.1 == MemoryBudget::Bytes(1024)
            && u.space().num_blocks() > 1
            && sim.data_plane_bytes() > 1024
        {
            assert_eq!(u.simulator().kernel_mode(), "tiled", "{label}");
        }
        assert_classes_well_formed(&u, &label);
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random netlists of up to 8 inputs (4 blocks), so the 1 KiB budget
    /// really runs the tiled victim sweep.
    #[test]
    fn random_bridge_sets_match_the_oracle(netlist in arb_netlist_sized(8, 16)) {
        assert_bridge_sets_match_oracle(&netlist, None);
    }
}
