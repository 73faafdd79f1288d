//! Determinism of the multi-threaded fault-simulation engine: every
//! parallel path (fault-parallel universe builds, threaded nmin
//! analysis) must produce results bit-identical to the 1-thread run,
//! and the serial per-fault entry points must reproduce the threaded
//! universe.

use ndetect::analysis::WorstCaseAnalysis;
use ndetect::faults::{FaultUniverse, UniverseOptions};
use ndetect_testutil::{arb_netlist, DetectionOracle};
use proptest::prelude::*;

fn universe_with_threads(netlist: &ndetect::netlist::Netlist, threads: usize) -> FaultUniverse {
    FaultUniverse::build_with(netlist, UniverseOptions::with_threads(threads))
        .expect("circuit fits exhaustive simulation")
}

/// Asserts that two universes carry identical faults and detection sets.
fn assert_universes_identical(a: &FaultUniverse, b: &FaultUniverse, label: &str) {
    assert_eq!(a.targets(), b.targets(), "{label}: target fault lists");
    assert_eq!(a.target_sets(), b.target_sets(), "{label}: target sets");
    assert_eq!(a.bridges(), b.bridges(), "{label}: bridge fault lists");
    assert_eq!(
        a.bridge_classes(),
        b.bridge_classes(),
        "{label}: bridge classes"
    );
    assert_eq!(
        a.bridge_class_of(),
        b.bridge_class_of(),
        "{label}: bridge class index"
    );
    assert_eq!(
        a.num_undetectable_bridges(),
        b.num_undetectable_bridges(),
        "{label}: undetectable count"
    );
}

#[test]
fn universe_build_is_thread_count_invariant_on_suite_circuits() {
    // Two suite circuits of different widths: dk16 is a single-block
    // space (7 bits), keyb a 64-block space (12 bits).
    for name in ["dk16", "keyb"] {
        let netlist = ndetect::circuits::build(name).expect("suite circuit builds");
        let serial = universe_with_threads(&netlist, 1);
        let parallel = universe_with_threads(&netlist, 4);
        assert_universes_identical(&serial, &parallel, name);

        // The nmin vectors derived from the universes agree too, and the
        // threaded nmin pass agrees with the serial one.
        let wc1 = WorstCaseAnalysis::compute_with(&serial, 1);
        let wc4 = WorstCaseAnalysis::compute_with(&parallel, 4);
        assert_eq!(wc1.nmin_values(), wc4.nmin_values(), "{name}: nmin");
    }
}

/// The per-fault entry points, one fresh scratch per call, against the
/// fault-parallel 4-thread universe.
#[test]
fn block_parallel_detection_sets_match_serial() {
    let netlist = ndetect::circuits::build("keyb").expect("suite circuit builds");
    let universe = universe_with_threads(&netlist, 4);
    let sim = universe.simulator();
    for (i, &fault) in universe.targets().iter().enumerate().take(40) {
        let serial = sim.detection_set_stuck(&netlist, fault);
        assert_eq!(&serial, universe.target_set(i), "stuck fault {i}");
    }
    for (j, fault) in universe.bridges().iter().enumerate().take(40) {
        let serial = sim.detection_set_bridge(&netlist, fault);
        assert_eq!(&serial, universe.bridge_set(j), "bridge {j} vs universe");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Universe builds on random netlists are identical for 1 and 3
    /// worker threads (3 deliberately does not divide typical fault
    /// counts, exercising uneven tiles).
    #[test]
    fn universe_build_is_thread_count_invariant_on_random_netlists(
        netlist in arb_netlist(6),
    ) {
        let serial = universe_with_threads(&netlist, 1);
        let parallel = universe_with_threads(&netlist, 3);
        assert_universes_identical(&serial, &parallel, netlist.name());
        let wc1 = WorstCaseAnalysis::compute_with(&serial, 1);
        let wc3 = WorstCaseAnalysis::compute_with(&parallel, 3);
        prop_assert_eq!(wc1.nmin_values(), wc3.nmin_values());
    }

    /// The per-fault entry points equal the 4-thread universe on random
    /// netlists, for stuck-at and bridging faults alike, and both equal
    /// the oracle.
    #[test]
    fn block_parallel_matches_serial_on_random_netlists(
        netlist in arb_netlist(7),
    ) {
        let universe = universe_with_threads(&netlist, 4);
        let sim = universe.simulator();
        let oracle = DetectionOracle::new(&netlist);
        for (i, &fault) in universe.targets().iter().enumerate() {
            let serial = sim.detection_set_stuck(&netlist, fault);
            prop_assert_eq!(&serial, universe.target_set(i), "stuck fault {}", fault.name(&netlist));
            prop_assert_eq!(serial.to_vec(), oracle.stuck_set(fault.line, fault.value));
        }
        for (j, b) in universe.bridges().iter().enumerate() {
            let serial = sim.detection_set_bridge(&netlist, b);
            prop_assert_eq!(&serial, universe.bridge_set(j));
            let expected = oracle.bridge_set(b.victim, b.victim_value, b.aggressor, b.aggressor_value);
            prop_assert_eq!(serial.to_vec(), expected);
        }
    }
}
