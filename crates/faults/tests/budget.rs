//! Differential suite for the universe build on randomly generated
//! netlists. The fault simulator has one kernel and takes no memory
//! budget, so the worker count is the only knob a build has: at every
//! worker count the universe must be bit-identical to the default build,
//! which itself must match `ndetect_testutil::DetectionOracle` on every
//! stuck-at and bridging detection set.

use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_netlist::Netlist;
use ndetect_testutil::{arb_netlist_sized, DetectionOracle};
use proptest::prelude::*;

/// The worker counts every universe is rebuilt at.
const THREADS: [usize; 2] = [1, 4];

/// Asserts that every worker count reproduces the default universe bit
/// for bit, and that the default universe agrees with the oracle fault
/// by fault.
fn assert_budgets_agree(netlist: &Netlist) -> Result<(), TestCaseError> {
    let reference = FaultUniverse::build(netlist).expect("fits exhaustive sim");
    let sim = reference.simulator();
    let oracle = DetectionOracle::new(netlist);

    // Oracle pass: the reference universe's sets are exactly what the
    // definitions give.
    for (i, &fault) in reference.targets().iter().enumerate() {
        prop_assert_eq!(
            reference.target_set(i).to_vec(),
            oracle.stuck_set(fault.line, fault.value),
            "stuck fault {} vs oracle",
            fault.name(netlist)
        );
    }
    for (j, b) in reference.bridges().iter().enumerate() {
        prop_assert_eq!(
            reference.bridge_set(j).to_vec(),
            oracle.bridge_set(b.victim, b.victim_value, b.aggressor, b.aggressor_value),
            "bridge {} vs oracle",
            b.name(netlist)
        );
    }

    // Worker sweep: identical fault lists and identical set words.
    for threads in THREADS {
        let universe = FaultUniverse::build_with(netlist, UniverseOptions::with_threads(threads))
            .expect("fits exhaustive sim");
        prop_assert_eq!(
            universe.simulator().data_plane_bytes(),
            sim.data_plane_bytes()
        );
        prop_assert_eq!(universe.targets(), reference.targets());
        prop_assert_eq!(universe.bridges(), reference.bridges());
        for (i, (got, want)) in universe
            .target_sets()
            .iter()
            .zip(reference.target_sets())
            .enumerate()
        {
            prop_assert_eq!(
                got.words(),
                want.words(),
                "target {} threads {}",
                i,
                threads
            );
        }
        for (j, (got, want)) in universe
            .bridge_sets()
            .iter()
            .zip(reference.bridge_sets())
            .enumerate()
        {
            prop_assert_eq!(
                got.words(),
                want.words(),
                "bridge {} threads {}",
                j,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Small dense DAGs: single-block spaces.
    #[test]
    fn budgets_agree_on_small_netlists(netlist in arb_netlist_sized(4, 20)) {
        assert_budgets_agree(&netlist)?;
    }

    /// Wider spaces (up to 4 blocks): the multi-worker sweep splits the
    /// fault list across workers that each walk every block.
    #[test]
    fn budgets_agree_on_multi_block_netlists(netlist in arb_netlist_sized(8, 14)) {
        assert_budgets_agree(&netlist)?;
    }
}
