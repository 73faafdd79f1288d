//! The universe's vector→target index (`FaultUniverse::target_index`)
//! must be the exact transpose of its target sets: bit `f` of row `v`
//! is set exactly when `target_sets()[f].contains(v)`, and the bits past
//! the last target stay clear. Checked bit by bit on a fresh universe,
//! on the same universe loaded back from the store, on an
//! explicit-target universe (s27 under the transition model) and on
//! random netlists.

use ndetect_faults::{explicit_universe_key, FaultUniverse, UniverseOptions};
use ndetect_netlist::Netlist;
use ndetect_seq::{expand, FaultModel};
use ndetect_store::{Origin, Store};
use ndetect_testutil::arb_netlist_sized;
use proptest::prelude::*;

fn targets_only() -> UniverseOptions {
    UniverseOptions {
        include_bridges: false,
        ..UniverseOptions::default()
    }
}

fn cse() -> Netlist {
    ndetect_circuits::build("cse").expect("suite circuit builds")
}

fn assert_index_is_the_transpose(universe: &FaultUniverse, label: &str) {
    let sets = universe.target_sets();
    let num_patterns = universe.space().num_patterns();
    let index = universe.target_index();
    assert_eq!(
        index.num_rows(),
        num_patterns,
        "{label}: one row per vector"
    );
    assert_eq!(index.width(), sets.len().div_ceil(64), "{label}: row width");
    for v in 0..num_patterns {
        let row = index.row(v);
        for f in 0..64 * row.len() {
            let bit = row[f / 64] >> (f % 64) & 1 == 1;
            let want = f < sets.len() && sets[f].contains(v);
            assert_eq!(bit, want, "{label}: vector {v}, target {f}");
        }
    }
    assert!(
        std::ptr::eq(index, universe.target_index()),
        "{label}: the index is built once"
    );
}

#[test]
fn a_fresh_universe_indexes_its_target_sets() {
    let universe = FaultUniverse::build_with(&cse(), targets_only()).unwrap();
    // 626 targets: nine full words and a partial tenth.
    assert!(universe.targets().len() % 64 != 0);
    assert_index_is_the_transpose(&universe, "cse fresh");
}

#[test]
fn a_universe_loaded_from_the_store_indexes_its_target_sets() {
    let dir = std::env::temp_dir().join(format!(
        "ndetect-faults-target-index-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let netlist = cse();
    let build = || FaultUniverse::build_stored(&netlist, None, targets_only(), Some(&store));
    let (cold, _) = build().unwrap();
    let (warm, origin) = build().unwrap();
    assert_eq!(origin, Origin::Loaded, "the second build loads the entry");
    assert_index_is_the_transpose(&warm, "cse from the store");
    assert_eq!(cold.target_index(), warm.target_index());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_explicit_target_universe_indexes_its_target_sets() {
    let seq = ndetect_circuits::build_seq("s27").expect("s27 builds");
    let model = expand(&seq, FaultModel::Transition).unwrap();
    let explicit = model.explicit_targets();
    let options = UniverseOptions::default();
    let universe = FaultUniverse::build_explicit(model.netlist(), &explicit, options).unwrap();
    assert_eq!(
        universe.store_key(),
        explicit_universe_key(&explicit.canonical, options)
    );
    assert_index_is_the_transpose(&universe, "s27 transition");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_universes_index_their_target_sets(netlist in arb_netlist_sized(9, 24)) {
        let universe = FaultUniverse::build_with(&netlist, targets_only()).unwrap();
        assert_index_is_the_transpose(&universe, netlist.name());
    }
}
