//! End-to-end cold-vs-warm equivalence across the whole pipeline: the
//! on-disk artifact store must make repeated analyses incremental while
//! leaving every analysis result bit-identical — universes, `nmin`
//! vectors, coverage percentages, and the paper's golden Figure-1
//! numbers.

use ndetect::analysis::{
    estimate_detection_probabilities_stored, nmin_pair, Procedure1Config, WorstCaseAnalysis,
    KIND_WORST_CASE,
};
use ndetect::circuits::figure1;
use ndetect::faults::{FaultUniverse, UniverseOptions};
use ndetect::gen::{generate_stored, GenOptions};
use ndetect::store::{encode_to_vec, Store};
use std::path::PathBuf;

fn temp_store(tag: &str) -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ndetect-e2e-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Store::open(&dir).unwrap(), dir)
}

#[test]
fn warm_pipeline_reproduces_the_papers_figure1_numbers() {
    let (store, dir) = temp_store("figure1");
    let circuit = figure1::netlist();
    let options = UniverseOptions::default();

    // Cold pass: builds and populates the store.
    let cold_universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let cold_wc = WorstCaseAnalysis::compute_stored(&cold_universe, 0, Some(&store));
    assert_eq!(store.session_hits(), 0);
    assert_eq!(store.session_misses(), 2);

    // Warm pass: everything expensive comes from disk.
    let warm_universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let warm_wc = WorstCaseAnalysis::compute_stored(&warm_universe, 0, Some(&store));
    assert_eq!(store.session_hits(), 2);
    assert_eq!(store.session_misses(), 2);

    // Bit-identical analysis outputs.
    assert_eq!(cold_wc.nmin_values(), warm_wc.nmin_values());
    for n in [1, 2, 3, 4, 10] {
        assert_eq!(cold_wc.coverage_percent(n), warm_wc.coverage_percent(n));
    }

    // And both match the paper: nmin(g0) = 3, nmin(g6) = 4.
    let g0 = figure1::paper_bridge_index(&warm_universe, "9", false, "10", true).unwrap();
    let g6 = figure1::paper_bridge_index(&warm_universe, "11", false, "9", true).unwrap();
    assert_eq!(warm_wc.nmin(g0), Some(3));
    assert_eq!(warm_wc.nmin(g6), Some(4));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_pipeline_covers_generation_and_procedure1_artifacts() {
    // The full derived-artifact chain — universe, nmin vectors,
    // generated set, Procedure-1 probabilities — must be incremental
    // across processes: a warm pass performs zero recomputation and
    // reproduces every result bit-identically.
    let (store, dir) = temp_store("gen-proc1");
    let circuit = figure1::netlist();
    let options = UniverseOptions::default();
    let gen_options = GenOptions {
        n: 3,
        compact: true,
        ..GenOptions::default()
    };
    let proc1 = Procedure1Config {
        nmax: 3,
        num_test_sets: 30,
        ..Default::default()
    };

    let cold_universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let cold_wc = WorstCaseAnalysis::compute_stored(&cold_universe, 0, Some(&store));
    let cold_set = generate_stored(&cold_universe, &gen_options, Some(&store)).0;
    let tracked = cold_wc.tail_indices(3);
    assert!(!tracked.is_empty());
    let cold_probs =
        estimate_detection_probabilities_stored(&cold_universe, &tracked, &proc1, Some(&store))
            .unwrap();
    assert_eq!(store.session_hits(), 0);
    assert_eq!(store.session_misses(), 4);

    let warm_universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let warm_wc = WorstCaseAnalysis::compute_stored(&warm_universe, 0, Some(&store));
    let warm_set = generate_stored(&warm_universe, &gen_options, Some(&store)).0;
    let warm_probs =
        estimate_detection_probabilities_stored(&warm_universe, &tracked, &proc1, Some(&store))
            .unwrap();
    assert_eq!(store.session_hits(), 4);
    assert_eq!(store.session_misses(), 4);

    assert_eq!(cold_set, warm_set);
    assert!(warm_set.satisfies(&warm_universe));
    assert_eq!(cold_wc.nmin_values(), warm_wc.nmin_values());
    for n in 1..=3 {
        for pos in 0..tracked.len() {
            assert_eq!(
                cold_probs.probability(n, pos),
                warm_probs.probability(n, pos)
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn suite_circuit_round_trips_through_the_store() {
    let (store, dir) = temp_store("lion");
    let circuit = ndetect::circuits::build("lion").unwrap();
    let options = UniverseOptions::default();

    let cold = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let warm = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    assert_eq!(store.session_hits(), 1);
    assert_eq!(cold.targets(), warm.targets());
    assert_eq!(cold.bridges(), warm.bridges());
    for (a, b) in cold.target_sets().iter().zip(warm.target_sets()) {
        assert_eq!(a, b);
    }
    for (a, b) in cold.bridge_sets().iter().zip(warm.bridge_sets()) {
        assert_eq!(a, b);
    }

    // The store inventory is sane: one universe entry plus counters.
    let stats = store.stats().unwrap();
    assert_eq!(stats.entries, 1);
    assert!(stats.total_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worst-case entry whose bytes decode but mean something else never
/// reaches the caller. Each mutation goes through `Store::save`, so its
/// checksum is valid, and must reload as a fresh computation.
#[test]
fn mutated_worst_case_entries_reload_as_a_fresh_compute() {
    let (store, dir) = temp_store("worst-mutations");
    let circuit = ndetect::circuits::build("c17").unwrap();
    let universe = FaultUniverse::build(&circuit).unwrap();
    let fresh = WorstCaseAnalysis::compute_with(&universe, 1);
    let nmin = fresh.nmin_values().to_vec();
    let witness: Vec<Option<usize>> = (0..fresh.len()).map(|j| fresh.witness(j)).collect();

    // A class of two or more bridges with a witness, its members, and
    // a target that is not the witness but overlaps `T(g)`.
    let class_of = universe.bridge_class_of();
    let members_of = |j: usize| -> Vec<usize> {
        (0..class_of.len())
            .filter(|&k| class_of[k] == class_of[j])
            .collect()
    };
    let j = (0..nmin.len())
        .find(|&j| witness[j].is_some() && members_of(j).len() >= 2)
        .expect("c17 has a multi-bridge class with a witness");
    let members = members_of(j);
    let (n, w) = (nmin[j].unwrap(), witness[j].unwrap());
    let other = (0..universe.targets().len())
        .find(|&f| f != w && nmin_pair(&universe, j, f).is_some_and(|m| m != n))
        .expect("a second overlapping target with another nmin(g,f)");

    let class_wide = |pair: (Option<u32>, Option<usize>)| {
        let (mut nmin, mut witness) = (nmin.clone(), witness.clone());
        for &k in &members {
            (nmin[k], witness[k]) = pair;
        }
        (nmin, witness)
    };
    let mut disagreeing = (nmin.clone(), witness.clone());
    let last = *members.last().unwrap();
    (disagreeing.0[last], disagreeing.1[last]) = (nmin_pair(&universe, j, other), Some(other));
    let mutations = [
        ("bumped nmin", class_wide((Some(n + 1), Some(w)))),
        ("dropped witness", class_wide((Some(n), None))),
        ("moved witness", class_wide((Some(n), Some(other)))),
        ("disagreeing class members", disagreeing),
    ];

    // Save through the store (a valid checksum), then load.
    let key = WorstCaseAnalysis::store_key(&universe);
    let reload = |entry: &(Vec<Option<u32>>, Vec<Option<usize>>)| {
        let bytes = encode_to_vec(entry);
        store.save(key, KIND_WORST_CASE, &bytes).unwrap();
        let wc = WorstCaseAnalysis::compute_stored(&universe, 1, Some(&store));
        let witness: Vec<Option<usize>> = (0..wc.len()).map(|k| wc.witness(k)).collect();
        (wc.nmin_values().to_vec(), witness)
    };
    for (label, entry) in &mutations {
        assert_eq!(reload(entry), (nmin.clone(), witness.clone()), "{label}");
    }
    // Control: a class turned into `None`/`None` is a documented residual
    // and is served as stored, so the saves above did reach the loader.
    assert_eq!(reload(&class_wide((None, None))).0[j], None);
    let _ = std::fs::remove_dir_all(&dir);
}
