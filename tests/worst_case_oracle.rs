//! The worst-case `nmin` pass checked against the paper's definition
//! rather than against a second implementation of the pass:
//!
//! ```text
//! nmin(g) = min over f with T(f) ∩ T(g) ≠ ∅ of N(f) − M(g,f) + 1
//! ```
//!
//! `overlapping_targets` evaluates `nmin(g,f)` exactly for every pair, so
//! it is the oracle for every bridge. The witness must be the target with
//! the smallest `(nmin(g,f), N(f), index)`. Every check runs at 1, 2 and
//! 4 worker threads.

use ndetect::analysis::{overlapping_targets, WorstCaseAnalysis};
use ndetect::faults::{ExplicitTargets, FaultUniverse, UniverseOptions};
use ndetect::netlist::{bench_format, Netlist};
use ndetect_testutil::arb_netlist_sized;
use proptest::prelude::*;

/// `(nmin(g), witness)` of every bridge, straight from the definition.
fn oracle(u: &FaultUniverse) -> Vec<Option<(u32, usize)>> {
    (0..u.bridges().len())
        .map(|j| {
            overlapping_targets(u, j)
                .into_iter()
                .min_by_key(|&(fi, nmin)| (nmin, u.target_set(fi).len(), fi))
                .map(|(fi, nmin)| (nmin, fi))
        })
        .collect()
}

/// Asserts the pass against [`oracle`] on every bridge of `u`, at 1, 2
/// and 4 threads.
fn assert_matches_definition(u: &FaultUniverse, label: &str) {
    let expected = oracle(u);
    for threads in [1, 2, 4] {
        let wc = WorstCaseAnalysis::compute_with(u, threads);
        assert_eq!(wc.len(), expected.len(), "{label}: one nmin per bridge");
        for (j, want) in expected.iter().enumerate() {
            let got = wc.nmin(j).zip(wc.witness(j));
            assert_eq!(got, *want, "{label}, threads={threads}: bridge {j}");
        }
    }
}

/// Checks figure1, c17 and every suite circuit with at most `max_inputs`
/// inputs; returns how many circuits it checked.
fn check_registry(max_inputs: usize) -> usize {
    let suite = ndetect::circuits::suite();
    let names = ["figure1", "c17"]
        .into_iter()
        .chain(suite.iter().map(|spec| spec.name()));
    let mut checked = 0;
    for name in names {
        let netlist = ndetect::circuits::build(name).expect("registry circuit builds");
        if netlist.num_inputs() > max_inputs {
            continue;
        }
        let u = FaultUniverse::build(&netlist).expect("universe builds");
        assert_matches_definition(&u, name);
        checked += 1;
    }
    checked
}

#[test]
fn registry_circuits_up_to_256_vectors_match_the_definition() {
    // |U| = 2^inputs ≤ 256: figure1, c17 and 24 suite circuits.
    assert_eq!(check_registry(8), 26);
}

#[test]
#[ignore = "about a minute in release: cargo test --release --test worst_case_oracle -- --ignored"]
fn every_registry_circuit_matches_the_definition() {
    assert_eq!(check_registry(usize::MAX), 37);
}

/// Every stuck-at fault as a target, not just the collapsed ones.
fn all_targets(netlist: &Netlist) -> FaultUniverse {
    let options = UniverseOptions {
        collapse_targets: false,
        ..UniverseOptions::default()
    };
    FaultUniverse::build_with(netlist, options).expect("universe builds")
}

#[test]
fn an_equal_candidate_tie_goes_to_the_smallest_n_then_the_lowest_index() {
    // On c17 the bridge with T(g) = {6, 7, 14, 15} reaches
    // nmin(g,f) = 3 from three targets: 1/1 with N(f) = 6, and the
    // branch faults 11->19.0/1 and 11->16.1/1 with N(f) = 4 each. Listed
    // in that order, the index order disagrees with the N(f) order.
    let netlist = ndetect::circuits::build("c17").expect("c17 builds");
    let all = all_targets(&netlist);
    let fault = |line: &str| {
        *all.targets()
            .iter()
            .find(|f| f.value && netlist.lines().line(f.line).name() == line)
            .expect("target exists")
    };
    let explicit = ExplicitTargets {
        targets: vec![fault("1"), fault("11->19.0"), fault("11->16.1")],
        bridge_stems: netlist.multi_input_gate_stems(),
        canonical: b"c17 with three tied targets".to_vec(),
    };
    let u = FaultUniverse::build_explicit(&netlist, &explicit, UniverseOptions::default())
        .expect("universe builds");
    let g = (0..u.bridges().len())
        .find(|&j| u.bridge_set(j).to_vec() == [6, 7, 14, 15])
        .expect("c17 has the tied bridge");
    assert_eq!(overlapping_targets(&u, g), [(0, 3), (1, 3), (2, 3)]);
    let sizes: Vec<usize> = u.target_sets().iter().map(|t| t.len()).collect();
    assert_eq!(sizes, [6, 4, 4]);
    for threads in [1, 2, 4] {
        let wc = WorstCaseAnalysis::compute_with(&u, threads);
        assert_eq!(wc.nmin(g), Some(3));
        assert_eq!(wc.witness(g), Some(1), "threads={threads}");
    }
    assert_matches_definition(&u, "c17, tied targets");
}

#[test]
fn bridges_with_identical_detection_sets_match_the_definition() {
    // y and z compute the same function, so bridging either one to w
    // gives the same T(g), and y/0 and z/0 tie as targets.
    let source = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\nOUTPUT(w)\n\
                  y = AND(a, b)\nz = AND(a, b)\nw = OR(b, c)\n";
    let netlist = bench_format::parse("twins", source).expect("valid bench");
    let u = all_targets(&netlist);
    let jy = u.find_bridge("y", false, "w", true).expect("bridge y-w");
    let jz = u.find_bridge("z", false, "w", true).expect("bridge z-w");
    assert_ne!(jy, jz);
    assert_eq!(u.bridge_set(jy), u.bridge_set(jz));
    assert_matches_definition(&u, "twins");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to 13 inputs, so that sets span several 512-vector superblocks
    /// and several 8-superblock profile groups.
    #[test]
    fn random_netlists_match_the_definition(netlist in arb_netlist_sized(13, 24)) {
        let u = FaultUniverse::build(&netlist).expect("universe builds");
        assert_matches_definition(&u, netlist.name());
    }
}
