//! Property suite for the n-detection generator, verified against
//! `ndetect_testutil::DetectionOracle` (an independent simulation of the
//! fault definitions) rather than the event-driven detection sets the
//! generator itself consumes — so a kernel bug and a generator bug
//! cannot cancel out:
//!
//! * for every suite circuit and `n ∈ {1, 3, 10}`, the generated set
//!   detects each target fault `min(n, |T(f)|)` times;
//! * compaction never breaks the property and never grows the set, and
//!   on every suite circuit it keeps exactly the vectors of the probing
//!   oracle below;
//! * `|T|` at `n = 1` stays at or below the exhaustive-space size on
//!   all three corpus circuits;
//! * the same properties hold on randomly generated netlists, seeded
//!   and unseeded;
//! * the generator, which maintains its gain row across rounds and
//!   finds each pick with a rank-order cursor, picks exactly the vectors
//!   of a naive greedy that recounts every gain in every round, for
//!   every thread count;
//! * compaction, which reads each vector's row of the universe's
//!   vector→target index, keeps exactly the vectors of a reverse pass
//!   that probes every `T(f)` for every vector.

use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_gen::{compact, generate, GenOptions};
use ndetect_netlist::{bench_format, Netlist};
use ndetect_sim::VectorSet;
use ndetect_testutil::{arb_netlist_sized, DetectionOracle};
use proptest::prelude::*;
use std::path::PathBuf;

/// Builds the targets-only universe (bridging faults are irrelevant to
/// the n-detection requirement and dominate build time).
fn targets_universe(netlist: &Netlist) -> FaultUniverse {
    FaultUniverse::build_with(
        netlist,
        UniverseOptions {
            include_bridges: false,
            ..UniverseOptions::default()
        },
    )
    .expect("circuit fits exhaustive simulation")
}

/// Recomputes every target detection set through the oracle.
fn oracle_sets(netlist: &Netlist, universe: &FaultUniverse) -> Vec<VectorSet> {
    let oracle = DetectionOracle::new(netlist);
    let num_patterns = universe.space().num_patterns();
    (universe.targets().iter())
        .map(|f| VectorSet::from_vectors(num_patterns, oracle.stuck_set(f.line, f.value)))
        .collect()
}

/// Asserts the n-detection property of `members` against the oracle
/// sets: every target detected `min(n, |T(f)|)` times.
fn assert_oracle_property(
    circuit: &str,
    n: u32,
    oracle: &[VectorSet],
    members: &VectorSet,
    label: &str,
) {
    for (fi, t_f) in oracle.iter().enumerate() {
        let want = t_f.len().min(n as usize);
        let got = t_f.intersection_count(members);
        assert!(
            got >= want,
            "{circuit}: {label} set detects target {fi} only {got} < {want} times at n={n}"
        );
    }
}

#[test]
fn every_suite_circuit_meets_the_oracle_requirement() {
    for spec in ndetect_circuits::suite() {
        let netlist = ndetect_circuits::build(spec.name()).expect("suite circuit builds");
        let universe = targets_universe(&netlist);
        let oracle = oracle_sets(&netlist, &universe);
        for n in [1u32, 3, 10] {
            let raw = generate(&universe, &GenOptions::with_n(n));
            assert!(raw.satisfies(&universe), "{}: n={n}", spec.name());
            assert_oracle_property(spec.name(), n, &oracle, raw.as_vector_set(), "raw");

            let mut compacted = raw.clone();
            let removed = compact(&mut compacted, &universe);
            assert_eq!(compacted.len() + removed, raw.len());
            assert!(compacted.satisfies(&universe), "{}: n={n}", spec.name());
            assert_eq!(
                compacted.vectors(),
                probing_compaction(&universe, n, raw.vectors()),
                "{}: n={n}",
                spec.name()
            );
            assert_oracle_property(
                spec.name(),
                n,
                &oracle,
                compacted.as_vector_set(),
                "compacted",
            );
        }
    }
}

/// The generator's tie-breaking rank: SplitMix64 over the seed and the
/// vector index.
fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The greedy set cover written the slow way, as the differential
/// oracle for [`generate`]: every round recounts, for every unchosen
/// vector, the deficient targets that detect it, and takes the highest
/// count — ties to the smallest index, or with a seed to the smallest
/// rank.
fn recounting_greedy(universe: &FaultUniverse, n: u32, seed: Option<u64>) -> Vec<u32> {
    let targets = universe.target_sets();
    let num_patterns = universe.space().num_patterns();
    let mut deficit: Vec<usize> = targets.iter().map(|t| t.len().min(n as usize)).collect();
    let mut chosen = VectorSet::new(num_patterns);
    let mut vectors = Vec::new();
    while deficit.iter().any(|&d| d > 0) {
        let mut gain = vec![0u32; num_patterns];
        for (t_f, _) in targets.iter().zip(&deficit).filter(|&(_, &d)| d > 0) {
            for v in t_f.iter().filter(|&v| !chosen.contains(v)) {
                gain[v] += 1;
            }
        }
        let rank = |v: usize| seed.map_or(v as u64, |s| mix(s, v as u64));
        let best = (0..num_patterns)
            .filter(|&v| gain[v] > 0)
            .max_by(|&a, &b| gain[a].cmp(&gain[b]).then(rank(b).cmp(&rank(a))))
            .expect("a deficient target has an unchosen vector");
        chosen.insert(best);
        vectors.push(best as u32);
        for (t_f, d) in targets.iter().zip(&mut deficit) {
            if *d > 0 && t_f.contains(best) {
                *d -= 1;
            }
        }
    }
    vectors
}

/// Reverse-order compaction written the slow way, as the differential
/// oracle for [`compact`]: for each vector, last first, probe every
/// `T(f)` for it; keep it if a target at its requirement detects it,
/// otherwise drop it and lower the count of every target that does.
/// Sweeps repeat until one removes nothing.
fn probing_compaction(universe: &FaultUniverse, n: u32, vectors: &[u32]) -> Vec<u32> {
    let targets = universe.target_sets();
    let num_patterns = universe.space().num_patterns();
    let members = VectorSet::from_vectors(num_patterns, vectors.iter().map(|&v| v as usize));
    let goal: Vec<usize> = targets.iter().map(|t| t.len().min(n as usize)).collect();
    let mut counts: Vec<usize> = targets
        .iter()
        .map(|t| t.intersection_count(&members))
        .collect();
    let mut kept = vectors.to_vec();
    loop {
        let before = kept.len();
        for idx in (0..kept.len()).rev() {
            let v = kept[idx] as usize;
            let blocked = (0..targets.len())
                .any(|fi| goal[fi] > 0 && counts[fi] <= goal[fi] && targets[fi].contains(v));
            if blocked {
                continue;
            }
            for (count, t_f) in counts.iter_mut().zip(targets) {
                if t_f.contains(v) {
                    *count -= 1;
                }
            }
            kept.remove(idx);
        }
        if kept.len() == before {
            break;
        }
    }
    kept
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/corpus")
}

#[test]
fn corpus_one_detection_sets_beat_the_exhaustive_baseline() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "bench"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 4, "four corpus circuits");
    let mut combinational = 0;
    for path in paths {
        let name = path.file_stem().and_then(|s| s.to_str()).expect("utf8");
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        // The sequential fixture (s27) is exercised through its
        // time-frame expansion elsewhere; this oracle is combinational.
        let netlist = match bench_format::parse(name, &text) {
            Ok(n) => n,
            Err(ndetect_netlist::NetlistError::Sequential { .. }) => continue,
            Err(e) => panic!("corpus file parses: {e}"),
        };
        combinational += 1;
        let universe = targets_universe(&netlist);
        let oracle = oracle_sets(&netlist, &universe);
        let set = generate(
            &universe,
            &GenOptions {
                n: 1,
                compact: true,
                ..GenOptions::default()
            },
        );
        assert_oracle_property(name, 1, &oracle, set.as_vector_set(), "compacted");
        // The exhaustive space is the trivial 1-detection set; the
        // generated set must never be larger (and on these circuits it
        // is far smaller).
        let exhaustive = universe.space().num_patterns();
        assert!(
            set.len() <= exhaustive,
            "{name}: |T| = {} > |U| = {exhaustive}",
            set.len()
        );
        assert!(
            set.len() * 2 <= exhaustive,
            "{name}: a compact 1-detection set should be well below |U| ({} vs {exhaustive})",
            set.len()
        );
    }
    assert_eq!(combinational, 3, "three combinational corpus circuits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generation_matches_the_recounting_oracle(
        // Up to 9 inputs: 512 patterns, so the gain row spans several
        // blocks. n up to 16 makes the generator's cursor walk many
        // gain levels.
        netlist in arb_netlist_sized(9, 24),
        n in 1u32..=16,
        seed_raw in any::<u64>(),
    ) {
        let seed = (seed_raw % 2 == 1).then_some(seed_raw);
        let universe = targets_universe(&netlist);
        let expected = recounting_greedy(&universe, n, seed);
        for threads in [1, 4] {
            let options = GenOptions { n, seed, threads, ..GenOptions::default() };
            let set = generate(&universe, &options);
            prop_assert_eq!(
                set.vectors(),
                &expected[..],
                "n={} seed={:?} threads={}",
                n, seed, threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compaction_matches_the_probing_oracle(
        // Greedy sets on netlists this small rarely hold a redundant
        // vector; up to 12 inputs and 120 gates, about one case in six
        // removes some.
        netlist in arb_netlist_sized(12, 120),
        n in 1u32..=16,
        seed_raw in any::<u64>(),
    ) {
        let seed = (seed_raw % 2 == 1).then_some(seed_raw);
        let universe = targets_universe(&netlist);
        let options = GenOptions { n, seed, ..GenOptions::default() };
        let raw = generate(&universe, &options);
        let expected = probing_compaction(&universe, n, raw.vectors());
        let mut compacted = raw.clone();
        let removed = compact(&mut compacted, &universe);
        prop_assert_eq!(compacted.vectors(), &expected[..], "n={} seed={:?}", n, seed);
        prop_assert_eq!(removed + expected.len(), raw.len());
        prop_assert!(compacted.satisfies(&universe));
        let via_option = generate(&universe, &GenOptions { compact: true, ..options });
        prop_assert_eq!(via_option, compacted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_netlists_meet_the_oracle_requirement(
        netlist in arb_netlist_sized(5, 16),
        n in 1u32..=4,
        seed_raw in any::<u64>(),
    ) {
        // The vendored proptest has no Option strategy; derive one.
        let seed = (seed_raw % 2 == 1).then_some(seed_raw);
        let universe = targets_universe(&netlist);
        let oracle = oracle_sets(&netlist, &universe);
        let options = GenOptions { n, seed, ..GenOptions::default() };
        let raw = generate(&universe, &options);
        prop_assert!(raw.satisfies(&universe));
        assert_oracle_property(netlist.name(), n, &oracle, raw.as_vector_set(), "raw");

        let mut compacted = raw.clone();
        let removed = compact(&mut compacted, &universe);
        prop_assert_eq!(compacted.len() + removed, raw.len());
        prop_assert!(compacted.satisfies(&universe));
        assert_oracle_property(netlist.name(), n, &oracle, compacted.as_vector_set(), "compacted");
    }

    #[test]
    fn warm_generation_is_bit_identical_to_cold(
        netlist in arb_netlist_sized(4, 10),
        n in 1u32..=3,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ndetect-gen-prop-{}-{}",
            std::process::id(),
            netlist.name(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ndetect_store::Store::open(&dir).expect("temp store opens");
        let universe = targets_universe(&netlist);
        let options = GenOptions { n, compact: true, ..GenOptions::default() };
        let cold = ndetect_gen::generate_stored(&universe, &options, Some(&store));
        let warm = ndetect_gen::generate_stored(&universe, &options, Some(&store));
        prop_assert_eq!(&cold, &warm);
        prop_assert!(store.session_hits() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
