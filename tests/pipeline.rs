//! Cross-crate integration tests: the full KISS2 → synthesis → fault
//! universe → worst-case → average-case pipeline on real suite
//! circuits, checking the structural invariants that must hold for
//! *any* circuit.

use ndetect::analysis::{
    bridge_coverage, estimate_detection_probabilities, DetectionDefinition, Procedure1Config,
    WorstCaseAnalysis,
};
use ndetect::faults::FaultUniverse;
use ndetect::fsm::{synthesize, MinimizeMode, StateEncoding, SynthOptions};
use ndetect::gen::{generate, GenOptions};

/// Small, fast circuits exercised in debug-mode CI.
const SMALL: &[&str] = &["lion", "dk27", "bbtas", "firstex", "modulo12", "tav"];

#[test]
fn worst_case_invariants_hold_across_the_small_suite() {
    for name in SMALL {
        let netlist = ndetect::circuits::build(name).expect("suite circuit builds");
        let universe = FaultUniverse::build(&netlist).expect("fits exhaustive sim");
        let wc = WorstCaseAnalysis::compute(&universe);
        assert_eq!(wc.len(), universe.bridges().len(), "{name}");

        // Coverage is monotone and reaches 100% at the largest finite
        // nmin (if every fault has a bound).
        let mut prev = -1.0;
        for n in 1..=wc.max_finite().unwrap_or(1) {
            let c = wc.coverage_percent(n);
            assert!(c >= prev, "{name}: coverage not monotone at n={n}");
            prev = c;
        }
        let unbounded = wc.nmin_values().iter().filter(|v| v.is_none()).count();
        if unbounded == 0 {
            let top = wc.max_finite().expect("non-empty");
            assert!(
                (wc.coverage_percent(top) - 100.0).abs() < 1e-9,
                "{name}: coverage must reach 100% at nmin_max"
            );
        }

        // nmin is achieved by its witness.
        for j in (0..wc.len()).step_by(7) {
            if let (Some(nmin), Some(w)) = (wc.nmin(j), wc.witness(j)) {
                let t_f = universe.target_set(w);
                let t_g = universe.bridge_set(j);
                let m = t_f.intersection_count(t_g);
                assert!(m > 0, "{name}: witness must overlap");
                assert_eq!(t_f.len() - m + 1, nmin as usize, "{name} bridge {j}");
            }
        }
    }
}

#[test]
fn every_detection_guarantee_is_actually_honoured_by_random_sets() {
    // The central theorem of the worst-case analysis, checked
    // empirically: any n-detection test set with n >= nmin(g) detects g.
    for name in SMALL {
        let netlist = ndetect::circuits::build(name).expect("builds");
        let universe = FaultUniverse::build(&netlist).expect("fits");
        let wc = WorstCaseAnalysis::compute(&universe);
        let config = Procedure1Config {
            nmax: 5,
            num_test_sets: 20,
            seed: 42,
            ..Default::default()
        };
        let series =
            ndetect::analysis::construct_test_set_series(&universe, &config).expect("valid config");
        for n in 1..=5u32 {
            for set in &series.sets[(n - 1) as usize] {
                for (j, t_g) in universe.bridge_sets().iter().enumerate() {
                    if let Some(nmin) = wc.nmin(j) {
                        if nmin <= n {
                            assert!(
                                set.detects(t_g),
                                "{name}: guarantee violated for bridge {j} at n={n}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn definition2_improves_or_matches_average_coverage() {
    // The paper's Table 6 direction, on a circuit with tail faults.
    let netlist = ndetect::circuits::build("cse").expect("builds");
    let universe = FaultUniverse::build(&netlist).expect("fits");
    let wc = WorstCaseAnalysis::compute(&universe);
    let tracked = wc.tail_indices(11);
    assert!(!tracked.is_empty(), "cse must have tail faults");
    let base = Procedure1Config {
        nmax: 6,
        num_test_sets: 40,
        ..Default::default()
    };
    let d1 = estimate_detection_probabilities(&universe, &tracked, &base).expect("ok");
    let d2 = estimate_detection_probabilities(
        &universe,
        &tracked,
        &Procedure1Config {
            definition: DetectionDefinition::SufficientlyDifferent,
            ..base
        },
    )
    .expect("ok");
    // At K = 40 the escape estimates carry roughly half an escape of
    // Monte-Carlo standard error each (550 tracked faults), so the two
    // runs can differ by well over one escape in either direction even
    // though definition 2 is strictly better once K converges (at
    // K = 200 it wins 5.07 vs 7.32). Guard only against a substantial
    // regression, not against sampling noise.
    assert!(
        d2.expected_escapes(6) <= d1.expected_escapes(6) + 2.0,
        "definition 2 should not be substantially worse: {} vs {}",
        d2.expected_escapes(6),
        d1.expected_escapes(6)
    );
}

#[test]
fn greedy_sets_beat_random_sets_on_size() {
    for name in ["bbtas", "tav"] {
        let netlist = ndetect::circuits::build(name).expect("builds");
        let universe = FaultUniverse::build(&netlist).expect("fits");
        let greedy = generate(&universe, &GenOptions::with_n(3));
        let config = Procedure1Config {
            nmax: 3,
            num_test_sets: 5,
            ..Default::default()
        };
        let series =
            ndetect::analysis::construct_test_set_series(&universe, &config).expect("valid config");
        let avg_random: f64 = series.sets[2].iter().map(|s| s.len() as f64).sum::<f64>() / 5.0;
        // Greedy optimizes marginal gain, not final cardinality, so it is
        // competitive rather than strictly smaller.
        assert!(
            (greedy.len() as f64) <= avg_random * 1.2 + 1.0,
            "{name}: greedy {} not competitive with random {avg_random}",
            greedy.len()
        );
        assert!(bridge_coverage(&universe, greedy.as_vector_set()) > 0.0);
        // Bridging coverage grows with n here (not a theorem: the greedy
        // set for a larger n need not contain the smaller one).
        let coverage = |n| {
            bridge_coverage(
                &universe,
                generate(&universe, &GenOptions::with_n(n)).as_vector_set(),
            )
        };
        let (c1, c8) = (coverage(1), coverage(8));
        assert!(c1 <= c8 && c8 <= 100.0, "{name}: {c1} at n=1, {c8} at n=8");
    }
}

#[test]
fn synthesis_modes_agree_on_specified_behaviour() {
    // Direct and minimized synthesis of the same machine must agree on
    // every (state, input) pair the table specifies.
    for name in ["dk27", "ex5", "tav"] {
        let spec = ndetect::circuits::spec(name).expect("in suite");
        let fsm = spec.build_fsm();
        let enc = StateEncoding::binary(fsm.num_states());
        let direct = synthesize(
            &fsm,
            &enc,
            SynthOptions {
                minimize: MinimizeMode::Never,
            },
        )
        .expect("synthesizes");
        let minimized = synthesize(
            &fsm,
            &enc,
            SynthOptions {
                minimize: MinimizeMode::Heuristic,
            },
        )
        .expect("synthesizes");

        let ni = fsm.num_inputs();
        let nb = enc.num_bits();
        for code in 0..(1u32 << nb) {
            let Some(state) = enc.state_of_code(code) else {
                continue;
            };
            for m in 0..(1u32 << ni) {
                let Some(t) = fsm.lookup(m, state) else {
                    continue;
                };
                let mut bits = Vec::with_capacity(ni + nb);
                for i in 0..ni {
                    bits.push((m >> (ni - 1 - i)) & 1 == 1);
                }
                for j in 0..nb {
                    bits.push((code >> (nb - 1 - j)) & 1 == 1);
                }
                let a = direct.eval_bool(&bits);
                let b = minimized.eval_bool(&bits);
                // Next-state bits (after the primary outputs) must agree
                // exactly; specified output bits must agree too.
                for j in 0..nb {
                    assert_eq!(
                        a[fsm.num_outputs() + j],
                        b[fsm.num_outputs() + j],
                        "{name} ns{j} at m={m} code={code}"
                    );
                }
                for (j, bit) in t.outputs.iter().enumerate() {
                    if let ndetect::fsm::OutputBit::One | ndetect::fsm::OutputBit::Zero = bit {
                        assert_eq!(a[j], b[j], "{name} z{j} at m={m} code={code}");
                    }
                }
            }
        }
    }
}

#[test]
fn undetectable_targets_never_block_procedure1() {
    // Universes can contain undetectable (redundant) target faults;
    // Procedure 1 must still terminate and produce valid sets.
    for name in SMALL {
        let netlist = ndetect::circuits::build(name).expect("builds");
        let universe = FaultUniverse::build(&netlist).expect("fits");
        let undetectable = universe
            .target_sets()
            .iter()
            .filter(|t| t.is_empty())
            .count();
        // (Some suite circuits have redundant faults thanks to
        // don't-care minimization; either way the run must succeed.)
        let config = Procedure1Config {
            nmax: 3,
            num_test_sets: 3,
            ..Default::default()
        };
        let series =
            ndetect::analysis::construct_test_set_series(&universe, &config).expect("valid config");
        assert_eq!(series.sets.len(), 3, "{name} ({undetectable} undetectable)");
    }
}
