//! Cross-crate integration tests for the sequential pipeline: DFF-aware
//! frontend → two-frame broadside time-frame expansion → transition /
//! stuck-at lowering → the existing worst-case, average-case, and
//! generation engines, all through the umbrella crate exactly as a
//! downstream user would drive them.

use ndetect::analysis::{Procedure1Config, WorstCaseAnalysis};
use ndetect::faults::{FaultUniverse, UniverseOptions};
use ndetect::gen::{generate, GenOptions};
use ndetect::seq::{expand, FaultModel};

/// Every bundled sequential circuit, under both fault models.
fn expanded_cases() -> Vec<(ndetect::netlist::SeqNetlist, FaultModel)> {
    let mut cases = Vec::new();
    for name in ndetect::circuits::seq_suite() {
        let seq = ndetect::circuits::build_seq(name).expect("bundled sequential circuit builds");
        cases.push((seq.clone(), FaultModel::Transition));
        cases.push((seq, FaultModel::StuckAt));
    }
    cases
}

#[test]
fn s27_runs_the_full_analysis_pipeline_under_the_transition_model() {
    let seq = ndetect::circuits::build_seq("s27").expect("s27 builds");
    let expanded = expand(&seq, FaultModel::Transition).expect("expands");
    // Two frames share the primary inputs; frame-1 state bits are free.
    assert_eq!(
        expanded.netlist().num_inputs(),
        seq.num_true_inputs() + seq.num_ffs()
    );
    // Observed: frame-2 primary outputs plus frame-2 flip-flop inputs.
    assert_eq!(
        expanded.netlist().num_outputs(),
        seq.num_true_outputs() + seq.num_ffs()
    );
    // Two transition faults (slow-to-rise, slow-to-fall) per eligible node.
    assert_eq!(expanded.targets().len(), expanded.transition_faults().len());
    assert!(!expanded.targets().is_empty(), "s27 has transition targets");

    let universe = FaultUniverse::build_explicit(
        expanded.netlist(),
        &expanded.explicit_targets(),
        UniverseOptions::default(),
    )
    .expect("fits exhaustive simulation");
    assert_eq!(universe.targets().len(), expanded.targets().len());

    // Worst case: at least one transition fault of s27 is detectable,
    // and nmin witnesses obey the theorem exactly as for stuck-at.
    let wc = WorstCaseAnalysis::compute(&universe);
    let detectable = (0..universe.targets().len())
        .filter(|&i| !universe.target_set(i).is_empty())
        .count();
    assert!(detectable > 0, "s27 transition faults must be detectable");
    for j in 0..wc.len() {
        if let (Some(nmin), Some(w)) = (wc.nmin(j), wc.witness(j)) {
            let t_f = universe.target_set(w);
            let t_g = universe.bridge_set(j);
            let m = t_f.intersection_count(t_g);
            assert!(m > 0, "witness must overlap bridge {j}");
            assert_eq!(t_f.len() - m + 1, nmin as usize, "bridge {j}");
        }
    }

    // Average case (Procedure 1) accepts the explicit universe as-is.
    let tracked: Vec<usize> = (0..universe.bridges().len()).step_by(3).collect();
    if !tracked.is_empty() {
        let config = Procedure1Config {
            nmax: 2,
            num_test_sets: 5,
            ..Default::default()
        };
        let probs =
            ndetect::analysis::estimate_detection_probabilities(&universe, &tracked, &config)
                .expect("procedure 1 runs on an expanded universe");
        assert!(probs.expected_escapes(2) >= 0.0);
    }

    // Generation: compact sets at growing n are monotone in size and
    // stay within the expanded pattern space.
    let space = 1usize << expanded.netlist().num_inputs();
    let mut prev = 0;
    for n in [1u32, 2, 4] {
        let set = generate(
            &universe,
            &GenOptions {
                n,
                compact: true,
                ..Default::default()
            },
        );
        assert!(set.vectors().len() >= prev, "sizes monotone in n");
        assert!(set.vectors().len() <= space);
        prev = set.vectors().len();
    }
}

#[test]
fn expanded_simulation_matches_two_step_flip_flop_semantics() {
    // The defining property of broadside expansion, checked exhaustively
    // on every bundled sequential circuit under both fault models (the
    // transition gadgets must be functionally transparent when their
    // enables are off): simulating the expanded netlist on (pi, state)
    // equals stepping the sequential circuit twice with the same pi.
    for (seq, model) in expanded_cases() {
        let expanded = expand(&seq, model).expect("expands");
        let netlist = expanded.netlist();
        let p = seq.num_true_inputs();
        let s = seq.num_ffs();
        for assignment in 0u32..1 << (p + s) {
            let bits: Vec<bool> = (0..p + s)
                .map(|i| (assignment >> (p + s - 1 - i)) & 1 == 1)
                .collect();
            let (pi, state) = bits.split_at(p);
            let (_, next1) = seq.step(state, pi);
            let (po2, next2) = seq.step(&next1, pi);
            let got = netlist.eval_bool(&bits);
            let want: Vec<bool> = po2.iter().chain(next2.iter()).copied().collect();
            assert_eq!(
                got,
                want,
                "{} [{}] assignment {assignment:0w$b}",
                seq.name(),
                model.label(),
                w = p + s
            );
        }
    }
}

#[test]
fn explicit_universes_are_thread_count_invariant() {
    // The expanded netlist flows through the same fault-parallel build
    // as enumerated universes; explicit target lists must not disturb
    // its thread invariance.
    let seq = ndetect::circuits::build_seq("s27").expect("s27 builds");
    let expanded = expand(&seq, FaultModel::Transition).expect("expands");
    let serial = FaultUniverse::build_explicit(
        expanded.netlist(),
        &expanded.explicit_targets(),
        UniverseOptions::with_threads(1),
    )
    .expect("fits");
    let parallel = FaultUniverse::build_explicit(
        expanded.netlist(),
        &expanded.explicit_targets(),
        UniverseOptions::with_threads(4),
    )
    .expect("fits");
    assert_eq!(serial.targets(), parallel.targets());
    assert_eq!(serial.target_sets(), parallel.target_sets());
    assert_eq!(serial.bridges(), parallel.bridges());
    assert_eq!(serial.bridge_classes(), parallel.bridge_classes());
    assert_eq!(serial.bridge_class_of(), parallel.bridge_class_of());
    let wc1 = WorstCaseAnalysis::compute_with(&serial, 1);
    let wc4 = WorstCaseAnalysis::compute_with(&parallel, 4);
    assert_eq!(wc1.nmin_values(), wc4.nmin_values());
}

#[test]
fn expansion_is_deterministic_across_repeated_runs() {
    // Canonical bytes (the store key input) and target labels must be
    // byte-identical run to run — warm-cache correctness depends on it.
    for (seq, model) in expanded_cases() {
        let a = expand(&seq, model).expect("expands");
        let b = expand(&seq, model).expect("expands");
        assert_eq!(a.canonical(), b.canonical(), "{}", seq.name());
        assert_eq!(a.targets(), b.targets(), "{}", seq.name());
        let labels: Vec<String> = (0..a.targets().len()).map(|i| a.target_label(i)).collect();
        let labels_b: Vec<String> = (0..b.targets().len()).map(|i| b.target_label(i)).collect();
        assert_eq!(labels, labels_b, "{}", seq.name());
    }
}
