//! Deterministic integration tests for time-frame expansion: gadget
//! semantics against hand-computed detection sets, artifact round
//! trips, cross-thread determinism, and warm-store behaviour.

use ndetect_faults::{explicit_universe_key, FaultUniverse, UniverseOptions};
use ndetect_netlist::bench_format;
use ndetect_netlist::SeqNetlist;
use ndetect_seq::{
    decode_expanded, encode_expanded, expand, expand_stored, expanded_key, FaultModel,
};
use ndetect_store::Store;

/// `q' = a`, `po = q`: a one-flip-flop pipeline buffer.
fn dff_buffer() -> SeqNetlist {
    bench_format::parse_seq(
        "pipe1",
        "
        INPUT(a)
        OUTPUT(po)
        q = DFF(a)
        po = BUF(q)
        ",
    )
    .unwrap()
}

#[test]
fn dff_buffer_transition_detection_sets_match_hand_analysis() {
    let seq = dff_buffer();
    let model = expand(&seq, FaultModel::Transition).unwrap();
    // Inputs: shared PI `a` (slot 0, MSB of the vector index) and the
    // free state bit `q.s1` (slot 1, LSB).
    assert_eq!(model.netlist().num_inputs(), 2);
    // Instrumented nodes in core topo order: q (FF output), po (gate);
    // the true PI `a` cannot launch under broadside and is skipped.
    let labels: Vec<String> = (0..model.targets().len())
        .map(|i| model.target_label(i))
        .collect();
    assert_eq!(
        labels,
        [
            "q slow-to-rise",
            "q slow-to-fall",
            "po slow-to-rise",
            "po slow-to-fall",
        ]
    );
    let explicit = model.explicit_targets();
    let options = UniverseOptions::default();
    let universe = FaultUniverse::build_explicit(model.netlist(), &explicit, options).unwrap();
    assert_eq!(
        universe.store_key(),
        explicit_universe_key(&explicit.canonical, options)
    );
    // Slow-to-rise at q needs launch a=1 with old state q.s1=0: only
    // vector 0b10 = 2. Slow-to-fall mirrors it at 0b01 = 1. The
    // buffer's faults are structurally equivalent to the FF's.
    assert_eq!(universe.target_set(0).to_vec(), [2]);
    assert_eq!(universe.target_set(1).to_vec(), [1]);
    assert_eq!(universe.target_set(2).to_vec(), [2]);
    assert_eq!(universe.target_set(3).to_vec(), [1]);
}

#[test]
fn expanded_model_matches_two_step_semantics() {
    let seq = bench_format::parse_seq(
        "tog",
        "
        INPUT(en)
        OUTPUT(po)
        q = DFF(nq)
        nq = NOT(q)
        po = AND(en, q)
        ",
    )
    .unwrap();
    for model in [FaultModel::Transition, FaultModel::StuckAt] {
        let expanded = expand(&seq, model).unwrap();
        let netlist = expanded.netlist();
        assert_eq!(netlist.num_inputs(), 2);
        for v in 0..4usize {
            // Expanded input i takes bit (I-1-i) of the vector index.
            let bits: Vec<bool> = (0..2).map(|i| (v >> (1 - i)) & 1 == 1).collect();
            let pi = &bits[..1];
            let state = &bits[1..];
            let (_, s2) = seq.step(state, pi);
            let (po2, next2) = seq.step(&s2, pi);
            let mut expected = po2;
            expected.extend(next2);
            assert_eq!(
                netlist.eval_bool(&bits),
                expected,
                "vector {v} under {model}"
            );
        }
    }
}

#[test]
fn expansion_is_deterministic_across_threads() {
    let seq = dff_buffer();
    let reference = encode_expanded(&expand(&seq, FaultModel::Transition).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let seq = dff_buffer();
            std::thread::spawn(move || {
                encode_expanded(&expand(&seq, FaultModel::Transition).unwrap())
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), reference);
    }
}

#[test]
fn artifact_round_trip_is_bit_identical() {
    let seq = dff_buffer();
    for model in [FaultModel::Transition, FaultModel::StuckAt] {
        let fresh = expand(&seq, model).unwrap();
        let payload = encode_expanded(&fresh);
        let decoded = decode_expanded(&payload, fresh.canonical()).unwrap();
        assert_eq!(
            bench_format::write(decoded.netlist()),
            bench_format::write(fresh.netlist())
        );
        assert_eq!(
            decoded.netlist().canonical_bytes(),
            fresh.netlist().canonical_bytes()
        );
        assert_eq!(decoded.targets(), fresh.targets());
        assert_eq!(decoded.transition_faults(), fresh.transition_faults());
        assert_eq!(decoded.bridge_stems(), fresh.bridge_stems());
        assert_eq!(encode_expanded(&decoded), payload);
        // Wrong canonical bytes are a store miss, not a wrong answer.
        assert!(decode_expanded(&payload, b"not the canonical bytes").is_none());
    }
}

#[test]
fn keys_separate_models_and_circuits() {
    let seq = dff_buffer();
    let k_tr = expanded_key(&seq, FaultModel::Transition);
    let k_sa = expanded_key(&seq, FaultModel::StuckAt);
    assert_ne!(k_tr, k_sa);
    let other = bench_format::parse_seq(
        "pipe1b",
        "
        INPUT(a)
        OUTPUT(po)
        q = DFF(a)
        po = NOT(q)
        ",
    )
    .unwrap();
    assert_ne!(k_tr, expanded_key(&other, FaultModel::Transition));
}

#[test]
fn expand_stored_hits_on_the_second_call() {
    let dir = std::env::temp_dir().join(format!("ndetect-seq-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let seq = dff_buffer();
    let cold = expand_stored(&seq, FaultModel::Transition, Some(&store)).unwrap();
    assert_eq!(store.session_hits(), 0);
    let writes = store.session_writes();
    assert!(writes >= 1);
    let warm = expand_stored(&seq, FaultModel::Transition, Some(&store)).unwrap();
    assert!(store.session_hits() >= 1);
    assert_eq!(store.session_writes(), writes, "warm load must not rewrite");
    assert_eq!(encode_expanded(&warm), encode_expanded(&cold));
    // A universe built from the warm model keys identically to one
    // built from the cold model — derived artifacts agree.
    let u_cold = FaultUniverse::build_explicit(
        cold.netlist(),
        &cold.explicit_targets(),
        UniverseOptions::default(),
    )
    .unwrap();
    let u_warm = FaultUniverse::build_explicit(
        warm.netlist(),
        &warm.explicit_targets(),
        UniverseOptions::default(),
    )
    .unwrap();
    assert_eq!(u_cold.store_key(), u_warm.store_key());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stuck_at_model_lowers_collapsed_faults_of_the_expansion() {
    let seq = dff_buffer();
    let model = expand(&seq, FaultModel::StuckAt).unwrap();
    assert!(model.transition_faults().is_empty());
    assert!(!model.targets().is_empty());
    // Labels render as expanded line names.
    assert!(model.target_label(0).contains('/'));
}

#[test]
fn display_summarises_the_expansion() {
    let seq = dff_buffer();
    let model = expand(&seq, FaultModel::Transition).unwrap();
    let text = model.to_string();
    assert!(text.contains("pipe1"), "{text}");
    assert!(text.contains("transition"), "{text}");
    assert!(text.contains("1 PI + 1 state"), "{text}");
}
