//! Cache bytes are untrusted input. For every kind of stored artifact
//! — the enumerated and explicit universes, the worst case, the
//! generated set, Procedure 1 under both definitions and the expanded
//! model — a store filled cold on `c17` and `s27` has each entry's
//! payload replaced by seeded mutations. Each goes through
//! `Store::save`, so its checksum is valid and only the artifact's own
//! decoder and consistency check stand between the bytes and the
//! caller. The real `*_stored` path then reads it and its result is
//! rendered; nothing may panic.

use ndetect::analysis::{
    estimate_detection_probabilities_stored, procedure1_key, DetectionDefinition, Procedure1Config,
    WorstCaseAnalysis, KIND_PROCEDURE1, KIND_WORST_CASE,
};
use ndetect::faults::{explicit_universe_key, universe_key, FaultUniverse, KIND_UNIVERSE};
use ndetect::gen::{generated_key, GenOptions, KIND_GENERATED_SET};
use ndetect::seq::{expand_stored, expanded_key, FaultModel, KIND_EXPANDED};
use ndetect::serve::{render_gen, render_seq_gen, render_seq_worst, render_worst, Engine, Knobs};
use ndetect::store::{ArtifactKey, ArtifactKind, Store};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutations per artifact kind.
const MUTATIONS: u64 = 200;

/// A splitmix64 stream: the mutations depend on the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One mutation of `payload`: a bit flip, a byte set, a u64 splice (a
/// length or index field turned into 0, 1, a boundary or a random word)
/// or a truncation.
fn mutate(payload: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    match rng.below(4) {
        0 => {
            let bit = rng.below(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        1 => {
            let at = rng.below(bytes.len());
            bytes[at] = rng.next() as u8;
        }
        2 => {
            let at = rng.below(bytes.len().saturating_sub(8) + 1);
            let words = [0, 1, u64::from(u32::MAX) + 1, u64::MAX, rng.next()];
            let word = words[rng.below(words.len())].to_le_bytes();
            let end = (at + 8).min(bytes.len());
            bytes[at..end].copy_from_slice(&word[..end - at]);
        }
        _ => bytes.truncate(rng.below(bytes.len())),
    }
    bytes
}

/// Saves `MUTATIONS` mutations of the entry under `(key, kind)`, each
/// followed by `read`, which must not panic; then restores the entry.
/// `hits` counts store hits, so the test sees each mutation loaded.
fn mutate_entry(
    store: &Store,
    hits: &dyn Fn() -> u64,
    label: &str,
    (key, kind): (ArtifactKey, ArtifactKind),
    read: impl Fn() -> String,
) {
    let original = store
        .load(key, kind)
        .unwrap_or_else(|| panic!("{label}: the cold run stored no entry"));
    let mut rng = Rng(key.0 ^ u64::from(kind));
    for i in 0..MUTATIONS {
        store.save(key, kind, &mutate(&original, &mut rng)).unwrap();
        let before = hits();
        let read = catch_unwind(AssertUnwindSafe(&read));
        assert!(read.is_ok(), "{label}: mutation {i} panicked");
        assert!(hits() > before, "{label}: mutation {i} was never loaded");
    }
    store.save(key, kind, &original).unwrap();
}

#[test]
fn mutated_cache_payloads_never_panic() {
    let dir = std::env::temp_dir().join(format!("ndetect-mutations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    // Nothing resident: every render reads through the store.
    let engine = Engine::new(Some(Store::open(&dir).unwrap()), 0, 0);
    let knobs = Knobs { threads: 1 };
    let options = knobs.universe_options();
    let c17 = ndetect::circuits::build("c17").unwrap();
    let s27 = ndetect::circuits::build_seq("s27").unwrap();
    let model = FaultModel::Transition;
    let gen_options = GenOptions {
        n: 3,
        compact: true,
        ..GenOptions::default()
    };

    let worst_c17 = || render_worst(&c17, 1, knobs, &engine).unwrap_or_else(|e| e);
    let gen_c17 = || render_gen(&c17, 3, true, None, knobs, &engine).unwrap_or_else(|e| e);
    let worst_s27 = || render_seq_worst(&s27, model, 1, knobs, &engine).unwrap_or_else(|e| e);
    let gen_s27 = || render_seq_gen(&s27, model, 2, false, None, knobs, &engine);
    let universe = FaultUniverse::build_with(&c17, options).unwrap();
    let tracked = WorstCaseAnalysis::compute(&universe).tail_indices(2);
    assert!(!tracked.is_empty());
    let procedure1 = |definition| Procedure1Config {
        nmax: 3,
        num_test_sets: 6,
        definition,
        threads: 1,
        ..Procedure1Config::default()
    };
    let estimate = |config: &Procedure1Config| {
        let stored =
            estimate_detection_probabilities_stored(&universe, &tracked, config, Some(&store));
        let mut out = String::new();
        if let Ok(probs) = stored {
            for n in 1..=config.nmax {
                let row = probs.histogram_row(n);
                let escapes = probs.expected_escapes(n);
                let lowest = probs.min_probability(n);
                let _ = writeln!(out, "{row:?} {escapes:.2} {lowest:?}");
            }
        }
        out
    };
    let def1 = procedure1(DetectionDefinition::Standard);
    let def2 = procedure1(DetectionDefinition::SufficientlyDifferent);

    // Fill the store cold.
    let cold = [worst_c17(), gen_c17(), worst_s27(), estimate(&def1)];
    assert!(cold.iter().all(|out| !out.is_empty()));
    gen_s27().unwrap();
    estimate(&def2);

    let expanded = expand_stored(&s27, model, None).unwrap();
    let explicit = explicit_universe_key(&expanded.explicit_targets().canonical, options);
    let p1 = |config: &Procedure1Config| procedure1_key(&universe, &tracked, config);
    let hits = || store.session_hits() + engine.store().map_or(0, Store::session_hits);
    mutate_entry(
        &store,
        &hits,
        "c17 universe",
        (universe_key(&c17, options), KIND_UNIVERSE),
        worst_c17,
    );
    mutate_entry(
        &store,
        &hits,
        "s27 explicit universe",
        (explicit, KIND_UNIVERSE),
        worst_s27,
    );
    mutate_entry(
        &store,
        &hits,
        "c17 worst case",
        (WorstCaseAnalysis::store_key(&universe), KIND_WORST_CASE),
        worst_c17,
    );
    mutate_entry(
        &store,
        &hits,
        "c17 generated set",
        (generated_key(&universe, &gen_options), KIND_GENERATED_SET),
        gen_c17,
    );
    mutate_entry(
        &store,
        &hits,
        "c17 Procedure 1, definition 1",
        (p1(&def1), KIND_PROCEDURE1),
        || estimate(&def1),
    );
    mutate_entry(
        &store,
        &hits,
        "c17 Procedure 1, definition 2",
        (p1(&def2), KIND_PROCEDURE1),
        || estimate(&def2),
    );
    mutate_entry(
        &store,
        &hits,
        "s27 expanded model",
        (expanded_key(&s27, model), KIND_EXPANDED),
        || gen_s27().unwrap_or_else(|e| e),
    );
    drop(engine);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
