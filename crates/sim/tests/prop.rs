//! Property tests for the simulation substrate: `VectorSet` against a
//! `BTreeSet` model and pattern-word consistency.

use ndetect_sim::{PatternSpace, VectorSet};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// VectorSet agrees with a BTreeSet model under a random operation
    /// sequence.
    #[test]
    fn vector_set_matches_model(
        ops in prop::collection::vec((0usize..256, prop::bool::ANY), 1..200)
    ) {
        let mut subject = VectorSet::new(256);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for (v, insert) in ops {
            if insert {
                prop_assert_eq!(subject.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(subject.remove(v), model.remove(&v));
            }
        }
        prop_assert_eq!(subject.len(), model.len());
        prop_assert_eq!(subject.to_vec(), model.iter().copied().collect::<Vec<_>>());
        for v in 0..256 {
            prop_assert_eq!(subject.contains(v), model.contains(&v));
        }
    }

    /// Intersection counts agree with the model.
    #[test]
    fn intersection_count_matches_model(
        a in prop::collection::btree_set(0usize..512, 0..64),
        b in prop::collection::btree_set(0usize..512, 0..64),
    ) {
        let sa = VectorSet::from_vectors(512, a.iter().copied());
        let sb = VectorSet::from_vectors(512, b.iter().copied());
        let expect = a.intersection(&b).count();
        prop_assert_eq!(sa.intersection_count(&sb), expect);
        prop_assert_eq!(sa.intersects(&sb), expect > 0);
        let diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(sa.iter_difference(&sb).collect::<Vec<_>>(), diff);
    }

    /// `input_word` and `input_value` agree on every (vector, input).
    #[test]
    fn pattern_words_match_scalar_bits(num_inputs in 1usize..=10) {
        let space = PatternSpace::new(num_inputs).expect("small");
        for block in 0..space.num_blocks() {
            for input in 0..num_inputs {
                let w = space.input_word(input, block);
                for bit in 0..64 {
                    let v = block * 64 + bit;
                    if v >= space.num_patterns() { break; }
                    prop_assert_eq!((w >> bit) & 1 == 1, space.input_value(v, input));
                }
            }
        }
    }

    /// Vector encoding round-trips through bits: one per input, and read
    /// MSB first they spell the vector index again.
    #[test]
    fn vector_bits_round_trip(num_inputs in 1usize..=12, seed in any::<u64>()) {
        let space = PatternSpace::new(num_inputs).expect("small");
        let v = (seed as usize) % space.num_patterns();
        let bits = space.vector_bits(v);
        prop_assert_eq!(bits.len(), num_inputs);
        prop_assert_eq!(bits.iter().fold(0, |acc, &b| acc << 1 | usize::from(b)), v);
    }
}
