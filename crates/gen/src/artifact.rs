//! Serialization of generated test sets for the content-addressed
//! on-disk artifact store.
//!
//! The cache key mixes the universe's own store key with the semantic
//! generation options (`n`, `compact`, `seed` — `threads` is excluded:
//! generation is bit-identical for every worker count), so warm
//! re-generation of the same set is a disk hit. Decoding is defensive:
//! the membership bitset is rebuilt from the vector list (rejecting
//! duplicates and out-of-range indices) and the caller revalidates the
//! per-target counts and the n-detection property against the live
//! universe before trusting an entry.

use crate::generate::{GenOptions, GeneratedSet};
use ndetect_faults::FaultUniverse;
use ndetect_sim::VectorSet;
use ndetect_store::{
    ArtifactKey, ArtifactKind, CodecError, Decode, Decoder, Encode, Encoder, Fnv64, CODEC_VERSION,
};

/// Store kind tag for serialized generated test sets.
pub const KIND_GENERATED_SET: ArtifactKind = 3;

/// The content-addressed key of a generated set: the universe key mixed
/// with a generation salt, the semantic options, and the codec version.
#[must_use]
pub fn generated_key(universe: &FaultUniverse, options: &GenOptions) -> ArtifactKey {
    let mut h = Fnv64::new();
    h.update(b"ndetect.generated");
    h.update_u64(u64::from(CODEC_VERSION));
    h.update_u64(universe.store_key().0);
    h.update_u64(u64::from(options.n));
    h.update(&[u8::from(options.compact)]);
    match options.seed {
        None => h.update(&[0]),
        Some(seed) => {
            h.update(&[1]);
            h.update_u64(seed);
        }
    }
    ArtifactKey(h.finish())
}

impl Encode for GeneratedSet {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.members.num_patterns());
        e.put_u32(self.n);
        self.seed.encode(e);
        e.put_bool(self.compacted);
        self.vectors.encode(e);
        self.target_counts.encode(e);
    }
}

impl Decode for GeneratedSet {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let num_patterns = d.get_usize()?;
        // Bound the membership-bitset allocation before trusting the
        // wire: no pattern space can exceed the exhaustive-simulation
        // ceiling, so anything larger is corruption (decoding must
        // degrade to a miss, not attempt a giant allocation).
        if num_patterns > 1 << ndetect_sim::MAX_EXHAUSTIVE_INPUTS {
            return Err(CodecError::new("pattern space exceeds exhaustive ceiling"));
        }
        let n = d.get_u32()?;
        let seed = Option::<u64>::decode(d)?;
        let compacted = d.get_bool()?;
        let vectors = Vec::<u32>::decode(d)?;
        let target_counts = Vec::<u32>::decode(d)?;
        let mut members = VectorSet::new(num_patterns);
        for &v in &vectors {
            let v = v as usize;
            if v >= num_patterns {
                return Err(CodecError::new("generated vector outside pattern space"));
            }
            if !members.insert(v) {
                return Err(CodecError::new("duplicate generated vector"));
            }
        }
        Ok(GeneratedSet {
            n,
            seed,
            compacted,
            vectors,
            members,
            target_counts,
        })
    }
}

impl GeneratedSet {
    /// Validates a decoded set against the universe and options it is
    /// being loaded for: the shape must match, the recorded options
    /// must agree, the per-target counts must equal the membership
    /// intersection, and the n-detection property must hold. `false`
    /// means the entry is stale or colliding and must be a miss.
    #[must_use]
    pub(crate) fn is_consistent_with(
        &self,
        universe: &FaultUniverse,
        options: &GenOptions,
    ) -> bool {
        self.members.num_patterns() == universe.space().num_patterns()
            && self.n == options.n
            && self.seed == options.seed
            && self.compacted == options.compact
            && self.satisfies(universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use ndetect_circuits::figure1;
    use ndetect_store::{decode_from_slice, encode_to_vec};

    fn universe() -> FaultUniverse {
        FaultUniverse::build(&figure1::netlist()).unwrap()
    }

    #[test]
    fn generated_set_round_trips_through_the_codec() {
        let u = universe();
        for options in [
            GenOptions::with_n(1),
            GenOptions {
                n: 3,
                compact: true,
                seed: Some(42),
                ..GenOptions::default()
            },
        ] {
            let set = generate(&u, &options);
            let back: GeneratedSet = decode_from_slice(&encode_to_vec(&set)).unwrap();
            assert_eq!(back, set);
            assert!(back.is_consistent_with(&u, &options));
        }
    }

    #[test]
    fn decode_rejects_an_absurd_pattern_space_without_allocating() {
        // A corrupt/crafted num_patterns field must be a CodecError
        // (silent cache miss), never an attempted giant allocation.
        let mut e = ndetect_store::Encoder::new();
        e.put_usize(1 << 60); // num_patterns far beyond the sim ceiling
        e.put_u32(1);
        None::<u64>.encode(&mut e);
        e.put_bool(false);
        Vec::<u32>::new().encode(&mut e);
        Vec::<u32>::new().encode(&mut e);
        assert!(decode_from_slice::<GeneratedSet>(&e.finish()).is_err());
        // The exact ceiling still decodes (shape checks happen later).
        let mut e = ndetect_store::Encoder::new();
        e.put_usize(1 << ndetect_sim::MAX_EXHAUSTIVE_INPUTS);
        e.put_u32(1);
        None::<u64>.encode(&mut e);
        e.put_bool(false);
        Vec::<u32>::new().encode(&mut e);
        Vec::<u32>::new().encode(&mut e);
        assert!(decode_from_slice::<GeneratedSet>(&e.finish()).is_ok());
    }

    #[test]
    fn decode_rejects_duplicate_and_out_of_range_vectors() {
        let u = universe();
        let mut set = generate(&u, &GenOptions::with_n(1));
        let first = set.vectors[0];
        set.vectors.push(first); // duplicate
        assert!(decode_from_slice::<GeneratedSet>(&encode_to_vec(&set)).is_err());
        set.vectors.pop();
        set.vectors.push(u16::MAX as u32); // out of range for 16 patterns
        assert!(decode_from_slice::<GeneratedSet>(&encode_to_vec(&set)).is_err());
    }

    #[test]
    fn consistency_rejects_option_and_count_mismatches() {
        let u = universe();
        let options = GenOptions::with_n(2);
        let set = generate(&u, &options);
        assert!(set.is_consistent_with(&u, &options));
        assert!(!set.is_consistent_with(&u, &GenOptions::with_n(3)));
        assert!(!set.is_consistent_with(
            &u,
            &GenOptions {
                seed: Some(1),
                ..options
            }
        ));
        let mut tampered = set.clone();
        tampered.target_counts[0] += 1;
        assert!(!tampered.is_consistent_with(&u, &options));
    }

    #[test]
    fn key_depends_on_options_but_not_threads() {
        let u = universe();
        let base = GenOptions::with_n(5);
        let k1 = generated_key(&u, &base);
        assert_eq!(k1, generated_key(&u, &GenOptions { threads: 8, ..base }));
        assert_ne!(k1, generated_key(&u, &GenOptions::with_n(6)));
        assert_ne!(
            k1,
            generated_key(
                &u,
                &GenOptions {
                    compact: true,
                    ..base
                }
            )
        );
        assert_ne!(
            k1,
            generated_key(
                &u,
                &GenOptions {
                    seed: Some(0),
                    ..base
                }
            )
        );
    }
}
