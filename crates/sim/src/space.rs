//! The exhaustive input-vector space of a circuit.

use crate::error::SimError;

/// Upper bound on the number of inputs for which exhaustive simulation is
/// permitted (`2^24` = 16M vectors). The paper's analysis targets circuits
/// with "small numbers of inputs"; larger designs should be partitioned
/// into output cones (see `ndetect-core`'s partitioned analysis).
pub const MAX_EXHAUSTIVE_INPUTS: usize = 24;

/// Input-word masks for inputs whose value alternates within a 64-pattern
/// block. `WITHIN_WORD_MASKS[s]` is the word whose bit `b` equals bit `s`
/// of `b` — the value pattern of an input with shift `s < 6`.
const WITHIN_WORD_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA, // s = 0: period 2
    0xCCCC_CCCC_CCCC_CCCC, // s = 1: period 4
    0xF0F0_F0F0_F0F0_F0F0, // s = 2: period 8
    0xFF00_FF00_FF00_FF00, // s = 3: period 16
    0xFFFF_0000_FFFF_0000, // s = 4: period 32
    0xFFFF_FFFF_0000_0000, // s = 5: period 64
];

/// The exhaustive space `U` of all `2^I` input vectors of an `I`-input
/// circuit, organised in 64-vector blocks.
///
/// # Vector encoding
///
/// Vector `v ∈ 0..2^I` assigns input `i` (0-based, in primary-input order)
/// the value of bit `I-1-i` of `v`: **input 0 is the most significant
/// bit**. This matches the paper's decimal notation, where vector 6 of a
/// 4-input circuit is `0110` on inputs `(1,2,3,4)`.
///
/// ```
/// use ndetect_sim::PatternSpace;
/// let space = PatternSpace::new(4)?;
/// assert_eq!(space.num_patterns(), 16);
/// // Vector 6 = 0110: inputs 1 and 2 (0-based) are set.
/// assert!(!space.input_value(6, 0));
/// assert!(space.input_value(6, 1));
/// assert!(space.input_value(6, 2));
/// assert!(!space.input_value(6, 3));
/// # Ok::<(), ndetect_sim::SimError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternSpace {
    num_inputs: usize,
}

impl PatternSpace {
    /// Creates the exhaustive space for an `I`-input circuit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyInputs`] if `num_inputs` exceeds
    /// [`MAX_EXHAUSTIVE_INPUTS`].
    pub fn new(num_inputs: usize) -> Result<Self, SimError> {
        if num_inputs > MAX_EXHAUSTIVE_INPUTS {
            return Err(SimError::TooManyInputs {
                got: num_inputs,
                max: MAX_EXHAUSTIVE_INPUTS,
            });
        }
        Ok(PatternSpace { num_inputs })
    }

    /// Number of circuit inputs `I`.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of vectors, `2^I`.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        1usize << self.num_inputs
    }

    /// Number of 64-vector simulation blocks (at least 1).
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_patterns().div_ceil(64)
    }

    /// The word of values input `i` takes across the 64 vectors of `block`
    /// (bit `b` of the result is the input's value on vector
    /// `block*64 + b`).
    ///
    /// # Panics
    ///
    /// Panics if `input` or `block` is out of range (debug assertions).
    #[must_use]
    pub fn input_word(&self, input: usize, block: usize) -> u64 {
        debug_assert!(input < self.num_inputs);
        debug_assert!(block < self.num_blocks());
        let shift = self.num_inputs - 1 - input;
        if shift < 6 {
            WITHIN_WORD_MASKS[shift]
        } else if (block >> (shift - 6)) & 1 == 1 {
            u64::MAX
        } else {
            0
        }
    }

    /// Mask of valid vector bits in `block` (only the final block of a
    /// space with fewer than 64 vectors is partial).
    #[must_use]
    pub fn block_mask(&self, block: usize) -> u64 {
        debug_assert!(block < self.num_blocks());
        let n = self.num_patterns();
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// The value of input `i` on vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= num_inputs` (debug assertions) .
    #[must_use]
    pub fn input_value(&self, vector: usize, input: usize) -> bool {
        debug_assert!(input < self.num_inputs);
        (vector >> (self.num_inputs - 1 - input)) & 1 == 1
    }

    /// Decodes a vector index into per-input values, in input order.
    #[must_use]
    pub fn vector_bits(&self, vector: usize) -> Vec<bool> {
        (0..self.num_inputs)
            .map(|i| self.input_value(vector, i))
            .collect()
    }

    /// Validates that `vector` indexes a vector of this space.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorOutOfRange`] otherwise.
    pub fn check_vector(&self, vector: usize) -> Result<(), SimError> {
        if vector < self.num_patterns() {
            Ok(())
        } else {
            Err(SimError::VectorOutOfRange {
                vector,
                num_patterns: self.num_patterns(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_oversized_spaces() {
        assert!(PatternSpace::new(MAX_EXHAUSTIVE_INPUTS).is_ok());
        assert_eq!(
            PatternSpace::new(MAX_EXHAUSTIVE_INPUTS + 1),
            Err(SimError::TooManyInputs {
                got: MAX_EXHAUSTIVE_INPUTS + 1,
                max: MAX_EXHAUSTIVE_INPUTS
            })
        );
    }

    #[test]
    fn block_counts() {
        assert_eq!(PatternSpace::new(4).unwrap().num_blocks(), 1);
        assert_eq!(PatternSpace::new(6).unwrap().num_blocks(), 1);
        assert_eq!(PatternSpace::new(7).unwrap().num_blocks(), 2);
        assert_eq!(PatternSpace::new(10).unwrap().num_blocks(), 16);
    }

    #[test]
    fn partial_block_mask() {
        let s = PatternSpace::new(4).unwrap();
        assert_eq!(s.block_mask(0), 0xFFFF);
        let s = PatternSpace::new(6).unwrap();
        assert_eq!(s.block_mask(0), u64::MAX);
    }

    #[test]
    fn input_word_agrees_with_input_value_everywhere() {
        for num_inputs in 1..=9 {
            let s = PatternSpace::new(num_inputs).unwrap();
            for block in 0..s.num_blocks() {
                for input in 0..num_inputs {
                    let w = s.input_word(input, block);
                    for bit in 0..64usize.min(s.num_patterns()) {
                        let v = block * 64 + bit;
                        if v >= s.num_patterns() {
                            break;
                        }
                        let from_word = (w >> bit) & 1 == 1;
                        assert_eq!(
                            from_word,
                            s.input_value(v, input),
                            "I={num_inputs} v={v} input={input}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vector_bits_round_trip() {
        // Read MSB first, the bits spell the vector index again.
        let s = PatternSpace::new(5).unwrap();
        for v in 0..s.num_patterns() {
            let bits = s.vector_bits(v);
            assert_eq!(bits.len(), 5);
            assert_eq!(bits.iter().fold(0, |acc, &b| acc << 1 | usize::from(b)), v);
        }
    }

    #[test]
    fn msb_first_convention_matches_paper() {
        // Paper: 4-input circuit, vector 6 is inputs (1,2,3,4) = 0,1,1,0.
        let s = PatternSpace::new(4).unwrap();
        assert_eq!(s.vector_bits(6), vec![false, true, true, false]);
        assert_eq!(s.vector_bits(12), vec![true, true, false, false]);
    }

    #[test]
    fn check_vector_bounds() {
        let s = PatternSpace::new(3).unwrap();
        assert!(s.check_vector(7).is_ok());
        assert!(s.check_vector(8).is_err());
    }
}
