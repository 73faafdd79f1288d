//! State encodings: mapping symbolic states to binary codes.

use std::fmt;

/// An assignment of distinct binary codes to the states of an FSM.
///
/// ```
/// use ndetect_fsm::StateEncoding;
/// let enc = StateEncoding::binary(5);
/// assert_eq!(enc.num_bits(), 3);
/// assert_eq!(enc.code(4), 4);
/// assert!(enc.state_of_code(7).is_none()); // unused code
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateEncoding {
    codes: Vec<u32>,
    num_bits: usize,
}

impl StateEncoding {
    /// Natural binary encoding: state `i` gets code `i`, using
    /// `ceil(log2(n))` bits (1 bit minimum).
    #[must_use]
    pub fn binary(num_states: usize) -> Self {
        assert!(num_states > 0, "an FSM has at least one state");
        let num_bits = bits_for(num_states);
        StateEncoding {
            codes: (0..num_states as u32).collect(),
            num_bits,
        }
    }

    /// Gray-code encoding: state `i` gets the `i`-th Gray code. Adjacent
    /// state indices differ in one bit, which tends to produce different
    /// two-level structure than natural binary — useful for studying
    /// encoding sensitivity.
    #[must_use]
    pub fn gray(num_states: usize) -> Self {
        assert!(num_states > 0);
        let num_bits = bits_for(num_states);
        StateEncoding {
            codes: (0..num_states as u32).map(|i| i ^ (i >> 1)).collect(),
            num_bits,
        }
    }

    /// Number of state bits.
    #[must_use]
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of encoded states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.codes.len()
    }

    /// The code of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn code(&self, state: usize) -> u32 {
        self.codes[state]
    }

    /// All codes, indexed by state.
    #[must_use]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Reverse lookup: the state using `code`, if any (unused codes are
    /// don't-care input combinations for the synthesized logic).
    #[must_use]
    pub fn state_of_code(&self, code: u32) -> Option<usize> {
        self.codes.iter().position(|&c| c == code)
    }
}

impl fmt::Display for StateEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} states in {} bits", self.codes.len(), self.num_bits)
    }
}

fn bits_for(num_states: usize) -> usize {
    (usize::BITS - (num_states - 1).leading_zeros()).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_bit_widths() {
        assert_eq!(StateEncoding::binary(1).num_bits(), 1);
        assert_eq!(StateEncoding::binary(2).num_bits(), 1);
        assert_eq!(StateEncoding::binary(3).num_bits(), 2);
        assert_eq!(StateEncoding::binary(4).num_bits(), 2);
        assert_eq!(StateEncoding::binary(5).num_bits(), 3);
        assert_eq!(StateEncoding::binary(27).num_bits(), 5);
    }

    #[test]
    fn gray_codes_are_distinct_and_adjacent() {
        let enc = StateEncoding::gray(8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..8 {
            assert!(seen.insert(enc.code(i)));
        }
        for i in 1..8 {
            let diff = enc.code(i) ^ enc.code(i - 1);
            assert_eq!(diff.count_ones(), 1, "gray step {i}");
        }
    }

    #[test]
    fn reverse_lookup() {
        let enc = StateEncoding::binary(3);
        assert_eq!(enc.state_of_code(2), Some(2));
        assert_eq!(enc.state_of_code(3), None);
    }
}
