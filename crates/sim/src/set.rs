//! Dense bitsets over the vectors of a pattern space.

// Hot module: every word buffer comes from the `rows` data plane.
#![deny(clippy::disallowed_methods)]

use crate::rows;
use std::fmt;

/// A set of input vectors, stored as a dense bitset over a
/// [`crate::PatternSpace`].
///
/// This is the workspace's representation of the paper's `T(f)` (the
/// vectors detecting fault `f`) and of test sets under construction. All
/// set operations the analysis needs — membership, cardinality
/// (`N(f)`), intersection cardinality (`M(g,f)`), emptiness of
/// intersections — are O(`2^I`/64) word operations.
///
/// ```
/// use ndetect_sim::VectorSet;
/// let mut t = VectorSet::new(16);
/// t.insert(6);
/// t.insert(7);
/// assert_eq!(t.len(), 2);
/// assert!(t.contains(6));
///
/// let mut u = VectorSet::new(16);
/// u.insert(7);
/// u.insert(12);
/// assert_eq!(t.intersection_count(&u), 1);
/// assert!(t.intersects(&u));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VectorSet {
    num_patterns: usize,
    words: Vec<u64>,
}

impl VectorSet {
    /// Creates an empty set over a space of `num_patterns` vectors.
    #[must_use]
    pub fn new(num_patterns: usize) -> Self {
        VectorSet {
            num_patterns,
            words: rows::zeroed_words(num_patterns.div_ceil(64).max(1)),
        }
    }

    /// Creates a set from an iterator of vector indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= num_patterns`.
    #[must_use]
    pub fn from_vectors(num_patterns: usize, vectors: impl IntoIterator<Item = usize>) -> Self {
        let mut set = VectorSet::new(num_patterns);
        for v in vectors {
            set.insert(v);
        }
        set
    }

    /// The size of the underlying pattern space.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Adds a vector. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `vector >= num_patterns`.
    pub fn insert(&mut self, vector: usize) -> bool {
        assert!(
            vector < self.num_patterns,
            "vector {vector} outside space of {}",
            self.num_patterns
        );
        let word = &mut self.words[vector / 64];
        let bit = 1u64 << (vector % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes a vector. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `vector >= num_patterns`.
    pub fn remove(&mut self, vector: usize) -> bool {
        assert!(vector < self.num_patterns);
        let word = &mut self.words[vector / 64];
        let bit = 1u64 << (vector % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, vector: usize) -> bool {
        if vector >= self.num_patterns {
            return false;
        }
        (self.words[vector / 64] >> (vector % 64)) & 1 == 1
    }

    /// Cardinality (the paper's `N(f)` when the set is `T(f)`).
    #[must_use]
    pub fn len(&self) -> usize {
        rows::popcount(&self.words) as usize
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `|self ∩ other|` (the paper's `M(g,f)`).
    ///
    /// # Panics
    ///
    /// Panics if the sets are over different spaces.
    #[must_use]
    pub fn intersection_count(&self, other: &VectorSet) -> usize {
        assert_eq!(self.num_patterns, other.num_patterns);
        rows::and_popcount(&self.words, &other.words) as usize
    }

    /// Whether the sets share any vector (early-exits on the first hit).
    ///
    /// # Panics
    ///
    /// Panics if the sets are over different spaces.
    #[must_use]
    pub fn intersects(&self, other: &VectorSet) -> bool {
        assert_eq!(self.num_patterns, other.num_patterns);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the sets are over different spaces.
    pub fn union_with(&mut self, other: &VectorSet) {
        assert_eq!(self.num_patterns, other.num_patterns);
        rows::or_into(&mut self.words, &other.words);
    }

    /// Clears the set.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates the vectors in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    None
                } else {
                    let bit = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Collects the vectors into a sorted `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Iterates the vectors of `self` not present in `other`, ascending
    /// (the paper's `T(f) − Tk`), without allocating — the accounting
    /// primitive of the set-cover test generator, which walks
    /// `T(f) \ chosen` when target `f` reaches its goal.
    ///
    /// # Panics
    ///
    /// Panics if the sets are over different spaces.
    pub fn iter_difference<'a>(&'a self, other: &'a VectorSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.num_patterns, other.num_patterns);
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (a, b))| {
                let mut rem = a & !b;
                std::iter::from_fn(move || {
                    if rem == 0 {
                        None
                    } else {
                        let bit = rem.trailing_zeros() as usize;
                        rem &= rem - 1;
                        Some(wi * 64 + bit)
                    }
                })
            })
    }

    /// Direct read access to the backing words (bit `v%64` of word `v/64`
    /// is vector `v`).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a set from backing words previously obtained via
    /// [`Self::words`] (the deserialization path of the on-disk artifact
    /// store). Returns `None` if the word count does not match the space
    /// or any bit beyond `num_patterns` is set — untrusted inputs must
    /// not be able to construct an inconsistent set.
    #[must_use]
    pub fn try_from_words(num_patterns: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != num_patterns.div_ceil(64).max(1) {
            return None;
        }
        if num_patterns % 64 != 0 || num_patterns == 0 {
            let tail = words[words.len() - 1];
            let mask = if num_patterns == 0 {
                0
            } else {
                (1u64 << (num_patterns % 64)) - 1
            };
            if tail & !mask != 0 {
                return None;
            }
        }
        Some(VectorSet {
            num_patterns,
            words,
        })
    }

    /// Builds a set directly from per-block detection words in block
    /// order, taking ownership of the buffer — the zero-copy assembly
    /// path of the fault simulators (`words[b]` holds the outcomes of
    /// vectors `b*64..b*64+64`). Bits beyond `num_patterns` in the final
    /// word are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not the block count of the space.
    #[must_use]
    pub fn from_block_words(num_patterns: usize, mut words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            num_patterns.div_ceil(64).max(1),
            "block count mismatch for a space of {num_patterns}"
        );
        if num_patterns % 64 != 0 {
            let tail = words.len() - 1;
            let mask = (1u64 << (num_patterns % 64)) - 1;
            words[tail] &= mask;
        } else if num_patterns == 0 {
            words[0] = 0;
        }
        VectorSet {
            num_patterns,
            words,
        }
    }

    /// Sets the backing word at index `word_index` (used by the
    /// bit-parallel fault simulator to store 64 detection outcomes at
    /// once). Bits beyond `num_patterns` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn set_word(&mut self, word_index: usize, word: u64) {
        let mask = if (word_index + 1) * 64 <= self.num_patterns {
            u64::MAX
        } else if word_index * 64 >= self.num_patterns {
            0
        } else {
            (1u64 << (self.num_patterns - word_index * 64)) - 1
        };
        self.words[word_index] = word & mask;
    }
}

impl fmt::Debug for VectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VectorSet({}/{}; ", self.len(), self.num_patterns)?;
        let mut first = true;
        for v in self.iter().take(16) {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        if self.len() > 16 {
            write!(f, ",…")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for VectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for VectorSet {
    /// Builds a set sized to the maximum element + 1, rounded up to a
    /// power of two (convenient in tests; production code should use
    /// [`VectorSet::from_vectors`] with the true space size).
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let vectors: Vec<usize> = iter.into_iter().collect();
        let max = vectors.iter().copied().max().unwrap_or(0);
        let num_patterns = (max + 1).next_power_of_two();
        VectorSet::from_vectors(num_patterns, vectors)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may use raw vec! freely
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = VectorSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn paper_example_counts() {
        // T(f0) = {4,5,6,7}, T(g0) = {6,7}: N=4, M=2.
        let t_f0 = VectorSet::from_vectors(16, [4, 5, 6, 7]);
        let t_g0 = VectorSet::from_vectors(16, [6, 7]);
        assert_eq!(t_f0.len(), 4);
        assert_eq!(t_f0.intersection_count(&t_g0), 2);
        // nmin(g0,f0) = N - M + 1 = 3.
        assert_eq!(t_f0.len() - t_f0.intersection_count(&t_g0) + 1, 3);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = VectorSet::from_vectors(256, [200, 3, 64, 63, 65]);
        assert_eq!(s.to_vec(), vec![3, 63, 64, 65, 200]);
    }

    #[test]
    fn difference_vec_matches_manual() {
        let a = VectorSet::from_vectors(128, [1, 2, 3, 70, 90]);
        let b = VectorSet::from_vectors(128, [2, 70]);
        assert_eq!(a.iter_difference(&b).collect::<Vec<_>>(), vec![1, 3, 90]);
        // Difference with self is empty; with the empty set, identity.
        assert_eq!(a.iter_difference(&a).count(), 0);
        let empty = VectorSet::new(128);
        assert_eq!(a.iter_difference(&empty).collect::<Vec<_>>(), a.to_vec());
    }

    #[test]
    fn union_and_subtract() {
        let mut a = VectorSet::from_vectors(64, [1, 2]);
        let b = VectorSet::from_vectors(64, [2, 3]);
        a.union_with(&b);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        // Subtraction is the difference view.
        assert_eq!(a.iter_difference(&b).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn set_word_masks_tail() {
        let mut s = VectorSet::new(16);
        s.set_word(0, u64::MAX);
        assert_eq!(s.len(), 16);
        assert!(!s.contains(16));
    }

    #[test]
    fn from_block_words_equals_set_word_assembly() {
        // Partial final word: garbage above the tail must be masked.
        let direct = VectorSet::from_block_words(100, vec![u64::MAX, u64::MAX]);
        let mut looped = VectorSet::new(100);
        looped.set_word(0, u64::MAX);
        looped.set_word(1, u64::MAX);
        assert_eq!(direct, looped);
        assert_eq!(direct.len(), 100);
        // Exact multiple of 64: nothing masked.
        let full = VectorSet::from_block_words(128, vec![3, 5]);
        assert_eq!(full.to_vec(), vec![0, 1, 64, 66]);
    }

    #[test]
    #[should_panic(expected = "block count mismatch")]
    fn from_block_words_rejects_wrong_shape() {
        let _ = VectorSet::from_block_words(100, vec![0u64; 3]);
    }

    #[test]
    fn try_from_words_validates_shape_and_tail() {
        let s = VectorSet::from_vectors(100, [0, 63, 64, 99]);
        let back = VectorSet::try_from_words(100, s.words().to_vec()).unwrap();
        assert_eq!(back, s);
        // Wrong word count.
        assert!(VectorSet::try_from_words(100, vec![0u64; 3]).is_none());
        // Set bit beyond num_patterns.
        assert!(VectorSet::try_from_words(100, vec![0, 1u64 << 40]).is_none());
        // Exact multiple of 64 needs no tail check.
        assert!(VectorSet::try_from_words(128, vec![u64::MAX; 2]).is_some());
    }

    #[test]
    fn from_iterator_sizes_to_power_of_two() {
        let s: VectorSet = [0usize, 9].into_iter().collect();
        assert_eq!(s.num_patterns(), 16);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_and_debug() {
        let s = VectorSet::from_vectors(16, [6, 7]);
        assert_eq!(s.to_string(), "{6, 7}");
        assert!(format!("{s:?}").contains("VectorSet(2/16"));
    }

    #[test]
    fn intersects_early_exit_is_consistent() {
        let a = VectorSet::from_vectors(256, [255]);
        let b = VectorSet::from_vectors(256, [255]);
        let c = VectorSet::from_vectors(256, [0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }
}
