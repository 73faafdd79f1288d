//! Test sets: ordered collections of distinct input vectors.

use ndetect_faults::FaultUniverse;
use ndetect_sim::VectorSet;
use std::fmt;

/// A test set: distinct input vectors in insertion order, with a bitset
/// for O(1) membership.
///
/// Insertion order matters for the paper's Definition 2, whose greedy
/// detection counting scans tests in the order they entered the set.
///
/// ```
/// use ndetect_core::TestSet;
/// let mut t = TestSet::new(16);
/// assert!(t.push(6));
/// assert!(t.push(3));
/// assert!(!t.push(6)); // duplicates are ignored
/// assert_eq!(t.vectors(), &[6, 3]);
/// assert!(t.contains(3));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestSet {
    order: Vec<u32>,
    members: VectorSet,
}

impl TestSet {
    /// Creates an empty test set over a space of `num_patterns` vectors.
    #[must_use]
    pub fn new(num_patterns: usize) -> Self {
        TestSet {
            order: Vec::new(),
            members: VectorSet::new(num_patterns),
        }
    }

    /// Adds a vector; returns `false` (and does nothing) if it was
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `vector` is outside the space.
    pub fn push(&mut self, vector: usize) -> bool {
        if self.members.contains(vector) {
            return false;
        }
        self.members.insert(vector);
        self.order
            .push(u32::try_from(vector).expect("vector fits u32"));
        true
    }

    /// Removes every test, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.members.clear();
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, vector: usize) -> bool {
        self.members.contains(vector)
    }

    /// The vectors, in insertion order.
    #[must_use]
    pub fn vectors(&self) -> &[u32] {
        &self.order
    }

    /// The membership bitset.
    #[must_use]
    pub fn as_vector_set(&self) -> &VectorSet {
        &self.members
    }

    /// Number of tests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the set has no tests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of detections of a fault under the paper's Definition 1:
    /// `|T(f) ∩ T|`.
    #[must_use]
    pub fn detection_count(&self, t_f: &VectorSet) -> usize {
        self.members.intersection_count(t_f)
    }

    /// Whether the set detects a fault at all (`T(f) ∩ T ≠ ∅`).
    #[must_use]
    pub fn detects(&self, t_f: &VectorSet) -> bool {
        self.members.intersects(t_f)
    }
}

impl fmt::Display for TestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Percentage of the universe's untargeted (bridging) faults that a set
/// of vectors detects — the coverage the ablations and examples report
/// for generated and random test sets alike.
#[must_use]
pub fn bridge_coverage(universe: &FaultUniverse, set: &VectorSet) -> f64 {
    if universe.bridges().is_empty() {
        return 100.0;
    }
    100.0 * bridges_detected(universe, set) as f64 / universe.bridges().len() as f64
}

/// Number of the universe's untargeted (bridging) faults that a set of
/// vectors detects: one intersection test per distinct `T(g)`
/// ([`FaultUniverse::bridge_classes`]), counted per bridge through
/// [`FaultUniverse::bridge_class_of`].
#[must_use]
pub fn bridges_detected(universe: &FaultUniverse, set: &VectorSet) -> usize {
    let detected: Vec<bool> = universe
        .bridge_classes()
        .iter()
        .map(|t_g| set.intersects(t_g))
        .collect();
    universe
        .bridge_class_of()
        .iter()
        .filter(|&&c| detected[c as usize])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_counts_match_paper_example() {
        // T(f1) = {6,7,12,13,14,15}; a set containing {12,13,14,15}
        // detects f1 four times without touching T(g0) = {6,7}.
        let t_f1 = VectorSet::from_vectors(16, [6, 7, 12, 13, 14, 15]);
        let t_g0 = VectorSet::from_vectors(16, [6, 7]);
        let mut ts = TestSet::new(16);
        for v in [12, 13, 14, 15] {
            ts.push(v);
        }
        assert_eq!(ts.detection_count(&t_f1), 4);
        assert!(!ts.detects(&t_g0));
        // A fifth detection forces a T(g0) vector.
        ts.push(6);
        assert_eq!(ts.detection_count(&t_f1), 5);
        assert!(ts.detects(&t_g0));
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut ts = TestSet::new(64);
        for v in [9, 1, 33, 2] {
            ts.push(v);
        }
        assert_eq!(ts.vectors(), &[9, 1, 33, 2]);
        assert_eq!(ts.to_string(), "[9 1 33 2]");
    }

    #[test]
    fn duplicates_ignored() {
        let mut ts = TestSet::new(8);
        assert!(ts.push(5));
        assert!(!ts.push(5));
        assert_eq!(ts.len(), 1);
        assert!(!ts.is_empty());
    }
}
