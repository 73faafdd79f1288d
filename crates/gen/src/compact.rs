//! Reverse-order compaction: redundant-vector elimination that
//! preserves the n-detection property.

use crate::generate::GeneratedSet;
use ndetect_faults::FaultUniverse;
use ndetect_sim::rows;

/// Eliminates redundant vectors from a generated set, preserving the
/// n-detection property exactly.
///
/// A vector is redundant when removing it leaves every target fault at
/// `min(n, |T(f)|)` detections or more. Vectors are scanned in
/// **reverse insertion order** — the classical static-compaction order:
/// late greedy picks patched small deficits and are the most likely to
/// have been obsoleted by earlier, higher-gain picks. Because a removal
/// only lowers detection counts, it can never make another vector
/// *newly* redundant, so the reverse pass converges in one sweep; a
/// confirming pass runs anyway and the loop exits on the first sweep
/// that removes nothing.
///
/// The targets at their requirement are **tight**, one bit each. A
/// vector must stay when its row of the universe's vector→target index
/// ([`FaultUniverse::target_index`]) meets a tight target; a removal
/// lowers the counts of the targets in its row and marks those that
/// reach their requirement. So each vector costs one walk of its
/// `⌈|F| / 64⌉`-word row, not a probe of every `T(f)`.
///
/// Returns the number of vectors removed. The set's per-target counts
/// are kept up to date, and the `compacted` flag is set.
pub fn compact(set: &mut GeneratedSet, universe: &FaultUniverse) -> usize {
    let targets = universe.target_sets();
    let index = universe.target_index();
    let n = set.n as usize;
    // Per-target requirement and current detection counts.
    let goal: Vec<u32> = targets.iter().map(|t| n.min(t.len()) as u32).collect();
    let mut counts: Vec<u32> = targets
        .iter()
        .map(|t| t.intersection_count(&set.members) as u32)
        .collect();
    let mut tight = rows::zeroed_words(index.width());
    for (fi, (&count, &goal)) in counts.iter().zip(&goal).enumerate() {
        if goal > 0 && count <= goal {
            tight[fi / 64] |= 1 << (fi % 64);
        }
    }

    let mut removed_total = 0usize;
    loop {
        let mut removed_this_pass = 0usize;
        for idx in (0..set.vectors.len()).rev() {
            let v = set.vectors[idx] as usize;
            // v must stay if any target is exactly at its requirement
            // and counts v among its detections.
            let row = index.row(v);
            if row
                .iter()
                .zip(&tight)
                .any(|(&detects, &t)| detects & t != 0)
            {
                continue;
            }
            for (w, &detects) in row.iter().enumerate() {
                let mut bits = detects;
                while bits != 0 {
                    let fi = 64 * w + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    counts[fi] -= 1;
                    if counts[fi] <= goal[fi] {
                        tight[w] |= 1 << (fi % 64);
                    }
                }
            }
            set.members.remove(v);
            set.vectors.remove(idx);
            removed_this_pass += 1;
        }
        removed_total += removed_this_pass;
        if removed_this_pass == 0 {
            break;
        }
    }

    set.compacted = true;
    set.target_counts = counts;
    debug_assert!(set.satisfies(universe));
    removed_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenOptions};
    use ndetect_circuits::figure1;
    use ndetect_sim::VectorSet;

    fn universe() -> FaultUniverse {
        FaultUniverse::build(&figure1::netlist()).unwrap()
    }

    #[test]
    fn compaction_preserves_the_property_and_never_grows() {
        let u = universe();
        for n in [1, 2, 3, 8] {
            let raw = generate(&u, &GenOptions::with_n(n));
            let mut compacted = raw.clone();
            let removed = compact(&mut compacted, &u);
            assert_eq!(compacted.len() + removed, raw.len(), "n={n}");
            assert!(compacted.satisfies(&u), "n={n}");
            assert!(compacted.is_compacted());
        }
    }

    #[test]
    fn compaction_strips_a_deliberately_padded_set() {
        let u = universe();
        let mut set = generate(&u, &GenOptions::with_n(1));
        let baseline = set.len();
        // Pad with every vector of the space not already present: all of
        // them are redundant on top of a satisfying set... except where
        // they now carry requirements already met. Compaction must get
        // back to something no larger than the padded set and still
        // satisfying.
        let space = u.space().num_patterns();
        let mut members = set.as_vector_set().clone();
        for v in 0..space {
            if members.insert(v) {
                set.vectors.push(v as u32);
            }
        }
        set.members = members;
        set.recount(&u);
        assert_eq!(set.len(), space);
        let removed = compact(&mut set, &u);
        assert!(removed > 0);
        assert!(set.satisfies(&u));
        // The compacted result is no larger than a from-scratch greedy
        // set would ever need to be: every vector left is load-bearing.
        assert!(set.len() <= space - removed);
        assert!(set.len() <= baseline.max(space - removed));
        // Minimality: removing any single remaining vector breaks the
        // property.
        let goal: Vec<usize> = u.target_sets().iter().map(|t| t.len().min(1)).collect();
        for &v in set.vectors() {
            let mut without = VectorSet::new(space);
            for &w in set.vectors() {
                if w != v {
                    without.insert(w as usize);
                }
            }
            let still_fine = u
                .target_sets()
                .iter()
                .zip(&goal)
                .all(|(t_f, &g)| t_f.intersection_count(&without) >= g);
            assert!(!still_fine, "vector {v} was redundant after compaction");
        }
    }

    #[test]
    fn generate_with_compact_option_matches_explicit_compaction() {
        let u = universe();
        let via_option = generate(
            &u,
            &GenOptions {
                n: 3,
                compact: true,
                ..GenOptions::default()
            },
        );
        let mut explicit = generate(&u, &GenOptions::with_n(3));
        let _ = compact(&mut explicit, &u);
        assert_eq!(via_option, explicit);
    }
}
