//! The greedy set-cover n-detection generator.

// Hot module: the gain rows are the generator's bulk memory and must
// come from the row data plane (`ndetect_sim::rows`).
#![deny(clippy::disallowed_methods)]

use crate::artifact::{generated_key, KIND_GENERATED_SET};
use crate::compact::compact;
use ndetect_faults::FaultUniverse;
use ndetect_obs::trace;
use ndetect_sim::{rows, VectorSet};
use ndetect_store::{decode_from_slice, encode_to_vec, read_through, Origin, Store};
use std::convert::Infallible;
use std::fmt;

/// Configuration for [`generate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GenOptions {
    /// Detection target: every target fault `f` must be detected
    /// `min(n, |T(f)|)` times.
    pub n: u32,
    /// Run the reverse-order redundant-vector elimination passes after
    /// generation (never breaks the n-detection property, usually
    /// shrinks the set a little).
    pub compact: bool,
    /// Tie-breaking seed. `None` breaks equal-gain ties toward the
    /// smallest vector index; `Some(s)` breaks them by a seeded hash
    /// rank, giving a different (still deterministic) set per seed —
    /// useful for generating diverse sets of the same quality.
    pub seed: Option<u64>,
    /// Generation no longer reads this: it is serial, and the worker
    /// pass that counted the first gains is gone (they are popcounts of
    /// [`FaultUniverse::target_index`] rows). The field stays only
    /// because the `perfbench/` harness sets it. It is excluded from the
    /// store key.
    pub threads: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            n: 1,
            compact: false,
            seed: None,
            threads: 0,
        }
    }
}

impl GenOptions {
    /// The defaults with an explicit detection target.
    #[must_use]
    pub fn with_n(n: u32) -> Self {
        GenOptions {
            n,
            ..GenOptions::default()
        }
    }
}

/// A generated n-detection test set: vectors in insertion order, the
/// membership bitset, per-target detection counts, and the options that
/// produced it.
///
/// Invariant (established by [`generate`], preserved by [`compact`],
/// revalidated when loading from the artifact store): every target
/// fault `f` is detected at least `min(n, |T(f)|)` times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneratedSet {
    pub(crate) n: u32,
    pub(crate) seed: Option<u64>,
    pub(crate) compacted: bool,
    pub(crate) vectors: Vec<u32>,
    pub(crate) members: VectorSet,
    pub(crate) target_counts: Vec<u32>,
}

impl GeneratedSet {
    /// The detection target `n` the set was generated for.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The tie-breaking seed the set was generated with.
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Whether the compaction passes ran on this set.
    #[must_use]
    pub fn is_compacted(&self) -> bool {
        self.compacted
    }

    /// The test vectors, in insertion order.
    #[must_use]
    pub fn vectors(&self) -> &[u32] {
        &self.vectors
    }

    /// The membership bitset over the pattern space.
    #[must_use]
    pub fn as_vector_set(&self) -> &VectorSet {
        &self.members
    }

    /// Number of tests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` if the set has no tests (every target was
    /// undetectable).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The size of the underlying pattern space `|U|`.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.members.num_patterns()
    }

    /// `|T(f) ∩ T|` for target index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn target_count(&self, i: usize) -> u32 {
        self.target_counts[i]
    }

    /// All per-target detection counts, parallel to the universe's
    /// target list.
    #[must_use]
    pub fn target_counts(&self) -> &[u32] {
        &self.target_counts
    }

    /// Checks the n-detection invariant against a universe: every
    /// target `f` is detected at least `min(n, |T(f)|)` times (and the
    /// recorded counts match the membership bitset).
    #[must_use]
    pub fn satisfies(&self, universe: &FaultUniverse) -> bool {
        universe.target_sets().len() == self.target_counts.len()
            && universe
                .target_sets()
                .iter()
                .zip(&self.target_counts)
                .all(|(t_f, &count)| {
                    count as usize == t_f.intersection_count(&self.members)
                        && count as usize >= t_f.len().min(self.n as usize)
                })
    }

    /// Recomputes `target_counts` from the membership bitset (called
    /// after generation and after compaction mutates the set).
    pub(crate) fn recount(&mut self, universe: &FaultUniverse) {
        self.target_counts = universe
            .target_sets()
            .iter()
            .map(|t_f| t_f.intersection_count(&self.members) as u32)
            .collect();
    }
}

impl fmt::Display for GeneratedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.vectors.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// SplitMix64 finalizer — the seeded tie-breaking rank.
fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The greedy argmax of [`generate`]: a cursor over the vectors in
/// tie-break order, walked one gain level at a time.
///
/// The order is the identity without a seed, or the vectors sorted by
/// their seeded [`mix`] rank (a bijection, so ranks are distinct). The
/// cursor stands at position `pos` of that order on gain level `level`,
/// which starts at the largest gain. Gains never grow, so no gain
/// exceeds `level` and every vector the cursor has passed on this level
/// stays below it: the first vector at or after `pos` whose gain equals
/// `level` is the highest-gain vector with the smallest rank. A level
/// with none left sends the cursor one level down and back to 0.
struct RankCursor {
    /// `None` stands for the identity order.
    order: Option<Vec<u32>>,
    pos: usize,
    top: u32,
    level: u32,
}

impl RankCursor {
    fn new(gain: &[u32], seed: Option<u64>) -> Self {
        let order = seed.map(|s| {
            let mut ranked: Vec<(u64, u32)> = (0..gain.len() as u32)
                .map(|v| (mix(s, u64::from(v)), v))
                .collect();
            ranked.sort_unstable_by_key(|&(rank, _)| rank);
            ranked.into_iter().map(|(_, v)| v).collect()
        });
        let top = gain.iter().copied().max().unwrap_or(0);
        RankCursor {
            order,
            pos: 0,
            top,
            level: top,
        }
    }

    /// The vector with the highest gain and, among those, the smallest
    /// rank; `None` once every gain is 0.
    fn next(&mut self, gain: &[u32]) -> Option<usize> {
        while self.level > 0 {
            let level = self.level;
            let found = match &self.order {
                None => gain[self.pos..].iter().position(|&g| g == level),
                Some(order) => order[self.pos..]
                    .iter()
                    .position(|&v| gain[v as usize] == level),
            };
            if let Some(offset) = found {
                let pos = self.pos + offset;
                self.pos = pos;
                return Some(self.order.as_ref().map_or(pos, |o| o[pos] as usize));
            }
            self.level -= 1;
            self.pos = 0;
        }
        None
    }

    /// The nonzero gain levels the cursor has stood on, from the top
    /// one down to the current one.
    fn levels(&self) -> u32 {
        (self.top + 1).saturating_sub(self.level.max(1))
    }
}

/// Builds a compact n-detection test set for the universe's target
/// faults by greedy set cover.
///
/// The **gain** of a vector is the number of still-deficient targets it
/// would push one detection closer to `min(n, |T(f)|)`. Every detectable
/// target starts deficient, so a vector's first gain is the popcount of
/// its row in the universe's vector→target index
/// ([`FaultUniverse::target_index`]); after that the row is maintained,
/// not recomputed. Each round the highest-gain vector joins the set and
/// its gain drops to zero, the round walks the targets of its index row
/// that are still open (deficient), and every target that reaches its
/// goal takes one unit of gain from each unchosen vector of its
/// detection set. Gains therefore never grow, so the highest-gain vector
/// is found by a cursor that walks the vectors in tie-break order one
/// gain level at a time, from the largest gain down: every vector it has
/// passed on the current level stays below that level, so the first one
/// it reaches at the level is the pick. Over the whole run the argmax
/// costs one walk of `|U|` per gain level plus one step per round, a
/// round costs one walk of the chosen vector's `⌈|F| / 64⌉`-word row,
/// and the gain work is one walk of every `T(f)`. The first call on a
/// universe also builds its index, once.
///
/// The construction is serial and deterministic: equal gains go to the
/// smallest vector index, or with [`GenOptions::seed`] to the smallest
/// seeded hash rank, which yields deterministic *diverse* sets. With
/// `options.compact` the reverse-order redundant-vector elimination
/// passes run before returning.
///
/// Undetectable targets (empty `T(f)`) impose no requirement. The
/// greedy invariant guarantees termination: while any target is
/// deficient, some uncovered vector of its detection set has gain ≥ 1.
///
/// # Panics
///
/// Panics if `options.n == 0`.
#[must_use]
pub fn generate(universe: &FaultUniverse, options: &GenOptions) -> GeneratedSet {
    assert!(options.n >= 1, "n must be at least 1");
    let targets = universe.target_sets();
    let num_patterns = universe.space().num_patterns();
    let index = universe.target_index();

    // Outstanding detections per target: min(n, |T(f)|) minus the
    // detections already provided by the chosen set (0 at the start).
    let mut deficit: Vec<u32> = targets
        .iter()
        .map(|t| (options.n as usize).min(t.len()) as u32)
        .collect();
    // One bit per target still short of its goal; only ever cleared.
    let mut open = rows::zeroed_words(index.width());
    let mut num_open = 0usize;
    for (fi, _) in deficit.iter().enumerate().filter(|&(_, &d)| d > 0) {
        open[fi / 64] |= 1 << (fi % 64);
        num_open += 1;
    }

    let mut members = VectorSet::new(num_patterns);
    let mut vectors: Vec<u32> = Vec::new();

    let mut gen_span = trace::span("gen.generate");
    gen_span.field("n", options.n);
    gen_span.field("targets", targets.len());

    let mut gain = rows::zeroed_counts(num_patterns);
    for (v, g) in gain.iter_mut().enumerate() {
        *g = rows::popcount(index.row(v)) as u32;
    }
    let mut cursor = RankCursor::new(&gain, options.seed);

    while num_open > 0 {
        let Some(best) = cursor.next(&gain) else {
            // Defensively unreachable: a deficient target always has an
            // unchosen vector left in T(f).
            break;
        };
        debug_assert!(!members.contains(best), "vector {best} chosen twice");
        gain[best] = 0;
        members.insert(best);
        vectors.push(best as u32);
        for (w, (&detects, open)) in index.row(best).iter().zip(&mut open).enumerate() {
            let mut hits = detects & *open;
            while hits != 0 {
                let fi = 64 * w + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                deficit[fi] -= 1;
                if deficit[fi] == 0 {
                    // Saturated: f no longer counts toward the gain of
                    // the unchosen vectors that detect it.
                    *open &= !(1 << (fi % 64));
                    num_open -= 1;
                    for v in targets[fi].iter_difference(&members) {
                        gain[v] -= 1;
                    }
                }
            }
        }
    }
    gen_span.field("vectors", vectors.len());
    gen_span.field("levels", cursor.levels());
    drop(gen_span);
    // One round per chosen vector: the rounds are the uncompacted set size.
    ndetect_obs::global()
        .counter("gen_rounds_total")
        .add(vectors.len() as u64);
    ndetect_obs::global().counter("gen_sets_total").inc();

    let mut set = GeneratedSet {
        n: options.n,
        seed: options.seed,
        compacted: false,
        vectors,
        members,
        target_counts: Vec::new(),
    };
    set.recount(universe);
    if options.compact {
        let mut span = trace::span("gen.compact");
        span.field("removed", compact(&mut set, universe));
    }
    debug_assert!(set.satisfies(universe));
    set
}

/// Like [`generate`], with the content-addressed on-disk store as a
/// fast path ([`read_through`]): a valid cache entry (same universe,
/// same semantic options) skips the construction entirely; a miss
/// generates normally and populates the store best-effort. Corrupt,
/// stale, or property-violating entries are silently treated as misses.
/// The [`Origin`] says whether the set was loaded or generated.
///
/// # Panics
///
/// Panics if `options.n == 0`.
#[must_use]
pub fn generate_stored(
    universe: &FaultUniverse,
    options: &GenOptions,
    store: Option<&Store>,
) -> (GeneratedSet, Origin) {
    assert!(options.n >= 1, "n must be at least 1");
    let Ok(generated) = read_through::<_, Infallible>(
        store,
        generated_key(universe, options),
        KIND_GENERATED_SET,
        |payload| {
            decode_from_slice::<GeneratedSet>(payload)
                .ok()
                .filter(|set| set.is_consistent_with(universe, options))
        },
        || Ok(generate(universe, options)),
        encode_to_vec,
    );
    generated
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may use raw vec! freely
mod tests {
    use super::*;
    use ndetect_circuits::figure1;

    fn universe() -> FaultUniverse {
        FaultUniverse::build(&figure1::netlist()).unwrap()
    }

    #[test]
    fn generated_sets_meet_the_detection_requirement() {
        let u = universe();
        for n in [1, 2, 4, 16] {
            let set = generate(&u, &GenOptions::with_n(n));
            assert!(set.satisfies(&u), "n={n}");
            for (fi, t_f) in u.target_sets().iter().enumerate() {
                assert!(
                    set.target_count(fi) as usize >= t_f.len().min(n as usize),
                    "n={n} target {fi}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_across_thread_counts() {
        let u = universe();
        let base = GenOptions::with_n(3);
        let one = generate(&u, &GenOptions { threads: 1, ..base });
        for threads in [2, 4, 7] {
            let multi = generate(&u, &GenOptions { threads, ..base });
            assert_eq!(one, multi, "threads={threads}");
        }
    }

    #[test]
    fn seeded_tie_breaking_is_deterministic_and_diverse() {
        let u = universe();
        let a = generate(
            &u,
            &GenOptions {
                n: 2,
                seed: Some(7),
                ..GenOptions::default()
            },
        );
        let b = generate(
            &u,
            &GenOptions {
                n: 2,
                seed: Some(7),
                ..GenOptions::default()
            },
        );
        assert_eq!(a, b);
        assert!(a.satisfies(&u));
        // A different seed still satisfies the property (the sets may
        // or may not differ on a circuit this small).
        let c = generate(
            &u,
            &GenOptions {
                n: 2,
                seed: Some(8),
                ..GenOptions::default()
            },
        );
        assert!(c.satisfies(&u));
    }

    #[test]
    fn sets_grow_with_n_and_stay_below_the_exhaustive_space() {
        let u = universe();
        let s1 = generate(&u, &GenOptions::with_n(1));
        let s4 = generate(&u, &GenOptions::with_n(4));
        assert!(s1.len() <= s4.len());
        assert!(s1.len() < u.space().num_patterns());
        // figure1's 16 targets are 1-coverable by a handful of vectors.
        assert!(s1.len() <= 8, "got {}", s1.len());
    }

    #[test]
    fn n_beyond_every_detection_set_saturates() {
        let u = universe();
        // n = |U| forces every target to its full detection set: the
        // union of all T(f) is required.
        let all = generate(&u, &GenOptions::with_n(u.space().num_patterns() as u32));
        for (fi, t_f) in u.target_sets().iter().enumerate() {
            assert_eq!(all.target_count(fi) as usize, t_f.len(), "target {fi}");
        }
    }

    #[test]
    #[should_panic(expected = "n must be at least 1")]
    fn zero_n_is_rejected() {
        let u = universe();
        let _ = generate(&u, &GenOptions::with_n(0));
    }

    #[test]
    fn display_lists_vectors_in_order() {
        let u = universe();
        let set = generate(&u, &GenOptions::with_n(1));
        let text = set.to_string();
        assert!(text.starts_with('[') && text.ends_with(']'));
        assert_eq!(
            text.trim_matches(['[', ']']).split_whitespace().count(),
            set.len()
        );
    }
}
