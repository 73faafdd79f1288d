//! The worst-case analysis: `nmin(g)` for every untargeted fault.

use ndetect_faults::FaultUniverse;
use ndetect_sim::{parallel, rows, VectorSet};
use ndetect_store::{
    decode_from_slice, encode_to_vec, read_through, ArtifactKey, ArtifactKind, CodecError, Decode,
    Decoder, Encode, Encoder, Fnv64, Store, CODEC_VERSION,
};
use std::convert::Infallible;
use std::fmt;

/// Store kind tag for serialized worst-case (`nmin` vector) analyses.
pub const KIND_WORST_CASE: ArtifactKind = 2;

/// Result of the paper's Section-2 worst-case analysis.
///
/// For every untargeted fault `g` (bridging fault index in the
/// universe), `nmin(g)` is the smallest `n` such that **every**
/// n-detection test set for the targets `F` is guaranteed to detect `g`:
///
/// ```text
/// nmin(g, f) = N(f) − M(g, f) + 1       for every f with T(f) ∩ T(g) ≠ ∅
/// nmin(g)    = min over such f
/// ```
///
/// `nmin(g) == None` means no target fault's detections overlap `T(g)`
/// at all: no n-detection test set is ever *forced* to detect `g`
/// (conceptually `nmin = ∞`).
#[derive(Clone, Debug)]
pub struct WorstCaseAnalysis {
    nmin: Vec<Option<u32>>,
    /// Target indices, held as `u32` to halve the vector; stored entries
    /// keep the `usize` encoding.
    witness: Vec<Option<u32>>,
}

impl WorstCaseAnalysis {
    /// Computes `nmin(g)` for every bridging fault in the universe, with
    /// the auto worker count (`NDETECT_THREADS`, then the machine's
    /// available parallelism).
    ///
    /// The pass scans once per *distinct* detection set, i.e. once per
    /// class of [`FaultUniverse::bridge_classes`], and every bridge gets
    /// the `nmin` and witness of its class
    /// ([`FaultUniverse::bridge_class_of`]).
    ///
    /// Each scan walks the targets in ascending `(N(f), index)` order. It
    /// stops once `max(1, N(f) − N(g) + 1)`, a lower bound on this and
    /// every later `nmin(g,f)`, cannot beat the best bound found.
    /// Before an exact `M(g,f)` it sums
    /// `UB = Σ_s min(pop_s(T(f)), pop_s(T(g)))` over 8-word superblocks
    /// `s`, an upper bound on `M(g,f)`. The intersection is skipped when
    /// `UB == 0` or when `N(f) − UB + 1` cannot beat the best bound
    /// strictly. No skip can pass over a strict improvement, so the
    /// witness is always the target with the smallest
    /// `(nmin(g,f), N(f), index)`.
    #[must_use]
    pub fn compute(universe: &FaultUniverse) -> Self {
        Self::compute_with(universe, 0)
    }

    /// Computes `nmin(g)` with up to `num_threads` workers (`0` = auto).
    /// The per-class scans are split across the workers, and each scan
    /// depends only on its own set, so the result is identical for every
    /// thread count.
    #[must_use]
    pub fn compute_with(universe: &FaultUniverse, num_threads: usize) -> Self {
        let threads = parallel::resolve_threads(num_threads);
        let classes = universe.bridge_classes();
        let targets = ScanOrder::of(universe.target_sets());
        let per_class: Vec<Option<(usize, usize)>> =
            parallel::run_tiled_with(threads, classes.len(), Vec::new, |profile, range| {
                range.map(|c| targets.best(&classes[c], profile)).collect()
            });
        let (nmin, witness) = universe
            .bridge_class_of()
            .iter()
            .map(|&c| {
                let best = per_class[c as usize];
                (
                    best.map(|(b, _)| u32::try_from(b).expect("nmin fits u32")),
                    best.map(|(_, fi)| u32::try_from(fi).expect("target index fits u32")),
                )
            })
            .unzip();
        WorstCaseAnalysis { nmin, witness }
    }

    /// Computes `nmin(g)` with the content-addressed on-disk store as a
    /// fast path: the `nmin` and witness vectors are keyed by the
    /// universe's own store key, so a warm run skips the all-pairs pass
    /// entirely. Misses compute normally and populate the store (best
    /// effort); corrupt or inconsistent entries degrade to
    /// recomputation.
    ///
    /// A loaded entry is checked for meaning, not only shape: `nmin` and
    /// witness are both present or both absent, every bridge of a class
    /// carries its class's pair, and each witness `f` reproduces its
    /// class's `nmin = N(f) − M(g,f) + 1` (one intersection per class).
    /// Two corruptions still get through, because catching them means
    /// redoing the pass: a witness and an `nmin` changed consistently
    /// (another overlapping target and its own `nmin(g,f)`), and a whole
    /// class turned into `None`/`None`.
    #[must_use]
    pub fn compute_stored(
        universe: &FaultUniverse,
        num_threads: usize,
        store: Option<&Store>,
    ) -> Self {
        let Ok((wc, _)) = read_through::<_, Infallible>(
            store,
            Self::store_key(universe),
            KIND_WORST_CASE,
            |payload| {
                decode_from_slice::<WorstCaseAnalysis>(payload)
                    .ok()
                    .filter(|wc| wc.is_consistent_with(universe))
            },
            || Ok(Self::compute_with(universe, num_threads)),
            encode_to_vec,
        );
        wc
    }

    /// The store key of this analysis for `universe`: the universe key
    /// mixed with a worst-case salt and the codec version.
    #[must_use]
    pub fn store_key(universe: &FaultUniverse) -> ArtifactKey {
        let mut h = Fnv64::new();
        h.update(b"ndetect.worstcase");
        h.update_u64(u64::from(CODEC_VERSION));
        h.update_u64(universe.store_key().0);
        ArtifactKey(h.finish())
    }

    /// Validation against the universe a cached entry is being loaded
    /// for (see [`Self::compute_stored`] for what it checks and what
    /// gets through) — guards against key collisions, stale entries and
    /// bytes that decode but mean something else.
    fn is_consistent_with(&self, universe: &FaultUniverse) -> bool {
        if self.nmin.len() != universe.bridges().len() || self.witness.len() != self.nmin.len() {
            return false;
        }
        // The pair of each class's first bridge, checked once; every
        // later member must repeat it.
        let mut class_pair = vec![None; universe.bridge_classes().len()];
        for (j, &c) in universe.bridge_class_of().iter().enumerate() {
            let pair = (self.nmin[j], self.witness(j));
            match class_pair[c as usize] {
                Some(first) if first != pair => return false,
                Some(_) => {}
                None => {
                    let meaningful = match pair {
                        (Some(n), Some(fi)) => {
                            fi < universe.targets().len() && nmin_pair(universe, j, fi) == Some(n)
                        }
                        (None, None) => true,
                        _ => false,
                    };
                    if !meaningful {
                        return false;
                    }
                    class_pair[c as usize] = Some(pair);
                }
            }
        }
        true
    }

    /// `nmin(g)` for bridge index `j` (`None` = never guaranteed).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn nmin(&self, j: usize) -> Option<u32> {
        self.nmin[j]
    }

    /// All `nmin` values, indexed by bridge.
    #[must_use]
    pub fn nmin_values(&self) -> &[Option<u32>] {
        &self.nmin
    }

    /// The target fault index achieving `nmin(g)`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn witness(&self, j: usize) -> Option<usize> {
        self.witness[j].map(|fi| fi as usize)
    }

    /// Number of analysed untargeted faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nmin.len()
    }

    /// Returns `true` if no untargeted faults were analysed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nmin.is_empty()
    }

    /// Percentage of untargeted faults with `nmin(g) ≤ n` — a Table 2
    /// cell: the fraction *guaranteed* to be detected by any n-detection
    /// test set.
    #[must_use]
    pub fn coverage_percent(&self, n: u32) -> f64 {
        if self.nmin.is_empty() {
            return 100.0;
        }
        let covered = self
            .nmin
            .iter()
            .filter(|v| v.is_some_and(|m| m <= n))
            .count();
        100.0 * covered as f64 / self.nmin.len() as f64
    }

    /// Number of untargeted faults with `nmin(g) ≥ n` (counting
    /// `None`/∞) — a Table 3 cell: the faults for which guaranteed
    /// detection needs at least `n` detections.
    #[must_use]
    pub fn tail_count(&self, n: u32) -> usize {
        self.nmin
            .iter()
            .filter(|v| v.is_none_or(|m| m >= n))
            .count()
    }

    /// Indices of the untargeted faults with `nmin(g) ≥ n` (counting
    /// `None`/∞) — the population tracked by the paper's average-case
    /// analysis (Tables 5 and 6 use `n = 11`).
    #[must_use]
    pub fn tail_indices(&self, n: u32) -> Vec<usize> {
        self.nmin
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_none_or(|m| m >= n))
            .map(|(j, _)| j)
            .collect()
    }

    /// The largest finite `nmin`, if any fault has one.
    #[must_use]
    pub fn max_finite(&self) -> Option<u32> {
        self.nmin.iter().filter_map(|v| *v).max()
    }
}

/// Words per superblock: 512 vectors, so a superblock popcount fits a
/// `u16`.
const SUPERBLOCK_WORDS: usize = 8;

/// Superblocks per profile group.
const GROUP: usize = 8;

/// The popcounts of 8 consecutive superblocks of a set (zero past its
/// end).
type Group = [u16; GROUP];

/// Appends the superblock popcount profile of `set` to `out`.
fn push_profile(set: &VectorSet, out: &mut Vec<Group>) {
    for words in set.words().chunks(GROUP * SUPERBLOCK_WORDS) {
        let mut group = [0u16; GROUP];
        for (count, block) in group.iter_mut().zip(words.chunks(SUPERBLOCK_WORDS)) {
            *count = rows::popcount(block) as u16;
        }
        out.push(group);
    }
}

/// `UB = Σ_s min(pop_s(T(f)), pop_s(T(g)))`, an upper bound on
/// `M(g,f)`, summed in `u16` lanes so that each group is one vector op.
/// No lane exceeds `min(N(f), N(g))`, which must fit a `u16`.
fn overlap_bound(f: &[Group], g: &[Group]) -> usize {
    let mut lanes = [0u16; GROUP];
    for (x, y) in f.iter().zip(g) {
        for ((acc, &p), &q) in lanes.iter_mut().zip(x).zip(y) {
            *acc += p.min(q);
        }
    }
    lanes.iter().map(|&l| usize::from(l)).sum()
}

/// The detectable targets in ascending `(N(f), index)` order, each with
/// its superblock popcount profile.
struct ScanOrder<'a> {
    sets: &'a [VectorSet],
    order: Vec<(usize, usize)>,
    /// Profiles in scan order, the same number of groups per target.
    profiles: Vec<Group>,
}

impl<'a> ScanOrder<'a> {
    fn of(sets: &'a [VectorSet]) -> Self {
        let mut order: Vec<(usize, usize)> = sets
            .iter()
            .enumerate()
            .map(|(i, t)| (t.len(), i))
            .filter(|&(n, _)| n > 0)
            .collect();
        order.sort_unstable();
        let mut profiles = Vec::new();
        for &(_, fi) in &order {
            push_profile(&sets[fi], &mut profiles);
        }
        ScanOrder {
            sets,
            order,
            profiles,
        }
    }

    /// `(nmin(g), witness)` for one detection set `T(g)`, or `None` when
    /// no target overlaps it. `profile` is scratch for `T(g)`'s profile.
    fn best(&self, t_g: &VectorSet, profile: &mut Vec<Group>) -> Option<(usize, usize)> {
        profile.clear();
        push_profile(t_g, profile);
        let n_g = t_g.len();
        let mut best: Option<(usize, usize)> = None;
        // Every set has at least one word, so the profile is never empty.
        let profiles = self.profiles.chunks_exact(profile.len());
        for (&(n_f, fi), p_f) in self.order.iter().zip(profiles) {
            let b = best.map_or(usize::MAX, |(b, _)| b);
            // M ≤ min(N(f), N(g)) ⇒ nmin(g,f) ≥ max(1, N(f) − N(g) + 1),
            // and N(f) only grows from here on: stop once that bound
            // cannot beat `b` strictly.
            if b <= 1 || n_f + 1 >= b.saturating_add(n_g) {
                break;
            }
            // M ≤ UB ⇒ nmin(g,f) ≥ N(f) − UB + 1. The bound sums in `u16`
            // lanes, so two sets both past `u16::MAX` go straight to the
            // exact count.
            if n_f.min(n_g) <= usize::from(u16::MAX) {
                let ub = overlap_bound(p_f, profile);
                if ub == 0 || n_f + 1 >= b.saturating_add(ub) {
                    continue;
                }
            }
            let m = self.sets[fi].intersection_count(t_g);
            if m == 0 {
                continue;
            }
            let candidate = n_f - m + 1;
            if candidate < b {
                best = Some((candidate, fi));
            }
        }
        best
    }
}

impl Encode for WorstCaseAnalysis {
    fn encode(&self, e: &mut Encoder) {
        self.nmin.encode(e);
        let witness: Vec<Option<usize>> = (0..self.len()).map(|j| self.witness(j)).collect();
        witness.encode(e);
    }
}

impl Decode for WorstCaseAnalysis {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let nmin = Vec::<Option<u32>>::decode(d)?;
        let witness = Vec::<Option<usize>>::decode(d)?
            .into_iter()
            .map(|fi| fi.map(u32::try_from).transpose())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| CodecError::new("witness index does not fit in u32"))?;
        if nmin.len() != witness.len() {
            return Err(CodecError::new("nmin/witness length mismatch"));
        }
        Ok(WorstCaseAnalysis { nmin, witness })
    }
}

/// `nmin(g, f)` for one specific (bridge, target) pair: `None` when the
/// detection sets do not overlap.
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn nmin_pair(universe: &FaultUniverse, bridge: usize, target: usize) -> Option<u32> {
    let t_f = universe.target_set(target);
    let t_g = universe.bridge_set(bridge);
    let m = t_f.intersection_count(t_g);
    if m == 0 {
        None
    } else {
        Some(u32::try_from(t_f.len() - m + 1).expect("nmin fits u32"))
    }
}

/// All targets overlapping `T(g)` with their `nmin(g, f)` values, in
/// target order — the content of the paper's Table 1.
///
/// # Panics
///
/// Panics if `bridge` is out of range.
#[must_use]
pub fn overlapping_targets(universe: &FaultUniverse, bridge: usize) -> Vec<(usize, u32)> {
    (0..universe.targets().len())
        .filter_map(|fi| nmin_pair(universe, bridge, fi).map(|v| (fi, v)))
        .collect()
}

impl fmt::Display for WorstCaseAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worst-case analysis of {} untargeted faults: {:.2}% at n=1, {:.2}% at n=10, {} need n>10",
            self.len(),
            self.coverage_percent(1),
            self.coverage_percent(10),
            self.tail_count(11)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_circuits::figure1;
    use ndetect_faults::FaultUniverse;

    #[test]
    fn paper_table1_nmin_pairs() {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let g0 = u.find_bridge("9", false, "10", true).unwrap();
        let pairs = overlapping_targets(&u, g0);
        // Paper Table 1: i -> nmin(g0, f_i).
        let expect: &[(usize, u32)] =
            &[(0, 3), (1, 5), (3, 5), (9, 4), (11, 11), (12, 3), (14, 11)];
        assert_eq!(pairs, expect);
    }

    #[test]
    fn paper_nmin_g0_and_g6() {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let wc = WorstCaseAnalysis::compute(&u);
        let g0 = u.find_bridge("9", false, "10", true).unwrap();
        assert_eq!(wc.nmin(g0), Some(3));
        let g6 = u.find_bridge("11", false, "9", true).unwrap();
        assert_eq!(wc.nmin(g6), Some(4));
        // Witness for g0 achieves the bound.
        let w = wc.witness(g0).unwrap();
        assert_eq!(nmin_pair(&u, g0, w), Some(3));
    }

    #[test]
    fn coverage_and_tail_are_consistent() {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let wc = WorstCaseAnalysis::compute(&u);
        assert_eq!(wc.len(), u.bridges().len());
        // Coverage is monotone in n.
        let mut prev = 0.0;
        for n in 1..=20 {
            let c = wc.coverage_percent(n);
            assert!(c >= prev);
            prev = c;
        }
        // tail_count(1) counts everything.
        assert_eq!(wc.tail_count(1), wc.len());
        // Every fault is either covered at max_finite or has no bound.
        let nmax = wc.max_finite().unwrap();
        let at_max = wc.coverage_percent(nmax);
        let unbounded = wc.nmin_values().iter().filter(|v| v.is_none()).count();
        let expect = 100.0 * (wc.len() - unbounded) as f64 / wc.len() as f64;
        assert!((at_max - expect).abs() < 1e-9);
    }

    #[test]
    fn sets_past_u16_max_skip_the_bound_and_stay_exact() {
        // 2^20 vectors: a `u16` lane of the bound would sum 256
        // superblocks of up to 512, so pairs of sets this large must take
        // the exact count.
        let space = 1 << 20;
        let targets = [
            VectorSet::from_vectors(space, 0..900_000),
            VectorSet::from_vectors(space, 50_000..space),
        ];
        let t_g = VectorSet::from_vectors(space, 100_000..space);
        // nmin(g,f) = |T(f) \ T(g)| + 1: 100,001 for f0, 50,001 for f1.
        let scan = ScanOrder::of(&targets);
        assert_eq!(scan.best(&t_g, &mut Vec::new()), Some((50_001, 1)));
    }

    #[test]
    fn stored_witnesses_stay_usize_and_one_past_u32_is_rejected() {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let wc = WorstCaseAnalysis::compute(&u);
        let encode = |witness: &Vec<Option<usize>>| {
            let mut e = Encoder::new();
            wc.nmin_values().to_vec().encode(&mut e);
            witness.encode(&mut e);
            e.finish()
        };
        let mut witness: Vec<Option<usize>> = (0..wc.len()).map(|j| wc.witness(j)).collect();
        assert_eq!(encode_to_vec(&wc), encode(&witness));
        let back = decode_from_slice::<WorstCaseAnalysis>(&encode(&witness)).unwrap();
        assert!((0..wc.len()).all(|j| back.witness(j) == witness[j]));
        let j = witness.iter().position(Option::is_some).unwrap();
        witness[j] = Some(1 << 32);
        assert!(decode_from_slice::<WorstCaseAnalysis>(&encode(&witness)).is_err());
    }

    #[test]
    fn tail_indices_match_tail_count() {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let wc = WorstCaseAnalysis::compute(&u);
        for n in [1, 2, 3, 5, 11] {
            assert_eq!(wc.tail_indices(n).len(), wc.tail_count(n));
        }
    }
}
