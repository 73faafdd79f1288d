//! The average-case analysis: Procedure 1 and detection-probability
//! estimation.

use crate::definition::{Def2Checks, DetectionDefinition};
use crate::error::CoreError;
use crate::test_set::TestSet;
use ndetect_faults::{FaultUniverse, StuckAtFault};
use ndetect_sim::rows::{self, RowMatrix};
use ndetect_sim::VectorSet;
use ndetect_store::{
    decode_from_slice, encode_to_vec, read_through, ArtifactKey, ArtifactKind, CodecError, Decode,
    Decoder, Encode, Encoder, Fnv64, Store, CODEC_VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Store kind tag for serialized Procedure-1 probability estimates.
pub const KIND_PROCEDURE1: ArtifactKind = 4;

/// Configuration for Procedure 1 (random n-detection test set
/// construction) and the probability estimator built on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Procedure1Config {
    /// Largest `n` to build up to (the paper uses 10).
    pub nmax: u32,
    /// Number of independent random test sets `K` (the paper uses 10000
    /// for Table 5 and 1000 for Table 6).
    pub num_test_sets: usize,
    /// Master seed; every test set `k` derives its own RNG stream, so
    /// results are identical regardless of thread count.
    pub seed: u64,
    /// Detection-counting rule (Definition 1 or 2).
    pub definition: DetectionDefinition,
    /// Worker threads; 0 means auto (`NDETECT_THREADS`, then the
    /// machine's available parallelism).
    pub threads: usize,
}

impl Default for Procedure1Config {
    fn default() -> Self {
        Procedure1Config {
            nmax: 10,
            num_test_sets: 1000,
            seed: 0x5EED_0001,
            definition: DetectionDefinition::Standard,
            threads: 0,
        }
    }
}

impl Procedure1Config {
    fn validate(&self) -> Result<(), CoreError> {
        if self.nmax == 0 {
            return Err(CoreError::BadConfig {
                message: "nmax must be at least 1".into(),
            });
        }
        if self.num_test_sets == 0 {
            return Err(CoreError::BadConfig {
                message: "num_test_sets must be at least 1".into(),
            });
        }
        Ok(())
    }

    fn rng_for_set(&self, k: usize) -> StdRng {
        // Distinct, well-separated stream per test set.
        let stream = (k as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x7F4A_7C15_9E37_79B9);
        StdRng::seed_from_u64(self.seed ^ stream)
    }
}

/// All `K` test sets for every `n ≤ nmax` — the shape of the paper's
/// Table 4. Row `sets[n-1][k]` is test set `Tk` at the end of iteration
/// `n` (an n-detection test set under the configured definition).
#[derive(Clone, Debug)]
pub struct TestSetSeries {
    /// `sets[n-1][k]`.
    pub sets: Vec<Vec<TestSet>>,
}

/// Runs Procedure 1 and collects every intermediate test set. Intended
/// for small `K` (the paper's Table 4 uses `K = 10`); memory grows as
/// `K × nmax × |T|`.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] for zero `nmax`/`K`.
pub fn construct_test_set_series(
    universe: &FaultUniverse,
    config: &Procedure1Config,
) -> Result<TestSetSeries, CoreError> {
    config.validate()?;
    let index = TargetIndex::build(universe);
    let mut sets: Vec<Vec<TestSet>> = vec![Vec::new(); config.nmax as usize];
    let mut worker = Worker::new(universe, &index, config);
    for k in 0..config.num_test_sets {
        worker.run(k, |n, set| sets[(n - 1) as usize].push(set.clone()));
    }
    Ok(TestSetSeries { sets })
}

/// Estimated probabilities `p(n, g) = d(n, g) / K` that an arbitrary
/// n-detection test set detects each tracked untargeted fault.
#[derive(Clone, Debug)]
pub struct DetectionProbabilities {
    nmax: u32,
    num_test_sets: usize,
    tracked: Vec<usize>,
    /// `d[n-1][pos]`: number of test sets whose n-detection stage
    /// detects tracked fault `pos`.
    d: Vec<Vec<u32>>,
}

impl DetectionProbabilities {
    /// The tracked bridge indices (positions index into these).
    #[must_use]
    pub fn tracked(&self) -> &[usize] {
        &self.tracked
    }

    /// Number of test sets `K` used for the estimate.
    #[must_use]
    pub fn num_test_sets(&self) -> usize {
        self.num_test_sets
    }

    /// Largest `n` estimated.
    #[must_use]
    pub fn nmax(&self) -> u32 {
        self.nmax
    }

    /// `p(n, g)` for the tracked fault at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds `nmax`, or `pos` is out of range.
    #[must_use]
    pub fn probability(&self, n: u32, pos: usize) -> f64 {
        assert!(n >= 1 && n <= self.nmax);
        f64::from(self.d[(n - 1) as usize][pos]) / self.num_test_sets as f64
    }

    /// Number of tracked faults with `p(n, g) ≥ threshold` — a Table 5
    /// cell.
    #[must_use]
    pub fn count_at_least(&self, n: u32, threshold: f64) -> usize {
        (0..self.tracked.len())
            .filter(|&pos| self.probability(n, pos) >= threshold - 1e-12)
            .count()
    }

    /// The paper's Table 5 row: counts at thresholds
    /// `1, 0.9, 0.8, …, 0.1, 0`.
    #[must_use]
    pub fn histogram_row(&self, n: u32) -> Vec<usize> {
        (0..=10)
            .map(|i| self.count_at_least(n, 1.0 - 0.1 * f64::from(i)))
            .collect()
    }

    /// The lowest probability among tracked faults at stage `n`
    /// (`None` if nothing is tracked).
    #[must_use]
    pub fn min_probability(&self, n: u32) -> Option<(usize, f64)> {
        (0..self.tracked.len())
            .map(|pos| (pos, self.probability(n, pos)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Expected number of tracked faults escaping an n-detection test
    /// set: `Σ (1 − p(n,g))`.
    #[must_use]
    pub fn expected_escapes(&self, n: u32) -> f64 {
        (0..self.tracked.len())
            .map(|pos| 1.0 - self.probability(n, pos))
            .sum()
    }
}

/// Estimates `p(n, g)` for the given tracked untargeted faults by
/// building `K` random n-detection test sets with Procedure 1.
///
/// Work is distributed over threads; results are bit-for-bit identical
/// for any thread count because each test set derives its own RNG
/// stream from the master seed.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] for zero `nmax`/`K` and
/// [`CoreError::FaultIndex`] if a tracked index is out of range.
pub fn estimate_detection_probabilities(
    universe: &FaultUniverse,
    tracked: &[usize],
    config: &Procedure1Config,
) -> Result<DetectionProbabilities, CoreError> {
    check_inputs(universe, tracked, config)?;
    let index = TargetIndex::build(universe);
    let classes = TrackedClasses::build(universe, tracked);
    let nmax = config.nmax as usize;
    let num_classes = classes.len;
    let num_threads = ndetect_sim::parallel::resolve_threads(config.threads)
        .min(config.num_test_sets)
        .max(1);

    let d: Vec<u32> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_threads);
        for w in 0..num_threads {
            let index = &index;
            let classes = &classes;
            handles.push(scope.spawn(move || {
                let mut worker = Worker::new(universe, index, config);
                // `first[(n - 1) * num_classes + c]`: the sets whose
                // iteration `n` first detects class `c`.
                let mut first = vec![0u32; nmax * num_classes];
                let mut detected = vec![0u64; classes.rows.width()];
                let mut seen = vec![0u64; classes.rows.width()];
                for k in (w..config.num_test_sets).step_by(num_threads) {
                    detected.fill(0);
                    seen.fill(0);
                    let mut tallied = 0;
                    worker.run(k, |n, set| {
                        let tallies = &mut first[(n - 1) as usize * num_classes..];
                        let tests = &set.vectors()[tallied..];
                        classes.tally(tests, &mut detected, &mut seen, tallies);
                        tallied = set.len();
                    });
                }
                // d(n, c) counts the sets that detect class c by
                // iteration n.
                for i in num_classes..first.len() {
                    first[i] += first[i - num_classes];
                }
                first
            }));
        }
        let mut total = vec![0u32; nmax * num_classes];
        for h in handles {
            let local = h.join().expect("procedure-1 worker panicked");
            for (t, l) in total.iter_mut().zip(local) {
                *t += l;
            }
        }
        total
    });
    Ok(DetectionProbabilities {
        nmax: config.nmax,
        num_test_sets: config.num_test_sets,
        tracked: tracked.to_vec(),
        // Bridges of one class share T(g): each tracked position takes
        // its class's count.
        d: (0..nmax)
            .map(|n| {
                let row = &d[n * num_classes..(n + 1) * num_classes];
                classes.class_of.iter().map(|&c| row[c as usize]).collect()
            })
            .collect(),
    })
}

fn definition_tag(definition: DetectionDefinition) -> u8 {
    match definition {
        DetectionDefinition::Standard => 1,
        DetectionDefinition::SufficientlyDifferent => 2,
    }
}

/// The content-addressed store key of a Procedure-1 estimate: the
/// universe key mixed with every semantic input of the estimator —
/// `nmax`, `K`, the master seed, the detection definition, and the
/// tracked fault indices. [`Procedure1Config::threads`] is deliberately
/// excluded: per-set RNG streams derive from the master seed, so the
/// estimate is bit-identical for every worker count.
#[must_use]
pub fn procedure1_key(
    universe: &FaultUniverse,
    tracked: &[usize],
    config: &Procedure1Config,
) -> ArtifactKey {
    let mut h = Fnv64::new();
    h.update(b"ndetect.procedure1");
    h.update_u64(u64::from(CODEC_VERSION));
    h.update_u64(universe.store_key().0);
    h.update_u64(u64::from(config.nmax));
    h.update_u64(config.num_test_sets as u64);
    h.update_u64(config.seed);
    h.update(&[definition_tag(config.definition)]);
    h.update_u64(tracked.len() as u64);
    for &j in tracked {
        h.update_u64(j as u64);
    }
    ArtifactKey(h.finish())
}

impl Encode for DetectionProbabilities {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.nmax);
        e.put_usize(self.num_test_sets);
        self.tracked.encode(e);
        self.d.encode(e);
    }
}

impl Decode for DetectionProbabilities {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let nmax = d.get_u32()?;
        let num_test_sets = d.get_usize()?;
        let tracked = Vec::<usize>::decode(d)?;
        let counts = Vec::<Vec<u32>>::decode(d)?;
        if counts.len() != nmax as usize {
            return Err(CodecError::new("row count != nmax"));
        }
        if counts.iter().any(|row| row.len() != tracked.len()) {
            return Err(CodecError::new("row width != tracked count"));
        }
        Ok(DetectionProbabilities {
            nmax,
            num_test_sets,
            tracked,
            d: counts,
        })
    }
}

impl DetectionProbabilities {
    /// Validates a decoded estimate against the live inputs it is being
    /// loaded for: configuration and tracked list must agree, every
    /// count must be a plausible `d(n, g)` (at most `K`, monotone
    /// nondecreasing in `n`). `false` means the entry is stale or
    /// colliding and must be treated as a miss.
    fn is_consistent_with(&self, tracked: &[usize], config: &Procedure1Config) -> bool {
        self.nmax == config.nmax
            && self.num_test_sets == config.num_test_sets
            && self.tracked == tracked
            && self
                .d
                .iter()
                .all(|row| row.iter().all(|&c| c as usize <= self.num_test_sets))
            && self.d.windows(2).all(|adjacent| {
                adjacent[0]
                    .iter()
                    .zip(&adjacent[1])
                    .all(|(prev, next)| prev <= next)
            })
    }
}

/// Like [`estimate_detection_probabilities`], with the
/// content-addressed on-disk store as a fast path: Procedure 1 is
/// seeded, so its `K × nmax` construction is fully cacheable. A valid
/// entry (keyed by circuit, universe options, `nmax`, `K`, seed,
/// definition, and the tracked list — see [`procedure1_key`]) skips
/// every test-set construction; a miss estimates normally and
/// populates the store best effort. Corrupt or stale entries are
/// silently treated as misses.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] for zero `nmax`/`K` and
/// [`CoreError::FaultIndex`] if a tracked index is out of range (the
/// same validation as the uncached path, performed before any store
/// access).
pub fn estimate_detection_probabilities_stored(
    universe: &FaultUniverse,
    tracked: &[usize],
    config: &Procedure1Config,
    store: Option<&Store>,
) -> Result<DetectionProbabilities, CoreError> {
    // Validate before consulting the store so error behaviour is
    // identical cold and warm.
    check_inputs(universe, tracked, config)?;
    read_through(
        store,
        procedure1_key(universe, tracked, config),
        KIND_PROCEDURE1,
        |payload| {
            decode_from_slice::<DetectionProbabilities>(payload)
                .ok()
                .filter(|probs| probs.is_consistent_with(tracked, config))
        },
        || estimate_detection_probabilities(universe, tracked, config),
        encode_to_vec,
    )
    .map(|(probs, _)| probs)
}

/// The checks both estimate entry points make first: a valid `config`
/// and every tracked index inside the universe's bridges.
fn check_inputs(
    universe: &FaultUniverse,
    tracked: &[usize],
    config: &Procedure1Config,
) -> Result<(), CoreError> {
    config.validate()?;
    let len = universe.bridges().len();
    match tracked.iter().find(|&&j| j >= len) {
        Some(&index) => Err(CoreError::FaultIndex { index, len }),
        None => Ok(()),
    }
}

/// Read-only indices over the targets, shared by every worker.
struct TargetIndex<'u> {
    /// Every `T(f)`, ascending, concatenated in target order: target `f`
    /// owns `vectors[start[f]..start[f + 1]]`.
    vectors: Vec<u32>,
    start: Vec<usize>,
    /// The universe's vector→target index
    /// ([`FaultUniverse::target_index`]): `row(t)` holds the targets `t`
    /// detects, in `⌈targets / 64⌉` words.
    rows: &'u RowMatrix,
    /// The targets with a nonempty `T(f)`; the others never add tests.
    detectable: Vec<u64>,
}

impl<'u> TargetIndex<'u> {
    fn build(universe: &'u FaultUniverse) -> Self {
        let sets = universe.target_sets();
        let rows = universe.target_index();
        let mut vectors = Vec::with_capacity(sets.iter().map(VectorSet::len).sum());
        let mut start = Vec::with_capacity(sets.len() + 1);
        let mut detectable = vec![0; rows.width()];
        start.push(0);
        for (f, set) in sets.iter().enumerate() {
            vectors.extend(set.iter().map(|v| v as u32));
            if !set.is_empty() {
                detectable[f / 64] |= 1 << (f % 64);
            }
            start.push(vectors.len());
        }
        TargetIndex {
            vectors,
            start,
            rows,
            detectable,
        }
    }

    fn t_f(&self, f: usize) -> &[u32] {
        &self.vectors[self.start[f]..self.start[f + 1]]
    }

    fn row(&self, t: u32) -> &[u64] {
        self.rows.row(t as usize)
    }

    /// Words per target row.
    fn words(&self) -> usize {
        self.rows.width()
    }
}

fn bit_is_set(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// One worker's Procedure-1 state, allocated once and reset for each
/// test set.
///
/// Iteration `n` visits, in target order, the targets that still need a
/// detection, and adds one test for each. The need set starts as a
/// compare of the counts against `n` and only shrinks within the
/// iteration: an added test `t` clears `row(t)` under Definition 1, and
/// under Definition 2 the targets that reach `n` counted tests. So one
/// visit loop serves both definitions.
///
/// Clearing `row(t)` is exact. After iteration `n − 1` every target has
/// at least `min(n − 1, |T(f)|)` detections, so a needy target holds
/// exactly `n − 1` tests of `T(f)`, or all of a `T(f)` smaller than `n`
/// (it is exhausted). A new test lifts the former to `n` and cannot
/// detect the latter.
struct Worker<'u> {
    universe: &'u FaultUniverse,
    index: &'u TargetIndex<'u>,
    config: &'u Procedure1Config,
    set: TestSet,
    /// Bits per count: `⌈log2 nmax⌉ + 1`.
    planes: usize,
    /// Bit-sliced Definition-1 counts: bit `b` of target `f`'s count is
    /// bit `f % 64` of `counts[(f / 64) * planes + b]`. The top plane is
    /// sticky: once set, the count is at least `2^(planes − 1) ≥ nmax`
    /// and only that matters, so the low planes may wrap beneath it.
    counts: Vec<u64>,
    /// During iteration `n`: the targets with fewer than `n`
    /// Definition-1 detections.
    need: Vec<u64>,
    /// `None` under Definition 1.
    def2: Option<Def2State<'u>>,
}

/// The greedy Definition-2 bookkeeping of one worker.
struct Def2State<'u> {
    checks: Def2Checks<'u>,
    /// `counted[f]`: the set positions of the tests counted as different
    /// detections of `f`, ascending (insertion order).
    counted: Vec<Vec<u32>>,
    /// During iteration `n`: the targets with fewer than `n` counted
    /// tests.
    need: Vec<u64>,
    /// The survivor memo. Counted tests only grow and candidates only
    /// shrink within a set, so a candidate that fails against a counted
    /// test fails for the rest of the set. `checked[f]` counted tests of
    /// `f` have been checked against its candidates; `failed` holds one
    /// bit per position of [`TargetIndex::vectors`], set when that
    /// vector failed against one of them.
    checked: Vec<u32>,
    failed: Vec<u64>,
    /// Scan scratch: the candidates of one target in `T(f)` order, their
    /// positions in [`TargetIndex::vectors`] and their verdicts.
    candidates: Vec<u32>,
    positions: Vec<usize>,
    pass: Vec<bool>,
    /// The targets of an added test that the memo leaves open, and per
    /// target the first of its counted tests still to check.
    targets: Vec<u32>,
    from: Vec<u32>,
}

impl<'u> Worker<'u> {
    fn new(
        universe: &'u FaultUniverse,
        index: &'u TargetIndex<'u>,
        config: &'u Procedure1Config,
    ) -> Self {
        let planes = (u32::BITS - (config.nmax - 1).leading_zeros()) as usize + 1;
        let num_targets = universe.targets().len();
        Worker {
            universe,
            index,
            config,
            set: TestSet::new(universe.space().num_patterns()),
            planes,
            counts: vec![0; index.words() * planes],
            need: vec![0; index.words()],
            def2: (config.definition == DetectionDefinition::SufficientlyDifferent).then(|| {
                Def2State {
                    checks: Def2Checks::new(universe),
                    counted: vec![Vec::new(); num_targets],
                    need: vec![0; index.words()],
                    checked: vec![0; num_targets],
                    failed: vec![0; index.vectors.len().div_ceil(64)],
                    candidates: Vec::new(),
                    positions: Vec::new(),
                    pass: Vec::new(),
                    targets: Vec::new(),
                    from: Vec::new(),
                }
            }),
        }
    }

    /// Builds test set `k`, calling `on_iteration(n, set)` after each
    /// iteration `n` completes.
    fn run(&mut self, k: usize, mut on_iteration: impl FnMut(u32, &TestSet)) {
        let index = self.index;
        self.reset();
        let mut rng = self.config.rng_for_set(k);
        for n in 1..=self.config.nmax {
            self.start_iteration(n);
            for w in 0..index.words() {
                let mut from = 0;
                while from < 64 {
                    // Re-read the word: the last add may have cleared
                    // later targets in it.
                    let need = self.def2.as_ref().map_or(&self.need, |d| &d.need);
                    let visit = need[w] & (u64::MAX << from);
                    if visit == 0 {
                        break;
                    }
                    let bit = visit.trailing_zeros();
                    let f = 64 * w + bit as usize;
                    let chosen = match &mut self.def2 {
                        None => sample_not_in_set(index.t_f(f), &self.set, n, &mut rng),
                        Some(def2) => def2.choose(
                            self.universe.targets()[f],
                            f,
                            index,
                            &self.set,
                            bit_is_set(&self.need, f),
                            &mut rng,
                        ),
                    };
                    if let Some(t) = chosen {
                        self.add(t, n);
                    }
                    from = bit + 1;
                }
            }
            on_iteration(n, &self.set);
        }
    }

    fn reset(&mut self) {
        self.set.clear();
        self.counts.fill(0);
        if let Some(def2) = &mut self.def2 {
            for counted in &mut def2.counted {
                counted.clear();
            }
            def2.checked.fill(0);
            def2.failed.fill(0);
        }
    }

    /// Sets the need masks of iteration `n`.
    fn start_iteration(&mut self, n: u32) {
        let index = self.index;
        for (w, need) in self.need.iter_mut().enumerate() {
            // count < n, compared from the most significant plane down.
            let (mut below, mut equal) = (0u64, u64::MAX);
            let lanes = &self.counts[w * self.planes..(w + 1) * self.planes];
            for (b, &lane) in lanes.iter().enumerate().rev() {
                if n >> b & 1 == 1 {
                    below |= equal & !lane;
                    equal &= lane;
                } else {
                    equal &= !lane;
                }
            }
            *need = below & index.detectable[w];
        }
        if let Some(def2) = &mut self.def2 {
            def2.need.copy_from_slice(&index.detectable);
            for (f, counted) in def2.counted.iter().enumerate() {
                if counted.len() >= n as usize {
                    def2.need[f / 64] &= !(1 << (f % 64));
                }
            }
        }
    }

    /// Adds `t`, which is not in the set yet, during iteration `n`.
    fn add(&mut self, t: u32, n: u32) {
        if !self.set.push(t as usize) {
            return;
        }
        let row = self.index.row(t);
        for (w, &bits) in row.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            self.need[w] &= !bits;
            // Ripple-carry add of one to every count in `bits`; the top
            // plane only ever collects carries, so it saturates.
            let lanes = &mut self.counts[w * self.planes..(w + 1) * self.planes];
            let (top, low) = lanes.split_last_mut().expect("at least one plane");
            let mut carry = bits;
            for lane in low {
                let next = *lane & carry;
                *lane ^= carry;
                carry = next;
            }
            *top |= carry;
        }
        if let Some(def2) = &mut self.def2 {
            def2.count(
                self.universe.targets(),
                self.index,
                t,
                &self.set,
                n,
                self.config.nmax,
            );
        }
    }
}

/// The distinct bridge classes among the tracked faults, transposed:
/// one bit per class for every input vector. Bridges of one class share
/// `T(g)`, so a test set detects all of them or none, and one tally per
/// class serves every tracked position in it.
struct TrackedClasses {
    /// Per tracked position: its class, numbered by first occurrence.
    class_of: Vec<u32>,
    /// Number of distinct classes.
    len: usize,
    /// Row `t`: the classes `t` detects, `⌈len / 64⌉` words.
    rows: RowMatrix,
}

impl TrackedClasses {
    fn build(universe: &FaultUniverse, tracked: &[usize]) -> Self {
        let universe_class_of = universe.bridge_class_of();
        // Universe class index → class index here.
        let mut local = vec![u32::MAX; universe.bridge_classes().len()];
        let mut sets = Vec::new();
        let mut class_of = Vec::with_capacity(tracked.len());
        for &j in tracked {
            let c = &mut local[universe_class_of[j] as usize];
            if *c == u32::MAX {
                *c = sets.len() as u32;
                sets.push(universe.bridge_set(j));
            }
            class_of.push(*c);
        }
        TrackedClasses {
            class_of,
            len: sets.len(),
            rows: rows::transpose_sets(&sets, universe.space().num_patterns()),
        }
    }

    /// Adds the tests of one iteration to a set whose earlier iterations
    /// detect the classes in `seen`: ORs their rows into `detected`, and
    /// adds one to `tallies[c]` for each class `c` they detect first.
    fn tally(&self, tests: &[u32], detected: &mut [u64], seen: &mut [u64], tallies: &mut [u32]) {
        for &t in tests {
            rows::or_into(detected, self.rows.row(t as usize));
        }
        for (w, (s, &d)) in seen.iter_mut().zip(detected.iter()).enumerate() {
            let mut new = d & !*s;
            *s = d;
            while new != 0 {
                tallies[64 * w + new.trailing_zeros() as usize] += 1;
                new &= new - 1;
            }
        }
    }
}

/// A uniform element of `t_f` not yet in `set`, for a target that needs
/// a detection during iteration `n`: eight rejection draws, then one
/// exact draw over the `|T(f)| − (n − 1)` vectors left. An exhausted
/// target (`|T(f)| < n`) has none left and makes no exact draw.
fn sample_not_in_set(t_f: &[u32], set: &TestSet, n: u32, rng: &mut StdRng) -> Option<u32> {
    for _ in 0..8 {
        let v = t_f[rng.gen_range(0..t_f.len())];
        if !set.contains(v as usize) {
            return Some(v);
        }
    }
    let left = (t_f.len() + 1).checked_sub(n as usize).filter(|&r| r > 0)?;
    let r = rng.gen_range(0..left);
    t_f.iter()
        .copied()
        .filter(|&v| !set.contains(v as usize))
        .nth(r)
}

impl Def2State<'_> {
    /// The test added for target `f`: a candidate (a vector of `T(f)`
    /// not yet in the set) sufficiently different from every counted
    /// test of `f`, drawn uniformly by an incremental Fisher–Yates
    /// shuffle. If none is, and `f` still needs a Definition-1
    /// detection (`def1_needs`), falls back to Definition 1: a uniform
    /// candidate.
    fn choose(
        &mut self,
        fault: StuckAtFault,
        f: usize,
        index: &TargetIndex,
        set: &TestSet,
        def1_needs: bool,
        rng: &mut StdRng,
    ) -> Option<u32> {
        self.scan(fault, f, index, set);
        // Incremental Fisher-Yates: draw without full shuffle.
        let len = self.candidates.len();
        for i in 0..len {
            let j = rng.gen_range(i..len);
            self.candidates.swap(i, j);
            self.pass.swap(i, j);
            if self.pass[i] {
                return Some(self.candidates[i]);
            }
        }
        (def1_needs && len > 0).then(|| self.candidates[rng.gen_range(0..len)])
    }

    // `count` and `scan` stay last in the file's production code, each
    // with its test-build check at its end: the source scans of
    // `tests/hot_path_lint.rs` read a file up to its first
    // `#[cfg(test)]`.

    /// Counts the new test `t`, at the last set position, for every
    /// target it detects and is sufficiently different from every
    /// counted test of. A target with `nmax` counted tests is skipped:
    /// no iteration reads its count again.
    ///
    /// The survivor memo settles most targets first. `t` was never in
    /// the set, so it was a candidate at every scan of `f`: if it failed
    /// at one, it is no new detection; if not, it passed the first
    /// `checked[f]` counted tests, and only the later ones need a check.
    /// For the target that drew `t` from its pass mask, none do.
    fn count(
        &mut self,
        faults: &[StuckAtFault],
        index: &TargetIndex,
        t: u32,
        set: &TestSet,
        n: u32,
        nmax: u32,
    ) {
        self.targets.clear();
        self.from.clear();
        for (w, &bits) in index.row(t).iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let f = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.counted[f].len() >= nmax as usize {
                    continue;
                }
                let i = index
                    .t_f(f)
                    .binary_search(&t)
                    .expect("row(t) lists only targets whose T(f) holds t");
                if !bit_is_set(&self.failed, index.start[f] + i) {
                    self.targets.push(f as u32);
                    self.from.push(self.checked[f]);
                }
            }
        }
        let vectors = set.vectors();
        let pos = vectors.len() - 1;
        let fresh = self.checks.new_detections(
            faults,
            t,
            &vectors[..pos],
            &self.targets,
            &self.from,
            &self.counted,
        );
        for (&f, &new) in self.targets.iter().zip(fresh) {
            if new {
                let f = f as usize;
                self.counted[f].push(pos as u32);
                if self.counted[f].len() >= n as usize {
                    self.need[f / 64] &= !(1 << (f % 64));
                }
            }
        }
        // Test builds check every verdict against the unmemoised check.
        #[cfg(test)]
        tests::assert_count_matches_full_check(
            &mut self.checks,
            faults,
            index.row(t),
            vectors,
            &self.counted,
            nmax,
        );
    }

    /// Fills the scan scratch for target `f`: its candidates and their
    /// verdicts against every counted test of `f`. Checks only the
    /// candidates that never failed, against only the tests counted
    /// since the last scan, and records the new failures in the memo.
    fn scan(&mut self, fault: StuckAtFault, f: usize, index: &TargetIndex, set: &TestSet) {
        self.candidates.clear();
        self.positions.clear();
        self.pass.clear();
        let lo = index.start[f];
        for (i, &v) in index.t_f(f).iter().enumerate() {
            if !set.contains(v as usize) {
                self.candidates.push(v);
                self.positions.push(lo + i);
                self.pass.push(!bit_is_set(&self.failed, lo + i));
            }
        }
        let counted = &self.counted[f];
        let from = self.checked[f] as usize;
        if from < counted.len() {
            let vectors = set.vectors();
            self.checks.refine(
                fault,
                counted[from..].iter().map(|&p| vectors[p as usize]),
                &self.candidates,
                &mut self.pass,
            );
            for (&p, &pass) in self.positions.iter().zip(&self.pass) {
                if !pass {
                    self.failed[p / 64] |= 1 << (p % 64);
                }
            }
            self.checked[f] = counted.len() as u32;
        }
        // Test builds check the memo against the full scan.
        #[cfg(test)]
        tests::assert_memo_matches_full_scan(
            &mut self.checks,
            fault,
            &self.counted[f],
            set,
            &self.candidates,
            &self.pass,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worst_case::WorstCaseAnalysis;
    use ndetect_circuits::figure1;
    use proptest::prelude::*;

    /// Procedure 1 written out plainly, the differential oracle for
    /// [`Worker`]: per-target `u32` counters checked for every target in
    /// every iteration, a list index of the targets of each vector, an
    /// allocating exact fallback, a per-set accumulation of `d` and the
    /// full Definition-2 scan.
    mod oracle {
        use super::super::*;

        struct Index {
            /// Per target: `T(f)` as a sorted vector.
            vectors: Vec<Vec<u32>>,
            /// Per input vector: indices of targets it detects.
            targets_of_vector: Vec<Vec<u32>>,
        }

        impl Index {
            fn build(universe: &FaultUniverse) -> Self {
                let num_patterns = universe.space().num_patterns();
                let mut vectors = Vec::with_capacity(universe.targets().len());
                let mut targets_of_vector: Vec<Vec<u32>> = vec![Vec::new(); num_patterns];
                for (fi, set) in universe.target_sets().iter().enumerate() {
                    let vs: Vec<u32> = set.iter().map(|v| v as u32).collect();
                    for &v in &vs {
                        targets_of_vector[v as usize].push(fi as u32);
                    }
                    vectors.push(vs);
                }
                Index {
                    vectors,
                    targets_of_vector,
                }
            }
        }

        struct RunState {
            set: TestSet,
            def1_counts: Vec<u32>,
            def2_counted: Vec<Vec<u32>>,
        }

        fn run_single(
            universe: &FaultUniverse,
            index: &Index,
            config: &Procedure1Config,
            k: usize,
            mut def2: Option<&mut Def2Checks<'_>>,
            mut on_add: impl FnMut(u32, u32),
            mut on_iteration: impl FnMut(u32, &TestSet),
        ) {
            let num_targets = universe.targets().len();
            let mut rng = config.rng_for_set(k);
            let mut state = RunState {
                set: TestSet::new(universe.space().num_patterns()),
                def1_counts: vec![0; num_targets],
                def2_counted: vec![Vec::new(); num_targets],
            };
            let mut candidates: Vec<u32> = Vec::new();
            for n in 1..=config.nmax {
                for fi in 0..num_targets {
                    let t_f = &index.vectors[fi];
                    if t_f.is_empty() {
                        continue;
                    }
                    let chosen: Option<u32> = match def2.as_deref_mut() {
                        Some(_) if state.def2_counted[fi].len() >= n as usize => None,
                        Some(checks) => {
                            candidates.clear();
                            candidates.extend(
                                t_f.iter()
                                    .copied()
                                    .filter(|&v| !state.set.contains(v as usize)),
                            );
                            let vectors = state.set.vectors();
                            let mut pass = vec![true; candidates.len()];
                            checks.refine(
                                universe.targets()[fi],
                                state.def2_counted[fi].iter().map(|&p| vectors[p as usize]),
                                &candidates,
                                &mut pass,
                            );
                            let mut pick = None;
                            let len = candidates.len();
                            for i in 0..len {
                                let j = rng.gen_range(i..len);
                                candidates.swap(i, j);
                                pass.swap(i, j);
                                if pass[i] {
                                    pick = Some(candidates[i]);
                                    break;
                                }
                            }
                            match pick {
                                Some(t) => Some(t),
                                None if state.def1_counts[fi] < n && !candidates.is_empty() => {
                                    Some(candidates[rng.gen_range(0..candidates.len())])
                                }
                                None => None,
                            }
                        }
                        None if state.def1_counts[fi] >= n => None,
                        None => sample_not_in_set(t_f, &state.set, &mut rng),
                    };
                    if let Some(t) = chosen {
                        add_test(universe, index, &mut state, t, def2.as_deref_mut());
                        on_add(n, t);
                    }
                }
                on_iteration(n, &state.set);
            }
        }

        fn sample_not_in_set(t_f: &[u32], set: &TestSet, rng: &mut StdRng) -> Option<u32> {
            for _ in 0..8 {
                let v = t_f[rng.gen_range(0..t_f.len())];
                if !set.contains(v as usize) {
                    return Some(v);
                }
            }
            let remaining: Vec<u32> = t_f
                .iter()
                .copied()
                .filter(|&v| !set.contains(v as usize))
                .collect();
            if remaining.is_empty() {
                None
            } else {
                Some(remaining[rng.gen_range(0..remaining.len())])
            }
        }

        fn add_test(
            universe: &FaultUniverse,
            index: &Index,
            state: &mut RunState,
            t: u32,
            def2: Option<&mut Def2Checks<'_>>,
        ) {
            if !state.set.push(t as usize) {
                return;
            }
            let targets = &index.targets_of_vector[t as usize];
            for &f in targets {
                state.def1_counts[f as usize] += 1;
            }
            if let Some(checks) = def2 {
                let vectors = state.set.vectors();
                let pos = vectors.len() - 1;
                let fresh = checks.new_detections(
                    universe.targets(),
                    t,
                    &vectors[..pos],
                    targets,
                    &vec![0; targets.len()],
                    &state.def2_counted,
                );
                for (&f, &new) in targets.iter().zip(fresh) {
                    if new {
                        state.def2_counted[f as usize].push(pos as u32);
                    }
                }
            }
        }

        fn def2_checks<'u>(
            universe: &'u FaultUniverse,
            config: &Procedure1Config,
        ) -> Option<Def2Checks<'u>> {
            (config.definition == DetectionDefinition::SufficientlyDifferent)
                .then(|| Def2Checks::new(universe))
        }

        /// `sets[n - 1][k]`, as [`construct_test_set_series`] returns them.
        pub(super) fn series(
            universe: &FaultUniverse,
            config: &Procedure1Config,
        ) -> Vec<Vec<TestSet>> {
            let index = Index::build(universe);
            let mut sets: Vec<Vec<TestSet>> = vec![Vec::new(); config.nmax as usize];
            let mut def2 = def2_checks(universe, config);
            for k in 0..config.num_test_sets {
                run_single(
                    universe,
                    &index,
                    config,
                    k,
                    def2.as_mut(),
                    |_, _| {},
                    |n, set| sets[(n - 1) as usize].push(set.clone()),
                );
            }
            sets
        }

        /// `d[n - 1][pos]`, as [`estimate_detection_probabilities`]
        /// computes it, on `config.threads` workers.
        pub(super) fn estimate(
            universe: &FaultUniverse,
            tracked: &[usize],
            config: &Procedure1Config,
        ) -> Vec<Vec<u32>> {
            let index = Index::build(universe);
            let num_patterns = universe.space().num_patterns();
            let mut tracked_of_vector: Vec<Vec<u32>> = vec![Vec::new(); num_patterns];
            for (pos, &j) in tracked.iter().enumerate() {
                for v in universe.bridge_set(j).iter() {
                    tracked_of_vector[v].push(pos as u32);
                }
            }
            let nmax = config.nmax as usize;
            let num_threads = config.threads.min(config.num_test_sets).max(1);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(num_threads);
                for w in 0..num_threads {
                    let index = &index;
                    let tracked_of_vector = &tracked_of_vector;
                    handles.push(scope.spawn(move || {
                        let mut local: Vec<Vec<u32>> = vec![vec![0; tracked.len()]; nmax];
                        let mut def2 = def2_checks(universe, config);
                        let mut detected_at: Vec<u32> = vec![0; tracked.len()];
                        for k in (w..config.num_test_sets).step_by(num_threads) {
                            detected_at.fill(0);
                            run_single(
                                universe,
                                index,
                                config,
                                k,
                                def2.as_mut(),
                                |n, t| {
                                    for &pos in &tracked_of_vector[t as usize] {
                                        let p = pos as usize;
                                        if detected_at[p] == 0 {
                                            detected_at[p] = n;
                                        }
                                    }
                                },
                                |_, _| {},
                            );
                            for (p, &at) in detected_at.iter().enumerate() {
                                if at > 0 {
                                    for n in at..=config.nmax {
                                        local[(n - 1) as usize][p] += 1;
                                    }
                                }
                            }
                        }
                        local
                    }));
                }
                let mut total: Vec<Vec<u32>> = vec![vec![0; tracked.len()]; nmax];
                for h in handles {
                    let local = h.join().expect("oracle worker panicked");
                    for (trow, lrow) in total.iter_mut().zip(local) {
                        for (t, l) in trow.iter_mut().zip(lrow) {
                            *t += l;
                        }
                    }
                }
                total
            })
        }
    }

    /// Called at the end of every Definition-2 count of a test build,
    /// with the new test last in `vectors`: every target of the test
    /// that had fewer than `nmax` counted tests must have counted it
    /// exactly when it is sufficiently different from all of them. The
    /// new position lies outside the earlier tests, so the full check
    /// reads the counted lists as they were.
    pub(super) fn assert_count_matches_full_check(
        checks: &mut Def2Checks<'_>,
        faults: &[StuckAtFault],
        row: &[u64],
        vectors: &[u32],
        counted: &[Vec<u32>],
        nmax: u32,
    ) {
        let pos = vectors.len() - 1;
        let t = vectors[pos];
        for f in 0..counted.len() {
            if !bit_is_set(row, f) {
                continue;
            }
            let took = counted[f].last() == Some(&(pos as u32));
            if counted[f].len() - usize::from(took) >= nmax as usize {
                assert!(!took, "target {f} counted test {t} past nmax");
                continue;
            }
            let full =
                checks.new_detections(faults, t, &vectors[..pos], &[f as u32], &[0], counted)[0];
            assert_eq!(took, full, "target {f}: memoised count of test {t}");
        }
    }

    /// Called by every Definition-2 scan of a test build: the memoised
    /// pass mask must equal the full scan's, which checks every
    /// candidate against every counted test of the target.
    pub(super) fn assert_memo_matches_full_scan(
        checks: &mut Def2Checks<'_>,
        fault: StuckAtFault,
        counted: &[u32],
        set: &TestSet,
        candidates: &[u32],
        pass: &[bool],
    ) {
        let mut full = vec![true; candidates.len()];
        let vectors = set.vectors();
        checks.refine(
            fault,
            counted.iter().map(|&p| vectors[p as usize]),
            candidates,
            &mut full,
        );
        assert_eq!(
            pass,
            full.as_slice(),
            "memoised pass mask for {candidates:?}"
        );
    }

    /// [`Worker`] against the oracle: identical series sets for every
    /// `n` and `k`, and an identical `d` at 1 and 3 workers.
    fn assert_matches_oracle(
        universe: &FaultUniverse,
        tracked: &[usize],
        k: usize,
        nmaxes: &[u32],
    ) {
        for definition in [
            DetectionDefinition::Standard,
            DetectionDefinition::SufficientlyDifferent,
        ] {
            for &nmax in nmaxes {
                let config = Procedure1Config {
                    nmax,
                    num_test_sets: k,
                    definition,
                    ..Default::default()
                };
                let series = construct_test_set_series(universe, &config).unwrap();
                assert!(
                    series.sets == oracle::series(universe, &config),
                    "{definition:?} nmax {nmax}: series differ"
                );
                for threads in [1, 3] {
                    let config = Procedure1Config { threads, ..config };
                    let probs =
                        estimate_detection_probabilities(universe, tracked, &config).unwrap();
                    assert!(
                        probs.d == oracle::estimate(universe, tracked, &config),
                        "{definition:?} nmax {nmax} threads {threads}: d differs"
                    );
                }
            }
        }
    }

    fn all_bridges(universe: &FaultUniverse) -> Vec<usize> {
        (0..universe.bridges().len()).collect()
    }

    #[test]
    fn procedure1_matches_the_oracle_on_small_circuits() {
        for netlist in [figure1::netlist(), ndetect_circuits::build("c17").unwrap()] {
            let u = FaultUniverse::build(&netlist).unwrap();
            assert_matches_oracle(&u, &all_bridges(&u), 6, &[1, 3, 10, 30]);
        }
    }

    #[test]
    fn procedure1_matches_the_oracle_on_s27() {
        let seq = ndetect_circuits::build_seq("s27").unwrap();
        let expanded = ndetect_seq::expand(&seq, ndetect_seq::FaultModel::default()).unwrap();
        let u = FaultUniverse::build_explicit(
            expanded.netlist(),
            &expanded.explicit_targets(),
            ndetect_faults::UniverseOptions::default(),
        )
        .unwrap();
        assert_matches_oracle(&u, &all_bridges(&u), 3, &[1, 3, 10, 30]);
    }

    #[test]
    fn procedure1_matches_the_oracle_on_cse() {
        let u = FaultUniverse::build(&ndetect_circuits::build("cse").unwrap()).unwrap();
        let tracked = WorstCaseAnalysis::compute(&u).tail_indices(11);
        assert_matches_oracle(&u, &tracked, 2, &[1, 3, 10]);
        // nmax = 30 under Definition 1 only: a Definition-2 set at
        // nmax = 30 costs seconds in a debug build.
        let config = Procedure1Config {
            nmax: 30,
            num_test_sets: 3,
            ..Default::default()
        };
        let series = construct_test_set_series(&u, &config).unwrap();
        assert!(series.sets == oracle::series(&u, &config));
        let config = Procedure1Config {
            threads: 3,
            ..config
        };
        let probs = estimate_detection_probabilities(&u, &tracked, &config).unwrap();
        assert!(probs.d == oracle::estimate(&u, &tracked, &config));
    }

    /// The class tallies expand to tracked positions in any order, with
    /// repeats: cse's tail, descending and each index listed twice, so
    /// that many positions share a class.
    #[test]
    fn tracked_positions_sharing_a_class_match_the_oracle() {
        let u = FaultUniverse::build(&ndetect_circuits::build("cse").unwrap()).unwrap();
        let tracked: Vec<usize> = WorstCaseAnalysis::compute(&u)
            .tail_indices(11)
            .into_iter()
            .rev()
            .flat_map(|j| [j, j])
            .collect();
        let classes = TrackedClasses::build(&u, &tracked);
        assert!(classes.len < tracked.len() / 4, "{} classes", classes.len);
        for definition in [
            DetectionDefinition::Standard,
            DetectionDefinition::SufficientlyDifferent,
        ] {
            let config = Procedure1Config {
                nmax: 3,
                num_test_sets: 3,
                definition,
                threads: 2,
                ..Default::default()
            };
            let probs = estimate_detection_probabilities(&u, &tracked, &config).unwrap();
            assert!(
                probs.d == oracle::estimate(&u, &tracked, &config),
                "{definition:?}: d differs"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn procedure1_matches_the_oracle_on_random_netlists(
            netlist in ndetect_testutil::arb_netlist_sized(5, 24),
            nmax in (0usize..4).prop_map(|i| [1u32, 3, 10, 30][i]),
        ) {
            let u = FaultUniverse::build(&netlist).unwrap();
            assert_matches_oracle(&u, &all_bridges(&u), 3, &[nmax]);
        }
    }

    fn universe() -> FaultUniverse {
        FaultUniverse::build(&figure1::netlist()).unwrap()
    }

    #[test]
    fn every_set_is_an_n_detection_set_under_definition_1() {
        let u = universe();
        let config = Procedure1Config {
            nmax: 3,
            num_test_sets: 5,
            ..Default::default()
        };
        let series = construct_test_set_series(&u, &config).unwrap();
        for n in 1..=3u32 {
            for set in &series.sets[(n - 1) as usize] {
                for (fi, t_f) in u.target_sets().iter().enumerate() {
                    let want = (t_f.len()).min(n as usize);
                    let got = set.detection_count(t_f);
                    assert!(got >= want, "n={n} target {fi}: {got} < {want} in {set}");
                }
            }
        }
    }

    #[test]
    fn sets_grow_monotonically_with_n() {
        let u = universe();
        let config = Procedure1Config {
            nmax: 4,
            num_test_sets: 3,
            ..Default::default()
        };
        let series = construct_test_set_series(&u, &config).unwrap();
        for k in 0..3 {
            for n in 1..4 {
                let prev = &series.sets[n - 1][k];
                let next = &series.sets[n][k];
                assert!(next.len() >= prev.len());
                // Prefix property: iteration n only appends.
                assert_eq!(&next.vectors()[..prev.len()], prev.vectors());
            }
        }
    }

    #[test]
    fn construction_is_deterministic_and_seed_sensitive() {
        let u = universe();
        let config = Procedure1Config {
            nmax: 2,
            num_test_sets: 4,
            ..Default::default()
        };
        let a = construct_test_set_series(&u, &config).unwrap();
        let b = construct_test_set_series(&u, &config).unwrap();
        assert_eq!(a.sets, b.sets);
        let other = Procedure1Config {
            seed: 999,
            ..config
        };
        let c = construct_test_set_series(&u, &other).unwrap();
        assert_ne!(a.sets, c.sets);
    }

    #[test]
    fn probabilities_are_monotone_in_n_and_bounded() {
        let u = universe();
        let wc = WorstCaseAnalysis::compute(&u);
        let tracked: Vec<usize> = (0..u.bridges().len()).collect();
        let config = Procedure1Config {
            nmax: 5,
            num_test_sets: 200,
            ..Default::default()
        };
        let probs = estimate_detection_probabilities(&u, &tracked, &config).unwrap();
        for (pos, &j) in tracked.iter().enumerate() {
            let mut prev = 0.0;
            for n in 1..=5 {
                let p = probs.probability(n, pos);
                assert!((0.0..=1.0).contains(&p));
                assert!(p >= prev, "p must be monotone in n");
                prev = p;
            }
            // Guarantee: once n >= nmin(g), p = 1.
            if let Some(m) = wc.nmin(j) {
                if m <= 5 {
                    assert_eq!(probs.probability(5, pos), 1.0, "bridge {pos}");
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let u = universe();
        let tracked: Vec<usize> = (0..u.bridges().len()).collect();
        for definition in [
            DetectionDefinition::Standard,
            DetectionDefinition::SufficientlyDifferent,
        ] {
            let base = Procedure1Config {
                nmax: 3,
                num_test_sets: 50,
                definition,
                threads: 1,
                ..Default::default()
            };
            let a = estimate_detection_probabilities(&u, &tracked, &base).unwrap();
            let b = estimate_detection_probabilities(
                &u,
                &tracked,
                &Procedure1Config { threads: 4, ..base },
            )
            .unwrap();
            assert_eq!(a.d, b.d, "{definition:?}");
        }
    }

    #[test]
    fn definition2_never_reduces_detection_probability_here() {
        let u = universe();
        let tracked: Vec<usize> = (0..u.bridges().len()).collect();
        let base = Procedure1Config {
            nmax: 3,
            num_test_sets: 300,
            ..Default::default()
        };
        let d1 = estimate_detection_probabilities(&u, &tracked, &base).unwrap();
        let d2 = estimate_detection_probabilities(
            &u,
            &tracked,
            &Procedure1Config {
                definition: DetectionDefinition::SufficientlyDifferent,
                ..base
            },
        )
        .unwrap();
        // Definition 2 sets are supersets in spirit: on this circuit the
        // average detection probability must not degrade.
        let avg1: f64 = (0..tracked.len()).map(|p| d1.probability(3, p)).sum();
        let avg2: f64 = (0..tracked.len()).map(|p| d2.probability(3, p)).sum();
        assert!(avg2 >= avg1 - 1e-9, "avg def2 {avg2} < avg def1 {avg1}");
    }

    #[test]
    fn bad_configs_rejected() {
        let u = universe();
        let bad = Procedure1Config {
            nmax: 0,
            ..Default::default()
        };
        assert!(matches!(
            construct_test_set_series(&u, &bad),
            Err(CoreError::BadConfig { .. })
        ));
        let bad = Procedure1Config {
            num_test_sets: 0,
            ..Default::default()
        };
        assert!(construct_test_set_series(&u, &bad).is_err());
        assert!(matches!(
            estimate_detection_probabilities(&u, &[999], &Procedure1Config::default()),
            Err(CoreError::FaultIndex { .. })
        ));
    }

    fn temp_store(tag: &str) -> (Store, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "ndetect-procedure1-store-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (Store::open(&dir).unwrap(), dir)
    }

    #[test]
    fn stored_estimates_hit_warm_and_are_bit_identical() {
        let u = universe();
        let (store, dir) = temp_store("warm");
        let tracked: Vec<usize> = (0..u.bridges().len()).collect();
        let config = Procedure1Config {
            nmax: 3,
            num_test_sets: 40,
            ..Default::default()
        };
        let cold =
            estimate_detection_probabilities_stored(&u, &tracked, &config, Some(&store)).unwrap();
        assert_eq!(store.session_hits(), 0);
        assert_eq!(store.session_misses(), 1);
        let warm =
            estimate_detection_probabilities_stored(&u, &tracked, &config, Some(&store)).unwrap();
        assert_eq!(store.session_hits(), 1);
        assert_eq!(cold.d, warm.d);
        assert_eq!(cold.tracked(), warm.tracked());
        // Thread count changes neither the key nor the payload.
        let threaded =
            estimate_detection_probabilities_stored(&u, &tracked, &config, Some(&store)).unwrap();
        assert_eq!(cold.d, threaded.d);
        // ...and matches the uncached path exactly.
        let direct = estimate_detection_probabilities(&u, &tracked, &config).unwrap();
        assert_eq!(cold.d, direct.d);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stored_estimate_key_is_sensitive_to_every_semantic_input() {
        let u = universe();
        let tracked: Vec<usize> = (0..u.bridges().len()).collect();
        let base = Procedure1Config {
            nmax: 3,
            num_test_sets: 40,
            ..Default::default()
        };
        let k = procedure1_key(&u, &tracked, &base);
        assert_eq!(
            k,
            procedure1_key(&u, &tracked, &Procedure1Config { threads: 7, ..base })
        );
        assert_ne!(
            k,
            procedure1_key(&u, &tracked, &Procedure1Config { nmax: 4, ..base })
        );
        assert_ne!(
            k,
            procedure1_key(
                &u,
                &tracked,
                &Procedure1Config {
                    num_test_sets: 41,
                    ..base
                }
            )
        );
        assert_ne!(
            k,
            procedure1_key(&u, &tracked, &Procedure1Config { seed: 1, ..base })
        );
        assert_ne!(
            k,
            procedure1_key(
                &u,
                &tracked,
                &Procedure1Config {
                    definition: DetectionDefinition::SufficientlyDifferent,
                    ..base
                }
            )
        );
        assert_ne!(k, procedure1_key(&u, &tracked[1..], &base));
    }

    #[test]
    fn corrupt_stored_estimates_degrade_to_recomputation() {
        let u = universe();
        let (store, dir) = temp_store("corrupt");
        let tracked: Vec<usize> = (0..u.bridges().len()).collect();
        let config = Procedure1Config {
            nmax: 2,
            num_test_sets: 25,
            ..Default::default()
        };
        let cold =
            estimate_detection_probabilities_stored(&u, &tracked, &config, Some(&store)).unwrap();
        // Overwrite the entry with a decodable payload for a *different*
        // configuration: the consistency check must reject it.
        let alien = DetectionProbabilities {
            nmax: 2,
            num_test_sets: 99,
            tracked: tracked.clone(),
            d: vec![vec![0; tracked.len()]; 2],
        };
        let key = procedure1_key(&u, &tracked, &config);
        store
            .save(key, KIND_PROCEDURE1, &encode_to_vec(&alien))
            .unwrap();
        let redo =
            estimate_detection_probabilities_stored(&u, &tracked, &config, Some(&store)).unwrap();
        assert_eq!(cold.d, redo.d);
        // Error behaviour is identical warm: a bad tracked index fails
        // before the store is consulted.
        assert!(matches!(
            estimate_detection_probabilities_stored(&u, &[999], &config, Some(&store)),
            Err(CoreError::FaultIndex { .. })
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn histogram_row_is_monotone_nondecreasing() {
        let u = universe();
        let tracked: Vec<usize> = (0..u.bridges().len()).collect();
        let config = Procedure1Config {
            nmax: 2,
            num_test_sets: 100,
            ..Default::default()
        };
        let probs = estimate_detection_probabilities(&u, &tracked, &config).unwrap();
        let row = probs.histogram_row(2);
        assert_eq!(row.len(), 11);
        for w in row.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(row[10], tracked.len()); // p >= 0 counts everything
    }
}
