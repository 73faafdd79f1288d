//! The metrics registry: named counters, gauges, and log-bucketed
//! histograms backed by relaxed atomics.
//!
//! Handles are `Arc`s: callers fetch a metric once (at construction or
//! through a `OnceLock`) and then update it lock-free; the registry
//! lock is only taken on registration and exposition. Components with
//! per-instance metric populations (a serving engine, one store) own a
//! private [`Registry`] and register their existing atomics into it, so
//! the other render paths (`cache stats`) and the Prometheus exposition
//! read the same cells — one source of truth.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value (used by the
    /// store's counter-merge path).
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A settable instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races only in the sense
    /// that callers must pair add/sub; the raw cell wraps).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets: bucket `i` (0-based) has upper
/// bound `2^i`, so 64 buckets cover every `u64` except the top
/// half-open overflow bucket rendered as `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (latencies in
/// microseconds, sizes in bytes, ...).
///
/// Bucket `i` counts samples in `(2^(i-1), 2^i]` (bucket 0 counts
/// `0` and `1`); samples above `2^63` land in the overflow bucket.
/// Recording is one relaxed `fetch_add` per sample on three cells, so
/// the histogram stays on in release builds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in: the smallest `i` with
    /// `value <= 2^i` (the overflow bucket for values above `2^63`).
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            // ceil(log2(value)): one past the top bit unless the value
            // is an exact power of two.
            64 - (value - 1).leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of finite bucket `i`.
    #[must_use]
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let i = Self::bucket_index(value).min(HISTOGRAM_BUCKETS);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A snapshot of the per-bucket (non-cumulative) counts.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A handle to any registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A monotonic counter.
    Counter(Arc<Counter>),
    /// An instantaneous gauge.
    Gauge(Arc<Gauge>),
    /// A log-bucketed histogram.
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics; see the module docs.
///
/// Registration is create-or-get: two calls with the same name return
/// the same cell (so call sites do not need to coordinate), but a name
/// can only carry one metric kind — re-registering under a different
/// kind panics, since silently splitting a name would corrupt the
/// exposition.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates (or fetches) the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let handle = self.register(name, || Metric::Counter(Arc::new(Counter::new())));
        match handle {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Creates (or fetches) the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let handle = self.register(name, || Metric::Gauge(Arc::new(Gauge::new())));
        match handle {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Creates (or fetches) the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let handle = self.register(name, || Metric::Histogram(Arc::new(Histogram::new())));
        match handle {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Registers an *existing* counter cell under `name` — how
    /// components whose legacy render paths already own the atomic
    /// (store session counters, the serve `Counters` struct) join the
    /// registry without double counting.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        let mut metrics = self.metrics.lock().expect("metrics registry");
        metrics.insert(name.to_string(), Metric::Counter(counter));
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("metrics registry");
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// A snapshot of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        let metrics = self.metrics.lock().expect("metrics registry");
        metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Renders the registry in Prometheus text exposition format (see
    /// [`crate::expose::render`]).
    #[must_use]
    pub fn render(&self) -> String {
        crate::expose::render(self)
    }
}

/// The process-wide registry for library-level metrics (universe
/// builds, generator rounds, kernel selections). Components with
/// per-instance populations keep their own [`Registry`] instead.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("c").get(), 5, "create-or-get shares the cell");
        let g = r.gauge("g");
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(g.get(), 8);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.gauge("x");
        let _ = r.counter("x");
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_powers_of_two() {
        // Bucket i covers (2^(i-1), 2^i]: a value exactly at a bound
        // lands in that bucket, one above spills into the next.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        for i in 1..HISTOGRAM_BUCKETS {
            let bound = Histogram::bucket_bound(i);
            assert_eq!(Histogram::bucket_index(bound), i, "at bound 2^{i}");
            assert_eq!(Histogram::bucket_index(bound + 1), i + 1, "past 2^{i}");
        }
        // The top finite bound and the overflow bucket.
        assert_eq!(Histogram::bucket_index(1u64 << 63), 63);
        assert_eq!(Histogram::bucket_index((1u64 << 63) + 1), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_derives_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 109);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 9);
        assert_eq!(counts[Histogram::bucket_index(100)], 1);
    }

    #[test]
    fn histogram_overflow_bucket_catches_huge_samples() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let counts = h.bucket_counts();
        assert_eq!(counts[HISTOGRAM_BUCKETS], 1);
    }
}
