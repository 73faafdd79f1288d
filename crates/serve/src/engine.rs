//! The serving engine: one shared, thread-safe analysis core layered
//! above `ndetect-store`.
//!
//! Request handling composes four layers, hottest first:
//!
//! 1. the circuit memo — a registry name plus its `model=` is
//!    synthesized once per engine and shared as an `Arc`;
//! 2. the in-memory hot LRUs ([`crate::hot::Lru`]) of deserialized
//!    artifacts — fault universes, worst-case results and generated
//!    sets — so repeated requests skip disk entirely;
//! 3. single-flight dedup ([`crate::SingleFlight`]) — a thundering
//!    herd of identical requests triggers exactly one build;
//! 4. the on-disk content-addressed store — cold artifacts are read
//!    through (or built and published) exactly as in one-shot mode.
//!
//! Build counters ([`Counters`]) count *actual* expensive builds (cache
//! misses that ran the fault simulator or the generator), which is what
//! the serve-smoke CI job asserts on: N identical concurrent requests
//! must report exactly one build per distinct artifact.

use crate::hot::Lru;
use crate::render::UniverseProvider;
use crate::SingleFlight;
use ndetect_core::{WorstCaseAnalysis, KIND_WORST_CASE};
use ndetect_faults::{
    explicit_universe_key, universe_key, ExplicitTargets, FaultUniverse, UniverseOptions,
    KIND_UNIVERSE,
};
use ndetect_gen::{generated_key, GenOptions, GeneratedSet, KIND_GENERATED_SET};
use ndetect_netlist::{Netlist, SeqNetlist};
use ndetect_obs::{trace, Counter, Histogram, Registry};
use ndetect_seq::FaultModel;
use ndetect_store::{ArtifactKey, ArtifactKind, Store};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

/// Monotonic build and traffic counters; the CI serve-smoke job asserts
/// through the `metrics` request that `universe_builds`/`gen_builds`
/// stay equal to the number of *distinct* artifacts requested, however
/// many identical requests raced.
///
/// Each field is an [`ndetect_obs::Counter`] cell that the engine
/// registers into its per-instance metrics [`Registry`], so the
/// Prometheus `metrics` exposition and in-process callers read the same
/// atomics. (Per-instance, not global: tests run several engines in one
/// process and assert exact counts.)
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests accepted (parsed and executed, whatever the outcome).
    pub requests: Arc<Counter>,
    /// Fault-universe builds that actually ran (hot-LRU and store
    /// misses that executed the fault simulator).
    pub universe_builds: Arc<Counter>,
    /// Generated-set builds that actually ran.
    pub gen_builds: Arc<Counter>,
    /// Lookups served from the in-memory hot LRU.
    pub hot_hits: Arc<Counter>,
    /// Entries the hot LRU evicted to stay within capacity.
    pub hot_evictions: Arc<Counter>,
    /// Calls coalesced onto another caller's in-flight build.
    pub coalesced: Arc<Counter>,
    /// Requests that failed (parse errors, analysis errors, timeouts).
    pub errors: Arc<Counter>,
    /// Connections refused with `err busy` by the accept-loop cap.
    pub rejected: Arc<Counter>,
    /// Job panics caught and converted to `err internal` replies (the
    /// server survived every one of these).
    pub panics_caught: Arc<Counter>,
    /// Single-flight waits that observed a poisoned (leader-panicked)
    /// flight and fell through to a clean rebuild.
    pub flights_poisoned: Arc<Counter>,
}

impl Counters {
    /// Registers every counter cell into `registry` under its
    /// exposition name.
    fn register(&self, registry: &Registry) {
        registry.register_counter("requests", Arc::clone(&self.requests));
        registry.register_counter("universe_builds", Arc::clone(&self.universe_builds));
        registry.register_counter("gen_builds", Arc::clone(&self.gen_builds));
        registry.register_counter("hot_lru_hits", Arc::clone(&self.hot_hits));
        registry.register_counter("hot_lru_evictions", Arc::clone(&self.hot_evictions));
        registry.register_counter("coalesced", Arc::clone(&self.coalesced));
        registry.register_counter("errors", Arc::clone(&self.errors));
        registry.register_counter("requests_rejected", Arc::clone(&self.rejected));
        registry.register_counter("panics_caught_total", Arc::clone(&self.panics_caught));
        registry.register_counter("flights_poisoned_total", Arc::clone(&self.flights_poisoned));
    }
}

/// The hot-cache key: the content key of the artifact plus its store
/// kind (each family has its own LRU anyway, but the tag keeps the
/// populations separate and greppable in debug output).
type HotKey = (ArtifactKind, ArtifactKey);

/// One artifact family's in-memory layers: a hot LRU of decoded
/// artifacts in front of a single-flight map of running builds.
struct HotLayer<V, E> {
    kind: ArtifactKind,
    /// Span around the single-flight wait and, for the leader, the
    /// build.
    span: &'static str,
    lru: Mutex<Lru<HotKey, Arc<V>>>,
    flights: SingleFlight<ArtifactKey, Result<Arc<V>, E>>,
}

impl<V, E: Clone> HotLayer<V, E> {
    fn new(
        kind: ArtifactKind,
        span: &'static str,
        capacity: usize,
        poisoned: &Arc<Counter>,
    ) -> Self {
        HotLayer {
            kind,
            span,
            lru: Mutex::new(Lru::new(capacity)),
            // Every family ticks the same poisoning counter: what the
            // metric answers is "how often did a crashed build cost a
            // waiter a retry", not which artifact family it was.
            flights: SingleFlight::with_poison_counter(Arc::clone(poisoned)),
        }
    }

    fn cached(&self, key: ArtifactKey) -> Option<Arc<V>> {
        self.lru.lock().expect("hot lru").get(&(self.kind, key))
    }

    /// The shared read path: the hot LRU, then single-flight around
    /// `build` (which reads through the store). Hot hits, evictions and
    /// joins onto a running build tick `counters`.
    fn get(
        &self,
        key: ArtifactKey,
        counters: &Counters,
        build: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.cached(key) {
            counters.hot_hits.inc();
            return Ok(hit);
        }
        let flight_span = trace::span(self.span);
        let (result, joined) = self.flights.run(key, || {
            // Re-check the hot LRU inside the flight: a caller that
            // lost the race to a just-finished leader must not build a
            // second time.
            if let Some(hit) = self.cached(key) {
                counters.hot_hits.inc();
                return Ok(hit);
            }
            let value = build()?;
            if self
                .lru
                .lock()
                .expect("hot lru")
                .insert((self.kind, key), Arc::clone(&value))
                .is_some()
            {
                counters.hot_evictions.inc();
            }
            Ok(value)
        });
        drop(flight_span);
        if joined {
            counters.coalesced.inc();
        }
        result
    }
}

/// A request's circuit, resolved against the combinational suite first
/// and the sequential registry second. Clones share the netlist.
#[derive(Clone)]
pub(crate) enum Resolved {
    /// A combinational suite circuit, analysed directly.
    Comb(Arc<Netlist>),
    /// A sequential circuit, analysed via two-frame broadside
    /// expansion under the given fault model.
    Seq(Arc<SeqNetlist>, FaultModel),
}

/// Synthesizes a registry circuit: combinational names keep their
/// existing behaviour (`model=` is rejected there — it selects a
/// sequential fault model); unknown combinational names fall through to
/// the sequential registry.
fn synthesize(circuit: &str, model: Option<FaultModel>) -> Result<Resolved, String> {
    match ndetect_circuits::build(circuit) {
        Ok(netlist) => {
            if model.is_some() {
                return Err(format!(
                    "`model=` selects a sequential fault model; `{circuit}` is combinational"
                ));
            }
            Ok(Resolved::Comb(Arc::new(netlist)))
        }
        Err(comb_error) => match ndetect_circuits::build_seq(circuit) {
            Ok(seq) => Ok(Resolved::Seq(Arc::new(seq), model.unwrap_or_default())),
            // Unknown everywhere: report the suite error (the message
            // clients already match on).
            Err(_) => Err(comb_error.to_string()),
        },
    }
}

/// The shared serving engine; see the module docs. One instance is
/// shared (via `Arc`) by every connection thread.
pub struct Engine {
    store: Option<Store>,
    /// Registry circuits by (name, `model=`). Only successes land here,
    /// so it holds at most a few entries per registry name.
    circuits: Mutex<HashMap<(String, Option<FaultModel>), Resolved>>,
    universes: HotLayer<FaultUniverse, String>,
    /// Keyed by [`WorstCaseAnalysis::store_key`], so `threads=` (a
    /// performance knob) shares one entry; sized like `universes`.
    worst_cases: HotLayer<WorstCaseAnalysis, Infallible>,
    sets: HotLayer<GeneratedSet, Infallible>,
    counters: Counters,
    registry: Registry,
    request_latency_us: Arc<Histogram>,
}

impl Engine {
    /// Creates an engine over an optional on-disk store with the given
    /// hot-cache capacities (entries, not bytes; zero disables a
    /// layer). Worst-case results share the universe capacity.
    #[must_use]
    pub fn new(store: Option<Store>, hot_universes: usize, hot_sets: usize) -> Self {
        let counters = Counters::default();
        let registry = Registry::new();
        counters.register(&registry);
        if let Some(store) = &store {
            store.register_metrics(&registry);
        }
        let request_latency_us = registry.histogram("request_latency_us");
        let poisoned = &counters.flights_poisoned;
        Engine {
            store,
            circuits: Mutex::new(HashMap::new()),
            universes: HotLayer::new(
                KIND_UNIVERSE,
                "serve.flight.universe",
                hot_universes,
                poisoned,
            ),
            worst_cases: HotLayer::new(
                KIND_WORST_CASE,
                "serve.flight.worst",
                hot_universes,
                poisoned,
            ),
            sets: HotLayer::new(
                KIND_GENERATED_SET,
                "serve.flight.generated",
                hot_sets,
                poisoned,
            ),
            counters,
            registry,
            request_latency_us,
        }
    }

    /// The engine's build/traffic counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// This engine's metrics registry (the counters above plus the
    /// store session counters and the request latency histogram).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one request's wall time into the latency histogram.
    pub fn record_request_latency_us(&self, micros: u64) {
        self.request_latency_us.record(micros);
    }

    /// Renders the full Prometheus-style exposition: this engine's
    /// per-instance registry followed by the process-global registry
    /// (library-level metrics — universe builds, generator rounds,
    /// data-plane allocation). Names are kept disjoint between the two.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut out = self.registry.render();
        out.push_str(&ndetect_obs::global().render());
        out
    }

    /// Resolves a request's circuit name and `model=` token through the
    /// circuit memo. The token is checked on every request, and errors
    /// are never memoised.
    pub(crate) fn resolve(&self, circuit: &str, model: Option<&str>) -> Result<Resolved, String> {
        let model = model
            .map(|m| {
                FaultModel::parse(m).ok_or_else(|| {
                    format!("unknown fault model `{m}` (expected transition or stuck-at)")
                })
            })
            .transpose()?;
        let key = (circuit.to_string(), model);
        if let Some(hit) = self.circuits.lock().expect("circuit memo").get(&key) {
            return Ok(hit.clone());
        }
        // Synthesize outside the lock. Racing first requests may both
        // synthesize; the first insert wins, so all of them share it.
        let resolved = synthesize(circuit, model)?;
        Ok(self
            .circuits
            .lock()
            .expect("circuit memo")
            .entry(key)
            .or_insert(resolved)
            .clone())
    }

    /// The shared universe read path, counting an actual build only on
    /// a store miss. Both the enumerated and the explicit-target
    /// (time-frame-expanded) universes go through here; they differ
    /// only in `key` and `build`.
    fn universe_through_layers(
        &self,
        key: ArtifactKey,
        build: impl FnOnce(Option<&Store>) -> Result<FaultUniverse, String>,
    ) -> Result<Arc<FaultUniverse>, String> {
        self.universes.get(key, &self.counters, || {
            // Chaos hook inside the flight, so an injected failure (or
            // panic) exercises the leader-death → waiter-retry path.
            if ndetect_chaos::failpoint!("engine.universe.build").is_some() {
                return Err("failpoint `engine.universe.build`: injected error".to_string());
            }
            let store = self.store.as_ref();
            let misses = store.map_or(0, Store::session_misses);
            let universe = Arc::new(build(store)?);
            // A store hit deserializes instead of simulating; only a
            // store miss (or no store at all) is an actual build.
            if store.is_none_or(|s| s.session_misses() > misses) {
                self.counters.universe_builds.inc();
            }
            Ok(universe)
        })
    }
}

impl UniverseProvider for Engine {
    fn universe(
        &self,
        netlist: &Netlist,
        options: UniverseOptions,
    ) -> Result<Arc<FaultUniverse>, String> {
        let key = universe_key(netlist, options);
        self.universe_through_layers(key, |store| {
            FaultUniverse::build_stored(netlist, options, store).map_err(|e| e.to_string())
        })
    }

    fn universe_explicit(
        &self,
        netlist: &Netlist,
        explicit: &ExplicitTargets,
        options: UniverseOptions,
    ) -> Result<Arc<FaultUniverse>, String> {
        let key = explicit_universe_key(&explicit.canonical, options);
        self.universe_through_layers(key, |store| {
            FaultUniverse::build_stored_explicit(netlist, explicit, options, store)
                .map_err(|e| e.to_string())
        })
    }

    fn worst(&self, universe: &Arc<FaultUniverse>, threads: usize) -> Arc<WorstCaseAnalysis> {
        let key = WorstCaseAnalysis::store_key(universe);
        let Ok(wc) = self.worst_cases.get(key, &self.counters, || {
            Ok(Arc::new(WorstCaseAnalysis::compute_stored(
                universe,
                threads,
                self.store.as_ref(),
            )))
        });
        wc
    }

    fn generated(&self, universe: &Arc<FaultUniverse>, options: &GenOptions) -> Arc<GeneratedSet> {
        let key = generated_key(universe, options);
        let Ok(set) = self.sets.get(key, &self.counters, || {
            // Chaos hook: generation is infallible, so only the
            // delay/panic actions are meaningful here (return-err and
            // torn-write pass through as no-ops).
            let _ = ndetect_chaos::failpoint!("engine.gen.build");
            let store = self.store.as_ref();
            let misses = store.map_or(0, Store::session_misses);
            let set = Arc::new(ndetect_gen::generate_stored(universe, options, store));
            if store.is_none_or(|s| s.session_misses() > misses) {
                self.counters.gen_builds.inc();
            }
            Ok(set)
        });
        set
    }

    fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::Knobs;
    use ndetect_circuits::figure1;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    fn options() -> UniverseOptions {
        Knobs::default().universe_options()
    }

    #[test]
    fn repeated_requests_build_once_and_hit_the_hot_cache() {
        let engine = Engine::new(None, 8, 8);
        let netlist = figure1::netlist();
        let a = engine.universe(&netlist, options()).unwrap();
        let b = engine.universe(&netlist, options()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request must share the Arc");
        assert_eq!(engine.counters().universe_builds.get(), 1);
        assert_eq!(engine.counters().hot_hits.get(), 1);
    }

    #[test]
    fn concurrent_identical_requests_build_exactly_once() {
        let engine = Engine::new(None, 8, 8);
        let netlist = figure1::netlist();
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let engine = &engine;
                let netlist = &netlist;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    engine.universe(netlist, options()).unwrap();
                });
            }
        });
        assert_eq!(
            engine.counters().universe_builds.get(),
            1,
            "8 racing identical requests must run one build"
        );
    }

    #[test]
    fn generated_sets_dedup_like_universes() {
        let engine = Engine::new(None, 8, 8);
        let netlist = figure1::netlist();
        let universe = engine.universe(&netlist, options()).unwrap();
        let gen_options = GenOptions {
            n: 2,
            compact: true,
            ..GenOptions::default()
        };
        let a = engine.generated(&universe, &gen_options);
        let b = engine.generated(&universe, &gen_options);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(engine.counters().gen_builds.get(), 1);
    }

    #[test]
    fn worst_case_results_share_the_hot_layer_counters() {
        let engine = Engine::new(None, 1, 1);
        let figure1 = engine.universe(&figure1::netlist(), options()).unwrap();
        let a = engine.worst(&figure1, 1);
        let hits = engine.counters().hot_hits.get();
        let b = engine.worst(&figure1, 2);
        assert!(Arc::ptr_eq(&a, &b), "`threads` must not split the key");
        assert_eq!(engine.counters().hot_hits.get(), hits + 1);
        assert_eq!(
            a.to_string(),
            WorstCaseAnalysis::compute(&figure1).to_string()
        );
        // Capacity 1: the next circuit's result evicts figure1's.
        let c17 = ndetect_circuits::build("c17").unwrap();
        let c17 = engine.universe(&c17, options()).unwrap();
        let evictions = engine.counters().hot_evictions.get();
        engine.worst(&c17, 0);
        assert_eq!(engine.counters().hot_evictions.get(), evictions + 1);
    }

    #[test]
    fn the_circuit_memo_synthesizes_each_registry_name_once() {
        let engine = Engine::new(None, 8, 8);
        let entries = || engine.circuits.lock().unwrap().len();
        let (Ok(Resolved::Comb(a)), Ok(Resolved::Comb(b))) =
            (engine.resolve("s1a", None), engine.resolve("s1a", None))
        else {
            panic!("s1a is a combinational suite circuit");
        };
        assert!(Arc::ptr_eq(&a, &b), "the second request must share the Arc");
        assert_eq!(entries(), 1);
        for _ in 0..2 {
            assert!(engine.resolve("not-a-circuit", None).is_err());
            assert!(engine.resolve("s1a", Some("transition")).is_err());
            assert!(engine.resolve("s27", Some("bogus")).is_err());
        }
        assert_eq!(entries(), 1, "errors are never memoised");
        let Ok(Resolved::Seq(_, default)) = engine.resolve("s27", None) else {
            panic!("s27 is sequential");
        };
        let Ok(Resolved::Seq(_, stuck_at)) = engine.resolve("s27", Some("stuck-at")) else {
            panic!("s27 is sequential");
        };
        assert_eq!(default, FaultModel::Transition);
        assert_eq!(stuck_at, FaultModel::StuckAt);
        assert_eq!(entries(), 3, "`s27 model=stuck-at` is an entry of its own");
    }

    /// Releases every herd, `(key, callers)`, on one hot layer at once.
    /// Each leader's build holds its flight open until every other
    /// caller of every herd has joined, so the joins are deterministic.
    /// Returns the engine counters and the number of builds.
    fn release_herds(herds: &[(u64, usize)]) -> (Counters, u64) {
        let poisoned = Arc::new(Counter::new());
        let layer: HotLayer<u64, Infallible> =
            HotLayer::new(KIND_UNIVERSE, "test.flight", 8, &poisoned);
        let counters = Counters::default();
        let callers: usize = herds.iter().map(|&(_, n)| n).sum();
        let joiners = (callers - herds.len()) as u64;
        let barrier = Barrier::new(callers);
        std::thread::scope(|scope| {
            for &(key, n) in herds {
                for _ in 0..n {
                    let (layer, counters, barrier) = (&layer, &counters, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let value = layer.get(ArtifactKey(key), counters, || {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while layer.flights.coalesced() < joiners && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Ok(Arc::new(key))
                        });
                        assert_eq!(value.map(|v| *v), Ok(key));
                    });
                }
            }
        });
        (counters, layer.flights.executions())
    }

    #[test]
    fn a_herd_counts_each_join_once() {
        let (counters, builds) = release_herds(&[(7, 12)]);
        assert_eq!(builds, 1);
        assert_eq!(counters.coalesced.get(), 11, "one join per non-leader");
    }

    #[test]
    fn herds_on_two_keys_of_one_layer_do_not_count_each_other() {
        let (counters, builds) = release_herds(&[(1, 6), (2, 6)]);
        assert_eq!(builds, 2);
        assert_eq!(counters.coalesced.get(), 10, "5 joins per herd");
    }

    #[test]
    fn zero_capacity_hot_cache_still_dedups_in_flight() {
        let engine = Engine::new(None, 0, 0);
        let netlist = figure1::netlist();
        let a = engine.universe(&netlist, options()).unwrap();
        let b = engine.universe(&netlist, options()).unwrap();
        // No hot layer: serial requests rebuild (no store either), but
        // results are still correct.
        assert_eq!(a.targets().len(), b.targets().len());
        assert_eq!(engine.counters().universe_builds.get(), 2);
    }
}
