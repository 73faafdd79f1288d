//! The serving engine: one shared, thread-safe analysis core layered
//! above `ndetect-store`.
//!
//! Request handling composes three layers, hottest first:
//!
//! 1. the in-memory hot LRU ([`crate::hot::Lru`]) of deserialized
//!    artifacts — repeated requests skip disk entirely;
//! 2. single-flight dedup ([`crate::SingleFlight`]) — a thundering
//!    herd of identical requests triggers exactly one build;
//! 3. the on-disk content-addressed store — cold artifacts are read
//!    through (or built and published) exactly as in one-shot mode.
//!
//! Build counters ([`Counters`]) count *actual* expensive builds (cache
//! misses that ran the fault simulator or the generator), which is what
//! the serve-smoke CI job asserts on: N identical concurrent requests
//! must report exactly one build per distinct artifact.

use crate::hot::Lru;
use crate::render::UniverseProvider;
use crate::SingleFlight;
use ndetect_faults::{
    explicit_universe_key, universe_key, ExplicitTargets, FaultUniverse, UniverseOptions,
};
use ndetect_gen::{generated_key, GenOptions, GeneratedSet};
use ndetect_netlist::Netlist;
use ndetect_obs::{trace, Counter, Histogram, Registry};
use ndetect_store::{ArtifactKey, Store};
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

/// The hot-cache key: the content key of the artifact plus its kind tag
/// (a universe and a generated set can never collide anyway, but the
/// tag keeps the two populations separate and greppable in debug
/// output).
type HotKey = (u8, ArtifactKey);

const HOT_UNIVERSE: u8 = 1;
const HOT_GENERATED: u8 = 3;

/// The shared serving engine; see the module docs. One instance is
/// shared (via `Arc`) by every connection thread.
pub struct Engine {
    store: Option<Store>,
    hot_universes: Mutex<Lru<HotKey, Arc<FaultUniverse>>>,
    hot_sets: Mutex<Lru<HotKey, Arc<GeneratedSet>>>,
    universe_flights: SingleFlight<ArtifactKey, Result<Arc<FaultUniverse>, String>>,
    gen_flights: SingleFlight<ArtifactKey, Arc<GeneratedSet>>,
    counters: Counters,
    registry: Registry,
    request_latency_us: Arc<Histogram>,
}

impl Engine {
    /// Creates an engine over an optional on-disk store with the given
    /// hot-cache capacities (entries, not bytes; zero disables a
    /// layer).
    #[must_use]
    pub fn new(store: Option<Store>, hot_universes: usize, hot_sets: usize) -> Self {
        let counters = Counters::default();
        let registry = Registry::new();
        counters.register(&registry);
        if let Some(store) = &store {
            store.register_metrics(&registry);
        }
        let request_latency_us = registry.histogram("request_latency_us");
        // Both flight maps tick the same poisoning counter: what the
        // metric answers is "how often did a crashed build cost a
        // waiter a retry", not which artifact family it was.
        let universe_flights =
            SingleFlight::with_poison_counter(Arc::clone(&counters.flights_poisoned));
        let gen_flights = SingleFlight::with_poison_counter(Arc::clone(&counters.flights_poisoned));
        Engine {
            store,
            hot_universes: Mutex::new(Lru::new(hot_universes)),
            hot_sets: Mutex::new(Lru::new(hot_sets)),
            universe_flights,
            gen_flights,
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
    /// kernel selection). Names are kept disjoint between the two.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut out = self.registry.render();
        out.push_str(&ndetect_obs::global().render());
        out
    }

    fn hot_universe_get(&self, key: ArtifactKey) -> Option<Arc<FaultUniverse>> {
        self.hot_universes
            .lock()
            .expect("hot universe lru")
            .get(&(HOT_UNIVERSE, key))
    }

    fn hot_set_get(&self, key: ArtifactKey) -> Option<Arc<GeneratedSet>> {
        self.hot_sets
            .lock()
            .expect("hot set lru")
            .get(&(HOT_GENERATED, key))
    }

    /// The shared universe read path: hot LRU, then single-flight
    /// around `build` (which reads through the store), counting an
    /// actual build only on a store miss. Both the enumerated and the
    /// explicit-target (time-frame-expanded) universes go through here;
    /// they differ only in `key` and `build`.
    fn universe_through_layers(
        &self,
        key: ArtifactKey,
        build: &(dyn Fn(Option<&Store>) -> Result<FaultUniverse, String> + Sync),
    ) -> Result<Arc<FaultUniverse>, String> {
        if let Some(hit) = self.hot_universe_get(key) {
            self.counters.hot_hits.inc();
            return Ok(hit);
        }
        // Covers the single-flight wait (followers block here on the
        // leader's build) and, for the leader, the build itself.
        let flight_span = trace::span("serve.flight.universe");
        let before = self.universe_flights.coalesced();
        let result = self.universe_flights.run(key, || {
            // Chaos hook inside the flight, so an injected failure (or
            // panic) exercises the leader-death → waiter-retry path.
            if ndetect_chaos::failpoint!("engine.universe.build").is_some() {
                return Err("failpoint `engine.universe.build`: injected error".to_string());
            }
            // Re-check the hot LRU inside the flight: a caller that
            // lost the race to a just-finished leader must not count a
            // second build.
            if let Some(hit) = self.hot_universe_get(key) {
                self.counters.hot_hits.inc();
                return Ok(hit);
            }
            let store = self.store.as_ref();
            let misses = store.map_or(0, Store::session_misses);
            let universe = Arc::new(build(store)?);
            // A store hit deserializes instead of simulating; only a
            // store miss (or no store at all) is an actual build.
            if store.is_none_or(|s| s.session_misses() > misses) {
                self.counters.universe_builds.inc();
            }
            if self
                .hot_universes
                .lock()
                .expect("hot universe lru")
                .insert((HOT_UNIVERSE, key), Arc::clone(&universe))
                .is_some()
            {
                self.counters.hot_evictions.inc();
            }
            Ok(universe)
        });
        drop(flight_span);
        let joined = self.universe_flights.coalesced() - before;
        self.counters.coalesced.add(joined);
        result
    }
}

impl UniverseProvider for Engine {
    fn universe(
        &self,
        netlist: &Netlist,
        options: UniverseOptions,
    ) -> Result<Arc<FaultUniverse>, String> {
        let key = universe_key(netlist, options);
        self.universe_through_layers(key, &|store| {
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
        self.universe_through_layers(key, &|store| {
            FaultUniverse::build_stored_explicit(netlist, explicit, options, store)
                .map_err(|e| e.to_string())
        })
    }

    fn generated(&self, universe: &Arc<FaultUniverse>, options: &GenOptions) -> Arc<GeneratedSet> {
        let key = generated_key(universe, options);
        if let Some(hit) = self.hot_set_get(key) {
            self.counters.hot_hits.inc();
            return hit;
        }
        let flight_span = trace::span("serve.flight.generated");
        let before = self.gen_flights.coalesced();
        let set = self.gen_flights.run(key, || {
            // Chaos hook: generation is infallible, so only the
            // delay/panic actions are meaningful here (return-err and
            // torn-write pass through as no-ops).
            let _ = ndetect_chaos::failpoint!("engine.gen.build");
            if let Some(hit) = self.hot_set_get(key) {
                self.counters.hot_hits.inc();
                return hit;
            }
            let store = self.store.as_ref();
            let misses = store.map_or(0, Store::session_misses);
            let set = Arc::new(ndetect_gen::generate_stored(universe, options, store));
            if store.is_none_or(|s| s.session_misses() > misses) {
                self.counters.gen_builds.inc();
            }
            if self
                .hot_sets
                .lock()
                .expect("hot set lru")
                .insert((HOT_GENERATED, key), Arc::clone(&set))
                .is_some()
            {
                self.counters.hot_evictions.inc();
            }
            set
        });
        drop(flight_span);
        let joined = self.gen_flights.coalesced() - before;
        self.counters.coalesced.add(joined);
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
