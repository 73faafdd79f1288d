//! The engine: one shared, thread-safe analysis core layered above
//! `ndetect-store`. The server keeps one for its lifetime; each
//! one-shot `ndet` command renders through `Engine::new(store, 0, 0)`,
//! which keeps nothing resident.
//!
//! Request handling composes three layers, hottest first:
//!
//! 1. the circuit memo — a registry name plus its fault model resolves
//!    once per engine to a [`Subject`], whose netlist requests share;
//! 2. one keyed map per artifact family — two-frame expansions, fault
//!    universes, worst-case results and generated sets. A key is either
//!    *resident*, a deserialized artifact kept least-recently-used
//!    within the family's capacity, so repeated requests skip disk
//!    entirely; or *building*, so a thundering herd of identical
//!    requests joins one leader's build;
//! 3. the on-disk content-addressed store — cold artifacts are read
//!    through [`ndetect_store::read_through`] (or built and published).
//!
//! Build counters ([`Counters`]) count *actual* expensive builds: the
//! calls whose read-through reports [`Origin::Built`], i.e. that ran
//! the fault simulator or the generator. The serve-smoke CI job
//! asserts on them: N identical concurrent requests must report
//! exactly one build per distinct artifact.

use crate::render::Subject;
use ndetect_core::WorstCaseAnalysis;
use ndetect_faults::{
    explicit_universe_key, universe_key, ExplicitTargets, FaultUniverse, UniverseOptions,
};
use ndetect_gen::{generated_key, GenOptions, GeneratedSet};
use ndetect_netlist::{Netlist, SeqNetlist};
use ndetect_obs::{trace, Counter, Histogram, Registry};
use ndetect_seq::{expand_stored, expanded_key, ExpandedModel, FaultModel};
use ndetect_store::{ArtifactKey, Origin, Store};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// Fault-universe builds that actually ran (resident and store
    /// misses that executed the fault simulator).
    pub universe_builds: Arc<Counter>,
    /// Generated-set builds that actually ran.
    pub gen_builds: Arc<Counter>,
    /// Lookups served from a resident artifact (the hot LRU).
    pub hot_hits: Arc<Counter>,
    /// Residents the hot LRU evicted to stay within capacity.
    pub hot_evictions: Arc<Counter>,
    /// Calls that joined another caller's in-flight build (once per
    /// call).
    pub coalesced: Arc<Counter>,
    /// Requests that failed (parse errors, analysis errors, timeouts).
    pub errors: Arc<Counter>,
    /// Connections refused with `err busy` by the accept-loop cap.
    pub rejected: Arc<Counter>,
    /// Job panics caught and converted to `err internal` replies (the
    /// server survived every one of these).
    pub panics_caught: Arc<Counter>,
    /// Waits on an in-flight build whose leader panicked; each fell
    /// through to a clean rebuild.
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

/// One artifact family's in-memory state: a map whose every key is
/// being built or resident, so a lookup, a join, a publish and an
/// eviction each take its one lock.
pub(crate) struct Family<V, E> {
    /// Span around a miss: the wait on a running build and, for the
    /// leader, the build.
    span: &'static str,
    /// Residents kept (entries, not bytes; zero keeps none).
    capacity: usize,
    slots: Mutex<HashMap<ArtifactKey, Slot<V, E>>>,
    /// Use stamps, taken only under the lock (so `Relaxed` suffices);
    /// the resident with the smallest is the least recently used.
    clock: AtomicU64,
}

pub(crate) enum Slot<V, E> {
    /// A leader is building the artifact; later callers join its flight.
    Building(Arc<Flight<V, E>>),
    /// A deserialized artifact and the stamp of its last use.
    Resident { value: Arc<V>, used: u64 },
}

/// A running build. Its leader sets the outcome and wakes the waiters
/// under the family lock, in the same step that makes the key resident
/// or frees it.
pub(crate) struct Flight<V, E> {
    /// The leader's result, or `None` if its build panicked.
    outcome: OnceLock<Option<Result<Arc<V>, E>>>,
    done: Condvar,
}

impl<V, E> Family<V, E> {
    pub(crate) fn new(span: &'static str, capacity: usize) -> Self {
        Family {
            span,
            capacity,
            slots: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
        }
    }

    /// The family lock. Builds run outside it and nothing inside it
    /// panics, so a poisoned lock still guards a consistent map.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashMap<ArtifactKey, Slot<V, E>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }
}

impl<V, E: Clone> Family<V, E> {
    /// The shared read path: a resident artifact, else the running
    /// build of `key`, else `build` (which reads through the store).
    /// Hot hits, joins, evictions and poisoned flights tick `counters`.
    ///
    /// A leader's error reaches its waiters and is never kept. If the
    /// leader panics, the panic leaves only its own call; each waiter
    /// counts the poisoned flight and retries, so one of them builds.
    pub(crate) fn get(
        &self,
        key: ArtifactKey,
        counters: &Counters,
        build: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, E> {
        let mut span = None;
        let mut joined = false;
        let mut slots = self.lock();
        loop {
            let flight = match slots.get_mut(&key) {
                Some(Slot::Resident { value, used }) => {
                    *used = self.stamp();
                    counters.hot_hits.inc();
                    return Ok(Arc::clone(value));
                }
                Some(Slot::Building(flight)) => Arc::clone(flight),
                None => break,
            };
            span.get_or_insert_with(|| trace::span(self.span));
            // A call that retries after a poisoned flight joins once.
            if !joined {
                joined = true;
                counters.coalesced.inc();
            }
            let outcome = loop {
                match flight.outcome.get() {
                    Some(outcome) => break outcome,
                    None => {
                        slots = flight
                            .done
                            .wait(slots)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            };
            match outcome {
                Some(result) => return result.clone(),
                // The leader panicked and freed the key: look again.
                None => counters.flights_poisoned.inc(),
            }
        }
        let _span = span.unwrap_or_else(|| trace::span(self.span));
        let flight = Arc::new(Flight {
            outcome: OnceLock::new(),
            done: Condvar::new(),
        });
        slots.insert(key, Slot::Building(Arc::clone(&flight)));
        drop(slots);
        let mut lead = Lead {
            family: self,
            key,
            flight,
            counters,
            result: None,
        };
        let result = build();
        lead.result = Some(result.clone());
        result
    }
}

/// The leader's side of a flight. Dropping it publishes `result`, or
/// poisons the flight if the build panicked before setting one. A value
/// turns the key resident when the family keeps any (evicting the least
/// recently used resident past capacity); otherwise the key is freed.
/// Then the waiters wake.
struct Lead<'a, V, E> {
    family: &'a Family<V, E>,
    key: ArtifactKey,
    flight: Arc<Flight<V, E>>,
    counters: &'a Counters,
    result: Option<Result<Arc<V>, E>>,
}

impl<V, E> Drop for Lead<'_, V, E> {
    fn drop(&mut self) {
        let family = self.family;
        let mut slots = family.lock();
        match &self.result {
            Some(Ok(value)) if family.capacity > 0 => {
                let used = family.stamp();
                let value = Arc::clone(value);
                slots.insert(self.key, Slot::Resident { value, used });
                if evict_lru(&mut slots, family.capacity) {
                    self.counters.hot_evictions.inc();
                }
            }
            _ => {
                slots.remove(&self.key);
            }
        }
        let _ = self.flight.outcome.set(self.result.take());
        self.flight.done.notify_all();
    }
}

/// Removes the least recently used resident if more than `capacity`
/// are resident, by a scan over the map; returns whether it did.
fn evict_lru<V, E>(slots: &mut HashMap<ArtifactKey, Slot<V, E>>, capacity: usize) -> bool {
    let mut residents = 0;
    let mut lru = None;
    for (key, slot) in slots.iter() {
        if let Slot::Resident { used, .. } = slot {
            residents += 1;
            if lru.is_none_or(|(oldest, _)| *used < oldest) {
                lru = Some((*used, *key));
            }
        }
    }
    match lru {
        Some((_, key)) if residents > capacity => slots.remove(&key).is_some(),
        _ => false,
    }
}

/// The shared serving engine; see the module docs. One instance is
/// shared (via `Arc`) by every connection thread.
pub struct Engine {
    store: Option<Store>,
    /// Registry circuits by (name, fault model). Only successes land
    /// here, so it holds at most a few entries per registry name.
    circuits: Mutex<HashMap<(String, Option<FaultModel>), Subject>>,
    /// Keyed by [`expanded_key`]; sized like `universes`.
    expansions: Family<ExpandedModel, String>,
    universes: Family<FaultUniverse, String>,
    /// Keyed by [`WorstCaseAnalysis::store_key`], so `threads=` (a
    /// performance knob) shares one entry; sized like `universes`.
    worst_cases: Family<WorstCaseAnalysis, Infallible>,
    sets: Family<GeneratedSet, Infallible>,
    counters: Counters,
    registry: Registry,
    request_latency_us: Arc<Histogram>,
}

impl Engine {
    /// Creates an engine over an optional on-disk store with the given
    /// hot-cache capacities (entries, not bytes; zero keeps no resident
    /// but still joins identical in-flight builds). Expansions and
    /// worst-case results share the universe capacity.
    #[must_use]
    pub fn new(store: Option<Store>, hot_universes: usize, hot_sets: usize) -> Self {
        let counters = Counters::default();
        let registry = Registry::new();
        counters.register(&registry);
        if let Some(store) = &store {
            store.register_metrics(&registry);
        }
        let request_latency_us = registry.histogram("request_latency_us");
        Engine {
            store,
            circuits: Mutex::new(HashMap::new()),
            expansions: Family::new("serve.flight.expanded", hot_universes),
            universes: Family::new("serve.flight.universe", hot_universes),
            worst_cases: Family::new("serve.flight.worst", hot_universes),
            sets: Family::new("serve.flight.generated", hot_sets),
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

    /// Resolves a registry circuit name through the circuit memo: the
    /// combinational suite first, so its names keep their meaning, then
    /// the sequential registry (`s27`, `shift4`, `cnt3`), where a missing
    /// `model` defaults to transition. Errors are never memoised.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for an unknown name, or a fault
    /// model on a combinational circuit.
    pub fn resolve(&self, circuit: &str, model: Option<FaultModel>) -> Result<Subject, String> {
        let key = (circuit.to_string(), model);
        if let Some(hit) = self.circuits.lock().expect("circuit memo").get(&key) {
            return Ok(hit.clone());
        }
        // Synthesize outside the lock. Racing first requests may both
        // synthesize; the first insert wins, so all of them share it.
        let subject = match ndetect_circuits::build(circuit) {
            Ok(netlist) => Subject::combinational(netlist, model)?,
            Err(comb_error) => match ndetect_circuits::build_seq(circuit) {
                Ok(seq) => Subject::Seq(Arc::new(seq), model.unwrap_or_default()),
                // Unknown everywhere: report the suite error (the message
                // clients already match on).
                Err(_) => return Err(comb_error.to_string()),
            },
        };
        Ok(self
            .circuits
            .lock()
            .expect("circuit memo")
            .entry(key)
            .or_insert(subject)
            .clone())
    }

    /// The on-disk store behind every artifact, if one is configured.
    #[must_use]
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The two-frame broadside expansion of `seq` under `model`.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the expansion fails.
    pub(crate) fn expanded(
        &self,
        seq: &SeqNetlist,
        model: FaultModel,
    ) -> Result<Arc<ExpandedModel>, String> {
        self.expansions
            .get(expanded_key(seq, model), &self.counters, || {
                expand_stored(seq, model, self.store.as_ref())
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
    }

    /// The fault universe of `netlist` under `options` — over
    /// `explicit`'s population (a time-frame expansion's lowered
    /// faults, keyed by the source model) when given. Only a store miss
    /// counts as a build.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the circuit cannot be
    /// simulated exhaustively (e.g. too many inputs).
    pub fn universe(
        &self,
        netlist: &Netlist,
        explicit: Option<&ExplicitTargets>,
        options: UniverseOptions,
    ) -> Result<Arc<FaultUniverse>, String> {
        let key = explicit.map_or_else(
            || universe_key(netlist, options),
            |x| explicit_universe_key(&x.canonical, options),
        );
        self.universes.get(key, &self.counters, || {
            // Chaos hook inside the flight, so an injected failure (or
            // panic) exercises the leader-death → waiter-retry path.
            if ndetect_chaos::failpoint!("engine.universe.build").is_some() {
                return Err("failpoint `engine.universe.build`: injected error".to_string());
            }
            let (universe, origin) =
                FaultUniverse::build_stored(netlist, explicit, options, self.store.as_ref())
                    .map_err(|e| e.to_string())?;
            if origin == Origin::Built {
                self.counters.universe_builds.inc();
            }
            Ok(Arc::new(universe))
        })
    }

    /// The worst-case `nmin` analysis of `universe` with up to
    /// `threads` workers (`0` = auto); the result is the same for every
    /// thread count.
    pub fn worst(&self, universe: &Arc<FaultUniverse>, threads: usize) -> Arc<WorstCaseAnalysis> {
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

    /// A generated n-detection set for `universe` under `options`. Only
    /// a store miss counts as a build.
    pub fn generated(
        &self,
        universe: &Arc<FaultUniverse>,
        options: &GenOptions,
    ) -> Arc<GeneratedSet> {
        let key = generated_key(universe, options);
        let Ok(set) = self.sets.get(key, &self.counters, || {
            // Chaos hook: generation is infallible, so only the
            // delay/panic actions are meaningful here (return-err and
            // torn-write pass through as no-ops).
            let _ = ndetect_chaos::failpoint!("engine.gen.build");
            let (set, origin) =
                ndetect_gen::generate_stored(universe, options, self.store.as_ref());
            if origin == Origin::Built {
                self.counters.gen_builds.inc();
            }
            Ok(Arc::new(set))
        });
        set
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::render::Knobs;
    use ndetect_circuits::figure1;
    use std::panic::AssertUnwindSafe;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    fn options() -> UniverseOptions {
        Knobs::default().universe_options()
    }

    #[test]
    fn repeated_requests_build_once_and_hit_the_hot_cache() {
        let engine = Engine::new(None, 8, 8);
        let netlist = figure1::netlist();
        let a = engine.universe(&netlist, None, options()).unwrap();
        let b = engine.universe(&netlist, None, options()).unwrap();
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
                    engine.universe(netlist, None, options()).unwrap();
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
        let universe = engine.universe(&netlist, None, options()).unwrap();
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
        let figure1 = engine
            .universe(&figure1::netlist(), None, options())
            .unwrap();
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
        let c17 = engine.universe(&c17, None, options()).unwrap();
        let evictions = engine.counters().hot_evictions.get();
        engine.worst(&c17, 0);
        assert_eq!(engine.counters().hot_evictions.get(), evictions + 1);
    }

    /// A store whose entry under `(key, kind)` has a valid checksum but
    /// bytes no decoder accepts: loading it is a store hit, not a miss.
    fn store_with_junk(tag: &str, key: ArtifactKey, kind: u16) -> Store {
        let dir = std::env::temp_dir().join(format!("ndet-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        store.save(key, kind, b"junk").unwrap();
        store
    }

    #[test]
    fn a_rejected_universe_entry_counts_as_a_build() {
        let netlist = figure1::netlist();
        let key = universe_key(&netlist, options());
        let store = store_with_junk("universe", key, ndetect_faults::KIND_UNIVERSE);
        let engine = Engine::new(Some(store), 8, 8);
        let universe = engine.universe(&netlist, None, options()).unwrap();
        let fresh = FaultUniverse::build_with(&netlist, options()).unwrap();
        assert_eq!(universe.bridges(), fresh.bridges(), "the junk was rebuilt");
        assert_eq!(engine.counters().universe_builds.get(), 1);
        let store = engine.store().unwrap();
        assert_eq!(
            store.session_misses(),
            0,
            "the junk entry read as a store hit"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_rejected_generated_set_entry_counts_as_a_build() {
        let universe = Arc::new(FaultUniverse::build(&figure1::netlist()).unwrap());
        let gen_options = GenOptions::with_n(2);
        let key = generated_key(&universe, &gen_options);
        let store = store_with_junk("generated", key, ndetect_gen::KIND_GENERATED_SET);
        let engine = Engine::new(Some(store), 8, 8);
        let set = engine.generated(&universe, &gen_options);
        assert!(set.satisfies(&universe), "the junk was rebuilt");
        assert_eq!(engine.counters().gen_builds.get(), 1);
        let store = engine.store().unwrap();
        assert_eq!(
            store.session_misses(),
            0,
            "the junk entry read as a store hit"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn the_circuit_memo_synthesizes_each_registry_name_once() {
        let engine = Engine::new(None, 8, 8);
        let entries = || engine.circuits.lock().unwrap().len();
        let (Ok(Subject::Comb(a)), Ok(Subject::Comb(b))) =
            (engine.resolve("s1a", None), engine.resolve("s1a", None))
        else {
            panic!("s1a is a combinational suite circuit");
        };
        assert!(Arc::ptr_eq(&a, &b), "the second request must share the Arc");
        assert_eq!(entries(), 1);
        for _ in 0..2 {
            assert!(engine.resolve("not-a-circuit", None).is_err());
            assert!(engine.resolve("s1a", Some(FaultModel::Transition)).is_err());
        }
        assert_eq!(entries(), 1, "errors are never memoised");
        let Ok(Subject::Seq(_, default)) = engine.resolve("s27", None) else {
            panic!("s27 is sequential");
        };
        let Ok(Subject::Seq(_, stuck_at)) = engine.resolve("s27", Some(FaultModel::StuckAt)) else {
            panic!("s27 is sequential");
        };
        assert_eq!(default, FaultModel::Transition);
        assert_eq!(stuck_at, FaultModel::StuckAt);
        assert_eq!(entries(), 3, "`s27 model=stuck-at` is an entry of its own");
    }

    /// Polls `done` until it holds, for at most 10 s.
    pub(crate) fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Releases every herd, `(key, callers)`, on `family` at once. Each
    /// leader's build ticks `universe_builds` and holds its flight open
    /// until every other caller of every herd has joined, so the joins
    /// are deterministic; then it returns `outcome(key)`. Returns each
    /// caller's key and result.
    fn release_herds<E: Clone + Send + Sync>(
        family: &Family<u64, E>,
        counters: &Counters,
        herds: &[(u64, usize)],
        outcome: impl Fn(u64) -> Result<Arc<u64>, E> + Sync,
    ) -> Vec<(u64, Result<Arc<u64>, E>)> {
        let callers: usize = herds.iter().map(|&(_, n)| n).sum();
        let joiners = (callers - herds.len()) as u64;
        let barrier = Barrier::new(callers);
        let outcome = &outcome;
        std::thread::scope(|scope| {
            let handles: Vec<_> = herds
                .iter()
                .flat_map(|&(key, n)| std::iter::repeat_n(key, n))
                .map(|key| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let result = family.get(ArtifactKey(key), counters, || {
                            counters.universe_builds.inc();
                            wait_until(|| counters.coalesced.get() >= joiners);
                            outcome(key)
                        });
                        (key, result)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Runs a leader whose build panics once `waiters` callers have
    /// joined its flight; waiter `i` rebuilds with `rebuild(i)`. Returns
    /// the waiters' results.
    pub(crate) fn herd_on_a_panicking_leader<V: Send + Sync, E: Clone + Send + Sync>(
        family: &Family<V, E>,
        counters: &Counters,
        waiters: u64,
        rebuild: impl Fn(u64) -> Result<Arc<V>, E> + Sync,
    ) -> Vec<Result<Arc<V>, E>> {
        let key = ArtifactKey(9);
        let rebuild = &rebuild;
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    family.get(key, counters, || {
                        wait_until(|| counters.coalesced.get() == waiters);
                        panic!("leader died");
                    })
                }))
            });
            wait_until(|| family.lock().contains_key(&key));
            let handles: Vec<_> = (0..waiters)
                .map(|i| scope.spawn(move || family.get(key, counters, || rebuild(i))))
                .collect();
            assert!(leader.join().unwrap().is_err(), "the leader still panics");
            handles
                .into_iter()
                .map(|h| h.join().expect("a waiter must not panic"))
                .collect()
        })
    }

    #[test]
    fn a_herd_counts_each_join_once() {
        let (family, counters) = (Family::new("test.flight", 8), Counters::default());
        for (key, result) in release_herds(&family, &counters, &[(7, 12)], |k| Ok(Arc::new(k))) {
            assert_eq!(result.map(|v| *v), Ok::<_, Infallible>(key));
        }
        assert_eq!(counters.universe_builds.get(), 1);
        assert_eq!(counters.coalesced.get(), 11, "one join per non-leader");
    }

    #[test]
    fn herds_on_two_keys_of_one_layer_do_not_count_each_other() {
        let (family, counters) = (Family::new("test.flight", 8), Counters::default());
        let herds = [(1, 6), (2, 6)];
        for (key, result) in release_herds(&family, &counters, &herds, |k| Ok(Arc::new(k))) {
            assert_eq!(result.map(|v| *v), Ok::<_, Infallible>(key));
        }
        assert_eq!(counters.universe_builds.get(), 2);
        assert_eq!(counters.coalesced.get(), 10, "5 joins per herd");
    }

    #[test]
    fn a_failed_build_reaches_every_joined_waiter_and_is_not_kept() {
        let (family, counters) = (Family::new("test.flight", 8), Counters::default());
        let failed = || Err("boom".to_string());
        for (_, result) in release_herds(&family, &counters, &[(7, 6)], |_| failed()) {
            assert_eq!(result, failed());
        }
        assert_eq!(counters.universe_builds.get(), 1);
        assert_eq!(counters.coalesced.get(), 5);
        assert!(family.lock().is_empty(), "an error is never resident");
        // The next call builds again.
        let value = family.get(ArtifactKey(7), &counters, || Ok(Arc::new(7)));
        assert_eq!(value.map(|v| *v), Ok(7));
        assert_eq!(counters.hot_hits.get(), 0);
    }

    #[test]
    fn a_poisoned_flight_ticks_flights_poisoned_total() {
        let engine = Engine::new(None, 1, 1);
        let results = herd_on_a_panicking_leader(&engine.universes, &engine.counters, 1, |_| {
            Err("rebuilt".to_string())
        });
        let errors: Vec<_> = results.into_iter().filter_map(Result::err).collect();
        assert_eq!(errors, ["rebuilt"]);
        assert_eq!(engine.counters().flights_poisoned.get(), 1);
        assert!(engine
            .render_metrics()
            .contains("\nflights_poisoned_total 1\n"));
        assert!(engine.universes.lock().is_empty());
    }

    #[test]
    fn zero_capacity_hot_cache_still_dedups_in_flight() {
        let (family, counters) = (Family::new("test.flight", 0), Counters::default());
        for (key, result) in release_herds(&family, &counters, &[(7, 12)], |k| Ok(Arc::new(k))) {
            assert_eq!(result.map(|v| *v), Ok::<_, Infallible>(key));
        }
        assert_eq!(counters.universe_builds.get(), 1);
        assert_eq!(counters.coalesced.get(), 11);
        assert!(family.lock().is_empty(), "nothing is resident");

        let engine = Engine::new(None, 0, 0);
        let netlist = figure1::netlist();
        let a = engine.universe(&netlist, None, options()).unwrap();
        let b = engine.universe(&netlist, None, options()).unwrap();
        // No hot layer: serial requests rebuild (no store either), but
        // results are still correct.
        assert_eq!(a.targets().len(), b.targets().len());
        assert_eq!(engine.counters().universe_builds.get(), 2);
        assert_eq!(engine.counters().hot_evictions.get(), 0);
    }
}
