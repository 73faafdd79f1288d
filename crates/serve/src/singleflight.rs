//! Single-flight deduplication: N concurrent callers asking for the
//! same key trigger exactly one execution of the builder; everyone else
//! blocks until the leader publishes and then shares the result.
//!
//! This is the serving-side answer to a thundering herd of identical
//! analysis requests: universe and generated-set builds are
//! deterministic and content-keyed ([`ndetect_store::ArtifactKey`]), so
//! two in-flight builds of the same key would produce bit-identical
//! artifacts — running both is pure waste. The pattern (and the name)
//! come from inference-serving and CDN front ends.
//!
//! A leader that **panics** poisons only its own flight, never its
//! waiters: each waiter observes the poisoned state, counts it, and
//! falls through to a fresh build (typically becoming the next leader).
//! One crashed build therefore costs the herd one retry, not a panic
//! cascade — the invariant the serve layer's `catch_unwind` isolation
//! builds on.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What waiters on a flight eventually observe.
enum FlightState<V> {
    /// The leader is still building.
    Pending,
    /// The leader published; everyone clones this.
    Done(V),
    /// The leader panicked before publishing; waiters must rebuild.
    Poisoned,
}

/// One in-flight build: followers wait on the condvar until the leader
/// publishes its result or poisons the flight.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }
}

/// A map of in-flight builds keyed by `K`; see the module docs.
///
/// `V` must be `Clone` because every coalesced caller receives the same
/// result — in practice an `Arc` (or a `Result<Arc<_>, String>`).
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
    /// Builder executions (leaders) since construction.
    executions: AtomicU64,
    /// Calls that joined an existing flight instead of building.
    coalesced: AtomicU64,
    /// Waits that observed a poisoned flight and fell through to a
    /// fresh build.
    poisoned: AtomicU64,
    /// Optional externally owned counter ticked alongside `poisoned`,
    /// so a metrics registry can watch flight poisonings live.
    poison_counter: Option<Arc<ndetect_obs::Counter>>,
}

impl<K, V> Default for SingleFlight<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> SingleFlight<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    /// Creates an empty flight map.
    #[must_use]
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            executions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            poison_counter: None,
        }
    }

    /// Like [`SingleFlight::new`], but also ticks `counter` every time
    /// a waiter observes a poisoned flight (for metrics exposition).
    #[must_use]
    pub fn with_poison_counter(counter: Arc<ndetect_obs::Counter>) -> Self {
        SingleFlight {
            poison_counter: Some(counter),
            ..Self::new()
        }
    }

    /// Runs `build` for `key`, coalescing with any concurrent call for
    /// the same key: exactly one caller (the leader) executes `build`;
    /// the rest block and receive a clone of the leader's result. The
    /// flag says whether this call received another caller's result
    /// (joined a flight) rather than building its own, so a caller can
    /// count its own join exactly once.
    ///
    /// The flight is removed once the leader publishes, so a *later*
    /// call (no overlap) runs `build` again — layering a cache above
    /// this (the hot LRU, the on-disk store) is the caller's job, and
    /// the leader's `build` should re-check that cache first.
    ///
    /// If the leader panics, its waiters do **not** panic: each counts
    /// the poisoning and retries — replacing the dead flight and
    /// building fresh (one of them becomes the new leader; the rest
    /// coalesce onto it). The panic propagates only out of the leader's
    /// own call, so a `catch_unwind` around the leader contains the
    /// blast radius entirely.
    pub fn run<F>(&self, key: K, build: F) -> (V, bool)
    where
        F: FnOnce() -> V,
    {
        loop {
            let flight = {
                let mut map = self.inflight.lock().expect("singleflight map");
                match map.get(&key) {
                    // Join the live flight; a poisoned leftover (its
                    // leader's cleanup hasn't run yet) is replaced so
                    // retrying waiters can't spin on a dead flight.
                    Some(existing) if !poisoned(existing) => {
                        let flight = Arc::clone(existing);
                        drop(map);
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        match Self::wait(&flight) {
                            Some(value) => return (value, true),
                            None => {
                                self.record_poisoned();
                                continue;
                            }
                        }
                    }
                    _ => {
                        let flight = Arc::new(Flight::new());
                        map.insert(key.clone(), Arc::clone(&flight));
                        flight
                    }
                }
            };

            // Leader: wake followers even if `build` panics, and remove
            // the flight from the map — but only *this* flight (a
            // retrying waiter may already have replaced it).
            struct Guard<'a, K: Eq + Hash, V> {
                sf: &'a SingleFlight<K, V>,
                key: &'a K,
                flight: &'a Arc<Flight<V>>,
                published: bool,
            }
            impl<K: Eq + Hash, V> Drop for Guard<'_, K, V> {
                fn drop(&mut self) {
                    if !self.published {
                        *self.flight.state.lock().expect("flight lock") = FlightState::Poisoned;
                        self.flight.done.notify_all();
                    }
                    if let Ok(mut map) = self.sf.inflight.lock() {
                        if map
                            .get(self.key)
                            .is_some_and(|f| Arc::ptr_eq(f, self.flight))
                        {
                            map.remove(self.key);
                        }
                    }
                }
            }

            let mut guard = Guard {
                sf: self,
                key: &key,
                flight: &flight,
                published: false,
            };
            self.executions.fetch_add(1, Ordering::Relaxed);
            let value = build();
            *flight.state.lock().expect("flight lock") = FlightState::Done(value.clone());
            guard.published = true;
            flight.done.notify_all();
            drop(guard); // removes the flight from the map
            return (value, false);
        }
    }

    /// Blocks until the flight resolves; `None` means the leader
    /// poisoned it and the caller should rebuild.
    fn wait(flight: &Flight<V>) -> Option<V> {
        let mut state = flight.state.lock().expect("flight lock");
        loop {
            match &*state {
                FlightState::Done(value) => return Some(value.clone()),
                FlightState::Poisoned => return None,
                FlightState::Pending => {
                    state = flight.done.wait(state).expect("flight lock");
                }
            }
        }
    }

    fn record_poisoned(&self) {
        self.poisoned.fetch_add(1, Ordering::Relaxed);
        if let Some(counter) = &self.poison_counter {
            counter.inc();
        }
    }

    /// How many times a builder actually executed (leaders).
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// How many calls were coalesced onto another caller's build.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// How many waits observed a poisoned flight (and retried).
    #[must_use]
    pub fn poisoned(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// Whether a flight is already poisoned (non-blocking probe used when
/// deciding to join vs. replace it).
fn poisoned<V>(flight: &Flight<V>) -> bool {
    matches!(
        &*flight.state.lock().expect("flight lock"),
        FlightState::Poisoned
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn serial_calls_each_execute() {
        let sf: SingleFlight<u64, u64> = SingleFlight::new();
        assert_eq!(sf.run(1, || 10), (10, false));
        assert_eq!(sf.run(1, || 20), (20, false)); // no overlap: builds again
        assert_eq!(sf.executions(), 2);
        assert_eq!(sf.coalesced(), 0);
    }

    #[test]
    fn concurrent_identical_calls_build_exactly_once() {
        let sf: SingleFlight<u64, u64> = SingleFlight::new();
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<(u64, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        sf.run(42, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Hold the flight open long enough that the
                            // herd piles onto it.
                            std::thread::sleep(Duration::from_millis(50));
                            7
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&(r, _)| r == 7));
        assert_eq!(builds.load(Ordering::Relaxed), 1, "single-flight");
        assert_eq!(sf.executions(), 1);
        assert_eq!(sf.coalesced(), 7);
        // Each caller reports its own join: everyone but the leader.
        assert_eq!(results.iter().filter(|&&(_, joined)| joined).count(), 7);
    }

    #[test]
    fn distinct_keys_build_independently() {
        let sf: SingleFlight<u64, u64> = SingleFlight::new();
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for k in 0..4u64 {
                let sf = &sf;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    assert_eq!(sf.run(k, || k * 10), (k * 10, false));
                });
            }
        });
        assert_eq!(sf.executions(), 4);
    }

    #[test]
    fn waiters_on_a_panicked_leader_rebuild_instead_of_panicking() {
        let sf: Arc<SingleFlight<u64, u64>> = Arc::new(SingleFlight::new());
        let inside_build = Arc::new(Barrier::new(2));
        let leader = {
            let sf = Arc::clone(&sf);
            let inside_build = Arc::clone(&inside_build);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sf.run(9, || {
                        inside_build.wait();
                        std::thread::sleep(Duration::from_millis(50));
                        panic!("leader died");
                    })
                }));
                assert!(result.is_err(), "the leader itself still panics");
            })
        };
        inside_build.wait(); // leader is inside its build
        let followers: Vec<_> = (0..4)
            .map(|i| {
                let sf = Arc::clone(&sf);
                std::thread::spawn(move || sf.run(9, move || 100 + i).0)
            })
            .collect();
        leader.join().unwrap();
        // Every follower gets a real value — one of the retry builds —
        // and nobody propagates the leader's panic.
        for follower in followers {
            let value = follower.join().expect("follower must not panic");
            assert!((100..104).contains(&value), "got {value}");
        }
        assert!(sf.poisoned() >= 1, "the poisoning was observed and counted");
        // The map is clean: a later call builds fresh.
        assert_eq!(sf.run(9, || 5), (5, false));
    }

    #[test]
    fn poison_counter_hook_ticks_an_external_counter() {
        let counter = Arc::new(ndetect_obs::Counter::new());
        let sf: Arc<SingleFlight<u64, u64>> =
            Arc::new(SingleFlight::with_poison_counter(Arc::clone(&counter)));
        let inside_build = Arc::new(Barrier::new(2));
        let leader = {
            let sf = Arc::clone(&sf);
            let inside_build = Arc::clone(&inside_build);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sf.run(1, || {
                        inside_build.wait();
                        std::thread::sleep(Duration::from_millis(30));
                        panic!("boom");
                    })
                }));
            })
        };
        inside_build.wait();
        let (value, _) = sf.run(1, || 77);
        leader.join().unwrap();
        assert_eq!(value, 77);
        assert_eq!(counter.get(), sf.poisoned());
        assert!(counter.get() >= 1);
    }
}
