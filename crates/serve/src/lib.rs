//! `ndetect-serve`: a persistent analysis service above the n-detection
//! engine.
//!
//! One-shot `ndet` invocations pay the full artifact pipeline on every
//! call — parse, fault simulation, set generation — softened only by
//! the on-disk store. This crate keeps an analysis process resident:
//! a TCP accept loop ([`server`]) speaks a newline-delimited request
//! protocol ([`protocol`]) and executes requests through a shared
//! [`Engine`] that keeps one keyed map per artifact family (two-frame
//! expansions, fault universes, worst-case results, generated sets)
//! above the store, holding the resident artifacts and the running
//! builds — a thundering herd of identical requests runs exactly one
//! build, and a warm request, sequential circuits included, touches
//! neither disk nor simulator.
//!
//! The rendering layer ([`render`]) is shared with the CLI, which
//! renders through an [`Engine`] that keeps nothing resident, so a
//! serve reply is byte-for-byte the stdout of the matching one-shot
//! command. Both resolve every circuit into a [`Subject`] — a registry
//! name through [`Engine::resolve`], a `.bench` file through
//! [`Subject::parse_bench`] — whose methods are the one choice between
//! the combinational and the sequential renderers.
//! Shutdown ([`signal`]) is a drain: in-flight requests finish, new
//! ones get structured `err shutdown` replies, and the process exits 0.

pub mod engine;
pub mod protocol;
pub mod render;
pub mod server;
pub mod signal;

pub use engine::{Counters, Engine};
pub use protocol::{read_reply, ChaosCommand, ErrorReply, Reply, Request};
pub use render::{
    render_corpus, render_corpus_stream, render_gen, render_seq_gen, render_seq_stats,
    render_seq_worst, render_stats, render_worst, CorpusOutput, CorpusRequest, CorpusTail, Knobs,
    Subject,
};
pub use server::{Server, ServerConfig, ShutdownHandle};

// Unit tests of the engine's per-family keyed map, grouped by the policy
// they pin: exact-LRU residency (`hot`) and in-flight dedup
// (`singleflight`). The modules carry the names of the standalone LRU
// and flight table that the map replaced, so their tests keep theirs.
#[cfg(test)]
mod hot {
    mod tests {
        use crate::engine::Family;
        use crate::Counters;
        use ndetect_store::ArtifactKey;
        use std::convert::Infallible;
        use std::sync::Arc;

        /// Gets `key`, building it as its own value on a miss; returns
        /// whether the call was a hot hit.
        fn touch(family: &Family<u64, Infallible>, counters: &Counters, key: u64) -> bool {
            let builds = counters.universe_builds.get();
            let Ok(value) = family.get(ArtifactKey(key), counters, || {
                counters.universe_builds.inc();
                Ok(Arc::new(key))
            });
            assert_eq!(*value, key);
            counters.universe_builds.get() == builds
        }

        /// The keys the family holds, sorted.
        fn resident(family: &Family<u64, Infallible>) -> Vec<u64> {
            let mut keys: Vec<u64> = family.lock().keys().map(|k| k.0).collect();
            keys.sort_unstable();
            keys
        }

        #[test]
        fn evicts_least_recently_used() {
            let (family, counters) = (Family::new("test.flight", 2), Counters::default());
            assert!(!touch(&family, &counters, 1));
            assert!(!touch(&family, &counters, 2));
            assert!(touch(&family, &counters, 1)); // 1 is now hotter than 2
            assert!(!touch(&family, &counters, 3)); // evicts 2
            assert_eq!(resident(&family), [1, 3]);
            assert!(touch(&family, &counters, 1));
            assert!(touch(&family, &counters, 3));
            assert!(!touch(&family, &counters, 2)); // evicts 1
            assert_eq!(resident(&family), [2, 3]);
            assert_eq!(counters.hot_hits.get(), 3);
            assert_eq!(counters.hot_evictions.get(), 2);
        }

        #[test]
        fn zero_capacity_disables_caching() {
            let (family, counters) = (Family::new("test.flight", 0), Counters::default());
            for _ in 0..2 {
                assert!(!touch(&family, &counters, 1), "every call builds");
                assert!(resident(&family).is_empty());
            }
            assert_eq!(counters.hot_hits.get(), 0);
            assert_eq!(counters.hot_evictions.get(), 0);
        }

        #[test]
        fn heavy_churn_tracks_exact_lru_order_and_stays_compact() {
            // Cross-check the residents against a brute-force recency
            // model under mixed hits and builds: a hit refreshes recency,
            // and a build past capacity evicts the least recently used.
            // The map holds exactly the model's keys after every call, so
            // it never grows past capacity.
            let (family, counters) = (Family::new("test.flight", 8), Counters::default());
            let mut model: Vec<u64> = Vec::new(); // most recent last
            let mut state = 1u64;
            for round in 0..4000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let key = (state >> 33) % 12;
                let hit = touch(&family, &counters, key);
                assert_eq!(hit, model.contains(&key), "round {round}");
                model.retain(|&k| k != key);
                model.push(key);
                if model.len() > 8 {
                    model.remove(0);
                }
                let mut expected = model.clone();
                expected.sort_unstable();
                assert_eq!(resident(&family), expected, "round {round}");
            }
            let (hits, builds) = (counters.hot_hits.get(), counters.universe_builds.get());
            assert!(hits > 1000 && builds > 1000, "{hits} hits, {builds} builds");
            assert_eq!(counters.hot_evictions.get(), builds - 8);
        }
    }
}

#[cfg(test)]
mod singleflight {
    mod tests {
        use crate::engine::tests::{herd_on_a_panicking_leader, wait_until};
        use crate::engine::{Family, Slot};
        use crate::Counters;
        use ndetect_store::ArtifactKey;
        use std::convert::Infallible;
        use std::sync::{Arc, Barrier};
        use std::time::Duration;

        #[test]
        fn serial_calls_each_execute() {
            // With no resident kept, calls that do not overlap each build.
            let (family, counters) = (Family::new("test.flight", 0), Counters::default());
            for value in [10, 20] {
                let Ok(got) = family.get(ArtifactKey(1), &counters, || {
                    counters.universe_builds.inc();
                    Ok::<_, Infallible>(Arc::new(value))
                });
                assert_eq!(*got, value);
            }
            assert_eq!(counters.universe_builds.get(), 2);
            assert_eq!(counters.coalesced.get(), 0);
        }

        #[test]
        fn concurrent_identical_calls_build_exactly_once() {
            let (family, counters) = (Family::new("test.flight", 8), Counters::default());
            let barrier = Barrier::new(8);
            let results: Vec<u64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let Ok(value) = family.get(ArtifactKey(42), &counters, || {
                                counters.universe_builds.inc();
                                // Hold the flight open long enough that
                                // the herd piles onto it.
                                std::thread::sleep(Duration::from_millis(20));
                                Ok::<_, Infallible>(Arc::new(7))
                            });
                            *value
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(results.iter().all(|&r| r == 7));
            assert_eq!(counters.universe_builds.get(), 1, "single-flight");
            // However the herd interleaved, every other call joined the
            // flight or, arriving after it published, hit the resident.
            assert_eq!(counters.coalesced.get() + counters.hot_hits.get(), 7);
        }

        #[test]
        fn distinct_keys_build_independently() {
            let (family, counters) = (Family::new("test.flight", 8), Counters::default());
            let barrier = Barrier::new(4);
            std::thread::scope(|scope| {
                for k in 0..4u64 {
                    let (family, counters, barrier) = (&family, &counters, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let Ok(value) = family.get(ArtifactKey(k), counters, || {
                            counters.universe_builds.inc();
                            // Every key's build is running at once: none
                            // waits on another key's flight.
                            wait_until(|| counters.universe_builds.get() == 4);
                            assert_eq!(counters.universe_builds.get(), 4);
                            Ok::<_, Infallible>(Arc::new(k * 10))
                        });
                        assert_eq!(*value, k * 10);
                    });
                }
            });
            assert_eq!(counters.universe_builds.get(), 4);
            assert_eq!(counters.coalesced.get(), 0, "no call joined another key");
        }

        #[test]
        fn waiters_on_a_panicked_leader_rebuild_instead_of_panicking() {
            let family: Family<u64, Infallible> = Family::new("test.flight", 8);
            let counters = Counters::default();
            let results =
                herd_on_a_panicking_leader(&family, &counters, 4, |i| Ok(Arc::new(100 + i)));
            // Every waiter gets one rebuild's value; none sees the panic.
            let values: Vec<u64> = results.into_iter().map(|r| *r.unwrap()).collect();
            assert!((100..104).contains(&values[0]), "got {values:?}");
            assert!(values.iter().all(|&v| v == values[0]), "got {values:?}");
            assert_eq!(
                counters.flights_poisoned.get(),
                4,
                "each waiter counts once"
            );
            // No building slot is left behind: the rebuild is resident.
            let slots = family.lock();
            assert_eq!(slots.len(), 1);
            assert!(slots.values().all(|s| matches!(s, Slot::Resident { .. })));
        }
    }
}
