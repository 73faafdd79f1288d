//! The in-memory hot layer above `ndetect-store`: a small LRU of
//! deserialized artifacts (`Arc<FaultUniverse>`,
//! `Arc<WorstCaseAnalysis>`, `Arc<GeneratedSet>`) so repeated requests
//! skip not just the fault simulation but also the disk read and
//! decode.
//!
//! Entry count (not bytes) bounds the cache: universes for the suite
//! circuits are a few hundred KiB each, so a few dozen entries is the
//! expected working set of a hot serving loop, and the on-disk store
//! remains the capacity layer underneath.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

/// A capacity-bounded least-recently-used map. Values are cheap clones
/// (`Arc`s) shared with every borrower; eviction only drops the cache's
/// own reference, never invalidates a request mid-flight.
///
/// Eviction is a tick-stamped min-heap with lazy deletion: every use
/// pushes `(stamp, key)` and the map holds each key's live stamp, so
/// eviction pops stale heap entries (stamp no longer current) until it
/// finds the true LRU — amortized `O(log n)` per operation instead of
/// the previous `O(n)` min-scan. The heap is compacted once its stale
/// majority dominates, bounding memory at `O(live entries)`.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    /// Monotonic use counter; the entry with the smallest live stamp is
    /// the least recently used.
    tick: u64,
    map: HashMap<K, (u64, V)>,
    /// Min-heap of `(stamp, key)` use records; an entry is live iff the
    /// map still holds exactly that stamp for the key.
    heap: BinaryHeap<Reverse<(u64, K)>>,
}

impl<K: Eq + Hash + Clone + Ord, V: Clone> Lru<K, V> {
    /// Creates an LRU holding at most `capacity` entries (a capacity of
    /// zero disables the cache: every insert is dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            map: HashMap::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let value = self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            slot.1.clone()
        });
        if value.is_some() {
            self.heap.push(Reverse((tick, key.clone())));
            self.maybe_compact();
        }
        value
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry if the cache would exceed its capacity. Returns the evicted
    /// key, if any (callers count these as `hot_lru_evictions`).
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        self.heap.push(Reverse((self.tick, key.clone())));
        self.map.insert(key, (self.tick, value));
        let mut evicted = None;
        if self.map.len() > self.capacity {
            // Pop stale use records (the lazy deletions) until the top
            // of the heap is a key whose live stamp matches — that is
            // the least recently used entry.
            while let Some(Reverse((stamp, key))) = self.heap.pop() {
                if self.map.get(&key).is_some_and(|(live, _)| *live == stamp) {
                    self.map.remove(&key);
                    evicted = Some(key);
                    break;
                }
            }
        }
        self.maybe_compact();
        evicted
    }

    /// Rebuilds the heap from the live stamps once stale records are
    /// the large majority, keeping heap memory `O(live entries)`.
    fn maybe_compact(&mut self) {
        if self.heap.len() > 32 && self.heap.len() > 4 * self.map.len() {
            self.heap = self
                .map
                .iter()
                .map(|(k, (stamp, _))| Reverse((*stamp, k.clone())))
                .collect();
        }
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1), Some("a")); // 1 is now hotter than 2
        assert_eq!(lru.insert(3, "c"), Some(2)); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some("a"));
        assert_eq!(lru.get(&3), Some("c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_growing() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert(1, "a"), None);
        assert_eq!(lru.insert(1, "a2"), None);
        assert_eq!(lru.insert(2, "b"), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some("a2"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert(1, "a"), None);
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn heavy_churn_tracks_exact_lru_order_and_stays_compact() {
        // Cross-check the heap implementation against a brute-force
        // recency model under heavy mixed get/insert churn.
        let mut lru = Lru::new(8);
        let mut model: Vec<u32> = Vec::new(); // most recent last
        for round in 0u32..4000 {
            let key = (round * 7 + round / 3) % 32;
            if round % 3 == 0 {
                let hit = lru.get(&key).is_some();
                assert_eq!(hit, model.contains(&key), "round {round} key {key}");
                if hit {
                    model.retain(|&k| k != key);
                    model.push(key);
                }
            } else {
                let evicted = lru.insert(key, key);
                model.retain(|&k| k != key);
                model.push(key);
                if model.len() > 8 {
                    let lru_key = model.remove(0);
                    assert_eq!(evicted, Some(lru_key), "round {round}");
                } else {
                    assert_eq!(evicted, None, "round {round}");
                }
            }
        }
        assert_eq!(lru.len(), model.len());
        // Lazy deletion must not accumulate unboundedly.
        assert!(
            lru.heap.len() <= 4 * 8 + 32,
            "heap grew to {}",
            lru.heap.len()
        );
    }
}
