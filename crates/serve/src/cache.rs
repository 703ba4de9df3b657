//! The cost-aware LRU result cache: whole-`Report` memoization with
//! byte-budgeted eviction.
//!
//! Seeded queries under count-only budgets are pure functions of
//! `(model fingerprint, canonical query, seed, caps)` — see
//! [`Budget::canonical_caps`](biocheck_engine::Budget::canonical_caps) —
//! so their reports can be handed back verbatim. This cache stores
//! values behind `Arc` keyed by that tuple (one pre-joined string),
//! charges each entry its approximate resident cost in bytes, and
//! evicts from the least-recently-used end until the configured byte
//! budget holds. A value whose cost alone exceeds the budget is simply
//! not admitted (counted in [`CacheStats::rejected`]); a budget of 0
//! degenerates to a correct no-op cache.
//!
//! The LRU list is intrusive over a slab (`prev`/`next` indices), so
//! `get`/`insert`/eviction are all O(1) outside the `HashMap` lookups.

pub mod persist;

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

const NONE: usize = usize::MAX;

/// Monotone counters describing the cache's lifetime behavior, plus a
/// snapshot of its current occupancy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Values admitted.
    pub inserts: usize,
    /// Entries evicted to make room (byte pressure) — replacing a key's
    /// value in place is an insert, not an eviction.
    pub evictions: usize,
    /// Values refused because their cost alone exceeds the byte budget.
    pub rejected: usize,
    /// Entries purged by [`ResultCache::purge_prefix`] (model
    /// re-registration).
    pub purged: usize,
    /// Current resident entries.
    pub entries: usize,
    /// Current resident cost in bytes.
    pub bytes: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups, 0.0 before any lookup. The
    /// operator-facing hit ratio in `stats`/`metrics` replies.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<V> {
    key: String,
    value: V,
    cost: usize,
    prev: usize,
    next: usize,
}

struct Inner<V> {
    map: HashMap<String, usize>,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    /// Most-recently-used slot index.
    head: usize,
    /// Least-recently-used slot index.
    tail: usize,
    bytes: usize,
    stats: CacheStats,
}

/// A byte-budgeted LRU cache from pre-joined key strings to cloneable
/// values (the serving layer stores `Arc<Report>`). All methods take
/// `&self`; the cache is internally locked and shared freely across
/// threads.
pub struct ResultCache<V> {
    capacity_bytes: usize,
    inner: Mutex<Inner<V>>,
}

impl<V: Clone> ResultCache<V> {
    /// Creates a cache that holds at most `capacity_bytes` of accounted
    /// cost. A capacity of 0 (or any capacity smaller than every entry)
    /// never stores anything and never errors.
    pub fn new(capacity_bytes: usize) -> ResultCache<V> {
        ResultCache {
            capacity_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                head: NONE,
                tail: NONE,
                bytes: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Looks up `key`, marking the entry most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        self.lookup(key, false)
    }

    /// Looks up `key` again for a request whose [`get`](Self::get)
    /// already missed, so each request counts once: a hit turns that
    /// miss into a hit, a miss counts nothing.
    pub fn recheck(&self, key: &str) -> Option<V> {
        self.lookup(key, true)
    }

    fn lookup(&self, key: &str, recheck: bool) -> Option<V> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.map.get(key).copied() {
            Some(idx) => {
                inner.stats.hits += 1;
                if recheck {
                    inner.stats.misses = inner.stats.misses.saturating_sub(1);
                }
                inner.unlink(idx);
                inner.push_front(idx);
                Some(inner.slot(idx).value.clone())
            }
            None => {
                inner.stats.misses += usize::from(!recheck);
                None
            }
        }
    }

    /// Admits `value` under `key` at the given accounted cost, evicting
    /// least-recently-used entries until the byte budget holds. Returns
    /// `false` when the value alone exceeds the budget (not stored —
    /// and if the key held an older value, that value is dropped too:
    /// the caller asked to replace it, so serving it again would be
    /// stale). Re-inserting an existing key replaces its value (no
    /// eviction is counted for the replacement itself).
    pub fn insert(&self, key: impl Into<String>, value: V, cost: usize) -> bool {
        let key = key.into();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if cost > self.capacity_bytes {
            if let Some(idx) = inner.map.get(&key).copied() {
                inner.evict(idx);
            }
            inner.stats.rejected += 1;
            return false;
        }
        if let Some(idx) = inner.map.get(&key).copied() {
            // Replace in place, then rebalance below.
            inner.bytes -= inner.slot(idx).cost;
            inner.bytes += cost;
            {
                let slot = inner.slots[idx].as_mut().expect("live slot"); // lint: infallible
                slot.value = value;
                slot.cost = cost;
            }
            inner.unlink(idx);
            inner.push_front(idx);
            inner.stats.inserts += 1;
        } else {
            while inner.bytes + cost > self.capacity_bytes {
                let victim = inner.tail;
                debug_assert_ne!(victim, NONE, "bytes > 0 implies a tail");
                inner.evict(victim);
                inner.stats.evictions += 1;
            }
            let idx = inner.alloc(Slot {
                key: key.clone(),
                value,
                cost,
                prev: NONE,
                next: NONE,
            });
            inner.map.insert(key, idx);
            inner.bytes += cost;
            inner.push_front(idx);
            inner.stats.inserts += 1;
        }
        // A replacement may have grown the entry past the budget; evict
        // from the LRU end (never the just-touched entry, which is at
        // the head and also the last possible victim).
        while inner.bytes > self.capacity_bytes {
            let victim = inner.tail;
            inner.evict(victim);
            inner.stats.evictions += 1;
        }
        true
    }

    /// Drops every entry whose key starts with `prefix` (all results of
    /// a re-registered model's old fingerprint). Returns the number of
    /// entries removed.
    pub fn purge_prefix(&self, prefix: &str) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let victims: Vec<usize> = inner
            .map
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &idx)| idx)
            .collect();
        let n = victims.len();
        for idx in victims {
            inner.evict(idx);
        }
        inner.stats.purged += n;
        n
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            ..inner.stats
        }
    }
}

impl<V> Inner<V> {
    fn slot(&self, idx: usize) -> &Slot<V> {
        self.slots[idx].as_ref().expect("live slot") // lint: infallible
    }

    fn alloc(&mut self, slot: Slot<V>) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(slot);
                idx
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    /// Detaches `idx` from the LRU list (it stays allocated).
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slot(idx);
            (s.prev, s.next)
        };
        match prev {
            NONE => self.head = next,
            p => self.slots[p].as_mut().expect("live slot").next = next, // lint: infallible
        }
        match next {
            NONE => self.tail = prev,
            n => self.slots[n].as_mut().expect("live slot").prev = prev, // lint: infallible
        }
    }

    /// Attaches `idx` at the most-recently-used end.
    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let slot = self.slots[idx].as_mut().expect("live slot"); // lint: infallible
            slot.prev = NONE;
            slot.next = old_head;
        }
        match old_head {
            NONE => self.tail = idx,
            h => self.slots[h].as_mut().expect("live slot").prev = idx, // lint: infallible
        }
        self.head = idx;
    }

    /// Removes `idx` entirely: out of the list, the map, and the byte
    /// account.
    fn evict(&mut self, idx: usize) {
        self.unlink(idx);
        let slot = self.slots[idx].take().expect("live slot"); // lint: infallible
        self.map.remove(&slot.key);
        self.bytes -= slot.cost;
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_in_lru_order<V: Clone>(cache: &ResultCache<V>) -> Vec<String> {
        let inner = cache.inner.lock().unwrap();
        let mut out = Vec::new();
        let mut idx = inner.head;
        while idx != NONE {
            let s = inner.slot(idx);
            out.push(s.key.clone());
            idx = s.next;
        }
        out
    }

    #[test]
    fn lru_order_and_eviction() {
        let cache = ResultCache::new(30);
        assert!(cache.insert("a", 1, 10));
        assert!(cache.insert("b", 2, 10));
        assert!(cache.insert("c", 3, 10));
        // Touch "a": it becomes MRU, so "b" is now the LRU victim.
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(keys_in_lru_order(&cache), ["a", "c", "b"]);
        assert!(cache.insert("d", 4, 10));
        assert_eq!(cache.get("b"), None, "b evicted under byte pressure");
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("c"), Some(3));
        assert_eq!(cache.get("d"), Some(4));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (3, 30, 1));
    }

    #[test]
    fn one_big_insert_evicts_many() {
        let cache = ResultCache::new(30);
        for (k, c) in [("a", 10), ("b", 10), ("c", 10)] {
            assert!(cache.insert(k, 0, c));
        }
        assert!(cache.insert("big", 9, 25));
        assert_eq!(cache.get("big"), Some(9));
        // a and b (oldest) evicted; c survives at 5 remaining bytes? No:
        // 25 + 10 > 30, so all three went.
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn replacement_updates_cost_without_counting_eviction() {
        let cache = ResultCache::new(20);
        assert!(cache.insert("k", 1, 5));
        assert!(cache.insert("k", 2, 9));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions, s.inserts), (1, 9, 0, 2));
        assert_eq!(cache.get("k"), Some(2));
    }

    #[test]
    fn purge_prefix_removes_only_matching() {
        let cache = ResultCache::new(100);
        cache.insert("m1|q1", 1, 5);
        cache.insert("m1|q2", 2, 5);
        cache.insert("m2|q1", 3, 5);
        assert_eq!(cache.purge_prefix("m1|"), 2);
        assert_eq!(cache.get("m1|q1"), None);
        assert_eq!(cache.get("m1|q2"), None);
        assert_eq!(cache.get("m2|q1"), Some(3));
        assert_eq!(cache.stats().purged, 2);
    }
}
