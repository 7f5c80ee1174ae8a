//! A bounded LRU cache with hit/miss accounting.
//!
//! The serving layer keeps one in front of the engine, for forward-stage
//! results and the answers they become. The implementation is a slab of
//! doubly-linked entries plus a `HashMap` from key to slab slot, so `get`
//! and `insert` are O(1) apart from hashing; no allocation happens on a
//! hit. An eviction reuses the least recently used
//! slot in place, dropping its key and payload there.
//!
//! Nothing is ever purged. The serving layer keys entries by epoch, so an
//! entry of a dead epoch simply stops being looked up: it drifts to the
//! tail and ages out at capacity like any other cold entry.

use std::collections::HashMap;
use std::hash::Hash;

/// Slab sentinel: "no slot".
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used cache.
///
/// `get` refreshes recency and counts a hit or a miss; `insert` evicts the
/// least recently used entry once `capacity` is reached.
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    /// Slot slab; an evicted slot is reused in place, so it has no holes.
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create a cache holding at most `capacity` (at least 1) entries.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Look up `key`, refreshing its recency. Returns a clone of the cached
    /// value so the lock guarding the cache can be released immediately.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.detach(i);
                self.push_front(i);
                Some(self.slots[i].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `key → value`, evicting the least recently used entry if the
    /// cache is full. Replaces (and refreshes) an existing entry in place.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.detach(i);
            self.push_front(i);
            return;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if self.map.len() == self.capacity {
            // Full: the least recently used entry's slot takes the new one,
            // and the old key and payload drop here.
            let lru = self.tail;
            self.detach(lru);
            let old = std::mem::replace(&mut self.slots[lru], slot);
            self.map.remove(&old.key);
            lru
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Unlink slot `i` from the recency list.
    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    /// Link slot `i` as the most recently used.
    fn push_front(&mut self, i: usize) {
        self.slots[i].next = self.head;
        self.slots[i].prev = NIL;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_value_and_counts() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        assert_eq!(c.get(&"a"), None);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(c.get(&"a"), Some(1));
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None, "b was evicted");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
    }

    #[test]
    fn reinsert_replaces_and_refreshes() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        c.insert("c", 3);
        // "b" was the LRU entry after "a" was refreshed by reinsertion.
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"c"), Some(3));
    }

    #[test]
    fn capacity_one_churns_correctly() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for i in 0..10 {
            c.insert(i, i * i);
            assert_eq!(c.get(&i), Some(i * i));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None);
            }
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn eviction_drops_the_payload_in_place() {
        use std::sync::Arc;
        let mut c: LruCache<u32, Arc<String>> = LruCache::new(1);
        let a = Arc::new("a".to_string());
        c.insert(0, Arc::clone(&a));
        c.insert(1, Arc::new("b".to_string()));
        assert_eq!(Arc::strong_count(&a), 1, "evicted payload was dropped");
    }

    #[test]
    fn eviction_order_is_exact_under_interleaving() {
        // Model check against a simple reference: repeated get/insert over a
        // small key space must match a naive recency-vector implementation.
        let mut c: LruCache<u8, u32> = LruCache::new(3);
        let mut reference: Vec<(u8, u32)> = Vec::new(); // front = MRU
        let mut x: u32 = 0x2545_F491;
        for step in 0..2000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = (x % 7) as u8;
            if x % 3 == 0 {
                c.insert(key, step);
                if let Some(p) = reference.iter().position(|(k, _)| *k == key) {
                    reference.remove(p);
                }
                reference.insert(0, (key, step));
                reference.truncate(3);
            } else {
                let got = c.get(&key);
                let expect = reference.iter().position(|(k, _)| *k == key);
                match (got, expect) {
                    (Some(v), Some(p)) => {
                        assert_eq!(v, reference[p].1);
                        let e = reference.remove(p);
                        reference.insert(0, e);
                    }
                    (None, None) => {}
                    (g, e) => panic!("divergence at step {step}: got {g:?}, expected {e:?}"),
                }
            }
            assert_eq!(c.len(), reference.len());
        }
    }
}
