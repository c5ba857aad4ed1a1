//! Dynamic FIFO feature cache — the BGL-style policy the paper contrasts
//! with its static pre-sampling cache (§7: BGL "applies a FIFO dynamic
//! cache policy ... but hinders model convergence and incurs cache
//! replacement overheads").
//!
//! Legion's cache is *static*: filled once from pre-sampling hotness and
//! never mutated, so lookups are contention-free. A dynamic cache inserts
//! on every miss and evicts FIFO. This module implements the dynamic
//! policy so the ablation benches can measure both sides of the
//! trade-off: hit rate on a given access trace, and the number of
//! replacements (each of which costs device-memory writes at runtime).

use std::collections::{HashMap, VecDeque};

use legion_graph::VertexId;

/// Point-in-time statistics of a dynamic cache, returned by
/// [`FifoCache::stats`] and [`LruCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses served from the cache.
    pub hits: u64,
    /// Accesses that fell through to backing storage.
    pub misses: u64,
    /// Replacement operations — the runtime overhead a static cache
    /// avoids entirely.
    pub evictions: u64,
    /// Vertices currently resident.
    pub residents: usize,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 for no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A fixed-capacity FIFO cache over vertex ids.
///
/// # Examples
///
/// ```
/// use legion_cache::dynamic::FifoCache;
///
/// let mut c = FifoCache::new(2);
/// assert!(!c.access(1)); // miss, inserted
/// assert!(c.access(1));  // hit
/// assert!(!c.access(2)); // miss, inserted
/// assert!(!c.access(3)); // miss, evicts 1
/// assert!(!c.access(1)); // miss again
/// assert_eq!(c.stats().evictions, 2);
/// ```
#[derive(Debug, Clone)]
pub struct FifoCache {
    capacity: usize,
    queue: VecDeque<VertexId>,
    resident: HashMap<VertexId, ()>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl FifoCache {
    /// A cache holding at most `capacity` vertices.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            queue: VecDeque::with_capacity(capacity),
            resident: HashMap::with_capacity(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Accesses `v`: returns true on hit; on miss, inserts `v`, evicting
    /// the oldest entry when full. Zero-capacity caches always miss
    /// without inserting.
    pub fn access(&mut self, v: VertexId) -> bool {
        if self.resident.contains_key(&v) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.queue.len() >= self.capacity {
            if let Some(old) = self.queue.pop_front() {
                self.resident.remove(&old);
                self.evictions += 1;
            }
        }
        self.queue.push_back(v);
        self.resident.insert(v, ());
        false
    }

    /// All counters at once.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            residents: self.queue.len(),
        }
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_evicts_in_insertion_order() {
        let mut c = FifoCache::new(2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(!c.access(3)); // Evicts 1.
        assert!(c.access(2));
        assert!(c.access(3));
        assert!(!c.access(1)); // 1 was evicted; this evicts 2.
        assert!(!c.access(2));
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = FifoCache::new(0);
        for v in 0..10 {
            assert!(!c.access(v % 2));
        }
        assert_eq!(c.hit_rate(), 0.0);
        assert_eq!(c.stats().residents, 0);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = FifoCache::new(4);
        c.access(7);
        for _ in 0..9 {
            assert!(c.access(7));
        }
        assert!((c.hit_rate() - 0.9).abs() < 1e-12);
    }
}

/// A fixed-capacity LRU cache over vertex ids, implemented as a hash map
/// into an intrusive doubly-linked list of slots (O(1) access and evict).
///
/// Included alongside [`FifoCache`] so the ablation can compare the
/// paper's static pre-sampling cache against both classic dynamic
/// policies.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    map: HashMap<VertexId, usize>,
    /// Slot storage: `(vertex, prev, next)`; `usize::MAX` terminates.
    slots: Vec<(VertexId, usize, usize)>,
    head: usize,
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

const NIL: usize = usize::MAX;

impl LruCache {
    /// A cache holding at most `capacity` vertices.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (_, prev, next) = self.slots[slot];
        if prev != NIL {
            self.slots[prev].2 = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].1 = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].1 = NIL;
        self.slots[slot].2 = self.head;
        if self.head != NIL {
            self.slots[self.head].1 = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Accesses `v`: returns true on hit (and refreshes recency); on miss,
    /// inserts `v`, evicting the least-recently-used entry when full.
    pub fn access(&mut self, v: VertexId) -> bool {
        if let Some(&slot) = self.map.get(&v) {
            self.hits += 1;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push((v, NIL, NIL));
            self.slots.len() - 1
        } else {
            // Evict the tail.
            let victim = self.tail;
            let old = self.slots[victim].0;
            self.unlink(victim);
            self.map.remove(&old);
            self.evictions += 1;
            self.slots[victim].0 = v;
            victim
        };
        self.map.insert(v, slot);
        self.push_front(slot);
        false
    }

    /// All counters at once.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            residents: self.map.len(),
        }
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }
}

#[cfg(test)]
mod lru_tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // 1 is now most recent.
        assert!(!c.access(3)); // Evicts 2.
        assert!(c.access(1));
        assert!(c.access(3));
        assert!(!c.access(2));
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn lru_beats_fifo_on_looping_hot_set_with_scans() {
        // A hot set that fits plus a cold scan: LRU keeps the hot set,
        // FIFO churns it out.
        let mut trace = Vec::new();
        for round in 0..500u32 {
            for h in 0..8u32 {
                trace.push(h);
            }
            // One cold vertex per round.
            trace.push(1000 + round);
        }
        let mut lru = LruCache::new(9);
        let mut fifo = FifoCache::new(9);
        for &v in &trace {
            lru.access(v);
            fifo.access(v);
        }
        assert!(
            lru.hit_rate() > fifo.hit_rate(),
            "lru {} fifo {}",
            lru.hit_rate(),
            fifo.hit_rate()
        );
        assert!(lru.hit_rate() > 0.85);
    }

    #[test]
    fn lru_zero_capacity() {
        let mut c = LruCache::new(0);
        assert!(!c.access(5));
        assert!(!c.access(5));
        assert_eq!(c.stats().residents, 0);
    }

    #[test]
    fn lru_len_tracks_inserts() {
        let mut c = LruCache::new(3);
        for v in 0..10 {
            c.access(v);
        }
        assert_eq!(c.stats().residents, 3);
    }
}
