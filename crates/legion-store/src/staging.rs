//! Bounded DRAM staging window for SSD-resident rows.
//!
//! Every SSD read — cold or prefetched — lands a row here before the
//! extractor can touch it. The window is bounded (it is the DRAM the
//! oversubscribed run *does* have), evicts FIFO, and deduplicates
//! in-flight requests: staging an already-staged or already-requested
//! vertex is a no-op, which is what keeps the lookahead prefetcher from
//! re-reading a hot SSD row once per queued request.
//!
//! The state is dense and time-ordered. A ring holds `(vertex,
//! ready_ns)` in stage order and a vertex-indexed table holds each
//! staged row's ready time, so membership is one array load. Callers
//! stage with non-decreasing ready times (the store's device commands
//! complete in submission order), and eviction and removal both preserve ring
//! order, so the ring is sorted by ready time and the rows still in
//! flight at any instant are a suffix of it.
//!
//! Time is tracked as integer nanoseconds so residency decisions are
//! exact and reproducible.

use std::collections::VecDeque;

use legion_graph::VertexId;

/// Result of staging one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Staged {
    /// Newly staged; carries the row evicted to make room, if any.
    Admitted {
        /// FIFO victim displaced by this admission.
        evicted: Option<VertexId>,
    },
    /// The row is already staged or in flight — the dedup path.
    Duplicate,
    /// The buffer has zero capacity; nothing was staged.
    Rejected,
}

/// Bounded FIFO staging window with in-flight dedup.
#[derive(Debug, Clone)]
pub(crate) struct StagingBuffer {
    capacity: usize,
    /// Staged rows, oldest first; ready times never decrease along it.
    ring: VecDeque<(VertexId, u64)>,
    /// Per vertex: `ready_ns + 1` while staged, `0` otherwise (zeroed
    /// pages of a large table cost nothing until a row is staged).
    ready_plus_one: Vec<u64>,
}

impl StagingBuffer {
    /// A window holding at most `capacity` rows (staged + in flight) of
    /// vertices `0..num_vertices`.
    pub(crate) fn new(num_vertices: usize, capacity: usize) -> Self {
        Self {
            capacity,
            ring: VecDeque::new(),
            ready_plus_one: vec![0; num_vertices],
        }
    }

    /// Maximum rows the window holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently staged or in flight.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when `v` is staged or in flight.
    #[inline]
    pub(crate) fn contains(&self, v: VertexId) -> bool {
        self.ready_plus_one[v as usize] != 0
    }

    /// When `v`'s read completes (nanoseconds), if staged.
    #[inline]
    pub(crate) fn ready_at_ns(&self, v: VertexId) -> Option<u64> {
        self.ready_plus_one[v as usize].checked_sub(1)
    }

    /// Stages `v` with its read completing at `ready_at_ns`, evicting
    /// the oldest row if the window is full. Duplicate stages keep the
    /// original completion time — the first request wins.
    ///
    /// # Panics
    ///
    /// Panics if `ready_at_ns` is earlier than the newest staged row's
    /// ready time: [`inflight`](Self::inflight) relies on ring order
    /// being ready-time order.
    pub(crate) fn stage(&mut self, v: VertexId, ready_at_ns: u64) -> Staged {
        if self.capacity == 0 {
            return Staged::Rejected;
        }
        if self.contains(v) {
            return Staged::Duplicate;
        }
        assert!(
            self.ring
                .back()
                .is_none_or(|&(_, last)| last <= ready_at_ns),
            "rows must be staged in ready-time order"
        );
        let evicted = if self.ring.len() == self.capacity {
            let (victim, _) = self.ring.pop_front().expect("full window has a front");
            self.ready_plus_one[victim as usize] = 0;
            Some(victim)
        } else {
            None
        };
        self.ring.push_back((v, ready_at_ns));
        self.ready_plus_one[v as usize] = ready_at_ns + 1;
        Staged::Admitted { evicted }
    }

    /// Drops `v` from the window (e.g. when a migration promotes it to
    /// permanent DRAM residency); returns whether it was staged. An
    /// order-preserving sweep of the ring: it runs per promoted row at
    /// re-plan commits, not per batch.
    pub(crate) fn remove(&mut self, v: VertexId) -> bool {
        if !self.contains(v) {
            return false;
        }
        self.ready_plus_one[v as usize] = 0;
        self.ring.retain(|&(x, _)| x != v);
        true
    }

    /// Rows whose read has not completed by `now_ns`: the ring's suffix
    /// past the last row ready by then.
    pub(crate) fn inflight(&self, now_ns: u64) -> usize {
        self.ring.len() - self.ring.partition_point(|&(_, ready)| ready <= now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stage_admits_and_dedups() {
        let mut s = StagingBuffer::new(8, 2);
        assert_eq!(s.stage(1, 100), Staged::Admitted { evicted: None });
        assert_eq!(s.stage(1, 200), Staged::Duplicate);
        // First request's completion time wins.
        assert_eq!(s.ready_at_ns(1), Some(100));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_buffer_evicts_fifo() {
        let mut s = StagingBuffer::new(8, 2);
        s.stage(1, 10);
        s.stage(2, 20);
        assert_eq!(s.stage(3, 30), Staged::Admitted { evicted: Some(1) });
        assert!(!s.contains(1));
        assert!(s.contains(2) && s.contains(3));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_capacity_rejects() {
        let mut s = StagingBuffer::new(8, 0);
        assert_eq!(s.stage(1, 10), Staged::Rejected);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn inflight_counts_unfinished_reads() {
        let mut s = StagingBuffer::new(8, 4);
        s.stage(1, 100);
        s.stage(2, 300);
        s.stage(3, 300);
        assert_eq!(s.inflight(0), 3);
        assert_eq!(s.inflight(100), 2);
        assert_eq!(s.inflight(300), 0);
    }

    #[test]
    fn remove_frees_a_slot() {
        let mut s = StagingBuffer::new(8, 2);
        s.stage(1, 10);
        s.stage(2, 20);
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert_eq!(s.stage(3, 30), Staged::Admitted { evicted: None });
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ready-time order")]
    fn staging_backwards_in_time_is_refused() {
        let mut s = StagingBuffer::new(8, 4);
        s.stage(1, 100);
        s.stage(2, 99);
    }

    /// The window as a plain list in stage order, every query a scan.
    struct NaiveWindow {
        capacity: usize,
        rows: Vec<(VertexId, u64)>,
    }

    impl NaiveWindow {
        fn ready_at_ns(&self, v: VertexId) -> Option<u64> {
            self.rows.iter().find(|r| r.0 == v).map(|r| r.1)
        }

        fn stage(&mut self, v: VertexId, ready: u64) -> Staged {
            if self.capacity == 0 {
                return Staged::Rejected;
            }
            if self.ready_at_ns(v).is_some() {
                return Staged::Duplicate;
            }
            let evicted = (self.rows.len() == self.capacity).then(|| self.rows.remove(0).0);
            self.rows.push((v, ready));
            Staged::Admitted { evicted }
        }

        fn remove(&mut self, v: VertexId) -> bool {
            let before = self.rows.len();
            self.rows.retain(|r| r.0 != v);
            self.rows.len() < before
        }

        fn inflight(&self, now: u64) -> usize {
            self.rows.iter().filter(|r| r.1 > now).count()
        }
    }

    proptest! {
        /// Random stage / remove / query sequences, stage times
        /// non-decreasing (often equal), query times arbitrary.
        #[test]
        fn window_matches_the_naive_list(
            capacity in 0usize..7,
            ops in proptest::collection::vec((0u8..4, 0u32..12, 0u64..40), 0..120),
        ) {
            const N: usize = 12;
            let mut window = StagingBuffer::new(N, capacity);
            let mut naive = NaiveWindow { capacity, rows: Vec::new() };
            let mut clock = 0u64;
            for (op, v, t) in ops {
                match op {
                    0 | 1 => {
                        clock += t / 8;
                        prop_assert_eq!(window.stage(v, clock), naive.stage(v, clock));
                    }
                    2 => prop_assert_eq!(window.remove(v), naive.remove(v)),
                    _ => {}
                }
                let now = t * clock / 32;
                prop_assert_eq!(window.inflight(now), naive.inflight(now));
                prop_assert_eq!(window.len(), naive.rows.len());
                for x in 0..N as VertexId {
                    prop_assert_eq!(window.ready_at_ns(x), naive.ready_at_ns(x));
                    prop_assert_eq!(window.contains(x), naive.ready_at_ns(x).is_some());
                }
            }
        }
    }
}
