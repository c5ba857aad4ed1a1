//! The landing ring: the HBM buffer a serving GPU's batch rows land in,
//! kept as a ring of the last rows that crossed the server's host link.
//!
//! The buffer is sized for one full batch in which every row misses
//! ([`KHopSampler::max_rows`](crate::KHopSampler::max_rows) of
//! `max_batch` seeds), so a batch never needs more. A miss the ring
//! still holds is copied to the ring's head inside HBM instead of
//! crossing PCIe again (DESIGN.md §5a). Every miss is written at the
//! head, landed or copied, so the ring always holds the last `capacity`
//! rows written.

use legion_graph::VertexId;
use legion_telemetry::Counter;

use crate::step::LowerTier;

/// [`LandingRing`]'s slot index of a row never written.
const NEVER: u32 = u32::MAX;

/// A ring of `capacity` feature-row slots in one GPU's HBM, as a
/// [`LowerTier`] whose claimed rows cross no PCIe link. Place it after
/// any tier whose rows come from another server, so only rows of this
/// server's host link enter it, and before the host tiers.
pub struct LandingRing {
    /// `slots[i]`: the row last written to slot `i`.
    slots: Vec<VertexId>,
    /// `slot_of[v]`: the slot `v` was last written to, or [`NEVER`].
    slot_of: Vec<u32>,
    /// The slot the next write goes to.
    head: usize,
    /// Rows reused since the last [`LowerTier::charge`].
    pending: u64,
    reused: Counter,
}

impl LandingRing {
    /// An empty ring of `capacity` rows over vertices
    /// `0..num_vertices`, adding each batch's reused rows to `reused`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` slot index.
    pub fn new(capacity: usize, num_vertices: usize, reused: Counter) -> Self {
        assert!(capacity > 0, "a landing ring needs at least one slot");
        assert!(capacity < NEVER as usize, "landing ring too large");
        Self {
            slots: vec![0; capacity],
            slot_of: vec![NEVER; num_vertices],
            head: 0,
            pending: 0,
            reused,
        }
    }

    /// Whether `v` is one of the last `capacity` rows written: its
    /// newest slot has not been written since.
    pub fn holds(&self, v: VertexId) -> bool {
        let slot = self.slot_of[v as usize];
        slot != NEVER && self.slots[slot as usize] == v
    }
}

impl LowerTier for LandingRing {
    /// Offered an HBM miss no earlier tier took. Either way the row is
    /// written at the head: a row the ring holds is copied there inside
    /// HBM and claimed; any other lands there from the host link and
    /// goes on to the next tier.
    fn claim(&mut self, v: VertexId) -> bool {
        let held = self.holds(v);
        self.slots[self.head] = v;
        self.slot_of[v as usize] = self.head as u32;
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        self.pending += u64::from(held);
        held
    }

    /// Books the batch's reused rows; a copy inside HBM stalls nothing.
    fn charge(&mut self, _at: f64) -> f64 {
        self.reused.add(std::mem::take(&mut self.pending));
        0.0
    }

    fn in_hbm(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessEngine, BatchTotals, CacheLayout, TopologyPlacement};
    use legion_cache::CliqueCache;
    use legion_graph::builder::from_edges;
    use legion_graph::FeatureTable;
    use legion_hw::ServerSpec;
    use legion_telemetry::Registry;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const VERTICES: usize = 64;

    fn ring(capacity: usize) -> (LandingRing, Counter) {
        let reused = Registry::new().counter("reused");
        (LandingRing::new(capacity, VERTICES, reused.clone()), reused)
    }

    /// Extracts each of `batches` on GPU 0 through an empty clique
    /// directory, offering every miss to `ring`; per batch, the rows the
    /// ring claimed, the rows it passed on to the next tier and the PCIe
    /// feature transactions charged.
    fn extract(
        ring: &mut LandingRing,
        batches: &[Vec<VertexId>],
    ) -> Vec<(Vec<VertexId>, Vec<VertexId>, u64)> {
        let g = from_edges(VERTICES, &[(0, 1)]);
        let f = FeatureTable::zeros(VERTICES, 16);
        let layout = CacheLayout::from_cliques(1, vec![CliqueCache::new(vec![0], VERTICES, 16)]);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let mut totals = BatchTotals::new(1);
        batches
            .iter()
            .map(|rows| {
                let (mut claimed, mut below) = (Vec::new(), Vec::new());
                let on_miss = |v| {
                    let held = ring.claim(v);
                    if held {
                        claimed.push(v);
                    } else {
                        below.push(v);
                    }
                    !held
                };
                let (tx, _) = engine.extract_metered(0, rows, &mut totals, on_miss);
                ring.charge(0.0);
                (claimed, below, tx)
            })
            .collect()
    }

    /// PCIe feature transactions of one 16-float row.
    fn row_tx() -> u64 {
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        server.pcie().transactions_for_payload(64)
    }

    #[test]
    fn a_row_landed_last_batch_is_reused_without_pcie_or_a_tier() {
        let (mut r, reused) = ring(8);
        let out = extract(&mut r, &[vec![1, 2, 3], vec![2, 9]]);
        assert_eq!(out[0], (vec![], vec![1, 2, 3], 3 * row_tx()));
        assert_eq!(out[1], (vec![2], vec![9], row_tx()));
        assert_eq!(reused.get(), 1);
    }

    #[test]
    fn a_row_pushed_out_by_capacity_later_landings_crosses_again() {
        let (mut r, reused) = ring(4);
        // 1 lands, then four landings write every slot once more.
        let out = extract(&mut r, &[vec![1], vec![2, 3, 4], vec![5], vec![1]]);
        assert_eq!(out[3], (vec![], vec![1], row_tx()));
        assert_eq!(reused.get(), 0);
        // Three landings after it, 1 is still held.
        let out = extract(&mut r, &[vec![6, 7, 8], vec![1]]);
        assert_eq!(out[1], (vec![1], vec![], 0));
    }

    #[test]
    fn a_reused_row_moves_to_the_head() {
        let (mut r, reused) = ring(4);
        // 1 lands, three land after it, 1 is reused: copied to the head,
        // it outlives the three landings that next fill the ring.
        let out = extract(&mut r, &[vec![1, 2, 3, 4], vec![1], vec![5, 6, 7], vec![1]]);
        assert_eq!(out[1].0, vec![1]);
        assert_eq!(out[3], (vec![1], vec![], 0));
        assert_eq!(reused.get(), 2);
    }

    /// The ring as a queue of the last `capacity` rows written, newest
    /// first: the definition [`LandingRing`] implements in O(1).
    struct Naive {
        rows: VecDeque<VertexId>,
        capacity: usize,
    }

    impl Naive {
        fn batch(&mut self, rows: &[VertexId]) -> (Vec<VertexId>, u64) {
            let mut reused = Vec::new();
            for &v in rows {
                if self.rows.contains(&v) {
                    reused.push(v);
                }
                self.rows.push_front(v);
                self.rows.truncate(self.capacity);
            }
            let crossed = (rows.len() - reused.len()) as u64;
            (reused, crossed * row_tx())
        }
    }

    const CAPACITY: usize = 8;

    /// Batches of 0, 1, capacity and capacity + 1 rows over a few
    /// vertices, so rows repeat within and across batches.
    fn batches() -> impl Strategy<Value = Vec<Vec<VertexId>>> {
        let len = prop_oneof![Just(0), Just(1), Just(CAPACITY), Just(CAPACITY + 1)];
        let batch = len.prop_flat_map(|n| vec(0..(2 * CAPACITY) as u32, n));
        vec(batch, 1..12)
    }

    proptest! {
        #[test]
        fn ring_matches_a_naive_queue_of_the_last_rows(batches in batches()) {
            let (mut r, _) = ring(CAPACITY);
            let mut naive = Naive { rows: VecDeque::new(), capacity: CAPACITY };
            for ((claimed, _, tx), rows) in extract(&mut r, &batches).into_iter().zip(&batches) {
                prop_assert_eq!((claimed, tx), naive.batch(rows));
            }
        }
    }
}
