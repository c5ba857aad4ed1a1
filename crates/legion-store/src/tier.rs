//! The cold side of the residency hierarchy: whether a feature row that
//! misses HBM is served from host DRAM or must come off the NVMe store.
//!
//! HBM residency lives only in the unified cache layouts
//! (`legion-cache`). A map with no SSD row is the degenerate two-tier
//! system exactly.

use legion_graph::VertexId;

/// Storage tier of one feature row below HBM, hotter first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Host DRAM — read over PCIe by the access engine.
    Dram,
    /// NVMe SSD — block reads through the [`NvmeModel`](crate::NvmeModel).
    Ssd,
}

/// Dense per-vertex tier assignment, private to
/// [`VertexStore`](crate::VertexStore).
#[derive(Debug, Clone)]
pub(crate) struct TierMap {
    tiers: Vec<Tier>,
    ssd_rows: usize,
}

impl TierMap {
    /// A map with every vertex in DRAM.
    pub(crate) fn new(num_vertices: usize) -> Self {
        Self {
            tiers: vec![Tier::Dram; num_vertices],
            ssd_rows: 0,
        }
    }

    /// The tier of `v`.
    #[inline]
    pub(crate) fn tier(&self, v: VertexId) -> Tier {
        self.tiers[v as usize]
    }

    /// Moves `v` to `tier`, returning its previous tier.
    pub(crate) fn set(&mut self, v: VertexId, tier: Tier) -> Tier {
        let old = std::mem::replace(&mut self.tiers[v as usize], tier);
        match (old, tier) {
            (Tier::Dram, Tier::Ssd) => self.ssd_rows += 1,
            (Tier::Ssd, Tier::Dram) => self.ssd_rows -= 1,
            _ => {}
        }
        old
    }

    /// True when no vertex lives on the SSD — the store is inert and
    /// the run must be byte-identical to a two-tier run.
    pub(crate) fn all_resident(&self) -> bool {
        self.ssd_rows == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_map_is_all_dram_and_resident() {
        let m = TierMap::new(100);
        assert!(m.all_resident());
        assert!((0..100).all(|v| m.tier(v) == Tier::Dram));
    }

    #[test]
    fn set_moves_counts() {
        let mut m = TierMap::new(10);
        assert_eq!(m.set(3, Tier::Ssd), Tier::Dram);
        assert!(!m.all_resident());
        // Idempotent set keeps counts consistent.
        assert_eq!(m.set(3, Tier::Ssd), Tier::Ssd);
        assert_eq!(m.set(3, Tier::Dram), Tier::Ssd);
        assert!(m.all_resident());
    }

    #[test]
    fn tier_order_is_hot_to_cold() {
        assert!(Tier::Dram < Tier::Ssd);
    }
}
