//! The feature extractor operator (§5, operator 3).
//!
//! Gathers the feature rows of every vertex in a sampled mini-batch into a
//! dense matrix, charging each row's transfer through the access engine
//! (local hit / NVLink peer / CPU PCIe).

use legion_graph::{FeatureTable, VertexId};
use legion_hw::GpuId;

use crate::access::{AccessEngine, BatchTotals};

/// Gathers features for `vertices` on behalf of `gpu`.
///
/// Returns the dense `(len, D)` matrix in `vertices` order. Traffic is
/// booked per row on the engine's server. Convenience form of
/// [`AccessEngine::read_features_batch`] for callers that want an owned
/// table per call rather than a reused buffer.
pub fn extract_features(
    engine: &AccessEngine<'_>,
    gpu: GpuId,
    vertices: &[VertexId],
) -> FeatureTable {
    let mut rows = Vec::new();
    let mut totals = BatchTotals::new(engine.num_gpus());
    engine.read_features_batch(gpu, vertices, &mut rows, &mut totals);
    FeatureTable::from_flat(rows, engine.feature_dim())
}

/// Feature-cache hit statistics of one GPU's extractions, as the epoch
/// report carries them (built from the `cache.gpu{g}.feature_*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitStats {
    /// Reads served from the clique cache (local or NVLink peer).
    pub hits: u64,
    /// Reads that would fall through to CPU memory.
    pub misses: u64,
}

impl HitStats {
    /// Hit rate in `[0, 1]`; 0 for no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another batch's stats.
    pub fn merge(&mut self, other: HitStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{CacheLayout, TopologyPlacement};
    use legion_graph::{FeatureTable, GraphBuilder};
    use legion_hw::ServerSpec;

    #[test]
    fn extract_gathers_in_order() {
        let g = GraphBuilder::new(4).build();
        let f = FeatureTable::from_flat((0..8).map(|x| x as f32).collect(), 2);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let out = extract_features(&engine, 0, &[3, 0]);
        assert_eq!(out.to_vec(), [6.0, 7.0, 0.0, 1.0]);
        // Two uncached rows of 8 bytes: 1 transaction each.
        assert_eq!(server.telemetry().snapshot().counter_sum("pcm."), 2);
    }

    #[test]
    fn empty_gather() {
        let g = GraphBuilder::new(1).build();
        let f = FeatureTable::zeros(1, 3);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let out = extract_features(&engine, 0, &[]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HitStats { hits: 1, misses: 3 };
        a.merge(HitStats { hits: 2, misses: 0 });
        assert_eq!(a, HitStats { hits: 3, misses: 3 });
    }
}
