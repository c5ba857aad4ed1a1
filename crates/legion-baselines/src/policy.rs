//! Shared cache-construction helpers for the baseline policies.

use legion_cache::CliqueCache;
use legion_graph::{CsrGraph, FeatureTable, VertexId};
use legion_hw::{GpuId, HwError, MultiGpuServer};
use legion_partition::hash::hash_part_salted;

/// In-degree of every vertex — PaGraph's and Quiver's original hotness
/// metric ("PaGraph and Quiver use the in-degree of vertexes as the
/// hotness metric", §7).
pub fn in_degree_hotness(graph: &CsrGraph) -> Vec<u64> {
    let t = graph.transpose();
    (0..graph.num_vertices() as VertexId)
        .map(|v| t.degree(v))
        .collect()
}

/// Number of feature rows fitting in `bytes`.
pub fn rows_in_budget(features: &FeatureTable, bytes: u64) -> usize {
    let row = features.row_bytes();
    bytes.checked_div(row).unwrap_or(0) as usize
}

/// Builds one single-GPU feature cache holding the first `budget_bytes`
/// worth of `order`, allocating on the server.
pub fn build_feature_cache_single(
    features: &FeatureTable,
    num_vertices: usize,
    server: &MultiGpuServer,
    gpu: GpuId,
    order: &[VertexId],
    budget_bytes: u64,
) -> Result<CliqueCache, HwError> {
    let rows = rows_in_budget(features, budget_bytes).min(order.len());
    server.alloc(gpu, rows as u64 * features.row_bytes())?;
    let mut cc = CliqueCache::new(vec![gpu], num_vertices, features.dim());
    for &v in &order[..rows] {
        cc.insert_feature(0, v);
    }
    Ok(cc)
}

/// Replicates the same top-of-`order` cache on every listed GPU
/// (GNNLab's multi-GPU cache, §3.1). Returns one single-GPU clique per
/// GPU — replicas never serve peers.
pub fn build_feature_caches_replicated(
    features: &FeatureTable,
    num_vertices: usize,
    server: &MultiGpuServer,
    gpus: &[GpuId],
    order: &[VertexId],
    per_gpu_bytes: u64,
) -> Result<Vec<CliqueCache>, HwError> {
    gpus.iter()
        .map(|&g| {
            build_feature_cache_single(features, num_vertices, server, g, order, per_gpu_bytes)
        })
        .collect()
}

/// Builds one NVLink-clique cache where the top `K_g * capacity` vertices
/// of `order` are hash-distributed across the clique's GPUs (Quiver's
/// intra-clique mechanism: "averagely hashes the features among GPUs in
/// the same NVLink clique", §3.1).
pub fn build_feature_cache_hashed(
    features: &FeatureTable,
    num_vertices: usize,
    server: &MultiGpuServer,
    clique_gpus: &[GpuId],
    order: &[VertexId],
    per_gpu_bytes: u64,
) -> Result<CliqueCache, HwError> {
    let kg = clique_gpus.len();
    let per_gpu_rows = rows_in_budget(features, per_gpu_bytes);
    let mut cc = CliqueCache::new(clique_gpus.to_vec(), num_vertices, features.dim());
    let mut filled = vec![0usize; kg];
    for &v in order {
        if filled.iter().all(|&f| f >= per_gpu_rows) {
            break;
        }
        let slot = hash_part_salted(v, kg, 2) as usize;
        if filled[slot] >= per_gpu_rows {
            // This GPU's share is full; the vertex is skipped (hash
            // distribution does not rebalance).
            continue;
        }
        cc.insert_feature(slot, v);
        filled[slot] += 1;
    }
    for (slot, &g) in clique_gpus.iter().enumerate() {
        server.alloc(g, filled[slot] as u64 * features.row_bytes())?;
    }
    Ok(cc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::GraphBuilder;
    use legion_hw::ServerSpec;

    fn features(n: usize) -> FeatureTable {
        FeatureTable::from_flat((0..n * 2).map(|x| x as f32).collect(), 2)
    }

    #[test]
    fn in_degree_hotness_counts_incoming() {
        let g = GraphBuilder::new(3)
            .edge(0, 2)
            .edge(1, 2)
            .edge(2, 0)
            .build();
        assert_eq!(in_degree_hotness(&g), vec![1, 0, 2]);
    }

    #[test]
    fn single_cache_respects_budget() {
        let f = features(10);
        let server = ServerSpec::custom(1, 1 << 20, 1).build();
        let order: Vec<VertexId> = (0..10).collect();
        // 3 rows of 8 bytes fit in 25 bytes.
        let cc = build_feature_cache_single(&f, 10, &server, 0, &order, 25).unwrap();
        assert_eq!(cc.cache(0).feature_entries(), 3);
        assert!(cc.has_feature(0) && cc.has_feature(2));
        assert!(!cc.has_feature(3));
        assert_eq!(server.allocated_bytes(0), 24);
    }

    #[test]
    fn replicated_caches_have_identical_contents() {
        let f = features(8);
        let server = ServerSpec::custom(4, 1 << 20, 1).build();
        let order: Vec<VertexId> = vec![7, 6, 5, 4, 3, 2, 1, 0];
        let caches =
            build_feature_caches_replicated(&f, 8, &server, &[0, 1, 2, 3], &order, 16).unwrap();
        assert_eq!(caches.len(), 4);
        for cc in &caches {
            assert!(cc.has_feature(7) && cc.has_feature(6));
            assert!(!cc.has_feature(5));
        }
    }

    #[test]
    fn hashed_cache_distributes_without_duplication() {
        let f = features(100);
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let order: Vec<VertexId> = (0..100).collect();
        let cc = build_feature_cache_hashed(&f, 100, &server, &[0, 1], &order, 10 * 8).unwrap();
        let total = cc.cache(0).feature_entries() + cc.cache(1).feature_entries();
        assert!(total <= 20);
        assert!(total >= 15, "hash split should fill most slots: {total}");
        // No vertex cached twice.
        let mut seen = 0;
        for v in 0..100u32 {
            if cc.has_feature(v) {
                seen += 1;
            }
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn oom_propagates() {
        let f = features(10);
        let server = ServerSpec::custom(1, 4, 1).build();
        let order: Vec<VertexId> = (0..10).collect();
        let err = build_feature_cache_single(&f, 10, &server, 0, &order, 80);
        assert!(matches!(err, Err(HwError::OutOfMemory { .. })));
    }

    #[test]
    fn zero_budget_zero_rows() {
        let f = features(4);
        assert_eq!(rows_in_budget(&f, 0), 0);
        assert_eq!(rows_in_budget(&f, 7), 0);
        assert_eq!(rows_in_budget(&f, 8), 1);
    }
}
