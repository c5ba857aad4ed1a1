//! The hotness metric and the cache placements only the baselines use:
//! in-degree ranking (PaGraph, Quiver), Quiver's per-clique hash and the
//! one-GPU caches of PaGraph and GNNLab. Every cache fills through
//! `legion_cache::fill`'s walk.

use legion_cache::fill::rows_in_budget;
use legion_cache::{book_cache, place_prefix, CliqueCache};
use legion_graph::{CsrGraph, FeatureTable, VertexId};
use legion_hw::{GpuId, HwError, MultiGpuServer};
use legion_partition::hash::hash_part_salted;

use crate::BuildContext;

/// In-degree of every vertex — PaGraph's and Quiver's original hotness
/// metric ("PaGraph and Quiver use the in-degree of vertexes as the
/// hotness metric", §7).
pub fn in_degree_hotness(graph: &CsrGraph) -> Vec<u64> {
    let t = graph.transpose();
    (0..graph.num_vertices() as VertexId)
        .map(|v| t.degree(v))
        .collect()
}

/// `gpu`'s own feature cache: the head of `order` that fits in `bytes`.
pub(crate) fn one_gpu_cache(
    ctx: &BuildContext<'_>,
    gpu: GpuId,
    order: &[VertexId],
    bytes: u64,
) -> Result<CliqueCache, HwError> {
    let features = &ctx.dataset.features;
    let mut cache = CliqueCache::new(vec![gpu], ctx.dataset.graph.num_vertices(), features.dim());
    place_prefix(&mut cache, None, order, bytes, |_| None);
    book_cache(ctx.server, &cache)?;
    Ok(cache)
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
    let slot = |v| hash_part_salted(v, kg, 2) as usize;
    let per_gpu_rows = rows_in_budget(features, per_gpu_bytes);
    let mut held = vec![0; kg];
    let mut kept = Vec::new();
    for &v in order {
        if kept.len() == kg * per_gpu_rows {
            break;
        }
        // A full share skips the vertex: hash distribution does not
        // rebalance, so every row kept fits on its hash slot.
        if held[slot(v)] < per_gpu_rows {
            held[slot(v)] += 1;
            kept.push(v);
        }
    }
    let mut cc = CliqueCache::new(clique_gpus.to_vec(), num_vertices, features.dim());
    place_prefix(&mut cc, None, &kept, per_gpu_bytes, |v| Some(slot(v)));
    book_cache(server, &cc)?;
    Ok(cc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::builder::from_edges;
    use legion_hw::ServerSpec;

    fn features(n: usize) -> FeatureTable {
        FeatureTable::from_flat((0..n * 2).map(|x| x as f32).collect(), 2)
    }

    #[test]
    fn in_degree_hotness_counts_incoming() {
        let g = from_edges(3, &[(0, 2), (1, 2), (2, 0)]);
        assert_eq!(in_degree_hotness(&g), vec![1, 0, 2]);
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
}
