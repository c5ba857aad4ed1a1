//! Cache initialization and fill-up (§4.2.2 S3).
//!
//! "Guided by this mechanism, Legion allocates memory for both the
//! topology and feature cache (TC and FC) of each GPU, and fetches the
//! corresponding topology and feature data from CPU memory to fill up each
//! GPU cache according to the corresponding cache orders in `G_T` and
//! `G_F`."
//!
//! The fill books each row's Equation 3 / Equation 6 bytes and allocates
//! them on the [`MultiGpuServer`]'s simulated device memory, so an
//! over-committed plan fails with the same out-of-memory error a CUDA
//! allocation would raise. It copies no row: the cache records residency
//! and the base CSR and feature table stay the only copy of the data.
//!
//! Every cache design fills its feature rows through
//! [`fill_feature_slot`]: Legion's unified cache ([`build_clique_cache`]),
//! the single-GPU and replicated caches of PaGraph and GNNLab
//! ([`build_feature_cache_single`], [`build_feature_caches_replicated`]),
//! Quiver's per-clique hash and the serving layouts. Topology rows go
//! through [`fill_topology_slot`]: the unified cache's and serving's
//! routed static layout.

use legion_graph::{topology_bytes_for_degree, CsrGraph, FeatureTable, VertexId};
use legion_hw::{GpuId, HwError, MultiGpuServer};

use crate::cslp::CslpOutput;
use crate::planner::CachePlan;
use crate::unified::CliqueCache;

/// Books `rows`' feature bytes on the GPU behind `slot`, then records
/// the rows resident in that slot.
///
/// # Errors
///
/// Returns [`HwError::OutOfMemory`] if the GPU cannot hold the rows; the
/// cache is left unchanged then.
pub fn fill_feature_slot(
    server: &MultiGpuServer,
    cache: &mut CliqueCache,
    slot: usize,
    rows: &[VertexId],
) -> Result<(), HwError> {
    server.alloc(
        cache.gpus()[slot],
        rows.len() as u64 * cache.feature_row_bytes(),
    )?;
    for &v in rows {
        cache.insert_feature(slot, v);
    }
    Ok(())
}

/// Books `rows`' topology bytes (Equation 3, from each row's degree in
/// `graph`) on the GPU behind `slot`, then records the rows resident in
/// that slot. Returns the bytes booked.
///
/// # Errors
///
/// Returns [`HwError::OutOfMemory`] if the GPU cannot hold the rows; the
/// cache is left unchanged then.
pub fn fill_topology_slot(
    server: &MultiGpuServer,
    graph: &CsrGraph,
    cache: &mut CliqueCache,
    slot: usize,
    rows: &[VertexId],
) -> Result<u64, HwError> {
    let bytes = rows
        .iter()
        .map(|&v| topology_bytes_for_degree(graph.degree(v)))
        .sum();
    server.alloc(cache.gpus()[slot], bytes)?;
    for &v in rows {
        cache.insert_topology(slot, v, graph.degree(v));
    }
    Ok(bytes)
}

/// Number of feature rows fitting in `bytes`.
pub fn rows_in_budget(features: &FeatureTable, bytes: u64) -> usize {
    bytes.checked_div(features.row_bytes()).unwrap_or(0) as usize
}

/// Builds one single-GPU feature cache holding the first `budget_bytes`
/// worth of `order`, allocating on the server.
///
/// # Errors
///
/// Returns [`HwError::OutOfMemory`] if the GPU cannot hold the rows.
pub fn build_feature_cache_single(
    features: &FeatureTable,
    num_vertices: usize,
    server: &MultiGpuServer,
    gpu: GpuId,
    order: &[VertexId],
    budget_bytes: u64,
) -> Result<CliqueCache, HwError> {
    let rows = rows_in_budget(features, budget_bytes).min(order.len());
    let mut cache = CliqueCache::new(vec![gpu], num_vertices, features.dim());
    fill_feature_slot(server, &mut cache, 0, &order[..rows])?;
    Ok(cache)
}

/// Replicates the same top-of-`order` cache on every listed GPU
/// (GNNLab's multi-GPU cache, §3.1). Returns one single-GPU clique per
/// GPU — replicas never serve peers.
///
/// # Errors
///
/// Returns [`HwError::OutOfMemory`] at the first GPU that cannot hold
/// its replica.
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

/// Builds and fills the unified cache of one NVLink clique.
///
/// Per-GPU budgets are the clique plan divided evenly among the clique's
/// GPUs (the tablets are hash-balanced, so even shares match the paper's
/// "randomly sliced and averagely allocated" wording). Each GPU consumes
/// its own CSLP queue (`G_T[gpu]`, `G_F[gpu]`) in priority order until its
/// budget share is exhausted.
///
/// # Errors
///
/// Returns [`HwError::OutOfMemory`] if a GPU cannot hold its share on the
/// simulated server.
pub fn build_clique_cache(
    graph: &CsrGraph,
    features: &FeatureTable,
    clique_gpus: &[GpuId],
    topo_order: &CslpOutput,
    feat_order: &CslpOutput,
    plan: &CachePlan,
    server: &MultiGpuServer,
) -> Result<CliqueCache, HwError> {
    let kg = clique_gpus.len();
    assert!(kg > 0, "clique must have GPUs");
    assert_eq!(
        topo_order.per_gpu.len(),
        kg,
        "topology order shape mismatch"
    );
    assert_eq!(feat_order.per_gpu.len(), kg, "feature order shape mismatch");

    let topo_share = plan.topology_bytes() / kg as u64;
    let feat_share = plan.feature_bytes() / kg as u64;
    let mut cache = CliqueCache::new(clique_gpus.to_vec(), graph.num_vertices(), features.dim());
    let registry = server.telemetry();

    for (slot, &gpu) in clique_gpus.iter().enumerate() {
        // Topology fill-up in G_T order.
        let queue = &topo_order.per_gpu[slot];
        let mut walked = 0u64;
        let fits = queue
            .iter()
            .take_while(|&&v| {
                walked += topology_bytes_for_degree(graph.degree(v));
                walked <= topo_share
            })
            .count();
        let used = fill_topology_slot(server, graph, &mut cache, slot, &queue[..fits])?;
        registry
            .counter(&format!("cache_fill.gpu{gpu}.topology_vertices"))
            .add(fits as u64);
        registry
            .counter(&format!("cache_fill.gpu{gpu}.topology_bytes"))
            .add(used);
        // Feature fill-up in G_F order.
        let queue = &feat_order.per_gpu[slot];
        let rows = &queue[..rows_in_budget(features, feat_share).min(queue.len())];
        fill_feature_slot(server, &mut cache, slot, rows)?;
        registry
            .counter(&format!("cache_fill.gpu{gpu}.feature_rows"))
            .add(rows.len() as u64);
        registry
            .counter(&format!("cache_fill.gpu{gpu}.feature_bytes"))
            .add(rows.len() as u64 * features.row_bytes());
    }
    Ok(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::CostModel;
    use crate::cslp::cslp;
    use crate::hotness::HotnessMatrix;
    use crate::unified::CacheHit;

    use legion_graph::generate::ChungLuConfig;
    use legion_hw::ServerSpec;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn setup() -> (CsrGraph, FeatureTable, CslpOutput, CslpOutput) {
        let mut rng = StdRng::seed_from_u64(77);
        let g = ChungLuConfig {
            num_vertices: 500,
            num_edges: 5000,
            exponent: 0.8,
            shuffle_ids: false,
            ..Default::default()
        }
        .generate(&mut rng);
        let f = FeatureTable::random(500, 16, &mut rng);
        // Synthetic hotness: proportional to degree with per-GPU noise.
        let mut h_t = HotnessMatrix::new(2, 500);
        let mut h_f = HotnessMatrix::new(2, 500);
        for v in 0..500u32 {
            for gpu in 0..2 {
                let base = g.degree(v) + 1;
                h_t.add(gpu, v, base + rng.gen_range(0..3u64));
                h_f.add(gpu, v, base * 2 + rng.gen_range(0..3u64));
            }
        }
        (g, f, cslp(&h_t), cslp(&h_f))
    }

    fn plan_for(
        budget: u64,
        alpha: f64,
        setup: &(CsrGraph, FeatureTable, CslpOutput, CslpOutput),
    ) -> CachePlan {
        let (g, f, t, fo) = setup;
        let model = CostModel::new(
            g,
            &t.clique_order,
            &t.accumulated,
            &fo.clique_order,
            &fo.accumulated,
            1000,
            f.dim(),
            64,
        );
        CachePlan {
            budget,
            alpha,
            evaluation: model.evaluate(budget, alpha),
        }
    }

    #[test]
    fn fill_respects_budget_and_allocates_memory() {
        let s = setup();
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let plan = plan_for(64 * 1024, 0.5, &s);
        let cache = build_clique_cache(&s.0, &s.1, &[0, 1], &s.2, &s.3, &plan, &server).unwrap();
        // Per-GPU shares respected.
        for slot in 0..2 {
            assert!(cache.cache(slot).topology_bytes() <= plan.topology_bytes() / 2);
            assert!(cache.cache(slot).feature_bytes() <= plan.feature_bytes() / 2);
        }
        // Device memory was actually consumed.
        let total_alloc = server.allocated_bytes(0) + server.allocated_bytes(1);
        assert_eq!(
            total_alloc,
            cache.total_topology_bytes() + cache.total_feature_bytes()
        );
        assert!(cache.total_feature_bytes() > 0);
        assert!(cache.total_topology_bytes() > 0);
    }

    #[test]
    fn fill_follows_priority_order() {
        let s = setup();
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let plan = plan_for(16 * 1024, 0.0, &s);
        let cache = build_clique_cache(&s.0, &s.1, &[0, 1], &s.2, &s.3, &plan, &server).unwrap();
        // Every cached feature vertex must be a prefix of its GPU's G_F.
        for slot in 0..2 {
            let q = &s.3.per_gpu[slot];
            let cached = cache.cache(slot).feature_entries();
            for (i, &v) in q.iter().enumerate() {
                assert_eq!(
                    cache.lookup_feature(slot, v),
                    (i < cached).then_some(CacheHit::Local),
                    "vertex {v} at priority {i}"
                );
            }
            assert_eq!(
                cache.cache(slot).feature_bytes(),
                cached as u64 * s.1.row_bytes()
            );
        }
    }

    #[test]
    fn over_committed_plan_returns_oom() {
        let s = setup();
        // Tiny GPUs: 1 KiB each, plan wants 64 KiB.
        let server = ServerSpec::custom(2, 1024, 2).build();
        let plan = plan_for(64 * 1024, 0.5, &s);
        let err = build_clique_cache(&s.0, &s.1, &[0, 1], &s.2, &s.3, &plan, &server);
        assert!(matches!(err, Err(HwError::OutOfMemory { .. })));
    }

    #[test]
    fn zero_budget_builds_empty_cache() {
        let s = setup();
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let plan = plan_for(0, 0.5, &s);
        let cache = build_clique_cache(&s.0, &s.1, &[0, 1], &s.2, &s.3, &plan, &server).unwrap();
        assert_eq!(cache.total_topology_bytes(), 0);
        assert_eq!(cache.total_feature_bytes(), 0);
        assert_eq!(server.allocated_bytes(0), 0);
    }

    fn features(n: usize) -> FeatureTable {
        FeatureTable::from_flat((0..n * 2).map(|x| x as f32).collect(), 2)
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

    #[test]
    fn topology_fill_books_equation_3_bytes() {
        let (g, ..) = setup();
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let mut cache = CliqueCache::new(vec![0, 1], 500, 16);
        let rows: Vec<VertexId> = vec![3, 1, 4];
        let booked = fill_topology_slot(&server, &g, &mut cache, 1, &rows).unwrap();
        let expected: u64 = rows
            .iter()
            .map(|&v| topology_bytes_for_degree(g.degree(v)))
            .sum();
        assert_eq!(booked, expected);
        assert_eq!(server.allocated_bytes(1), expected);
        assert_eq!(cache.cache(1).topology_bytes(), expected);
        assert_eq!(cache.topology_vertices(), vec![1, 3, 4]);
        // A slot that cannot hold the rows books nothing and caches
        // nothing.
        let tiny = ServerSpec::custom(1, 4, 1).build();
        let mut empty = CliqueCache::new(vec![0], 500, 16);
        let err = fill_topology_slot(&tiny, &g, &mut empty, 0, &rows);
        assert!(matches!(err, Err(HwError::OutOfMemory { .. })));
        assert_eq!(tiny.allocated_bytes(0), 0);
        assert!(empty.topology_vertices().is_empty());
    }

    #[test]
    fn alpha_one_caches_no_features() {
        let s = setup();
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let plan = plan_for(32 * 1024, 1.0, &s);
        let cache = build_clique_cache(&s.0, &s.1, &[0, 1], &s.2, &s.3, &plan, &server).unwrap();
        assert_eq!(cache.total_feature_bytes(), 0);
        assert!(cache.total_topology_bytes() > 0);
    }
}
