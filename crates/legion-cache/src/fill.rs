//! Cache initialization and fill-up (§4.2.2 S3).
//!
//! "Guided by this mechanism, Legion allocates memory for both the
//! topology and feature cache (TC and FC) of each GPU, and fetches the
//! corresponding topology and feature data from CPU memory to fill up each
//! GPU cache according to the corresponding cache orders in `G_T` and
//! `G_F`."
//!
//! Every cache design fills through one walk, [`place_prefix`]: it hands
//! the rows of an order to a cache's slots, each row to its preferred
//! slot while that slot has room, else to the least-loaded slot, and
//! stops at the first row that fits in no slot, so a cache holds a prefix
//! of its order. Legion's unified cache ([`build_clique_cache`]) prefers
//! each row's CSLP owner, Quiver its hash slot; the one-GPU caches of
//! PaGraph and GNNLab and serving's striped layouts state no preference.
//!
//! The walk only records residency. [`book_cache`] then books each
//! slot's Equation 3 / Equation 6 bytes on the [`MultiGpuServer`]'s
//! simulated device memory, so an over-committed plan fails with the same
//! out-of-memory error a CUDA allocation would raise. No row is copied:
//! the base CSR and feature table stay the only copy of the data.

use legion_graph::{topology_bytes_for_degree, CsrGraph, FeatureTable, VertexId};
use legion_hw::{GpuId, HwError, MultiGpuServer};

use crate::cslp::CslpOutput;
use crate::planner::CachePlan;
use crate::unified::{CliqueCache, GpuUnifiedCache};

/// Number of feature rows fitting in `bytes`.
pub fn rows_in_budget(features: &FeatureTable, bytes: u64) -> usize {
    bytes.checked_div(features.row_bytes()).unwrap_or(0) as usize
}

/// Walks `order` and caches its rows in `cache`'s slots: topology rows
/// of `graph` when one is given, each costing its Equation 3 bytes, else
/// feature rows, each costing one row's Equation 6 bytes. A row goes to
/// its `preferred` slot while that slot's load stays within `cap` bytes,
/// else to the slot this walk has loaded least (ties to the lower slot).
/// The walk stops at the first row that fits in no slot, so the placed
/// rows are a prefix of `order`; it returns how many it placed.
///
/// With no preference and one cost for every row, slot `s` of `k` holds
/// rows `s, s + k, …` of the prefix. The walk books no memory; see
/// [`book_cache`].
pub fn place_prefix(
    cache: &mut CliqueCache,
    graph: Option<&CsrGraph>,
    order: &[VertexId],
    cap: u64,
    preferred: impl Fn(VertexId) -> Option<usize>,
) -> usize {
    let row_bytes = cache.feature_row_bytes();
    let mut load = vec![0u64; cache.gpus().len()];
    for (placed, &v) in order.iter().enumerate() {
        let cost = graph.map_or(row_bytes, |g| topology_bytes_for_degree(g.degree(v)));
        let slot = match preferred(v) {
            Some(p) if load[p] + cost <= cap => p,
            _ => {
                // `min_by_key` keeps the first of equal loads: the lower slot.
                let least = (0..load.len())
                    .min_by_key(|&s| load[s])
                    .expect("a clique has GPUs");
                if load[least] + cost > cap {
                    return placed;
                }
                least
            }
        };
        load[slot] += cost;
        match graph {
            Some(g) => cache.insert_topology(slot, v, g.degree(v)),
            None => cache.insert_feature(slot, v),
        }
    }
    order.len()
}

/// Books what `cache` holds on its GPUs: every slot's topology bytes,
/// then every slot's feature bytes.
///
/// # Errors
///
/// Returns [`HwError::OutOfMemory`] at the first GPU that cannot hold its
/// bytes; what was booked before it stays booked.
pub fn book_cache(server: &MultiGpuServer, cache: &CliqueCache) -> Result<(), HwError> {
    for bytes in [
        GpuUnifiedCache::topology_bytes,
        GpuUnifiedCache::feature_bytes,
    ] {
        for (slot, &gpu) in cache.gpus().iter().enumerate() {
            server.alloc(gpu, bytes(cache.cache(slot)))?;
        }
    }
    Ok(())
}

/// Builds and fills the unified cache of one NVLink clique.
///
/// Each GPU may hold an even share of the clique plan (the tablets are
/// dealt by degree, so each carries the clique's mix and even shares
/// match the paper's "randomly sliced and averagely allocated" wording). The clique caches the head of each
/// CSLP clique order — the prefix the cost model priced (Equations 2–8):
/// for features, as many rows of `Q_F` as the shares hold; for topology,
/// rows of `Q_T` up to the first that fits in no member's remaining
/// share. Each row goes to its CSLP owner (local preference) while that
/// owner has room, else to the least-loaded member (complete sharing).
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
    let n = graph.num_vertices();
    for order in [topo_order, feat_order] {
        assert!(
            order.owner.len() == n || order.clique_order.is_empty(),
            "order shape mismatch"
        );
    }

    let mut cache = CliqueCache::new(clique_gpus.to_vec(), n, features.dim());
    for (kind, order, bytes) in [
        (Some(graph), topo_order, plan.topology_bytes()),
        (None, feat_order, plan.feature_bytes()),
    ] {
        let owner = |v: VertexId| Some(order.owner[v as usize] as usize);
        place_prefix(
            &mut cache,
            kind,
            &order.clique_order,
            bytes / kg as u64,
            owner,
        );
    }
    book_cache(server, &cache)?;
    let registry = server.telemetry();
    for (slot, &gpu) in clique_gpus.iter().enumerate() {
        let held = cache.cache(slot);
        for (name, value) in [
            ("topology_vertices", held.topology_entries() as u64),
            ("topology_bytes", held.topology_bytes()),
            ("feature_rows", held.feature_entries() as u64),
            ("feature_bytes", held.feature_bytes()),
        ] {
            registry
                .counter(&format!("cache_fill.gpu{gpu}.{name}"))
                .add(value);
        }
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
        let (mut h_t, mut h_f) = ([vec![0; 500], vec![0; 500]], [vec![0; 500], vec![0; 500]]);
        for v in 0..500 {
            for gpu in 0..2 {
                let base = g.degree(v as VertexId) + 1;
                h_t[gpu][v] = base + rng.gen_range(0..3u64);
                h_f[gpu][v] = base * 2 + rng.gen_range(0..3u64);
            }
        }
        let matrix = |rows: &[Vec<u64>; 2]| HotnessMatrix::from_rows(&[&rows[0], &rows[1]]);
        (g, f, cslp(&matrix(&h_t)), cslp(&matrix(&h_f)))
    }

    /// What the fill's `cache_fill.gpu{g}.{kind}_bytes` counters book
    /// across the server.
    fn filled(server: &MultiGpuServer, kind: &str) -> u64 {
        let fill = server.telemetry().snapshot();
        (0..server.num_gpus())
            .map(|g| fill.counter(&format!("cache_fill.gpu{g}.{kind}_bytes")))
            .sum()
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
            filled(&server, "topology") + filled(&server, "feature")
        );
        assert!(filled(&server, "feature") > 0);
        assert!(filled(&server, "topology") > 0);
    }

    /// Asserts the fill contract for the kind `lookup` reads: the cached
    /// rows are a prefix of `order.clique_order`, the first row past it
    /// fits in no member's remaining `cap`, and each row sits on its
    /// owner unless the owner was full when the row was placed, else on
    /// the least-loaded member. Returns the prefix length.
    fn assert_prefix_contract(
        cache: &CliqueCache,
        order: &CslpOutput,
        cap: u64,
        cost: impl Fn(VertexId) -> u64,
        lookup: fn(&CliqueCache, usize, VertexId) -> Option<CacheHit>,
    ) -> usize {
        let slots = cache.gpus().len();
        let holder = |v| (0..slots).find(|&s| lookup(cache, s, v) == Some(CacheHit::Local));
        let mut load = vec![0u64; slots];
        let cached = order
            .clique_order
            .iter()
            .take_while(|&&v| holder(v).is_some())
            .count();
        for (i, &v) in order.clique_order.iter().enumerate() {
            let Some(slot) = holder(v) else { continue };
            assert!(i < cached, "row {v} at {i} cached past the prefix");
            let owner = order.owner[v as usize] as usize;
            if slot != owner {
                assert!(load[owner] + cost(v) > cap, "row {v} left a roomy owner");
                assert_eq!(load[slot], *load.iter().min().unwrap(), "row {v}");
            }
            load[slot] += cost(v);
            assert!(load[slot] <= cap, "slot {slot} over its share");
        }
        if let Some(&next) = order.clique_order.get(cached) {
            assert!(load.iter().all(|&l| l + cost(next) > cap), "{next} fits");
        }
        cached
    }

    #[test]
    fn fill_follows_priority_order() {
        let s = setup();
        let (g, f, t, fo) = &s;
        for alpha in [0.0, 0.3, 0.7] {
            let server = ServerSpec::custom(2, 1 << 20, 2).build();
            let plan = plan_for(16 * 1024, alpha, &s);
            let cache = build_clique_cache(g, f, &[0, 1], t, fo, &plan, &server).unwrap();
            let rows = rows_in_budget(f, plan.feature_bytes() / 2);
            let feat = CliqueCache::lookup_feature;
            let cached = assert_prefix_contract(&cache, fo, rows as u64, |_| 1, feat);
            assert_eq!(cached, 2 * rows);
            let topo = assert_prefix_contract(
                &cache,
                t,
                plan.topology_bytes() / 2,
                |v| topology_bytes_for_degree(g.degree(v)),
                CliqueCache::lookup_topology,
            );
            assert!(topo < 500, "the budget must not hold the graph");
            let held = (0..500).filter(|&v| cache.lookup_topology(0, v).is_some());
            assert_eq!(held.count(), topo);
        }
    }

    #[test]
    fn all_tie_hotness_still_fills_every_member() {
        // Every vertex ties, so CSLP gives slot 0 every row. Walking each
        // GPU's own queue filled slot 0's share and left the rest empty.
        let s = setup();
        let (g, f, ..) = &s;
        let zeros: &[u64] = &[0; 500];
        let ties = cslp(&HotnessMatrix::from_rows(&[zeros; 4]));
        assert!(ties.owner.iter().all(|&o| o == 0));
        // The split `(m_T, m_F)` depends on the budget and α only.
        let plan = plan_for(32 * 1024, 0.5, &s);
        let server = ServerSpec::custom(4, 1 << 20, 4).build();
        let cache = build_clique_cache(g, f, &[0, 1, 2, 3], &ties, &ties, &plan, &server).unwrap();
        let rows = rows_in_budget(f, plan.feature_bytes() / 4);
        assert!(rows > 0);
        for slot in 0..4 {
            assert_eq!(cache.cache(slot).feature_entries(), rows, "slot {slot}");
            assert!(cache.cache(slot).topology_entries() > 0, "slot {slot}");
        }
        assert_prefix_contract(
            &cache,
            &ties,
            rows as u64,
            |_| 1,
            CliqueCache::lookup_feature,
        );
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
        build_clique_cache(&s.0, &s.1, &[0, 1], &s.2, &s.3, &plan, &server).unwrap();
        assert_eq!(filled(&server, "topology"), 0);
        assert_eq!(filled(&server, "feature"), 0);
        assert_eq!(server.allocated_bytes(0), 0);
    }

    fn features(n: usize) -> FeatureTable {
        FeatureTable::from_flat((0..n * 2).map(|x| x as f32).collect(), 2)
    }

    /// A one-GPU feature cache on `gpu` holding the head of `order` that
    /// fits in `cap` bytes, booked on `server`.
    fn one_gpu(
        server: &MultiGpuServer,
        gpu: GpuId,
        order: &[VertexId],
        cap: u64,
    ) -> Result<CliqueCache, HwError> {
        let mut cache = CliqueCache::new(vec![gpu], 10, 2);
        place_prefix(&mut cache, None, order, cap, |_| None);
        book_cache(server, &cache)?;
        Ok(cache)
    }

    #[test]
    fn single_cache_respects_budget() {
        let server = ServerSpec::custom(1, 1 << 20, 1).build();
        let order: Vec<VertexId> = (0..10).collect();
        // 3 rows of 8 bytes fit in 25 bytes.
        let cc = one_gpu(&server, 0, &order, 25).unwrap();
        assert_eq!(cc.cache(0).feature_entries(), 3);
        assert!(cc.has_feature(0) && cc.has_feature(2));
        assert!(!cc.has_feature(3));
        assert_eq!(server.allocated_bytes(0), 24);
    }

    #[test]
    fn replicated_caches_have_identical_contents() {
        let server = ServerSpec::custom(4, 1 << 20, 1).build();
        let order: Vec<VertexId> = vec![7, 6, 5, 4, 3, 2, 1, 0];
        for gpu in 0..4 {
            let cc = one_gpu(&server, gpu, &order, 16).unwrap();
            assert!(cc.has_feature(7) && cc.has_feature(6));
            assert!(!cc.has_feature(5));
            assert_eq!(server.allocated_bytes(gpu), 16);
        }
    }

    #[test]
    fn oom_propagates() {
        let server = ServerSpec::custom(1, 4, 1).build();
        let order: Vec<VertexId> = (0..10).collect();
        let err = one_gpu(&server, 0, &order, 80);
        assert!(matches!(err, Err(HwError::OutOfMemory { .. })));
        assert_eq!(server.allocated_bytes(0), 0);
    }

    #[test]
    fn zero_budget_zero_rows() {
        let f = features(4);
        let order: Vec<VertexId> = (0..4).collect();
        for (bytes, rows) in [(0, 0), (7, 0), (8, 1)] {
            assert_eq!(rows_in_budget(&f, bytes), rows);
            let mut cache = CliqueCache::new(vec![0], 4, f.dim());
            assert_eq!(
                place_prefix(&mut cache, None, &order, bytes, |_| None),
                rows
            );
            assert_eq!(cache.cache(0).feature_entries(), rows);
        }
    }

    #[test]
    fn topology_fill_books_equation_3_bytes() {
        let (g, ..) = setup();
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let mut cache = CliqueCache::new(vec![0, 1], 500, 16);
        let rows: Vec<VertexId> = vec![3, 1, 4];
        let placed = place_prefix(&mut cache, Some(&g), &rows, u64::MAX, |_| Some(1));
        assert_eq!(placed, 3);
        book_cache(&server, &cache).unwrap();
        let expected: u64 = rows
            .iter()
            .map(|&v| topology_bytes_for_degree(g.degree(v)))
            .sum();
        assert_eq!(server.allocated_bytes(0), 0);
        assert_eq!(server.allocated_bytes(1), expected);
        assert_eq!(cache.cache(1).topology_bytes(), expected);
        let held: Vec<VertexId> = (0..500)
            .filter(|&v| cache.lookup_topology(0, v).is_some())
            .collect();
        assert_eq!(held, vec![1, 3, 4]);
        // A GPU that cannot hold the rows books nothing.
        let tiny = ServerSpec::custom(1, 4, 1).build();
        let mut one = CliqueCache::new(vec![0], 500, 16);
        place_prefix(&mut one, Some(&g), &rows, u64::MAX, |_| None);
        let err = book_cache(&tiny, &one);
        assert!(matches!(err, Err(HwError::OutOfMemory { .. })));
        assert_eq!(tiny.allocated_bytes(0), 0);
    }

    #[test]
    fn alpha_one_caches_no_features() {
        let s = setup();
        let server = ServerSpec::custom(2, 1 << 20, 2).build();
        let plan = plan_for(32 * 1024, 1.0, &s);
        build_clique_cache(&s.0, &s.1, &[0, 1], &s.2, &s.3, &plan, &server).unwrap();
        assert_eq!(filled(&server, "feature"), 0);
        assert!(filled(&server, "topology") > 0);
    }
}
