//! Design-choice ablations beyond the paper's figures (DESIGN.md §5).
//!
//! 1. **Inter-clique partitioner** — hierarchical partitioning with hash /
//!    LDG / label-propagation / multilevel inter-clique splits: edge-cut
//!    quality vs. resulting cache hit rate, showing C1's benefit does not
//!    hinge on one partitioner, and the epoch time and per-clique
//!    straggler each split leaves.
//! 2. **Static vs. dynamic caching** — the paper's static pre-sampling
//!    cache against FIFO (BGL, §7) and LRU dynamic policies on the actual
//!    feature access trace of an epoch, with replacement counts (the
//!    runtime overhead dynamic policies pay).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use legion_cache::dynamic::{FifoCache, LruCache};
use legion_graph::VertexId;
use legion_hw::ServerSpec;
use legion_partition::quality::edge_cut_ratio;
use legion_partition::{
    hierarchical_partition, HashPartitioner, LabelPropPartitioner, LdgPartitioner,
    MultilevelPartitioner, Partitioner,
};
use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::{BatchGenerator, KHopSampler};

use crate::config::LegionConfig;
use crate::experiments::rows_for_ratio;
use crate::runner::run_epoch;
use crate::system::legion_feature_cache_setup_on;

/// One partitioner-ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionerAblationRow {
    /// Partitioner name.
    pub partitioner: String,
    /// Fraction of edges cut by the inter-clique split the setup trains
    /// on (S2 after S2b's seed moves).
    pub edge_cut_ratio: f64,
    /// Resulting aggregate feature-cache hit rate.
    pub hit_rate: f64,
    /// Feature-side PCIe transactions for one epoch.
    pub pcie_feature: u64,
    /// Modeled epoch time, seconds: the slowest GPU's.
    pub epoch_seconds: f64,
    /// Per clique, the slowest member's `epoch.gpu{g}.seconds` over the
    /// members' mean: PCIe volume cannot show a straggler, this can.
    pub clique_max_over_mean: Vec<f64>,
    /// The slowest GPU's `epoch.gpu{g}.seconds` over the mean of all
    /// GPUs: the straggler between cliques, which no per-clique ratio
    /// shows.
    pub server_max_over_mean: f64,
}

/// Runs the partitioner ablation on the PR stand-in, NV2, 5% cache ratio.
pub fn partitioner_ablation(divisor: u64, config: &LegionConfig) -> Vec<PartitionerAblationRow> {
    let dataset = legion_graph::dataset::spec_by_name("PR")
        .expect("PR registered")
        .instantiate(divisor, config.seed);
    let rows_per_gpu = rows_for_ratio(&dataset, 0.05);
    let mut cfg = config.clone();
    cfg.batch_size = crate::experiments::policy_batch_size(&dataset, 8, config);
    let partitioners: [(&str, &dyn Partitioner); 4] = [
        ("hash", &HashPartitioner),
        ("ldg", &LdgPartitioner::default()),
        ("label-prop", &LabelPropPartitioner::default()),
        ("multilevel", &MultilevelPartitioner::default()),
    ];
    let mut out = Vec::new();
    for (name, partitioner) in partitioners {
        let server = ServerSpec::custom(8, 1 << 40, 2).build();
        let ctx = cfg.build_context(&dataset, &server);
        let plan = hierarchical_partition(
            &dataset.graph,
            &dataset.train_vertices,
            server.nvlink(),
            partitioner,
        );
        // The cut of the split that trains: S2's, with S2b's seed moves.
        let cut = edge_cut_ratio(&dataset.graph, &plan.vertex_partition);
        let Ok(setup) = legion_feature_cache_setup_on(&ctx, &cfg, rows_per_gpu, plan) else {
            continue;
        };
        let report = run_epoch(&setup, &ctx, &cfg);
        let max_over_mean = |gpus: &[usize]| {
            let seconds: Vec<f64> = gpus
                .iter()
                .map(|g| report.metrics.gauge(&format!("epoch.gpu{g}.seconds")))
                .collect();
            let mean = seconds.iter().sum::<f64>() / seconds.len() as f64;
            seconds.iter().copied().fold(0.0, f64::max) / mean
        };
        let clique_max_over_mean = setup
            .layout
            .cliques
            .iter()
            .map(|cc| max_over_mean(cc.gpus()))
            .collect();
        let all_gpus: Vec<usize> = (0..server.num_gpus()).collect();
        let server_max_over_mean = max_over_mean(&all_gpus);
        out.push(PartitionerAblationRow {
            partitioner: name.to_string(),
            edge_cut_ratio: cut,
            hit_rate: report.feature_hit_rate(),
            pcie_feature: report.pcie_feature,
            epoch_seconds: report.epoch_seconds,
            clique_max_over_mean,
            server_max_over_mean,
        });
    }
    out
}

/// One cache-policy-ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct CachePolicyAblationRow {
    /// "static" / "fifo" / "lru".
    pub policy: String,
    /// Hit rate on the epoch's feature access trace.
    pub hit_rate: f64,
    /// Replacement operations performed (0 for the static cache).
    pub evictions: u64,
}

/// Replays one epoch's per-GPU feature access trace through the static
/// pre-sampling cache and the FIFO/LRU dynamic policies at equal
/// capacity.
pub fn cache_policy_ablation(
    divisor: u64,
    config: &LegionConfig,
    cache_ratio: f64,
) -> Vec<CachePolicyAblationRow> {
    let dataset = legion_graph::dataset::spec_by_name("PR")
        .expect("PR registered")
        .instantiate(divisor, config.seed);
    let capacity = rows_for_ratio(&dataset, cache_ratio);
    let mut cfg = config.clone();
    cfg.batch_size = crate::experiments::policy_batch_size(&dataset, 1, config);
    // Collect the feature access trace of one single-GPU epoch.
    let server = ServerSpec::custom(1, 1 << 40, 1).build();
    let layout = CacheLayout::none(1);
    let engine = AccessEngine::new(
        &dataset.graph,
        &dataset.features,
        &layout,
        &server,
        TopologyPlacement::CpuUva,
    );
    let sampler = KHopSampler::new(cfg.fanouts.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut generator = BatchGenerator::new(dataset.train_vertices.clone(), cfg.batch_size);
    let mut trace: Vec<VertexId> = Vec::new();
    for batch in generator.epoch(&mut rng) {
        let sample = sampler.sample_batch(&engine, 0, &batch, &mut rng, None);
        trace.extend_from_slice(&sample.all_vertices);
    }
    // Static cache: top-capacity vertices by trace frequency (what the
    // pre-sampling hotness estimates).
    let mut counts = vec![0u64; dataset.graph.num_vertices()];
    for &v in &trace {
        counts[v as usize] += 1;
    }
    let mut order: Vec<VertexId> = (0..dataset.graph.num_vertices() as VertexId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(counts[v as usize]));
    let static_set: std::collections::HashSet<VertexId> =
        order.iter().take(capacity).copied().collect();
    let static_hits = trace.iter().filter(|v| static_set.contains(v)).count();

    let mut fifo = FifoCache::new(capacity);
    let mut lru = LruCache::new(capacity);
    for &v in &trace {
        fifo.access(v);
        lru.access(v);
    }
    vec![
        CachePolicyAblationRow {
            policy: "static".to_string(),
            hit_rate: static_hits as f64 / trace.len().max(1) as f64,
            evictions: 0,
        },
        CachePolicyAblationRow {
            policy: "fifo".to_string(),
            hit_rate: fifo.hit_rate(),
            evictions: fifo.stats().evictions,
        },
        CachePolicyAblationRow {
            policy: "lru".to_string(),
            hit_rate: lru.hit_rate(),
            evictions: lru.stats().evictions,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_cut_partitioners_beat_hash_on_hit_rate() {
        let config = LegionConfig::small();
        let rows = partitioner_ablation(500, &config);
        assert_eq!(rows.len(), 4);
        let get = |p: &str| rows.iter().find(|r| r.partitioner == p).unwrap();
        let hash = get("hash");
        for better in ["ldg", "label-prop", "multilevel"] {
            let r = get(better);
            assert!(
                r.edge_cut_ratio < hash.edge_cut_ratio,
                "{better} cut {} !< hash {}",
                r.edge_cut_ratio,
                hash.edge_cut_ratio
            );
            assert!(
                r.hit_rate >= hash.hit_rate - 0.02,
                "{better} hit {} below hash {}",
                r.hit_rate,
                hash.hit_rate
            );
        }
    }

    #[test]
    fn static_cache_competitive_with_dynamic_at_zero_evictions() {
        let config = LegionConfig::small();
        let rows = cache_policy_ablation(500, &config, 0.05);
        let get = |p: &str| rows.iter().find(|r| r.policy == p).unwrap();
        let statik = get("static");
        let fifo = get("fifo");
        let lru = get("lru");
        assert_eq!(statik.evictions, 0);
        assert!(fifo.evictions > 0);
        assert!(lru.evictions > 0);
        // On a stationary GNN access trace, the static hotness cache
        // matches or beats FIFO (the paper's argument against BGL).
        assert!(
            statik.hit_rate >= fifo.hit_rate - 0.02,
            "static {} vs fifo {}",
            statik.hit_rate,
            fifo.hit_rate
        );
    }
}
