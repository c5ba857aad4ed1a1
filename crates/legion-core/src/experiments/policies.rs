//! Cache-*policy* variants of the baselines, all run inside the Legion
//! runtime (§6.3.1: "for a fair comparison, we implement the cache
//! designs of GNNLab, PaGraph-plus, and Quiver-plus in Legion and compare
//! their cache hit rates").
//!
//! Every policy uses the pre-sampling hotness metric, GPU sampling over
//! UVA, and the pipelined schedule; they differ only in partitioning and
//! cache placement — exactly the axes Figures 2, 3, 9 and 10 vary.

use legion_baselines::policy::build_feature_caches_replicated;
use legion_baselines::{pagraph, quiver, BuildContext, ScheduleKind, SystemError, SystemSetup};
use legion_cache::hotness_order;
use legion_partition::pagraph::pagraph_partition;
use legion_partition::HashPartitioner;
use legion_sampling::access::{CacheLayout, TopologyPlacement};
use legion_sampling::{presample, KHopSampler};

use crate::config::LegionConfig;
use crate::system::legion_feature_cache_setup;

/// The partition/NVLink strategies Figure 9 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// GNNLab: no partitioning, no NVLink — replicated cache (noPart+noNV).
    GnnLabReplicated,
    /// Quiver-plus: no partitioning, NVLink hash cache (noPart+NVx).
    QuiverPlus,
    /// Original PaGraph: self-reliant partitions + in-degree cache.
    PaGraph,
    /// PaGraph-plus: edge-cut partitioning, per-GPU cache (Edge-cut+noNV).
    PaGraphPlus,
    /// Legion: hierarchical partitioning + CSLP (Hierarchical+NVx).
    Legion,
}

impl CachePolicy {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::GnnLabReplicated => "GNNLab",
            CachePolicy::QuiverPlus => "Quiver-plus",
            CachePolicy::PaGraph => "PaGraph",
            CachePolicy::PaGraphPlus => "PaGraph-plus",
            CachePolicy::Legion => "Legion",
        }
    }

    /// All policies Figure 2 plots.
    pub fn fig2_set() -> [CachePolicy; 4] {
        [
            CachePolicy::GnnLabReplicated,
            CachePolicy::QuiverPlus,
            CachePolicy::PaGraph,
            CachePolicy::Legion,
        ]
    }

    /// All policies Figures 3 and 10 plot.
    pub fn fig3_set() -> [CachePolicy; 4] {
        [
            CachePolicy::GnnLabReplicated,
            CachePolicy::PaGraphPlus,
            CachePolicy::QuiverPlus,
            CachePolicy::Legion,
        ]
    }
}

/// Builds the feature-cache-only setup for one policy with exactly
/// `rows_per_gpu` cached feature rows per GPU.
pub fn build_policy(
    policy: CachePolicy,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    rows_per_gpu: usize,
) -> Result<SystemSetup, SystemError> {
    let budget = rows_per_gpu as u64 * ctx.dataset.features.row_bytes();
    let capped = BuildContext {
        cache_budget_override: Some(budget),
        ..clone_ctx(ctx)
    };
    match policy {
        CachePolicy::GnnLabReplicated => gnnlab_replicated(&capped, budget),
        CachePolicy::QuiverPlus => quiver::setup(&capped),
        CachePolicy::PaGraph => pagraph_policy(&capped, budget),
        CachePolicy::PaGraphPlus => pagraph::setup_plus(&capped),
        CachePolicy::Legion => legion_feature_cache_setup(&capped, config, rows_per_gpu),
    }
}

fn clone_ctx<'a>(ctx: &BuildContext<'a>) -> BuildContext<'a> {
    BuildContext {
        dataset: ctx.dataset,
        server: ctx.server,
        fanouts: ctx.fanouts.clone(),
        batch_size: ctx.batch_size,
        presample_epochs: ctx.presample_epochs,
        reserved_per_gpu: ctx.reserved_per_gpu,
        cache_budget_override: ctx.cache_budget_override,
        seed: ctx.seed,
    }
}

/// GNNLab's *cache design* in the Legion runtime: globally replicated
/// pre-sampling-hotness cache, global shuffle, all GPUs train.
fn gnnlab_replicated(ctx: &BuildContext<'_>, budget: u64) -> Result<SystemSetup, SystemError> {
    let n = ctx.server.num_gpus();
    let gpus: Vec<usize> = (0..n).collect();
    let tablets = ctx.even_tablets(n);
    let sampler = KHopSampler::new(ctx.fanouts.clone());
    let pres = presample(
        &ctx.dataset.graph,
        &ctx.dataset.features,
        ctx.server,
        &gpus,
        &tablets,
        &sampler,
        ctx.batch_size,
        ctx.presample_epochs,
        ctx.seed,
    );
    let order = hotness_order(&pres.h_f.column_wise_sum());
    let cliques = build_feature_caches_replicated(
        &ctx.dataset.features,
        ctx.dataset.graph.num_vertices(),
        ctx.server,
        &gpus,
        &order,
        budget,
    )
    .map_err(SystemError::GpuOom)?;
    Ok(SystemSetup {
        name: "GNNLab".to_string(),
        layout: CacheLayout::from_cliques(n, cliques),
        tablets,
        topology_placement: TopologyPlacement::CpuUva,
        schedule: ScheduleKind::Pipelined,
    })
}

/// Original PaGraph's cache design (self-reliant partitions + in-degree
/// hotness), without the CPU-memory gate — the Figure 2 curve isolates
/// cache behaviour.
fn pagraph_policy(ctx: &BuildContext<'_>, budget: u64) -> Result<SystemSetup, SystemError> {
    use legion_baselines::policy::{build_feature_cache_single, in_degree_hotness};
    let n = ctx.server.num_gpus();
    let hops = ctx.fanouts.len() as u32;
    let plan = pagraph_partition(
        &ctx.dataset.graph,
        &ctx.dataset.train_vertices,
        n,
        hops,
        &HashPartitioner,
    );
    let in_deg = in_degree_hotness(&ctx.dataset.graph);
    let mut cliques = Vec::with_capacity(n);
    let mut tablets = Vec::with_capacity(n);
    for (gpu, part) in plan.partitions.iter().enumerate() {
        let mut order = part.vertices.clone();
        order.sort_by(|&a, &b| in_deg[b as usize].cmp(&in_deg[a as usize]).then(a.cmp(&b)));
        cliques.push(
            build_feature_cache_single(
                &ctx.dataset.features,
                ctx.dataset.graph.num_vertices(),
                ctx.server,
                gpu,
                &order,
                budget,
            )
            .map_err(SystemError::GpuOom)?,
        );
        tablets.push(part.train_vertices.clone());
    }
    Ok(SystemSetup {
        name: "PaGraph".to_string(),
        layout: CacheLayout::from_cliques(n, cliques),
        tablets,
        topology_placement: TopologyPlacement::CpuUva,
        schedule: ScheduleKind::Pipelined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::dataset::spec_by_name;
    use legion_hw::ServerSpec;

    #[test]
    fn every_policy_builds_with_exact_row_budget() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 9);
        let config = LegionConfig::small();
        for policy in [
            CachePolicy::GnnLabReplicated,
            CachePolicy::QuiverPlus,
            CachePolicy::PaGraph,
            CachePolicy::PaGraphPlus,
            CachePolicy::Legion,
        ] {
            let server = ServerSpec::custom(4, 1 << 30, 2).build();
            let ctx = config.build_context(&ds, &server);
            let setup = build_policy(policy, &ctx, &config, 30).unwrap();
            // Every GPU caches at most 30 rows; Legion/GNNLab exactly 30.
            for cc in &setup.layout.cliques {
                for slot in 0..cc.gpus().len() {
                    assert!(
                        cc.cache(slot).feature_entries() <= 30,
                        "{}: {} rows",
                        policy.name(),
                        cc.cache(slot).feature_entries()
                    );
                }
            }
        }
    }
}
