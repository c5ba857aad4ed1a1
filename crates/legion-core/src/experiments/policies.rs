//! Cache-*policy* variants of the baselines, all run inside the Legion
//! runtime (§6.3.1: "for a fair comparison, we implement the cache
//! designs of GNNLab, PaGraph-plus, and Quiver-plus in Legion and compare
//! their cache hit rates").
//!
//! Every policy uses GPU sampling over UVA and the pipelined schedule;
//! they differ only in partitioning, hotness metric and cache placement —
//! exactly the axes Figures 2, 3, 9 and 10 vary. Each policy is its
//! system's own cache design ([`gnnlab::cache_design`],
//! [`pagraph::cache_design`], ...); this module only picks one and caps
//! its per-GPU row budget.

use legion_baselines::{gnnlab, pagraph, quiver, BuildContext, SystemError, SystemSetup};

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
        ..ctx.clone()
    };
    match policy {
        CachePolicy::GnnLabReplicated => {
            let gpus: Vec<usize> = (0..ctx.server.num_gpus()).collect();
            gnnlab::cache_design(&capped, &gpus, budget)
        }
        CachePolicy::QuiverPlus => quiver::setup(&capped),
        CachePolicy::PaGraph => {
            pagraph::cache_design(&capped, &pagraph::self_reliant_partition(&capped), budget)
        }
        CachePolicy::PaGraphPlus => pagraph::setup_plus(&capped),
        CachePolicy::Legion => legion_feature_cache_setup(&capped, config, rows_per_gpu),
    }
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
