//! Quiver-plus: NVLink-clique hash cache, replicated across cliques
//! (§3.1, §6.3.1).
//!
//! "Quiver replicates feature cache between NVLink cliques and averagely
//! hashes the features among GPUs in the same NVLink clique." This is
//! the plus variant, which swaps Quiver's in-degree hotness for the
//! pre-sampling metric
//! (as the paper does for the Figure 9 comparison). Cache capacity scales
//! with the clique size but stops growing beyond it — the Figure 2
//! flat-line once GPU count exceeds `K_g`.

use legion_cache::hotness_order;
use legion_partition::detect_cliques;
use legion_sampling::access::{CacheLayout, TopologyPlacement};

use crate::policy::build_feature_cache_hashed;
use crate::{BuildContext, ScheduleKind, SystemError, SystemSetup};

/// Builds the Quiver-plus setup.
///
/// # Errors
///
/// [`SystemError::GpuOom`] / [`SystemError::CpuOom`] on capacity failures.
pub fn setup(ctx: &BuildContext<'_>) -> Result<SystemSetup, SystemError> {
    let n = ctx.server.num_gpus();
    ctx.host_gate(ctx.dataset_bytes())?;
    let cliques = detect_cliques(ctx.server.nvlink());
    let tablets = ctx.even_tablets(n);
    let gpus: Vec<usize> = (0..n).collect();
    let pres = ctx.presample(&gpus, &tablets);
    let order = hotness_order(&pres.h_f.column_wise_sum());
    let budget = ctx.per_gpu_cache_budget();
    // The same clique-level cache content is replicated in every clique.
    let clique_caches = cliques
        .iter()
        .map(|gpus| {
            build_feature_cache_hashed(
                &ctx.dataset.features,
                ctx.dataset.graph.num_vertices(),
                ctx.server,
                gpus,
                &order,
                budget,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(SystemError::GpuOom)?;
    Ok(SystemSetup {
        name: "Quiver-plus".to_string(),
        layout: CacheLayout::from_cliques(n, clique_caches),
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

    fn ctx_on<'a>(
        ds: &'a legion_graph::Dataset,
        server: &'a legion_hw::MultiGpuServer,
    ) -> BuildContext<'a> {
        BuildContext {
            dataset: ds,
            server,
            fanouts: vec![5, 5],
            batch_size: 64,
            presample_epochs: 1,
            reserved_per_gpu: 0,
            cache_budget_override: None,
            seed: 5,
        }
    }

    #[test]
    fn quiver_replicates_across_cliques() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 1);
        let mut spec = ServerSpec::custom(4, 1 << 30, 2);
        spec.gpu_memory = 32 * 1024;
        let server = spec.build();
        let s = setup(&ctx_on(&ds, &server)).unwrap();
        assert_eq!(s.layout.cliques.len(), 2, "two NVLink pairs");
        // Same vertex set cached in both cliques (replication).
        let nv = ds.graph.num_vertices() as u32;
        let in0: Vec<bool> = (0..nv)
            .map(|v| s.layout.cliques[0].has_feature(v))
            .collect();
        let in1: Vec<bool> = (0..nv)
            .map(|v| s.layout.cliques[1].has_feature(v))
            .collect();
        assert_eq!(in0, in1);
        // But within a clique, no duplication between the two GPUs.
        let cc = &s.layout.cliques[0];
        assert!(cc.cache(0).feature_entries() > 0);
        assert!(cc.cache(1).feature_entries() > 0);
    }

    #[test]
    fn single_clique_server_has_one_cache() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 1);
        let mut spec = ServerSpec::dgx_a100();
        spec.gpu_memory = 1 << 20;
        let server = spec.build();
        let s = setup(&ctx_on(&ds, &server)).unwrap();
        assert_eq!(s.layout.cliques.len(), 1);
        assert_eq!(s.layout.cliques[0].gpus().len(), 8);
    }
}
