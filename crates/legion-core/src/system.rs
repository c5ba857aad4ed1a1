//! The Legion setup builders: C1 + C2 + C3 assembled.

use legion_baselines::{BuildContext, ScheduleKind, SystemError, SystemSetup};
use legion_cache::{build_clique_cache, cslp, CachePlan, CostModel, CslpOutput, PlannerConfig};
use legion_partition::{hierarchical_partition, HierarchicalPlan};
use legion_sampling::access::{CacheLayout, TopologyPlacement};
use legion_sampling::PresampleOutput;

use crate::config::LegionConfig;

/// Builds the full Legion system:
///
/// 1. hierarchical partitioning (S1–S4, §4.1),
/// 2. per-clique pre-sampling → expected `H_T`, `H_F`, `N_TSUM` (§4.2.2 S1),
/// 3. CSLP candidate ordering (Algorithm 1),
/// 4. cost-model plan search over `(B, α)` (§4.3), and
/// 5. cache initialization and fill-up.
///
/// Returns the runnable setup; the chosen per-clique plans are available
/// via [`legion_setup_with_plans`].
///
/// # Errors
///
/// [`SystemError::CpuOom`] if the dataset exceeds host memory, or
/// [`SystemError::GpuOom`] if the fill over-commits a GPU (should not
/// happen when the planner's reservation is honest).
pub fn legion_setup(
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
) -> Result<SystemSetup, SystemError> {
    let (setup, _plans) = legion_setup_with_plans(ctx, config)?;
    Ok(setup)
}

/// Like [`legion_setup`] but also returns the per-clique cache plans
/// (used by the cost-model experiments).
pub fn legion_setup_with_plans(
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
) -> Result<(SystemSetup, Vec<CachePlan>), SystemError> {
    legion_setup_inner(ctx, config, None, None, None)
}

/// Like [`legion_setup_with_plans`] but with the topology fraction `α`
/// forced instead of searched — the manual cache plans that Figures 12
/// and 13 sweep against the automatic planner.
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]`.
pub fn legion_setup_forced_alpha(
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    alpha: f64,
) -> Result<(SystemSetup, Vec<CachePlan>), SystemError> {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    legion_setup_inner(ctx, config, None, Some(alpha), None)
}

/// The set-up every Legion builder shares, on `partition` when one is
/// given (else C1 with the configured S2 partitioner), with `α` forced
/// when `forced_alpha` is given (else searched), and each clique's
/// budget exactly `bytes_per_gpu` per member when that is given (else
/// the planner's, capped by the context's override).
fn legion_setup_inner(
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    partition: Option<HierarchicalPlan>,
    forced_alpha: Option<f64>,
    bytes_per_gpu: Option<u64>,
) -> Result<(SystemSetup, Vec<CachePlan>), SystemError> {
    ctx.host_gate(ctx.dataset_bytes())?;
    let plan = partition.unwrap_or_else(|| {
        // C1: hierarchical partitioning with the configured S2 partitioner.
        let partitioner = config.partitioner.build(config.seed);
        hierarchical_partition(
            &ctx.dataset.graph,
            &ctx.dataset.train_vertices,
            ctx.server.nvlink(),
            partitioner.as_ref(),
        )
    });
    let planner = PlannerConfig {
        reserved_per_gpu: ctx.reserved_per_gpu,
        delta_alpha: config.delta_alpha,
    };

    let mut cliques_out = Vec::with_capacity(plan.cliques.len());
    let mut plans_out = Vec::with_capacity(plan.cliques.len());
    for clique_gpus in &plan.cliques {
        // C2 S1: pre-sampling on this clique's tablets.
        let tablets: Vec<_> = clique_gpus
            .iter()
            .map(|&g| plan.tablets[g].clone())
            .collect();
        let PresampleOutput { h_t, h_f, n_tsum } = ctx.presample(clique_gpus, &tablets);
        // C2 S2: CSLP, on the larger `H_F` first. Each matrix goes as
        // soon as its CSLP returns. A forced α = 0 caches no topology
        // row, so `Q_T` would decide nothing.
        let feat_order = cslp(&h_f);
        drop(h_f);
        let topo_order = if forced_alpha == Some(0.0) {
            CslpOutput::default()
        } else {
            cslp(&h_t)
        };
        drop(h_t);
        // C3: cost model + plan search.
        let model = CostModel::new(
            &ctx.dataset.graph,
            &topo_order.clique_order,
            &topo_order.accumulated,
            &feat_order.clique_order,
            &feat_order.accumulated,
            n_tsum,
            ctx.dataset.features.dim(),
            ctx.server.pcie().cls(),
        );
        let kg = clique_gpus.len() as u64;
        let budget = match bytes_per_gpu {
            Some(bytes) => bytes * kg,
            None => {
                let budget = planner.clique_budget(ctx.server.spec().gpu_memory, clique_gpus.len());
                // Fixed-budget experiments cap the clique budget.
                ctx.cache_budget_override
                    .map_or(budget, |cap| budget.min(cap * kg))
            }
        };
        let cache_plan = match forced_alpha {
            None => planner.plan_with_budget(&model, budget),
            Some(alpha) => CachePlan {
                budget,
                alpha,
                evaluation: model.evaluate(budget, alpha),
            },
        };
        // C2 S3: cache initialization and fill-up.
        let cache = build_clique_cache(
            &ctx.dataset.graph,
            &ctx.dataset.features,
            clique_gpus,
            &topo_order,
            &feat_order,
            &cache_plan,
            ctx.server,
        )?;
        cliques_out.push(cache);
        plans_out.push(cache_plan);
    }
    let setup = SystemSetup {
        name: "Legion".to_string(),
        layout: CacheLayout::from_cliques(ctx.server.num_gpus(), cliques_out),
        tablets: plan.tablets,
        topology_placement: TopologyPlacement::CpuUva,
        schedule: ScheduleKind::Pipelined,
    };
    Ok((setup, plans_out))
}

/// Feature-cache-only Legion variant used by the fixed-ratio cache
/// comparisons (Figures 2, 3, 9, 10): Legion's set-up at a forced
/// `α = 0` with exactly `rows_per_gpu` feature rows of budget per GPU —
/// the head of each clique's `Q_F`, no topology cache.
pub fn legion_feature_cache_setup(
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    rows_per_gpu: usize,
) -> Result<SystemSetup, SystemError> {
    let bytes = rows_per_gpu as u64 * ctx.dataset.features.row_bytes();
    let (setup, _plans) = legion_setup_inner(ctx, config, None, Some(0.0), Some(bytes))?;
    Ok(setup)
}

/// [`legion_feature_cache_setup`] on a given hierarchical partition —
/// the partitioner-ablation experiment partitions with each candidate
/// and reads the cut of the split it trains on.
pub fn legion_feature_cache_setup_on(
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    rows_per_gpu: usize,
    plan: HierarchicalPlan,
) -> Result<SystemSetup, SystemError> {
    let bytes = rows_per_gpu as u64 * ctx.dataset.features.row_bytes();
    let (setup, _plans) = legion_setup_inner(ctx, config, Some(plan), Some(0.0), Some(bytes))?;
    Ok(setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::dataset::spec_by_name;
    use legion_hw::ServerSpec;

    #[test]
    fn legion_builds_unified_cache_on_every_clique() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 7);
        let server = ServerSpec::custom(4, 16 << 20, 2).build();
        let config = LegionConfig::small();
        let ctx = config.build_context(&ds, &server);
        let (setup, plans) = legion_setup_with_plans(&ctx, &config).unwrap();
        assert_eq!(setup.layout.cliques.len(), 2);
        assert_eq!(plans.len(), 2);
        assert_eq!(setup.schedule, ScheduleKind::Pipelined);
        // Tablets cover the training set.
        let total: usize = setup.tablets.iter().map(|t| t.len()).sum();
        assert_eq!(total, ds.train_vertices.len());
        // The plan picked some cache and the fill allocated device memory.
        for g in 0..4 {
            assert!(server.allocated_bytes(g) > 0, "gpu {g} cached nothing");
        }
    }

    #[test]
    fn huge_gpus_cache_everything_and_alpha_balances() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 7);
        // GPUs big enough for all topology + features.
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let config = LegionConfig::small();
        let ctx = config.build_context(&ds, &server);
        let (setup, plans) = legion_setup_with_plans(&ctx, &config).unwrap();
        // With room for everything, predicted residual traffic is zero.
        assert_eq!(plans[0].evaluation.n_total(), 0.0);
        assert_eq!(setup.layout.cliques.len(), 1);
        let fill = server.telemetry().snapshot();
        for kind in ["topology", "feature"] {
            let held: u64 = (0..2)
                .map(|g| fill.counter(&format!("cache_fill.gpu{g}.{kind}_bytes")))
                .sum();
            assert!(held > 0, "{kind}");
        }
    }

    #[test]
    fn budget_override_caps_cache() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 7);
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let mut config = LegionConfig::small();
        config.cache_budget_override = Some(64 * 1024);
        let ctx = config.build_context(&ds, &server);
        let (_, plans) = legion_setup_with_plans(&ctx, &config).unwrap();
        assert!(plans[0].budget <= 2 * 64 * 1024);
    }

    #[test]
    fn feature_only_setup_has_no_topology_cache() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 7);
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        let config = LegionConfig::small();
        let ctx = config.build_context(&ds, &server);
        let setup = legion_feature_cache_setup(&ctx, &config, 50).unwrap();
        for cc in &setup.layout.cliques {
            // Exactly 50 rows per GPU (hot sets are larger than 50).
            for slot in 0..cc.gpus().len() {
                assert_eq!(cc.cache(slot).topology_bytes(), 0);
                assert!(cc.cache(slot).feature_bytes() > 0);
                assert_eq!(cc.cache(slot).feature_entries(), 50);
            }
        }
    }

    #[test]
    fn cpu_oom_on_tiny_host() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 7);
        let mut spec = ServerSpec::custom(2, 1 << 30, 2);
        spec.cpu_memory = 1024;
        let server = spec.build();
        let config = LegionConfig::small();
        let ctx = config.build_context(&ds, &server);
        assert!(matches!(
            legion_setup(&ctx, &config),
            Err(SystemError::CpuOom { .. })
        ));
    }
}
