//! GNNLab's factored design (§3.1, §7).
//!
//! GNNLab dedicates some GPUs exclusively to sampling — each sampler
//! holds the *entire* graph topology ("the topology has to be completely
//! stored in a single GPU", §3.2) — and the rest exclusively to training,
//! each trainer holding an identical (replicated) feature cache of the
//! globally hottest vertices, ranked by a pre-sampling pass.
//!
//! Consequences this module reproduces:
//!
//! * topology larger than a GPU ⇒ out-of-memory (UKS on DGX-V100 in
//!   Figure 8),
//! * cache capacity capped at one GPU regardless of GPU count (the
//!   flat-lining curves of Figure 2),
//! * only the trainer subset contributes training throughput (§6.2).

use legion_cache::hotness_order;
use legion_hw::GpuId;
use legion_sampling::access::{CacheLayout, TopologyPlacement};

use crate::policy::one_gpu_cache;
use crate::{BuildContext, ScheduleKind, SystemError, SystemSetup};

/// Builds the GNNLab setup with `num_samplers` dedicated sampling GPUs:
/// the [`cache_design`] on the remaining trainer GPUs, behind the
/// factored split.
///
/// # Errors
///
/// * [`SystemError::Infeasible`] if the split leaves no trainers/samplers,
/// * [`SystemError::GpuOom`] if the topology replica or the feature cache
///   does not fit,
/// * [`SystemError::CpuOom`] if host memory cannot hold the dataset.
pub fn setup(ctx: &BuildContext<'_>, num_samplers: usize) -> Result<SystemSetup, SystemError> {
    let n = ctx.server.num_gpus();
    if num_samplers == 0 || num_samplers >= n {
        return Err(SystemError::Infeasible(format!(
            "factored split {num_samplers}/{} needs both groups non-empty",
            n - num_samplers
        )));
    }
    ctx.host_gate(ctx.dataset_bytes())?;
    let samplers: Vec<usize> = (0..num_samplers).collect();
    let trainers: Vec<usize> = (num_samplers..n).collect();

    // Each sampler GPU holds the full topology (plus reservation).
    let topo_bytes = ctx.dataset.topology_bytes();
    for &g in &samplers {
        ctx.server.alloc(g, topo_bytes + ctx.reserved_per_gpu)?;
    }

    let design = cache_design(ctx, &trainers, ctx.per_gpu_cache_budget())?;
    Ok(SystemSetup {
        name: format!("GNNLab({}s/{}t)", samplers.len(), trainers.len()),
        // Samplers hold the topology locally; the runner treats sampling
        // as PCIe-free, which ReplicatedGpu expresses.
        topology_placement: TopologyPlacement::ReplicatedGpu,
        schedule: ScheduleKind::Factored { samplers, trainers },
        ..design
    })
}

/// GNNLab's cache design (§3.1) on the `trainers` GPUs: they pre-sample
/// hash tablets of the training set (global shuffle), and each holds an
/// identical replica of the globally hottest `per_gpu_bytes` of
/// features. Other GPUs train nothing.
///
/// On its own this is GNNLab's cache inside the Legion runtime (GPU
/// sampling over UVA, pipelined), as Figures 2, 3, 9 and 10 compare it;
/// [`setup`] adds the factored split.
///
/// # Errors
///
/// [`SystemError::GpuOom`] if a trainer cannot hold its replica.
pub fn cache_design(
    ctx: &BuildContext<'_>,
    trainers: &[GpuId],
    per_gpu_bytes: u64,
) -> Result<SystemSetup, SystemError> {
    let n = ctx.server.num_gpus();
    let tablets = ctx.even_tablets(trainers.len());
    let pres = ctx.presample(trainers, &tablets);
    let order = hotness_order(&pres.h_f.column_wise_sum());
    // Replicas never serve peers: one single-GPU clique per trainer.
    let cliques = trainers
        .iter()
        .map(|&g| one_gpu_cache(ctx, g, &order, per_gpu_bytes))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tablets_by_gpu = vec![Vec::new(); n];
    for (&g, tablet) in trainers.iter().zip(tablets) {
        tablets_by_gpu[g] = tablet;
    }
    Ok(SystemSetup {
        name: "GNNLab".to_string(),
        layout: CacheLayout::from_cliques(n, cliques),
        tablets: tablets_by_gpu,
        topology_placement: TopologyPlacement::CpuUva,
        schedule: ScheduleKind::Pipelined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::dataset::spec_by_name;
    use legion_hw::{ServerSpec, GIB};

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
            seed: 3,
        }
    }

    #[test]
    fn factored_setup_allocates_topology_on_samplers() {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 1);
        let server = ServerSpec::custom(4, GIB, 2).build();
        let s = setup(&ctx_on(&ds, &server), 1).unwrap();
        match &s.schedule {
            ScheduleKind::Factored { samplers, trainers } => {
                assert_eq!(samplers, &vec![0]);
                assert_eq!(trainers, &vec![1, 2, 3]);
            }
            other => panic!("wrong schedule {other:?}"),
        }
        // Sampler GPU holds the topology.
        assert_eq!(server.allocated_bytes(0), ds.topology_bytes());
        // Trainers hold identical caches (same byte count).
        assert_eq!(server.allocated_bytes(1), server.allocated_bytes(2));
        assert!(server.allocated_bytes(1) > 0);
        // Sampler GPUs train nothing.
        assert!(s.tablets[0].is_empty());
        assert!(!s.tablets[1].is_empty());
    }

    #[test]
    fn topology_bigger_than_gpu_is_oom() {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 1);
        // GPU smaller than the topology.
        let server = ServerSpec::custom(4, ds.topology_bytes() / 2, 2).build();
        assert!(matches!(
            setup(&ctx_on(&ds, &server), 1),
            Err(SystemError::GpuOom(_))
        ));
    }

    #[test]
    fn degenerate_splits_rejected() {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 1);
        let server = ServerSpec::custom(4, GIB, 2).build();
        assert!(matches!(
            setup(&ctx_on(&ds, &server), 0),
            Err(SystemError::Infeasible(_))
        ));
        assert!(matches!(
            setup(&ctx_on(&ds, &server), 4),
            Err(SystemError::Infeasible(_))
        ));
    }
}
