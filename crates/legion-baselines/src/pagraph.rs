//! PaGraph and PaGraph-plus (§3.1).
//!
//! **PaGraph** partitions with a self-reliant strategy, extends each
//! partition with the full L-hop neighborhood of its training vertices
//! (duplicating hub vertices everywhere), samples on the CPU, and caches
//! the highest *in-degree* vertices of each partition on its GPU. The
//! L-hop duplication also inflates host memory — "PaGraph runs out of the
//! CPU memory for most graphs except PR on DGX-V100" (§6.2) — which this
//! module reproduces with an explicit host-memory check.
//!
//! **PaGraph-plus** is the paper's improved variant (§3.1): XtraPulp-style
//! edge-cut-minimizing partitioning (our LDG) and a pre-sampling hotness
//! metric instead of in-degree, run inside the Legion runtime (GPU
//! sampling, pipelined). It fixes the duplication but keeps per-GPU
//! caches, whose hit rates are unbalanced across partitions (Figure 3).

use legion_cache::hotness_order;
use legion_graph::VertexId;
use legion_sampling::access::{CacheLayout, TopologyPlacement};

use legion_partition::pagraph::{pagraph_partition, PaGraphPlan};
use legion_partition::{HashPartitioner, LdgPartitioner, Partitioner};

use crate::policy::{in_degree_hotness, one_gpu_cache};
use crate::{BuildContext, ScheduleKind, SystemError, SystemSetup};

/// Host-memory inflation factor for PaGraph's redundant intermediate
/// buffers on top of the duplicated L-hop partition storage (§6.2).
pub const PAGRAPH_HOST_OVERHEAD: f64 = 1.5;

/// Builds the original PaGraph setup: the [`cache_design`] behind a
/// host-memory gate, with CPU sampling.
///
/// # Errors
///
/// [`SystemError::CpuOom`] when the duplicated partitions plus buffers
/// exceed host memory (the common case on large graphs).
pub fn setup(ctx: &BuildContext<'_>) -> Result<SystemSetup, SystemError> {
    let plan = self_reliant_partition(ctx);
    // Host memory: every partition stores its closure's topology and
    // features; hubs are stored once per partition.
    let dup = plan.duplication_factor();
    ctx.host_gate((ctx.dataset_bytes() as f64 * dup * PAGRAPH_HOST_OVERHEAD) as u64)?;
    Ok(SystemSetup {
        schedule: ScheduleKind::CpuSampling,
        ..cache_design(ctx, &plan, ctx.per_gpu_cache_budget())?
    })
}

/// PaGraph's partitioning (§3.1): one hash partition per GPU, extended
/// with the full L-hop in-neighbourhood of its training vertices.
pub fn self_reliant_partition(ctx: &BuildContext<'_>) -> PaGraphPlan {
    pagraph_partition(
        &ctx.dataset.graph,
        &ctx.dataset.train_vertices,
        ctx.server.num_gpus(),
        ctx.fanouts.len() as u32,
        &HashPartitioner,
    )
}

/// PaGraph's cache design (§3.1) over `plan`: each GPU trains its
/// partition's training vertices and caches the partition's highest
/// in-degree vertices, `per_gpu_bytes` of features.
///
/// On its own this is PaGraph's cache inside the Legion runtime (GPU
/// sampling over UVA, pipelined), as Figure 2 compares it; [`setup`]
/// adds the host-memory gate and CPU sampling.
///
/// # Errors
///
/// [`SystemError::GpuOom`] if a GPU cannot hold its cache.
pub fn cache_design(
    ctx: &BuildContext<'_>,
    plan: &PaGraphPlan,
    per_gpu_bytes: u64,
) -> Result<SystemSetup, SystemError> {
    let n = ctx.server.num_gpus();
    let in_deg = in_degree_hotness(&ctx.dataset.graph);
    let mut cliques = Vec::with_capacity(n);
    let mut tablets: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for (gpu, part) in plan.partitions.iter().enumerate() {
        let mut order = part.vertices.clone();
        order.sort_by(|&a, &b| in_deg[b as usize].cmp(&in_deg[a as usize]).then(a.cmp(&b)));
        cliques.push(one_gpu_cache(ctx, gpu, &order, per_gpu_bytes)?);
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

/// Builds the PaGraph-plus cache design (inside the Legion runtime).
pub fn setup_plus(ctx: &BuildContext<'_>) -> Result<SystemSetup, SystemError> {
    let n = ctx.server.num_gpus();
    let partitioner = LdgPartitioner::default();
    let assignment = partitioner.partition(&ctx.dataset.graph, n);
    let mut tablets: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for &v in &ctx.dataset.train_vertices {
        tablets[assignment[v as usize] as usize].push(v);
    }
    // Per-GPU pre-sampling on the GPU's own tablet.
    let gpus: Vec<usize> = (0..n).collect();
    let pres = ctx.presample(&gpus, &tablets);
    let budget = ctx.per_gpu_cache_budget();
    let mut cliques = Vec::with_capacity(n);
    for gpu in 0..n {
        let order = hotness_order(&pres.h_f.row(gpu));
        cliques.push(one_gpu_cache(ctx, gpu, &order, budget)?);
    }
    Ok(SystemSetup {
        name: "PaGraph-plus".to_string(),
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
            seed: 4,
        }
    }

    #[test]
    fn pagraph_ooms_on_small_host() {
        let ds = spec_by_name("PA").unwrap().instantiate(2000, 1);
        let mut spec = ServerSpec::custom(4, GIB, 2);
        // Host fits the raw dataset but not the duplicated partitions.
        spec.cpu_memory = ds.topology_bytes() + ds.feature_bytes();
        let server = spec.build();
        assert!(matches!(
            setup(&ctx_on(&ds, &server)),
            Err(SystemError::CpuOom { .. })
        ));
    }

    #[test]
    fn pagraph_sets_up_on_big_host() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 1);
        let server = ServerSpec::custom(4, GIB, 2).build();
        let s = setup(&ctx_on(&ds, &server)).unwrap();
        assert_eq!(s.schedule, ScheduleKind::CpuSampling);
        assert_eq!(s.layout.cliques.len(), 4);
        // Tablets cover the training set.
        let total: usize = s.tablets.iter().map(|t| t.len()).sum();
        assert_eq!(total, ds.train_vertices.len());
    }

    #[test]
    fn pagraph_plus_uses_pipelined_gpu_sampling() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 1);
        let server = ServerSpec::custom(4, GIB, 2).build();
        let s = setup_plus(&ctx_on(&ds, &server)).unwrap();
        assert_eq!(s.schedule, ScheduleKind::Pipelined);
        assert_eq!(s.layout.cliques.len(), 4);
        for cc in &s.layout.cliques {
            assert_eq!(cc.gpus().len(), 1, "per-GPU caches, no NVLink use");
        }
    }

    #[test]
    fn pagraph_plus_caches_differ_across_gpus() {
        // Different partitions have different hot sets; unlike GNNLab the
        // replicas must NOT be identical.
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 1);
        let mut spec = ServerSpec::custom(2, GIB, 2);
        spec.gpu_memory = 64 * 1024; // Small cache to force selectivity.
        let server = spec.build();
        let s = setup_plus(&ctx_on(&ds, &server)).unwrap();
        let c0: Vec<bool> = (0..1000)
            .map(|v| s.layout.cliques[0].has_feature(v))
            .collect();
        let c1: Vec<bool> = (0..1000)
            .map(|v| s.layout.cliques[1].has_feature(v))
            .collect();
        assert_ne!(c0, c1, "partition-local caches should differ");
    }
}
