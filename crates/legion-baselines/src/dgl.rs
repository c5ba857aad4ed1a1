//! DGL v0.9 in UVA mode (§6.2 baseline configuration).
//!
//! "DGL uses the UVA mode, where sampling is performed in GPU, and the
//! topology and features are all stored in CPU memory." No GPU cache, no
//! pipeline: every topology and feature byte crosses PCIe every epoch.

use legion_sampling::access::{CacheLayout, TopologyPlacement};

use crate::{BuildContext, ScheduleKind, SystemError, SystemSetup};

/// Builds the DGL(UVA) setup.
///
/// # Errors
///
/// [`SystemError::CpuOom`] when graph + features exceed host memory.
pub fn setup(ctx: &BuildContext<'_>) -> Result<SystemSetup, SystemError> {
    ctx.host_gate(ctx.dataset_bytes())?;
    let n = ctx.server.num_gpus();
    Ok(SystemSetup {
        name: "DGL".to_string(),
        layout: CacheLayout::none(n),
        tablets: ctx.even_tablets(n),
        topology_placement: TopologyPlacement::CpuUva,
        schedule: ScheduleKind::Serial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::dataset::spec_by_name;
    use legion_hw::ServerSpec;

    #[test]
    fn dgl_has_no_cache_and_serial_schedule() {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 1);
        let server = ServerSpec::dgx_v100().build();
        let ctx = BuildContext {
            dataset: &ds,
            server: &server,
            fanouts: vec![5, 5],
            batch_size: 64,
            presample_epochs: 1,
            reserved_per_gpu: 0,
            cache_budget_override: None,
            seed: 1,
        };
        let s = setup(&ctx).unwrap();
        assert!(s.layout.cliques.is_empty());
        assert_eq!(s.schedule, ScheduleKind::Serial);
        assert_eq!(s.topology_placement, TopologyPlacement::CpuUva);
        let total: usize = s.tablets.iter().map(|t| t.len()).sum();
        assert_eq!(total, ds.train_vertices.len());
        // No GPU memory consumed.
        assert_eq!(server.allocated_bytes(0), 0);
    }

    #[test]
    fn dgl_cpu_ooms_on_oversized_graph() {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 1);
        let mut spec = ServerSpec::dgx_v100();
        spec.cpu_memory = 1024; // Absurdly small host.
        let server = spec.build();
        let ctx = BuildContext {
            dataset: &ds,
            server: &server,
            fanouts: vec![5, 5],
            batch_size: 64,
            presample_epochs: 1,
            reserved_per_gpu: 0,
            cache_budget_override: None,
            seed: 1,
        };
        assert!(matches!(setup(&ctx), Err(SystemError::CpuOom { .. })));
    }
}
