//! Integration test: the paper's out-of-memory outcomes (the "x" marks in
//! Figures 8 and 12) must reproduce from pure capacity accounting.

use legion_baselines::{
    dgl, gnnlab, pagraph, quiver, BuildContext, ScheduleKind, SystemError, SystemSetup,
};
use legion_cache::hotness_order;
use legion_core::experiments::policies::{build_policy, CachePolicy};
use legion_core::experiments::scaled_server;
use legion_core::system::{legion_feature_cache_setup, legion_setup};
use legion_core::LegionConfig;
use legion_graph::dataset::spec_by_name;
use legion_hw::{MultiGpuServer, ServerSpec};
use legion_sampling::access::CacheLayout;
use legion_serve::{build_partitioned_layout_adaptive, build_static_layout};

fn config() -> LegionConfig {
    LegionConfig {
        fanouts: vec![5, 5],
        batch_size: 64,
        ..Default::default()
    }
}

#[test]
fn gnnlab_cannot_hold_uks_topology_in_a_v100() {
    // UKS: 22 GB topology vs. a 16 GB V100 (Figure 8, DGX-V100 column).
    let divisor = 2000;
    let ds = spec_by_name("UKS").unwrap().instantiate(divisor, 1);
    let spec = scaled_server(&ServerSpec::dgx_v100(), divisor);
    let server = spec.build();
    let cfg = config();
    let ctx = cfg.build_context(&ds, &server);
    let err = gnnlab::setup(&ctx, 2).expect_err("topology must not fit");
    assert!(matches!(err, SystemError::GpuOom(_)), "got {err}");
    // Sanity: the scaled topology really is larger than one scaled GPU.
    assert!(ds.topology_bytes() > spec.gpu_memory);
}

#[test]
fn gnnlab_fits_uks_on_a100() {
    // The same graph fits a 40 GB A100 (Figure 8, DGX-A100 column).
    let divisor = 2000;
    let ds = spec_by_name("UKS").unwrap().instantiate(divisor, 1);
    let spec = scaled_server(&ServerSpec::dgx_a100(), divisor);
    let server = spec.build();
    let cfg = config();
    let ctx = cfg.build_context(&ds, &server);
    assert!(gnnlab::setup(&ctx, 2).is_ok());
}

#[test]
fn pagraph_exhausts_host_memory_on_pa_but_not_pr() {
    // "PaGraph runs out of the CPU memory for most graphs except PR on
    // DGX-V100" (§6.2).
    let divisor = 2000;
    let cfg = config();

    let pa = spec_by_name("PA").unwrap().instantiate(divisor, 1);
    let spec = scaled_server(&ServerSpec::dgx_v100(), divisor);
    let server = spec.build();
    let ctx = cfg.build_context(&pa, &server);
    assert!(matches!(
        pagraph::setup(&ctx),
        Err(SystemError::CpuOom { .. })
    ));

    let pr = spec_by_name("PR").unwrap().instantiate(divisor, 1);
    let server2 = spec.build();
    let ctx2 = cfg.build_context(&pr, &server2);
    assert!(
        pagraph::setup(&ctx2).is_ok(),
        "PR must fit PaGraph's host use"
    );
}

#[test]
fn dgl_and_legion_survive_everything_that_fits_host_memory() {
    let divisor = 2000;
    let cfg = config();
    for name in ["PR", "PA", "CO", "UKS"] {
        let ds = spec_by_name(name).unwrap().instantiate(divisor, 1);
        let spec = scaled_server(&ServerSpec::dgx_a100(), divisor);
        let server = spec.build();
        let ctx = cfg.build_context(&ds, &server);
        assert!(dgl::setup(&ctx).is_ok(), "DGL fails on {name}");
        let server2 = spec.build();
        let ctx2 = cfg.build_context(&ds, &server2);
        assert!(legion_setup(&ctx2, &cfg).is_ok(), "Legion fails on {name}");
    }
}

#[test]
fn legion_respects_host_memory_too() {
    let ds = spec_by_name("PR").unwrap().instantiate(2000, 1);
    let mut spec = ServerSpec::custom(2, 1 << 30, 2);
    spec.cpu_memory = ds.topology_bytes() / 2; // Host can't hold the graph.
    let server = spec.build();
    let cfg = config();
    let ctx = cfg.build_context(&ds, &server);
    assert!(matches!(
        legion_setup(&ctx, &cfg),
        Err(SystemError::CpuOom { .. })
    ));
}

/// The bytes each GPU's cache slots record, topology plus features.
fn recorded_bytes(layout: &CacheLayout, num_gpus: usize) -> Vec<u64> {
    let mut bytes = vec![0; num_gpus];
    for cc in &layout.cliques {
        for (slot, &gpu) in cc.gpus().iter().enumerate() {
            bytes[gpu] += cc.cache(slot).topology_bytes() + cc.cache(slot).feature_bytes();
        }
    }
    bytes
}

/// Every set-up builder and both serving layouts book on each GPU
/// exactly what its cache slot records, so a fill that books one row
/// list and inserts another fails here. GNNLab's samplers also hold the
/// topology replica and the reservation.
#[test]
fn every_builder_books_exactly_what_its_caches_hold() {
    const ROWS: usize = 100;
    let ds = spec_by_name("PR").unwrap().instantiate(1000, 42);
    let cfg = LegionConfig {
        cache_budget_override: Some(64 << 10),
        ..config()
    };
    let fresh = || ServerSpec::custom(4, 2 << 20, 2).build();
    let check = |name: &str, server: &MultiGpuServer, layout: &CacheLayout, extra: &[u64]| {
        let allocated: Vec<u64> = (0..4).map(|g| server.allocated_bytes(g)).collect();
        let expected: Vec<u64> = recorded_bytes(layout, 4)
            .iter()
            .zip(extra)
            .map(|(recorded, extra)| recorded + extra)
            .collect();
        assert_eq!(allocated, expected, "{name}: allocated vs recorded + extra");
    };
    let set_up =
        |name: &str, build: &dyn Fn(&BuildContext<'_>) -> Result<SystemSetup, SystemError>| {
            let server = fresh();
            let ctx = BuildContext {
                reserved_per_gpu: 4096,
                ..cfg.build_context(&ds, &server)
            };
            let setup = build(&ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut extra = vec![0; 4];
            if let ScheduleKind::Factored { samplers, .. } = &setup.schedule {
                for &g in samplers {
                    extra[g] = ds.topology_bytes() + ctx.reserved_per_gpu;
                }
            }
            check(name, &server, &setup.layout, &extra);
        };

    set_up("DGL", &|ctx| dgl::setup(ctx));
    set_up("GNNLab", &|ctx| gnnlab::setup(ctx, 1));
    set_up("PaGraph", &|ctx| pagraph::setup(ctx));
    set_up("PaGraph-plus", &|ctx| pagraph::setup_plus(ctx));
    set_up("Quiver-plus", &|ctx| quiver::setup(ctx));
    set_up("Legion", &|ctx| legion_setup(ctx, &cfg));
    set_up("Legion feature cache", &|ctx| {
        legion_feature_cache_setup(ctx, &cfg, ROWS)
    });
    for policy in [
        CachePolicy::GnnLabReplicated,
        CachePolicy::QuiverPlus,
        CachePolicy::PaGraph,
        CachePolicy::PaGraphPlus,
        CachePolicy::Legion,
    ] {
        set_up(policy.name(), &|ctx| build_policy(policy, ctx, &cfg, ROWS));
    }

    let weight: Vec<u64> = (0..ds.graph.num_vertices() as u32)
        .map(|v| ds.graph.degree(v))
        .collect();
    let hot = hotness_order(&weight);
    let server = fresh();
    let layout = build_static_layout(&ds.graph, &ds.features, &server, &hot, ROWS);
    check("serving static", &server, &layout, &[0; 4]);
    let server = fresh();
    let (layout, _, _) =
        build_partitioned_layout_adaptive(&ds.graph, &ds.features, &server, &hot, &weight, ROWS);
    check("serving partitioned", &server, &layout, &[0; 4]);
}
