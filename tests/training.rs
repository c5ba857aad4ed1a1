//! Training-run checks: what every Legion epoch must satisfy on any
//! server and dataset, and the cross-clique balance of `train_pa`'s
//! set-up (PA/500 on a DGX-V100 with its memory scaled by 2000).

use legion_baselines::SystemSetup;
use legion_cache::CachePlan;
use legion_core::experiments::scaled_server;
use legion_core::runner::{run_epoch, EpochReport};
use legion_core::system::legion_setup_with_plans;
use legion_core::LegionConfig;
use legion_graph::dataset::spec_by_name;
use legion_graph::VertexId;
use legion_hw::ServerSpec;
use legion_sampling::HOTNESS_UNIT;

/// Every Legion epoch, on each server shape x {PA, PR} x two seeds:
/// each training seed sits in exactly one tablet and is trained once;
/// the PCM counters sum to the reported PCIe total; each clique books at
/// most its planned budget; and the epoch is its slowest GPU's.
#[test]
fn every_training_epoch_keeps_its_books() {
    let datasets = [("PA", 8000), ("PR", 2000)];
    let servers = [
        ("DGX-V100", ServerSpec::dgx_v100()),
        ("Siton", ServerSpec::siton()),
        ("DGX-A100", ServerSpec::dgx_a100()),
    ];
    for (name, divisor) in datasets {
        let spec = spec_by_name(name).expect("a Table 2 dataset");
        for seed in [1, 2] {
            let ds = spec.instantiate(divisor, seed);
            for (server_name, server_spec) in &servers {
                let case = format!("{name}/{divisor} on {server_name}, seed {seed}");
                // 256 KiB of HBM per GPU: the caches hold part of the data.
                let mut server_spec = server_spec.clone();
                server_spec.gpu_memory = 256 << 10;
                let server = server_spec.build();
                let config = LegionConfig {
                    seed,
                    ..LegionConfig::small()
                };
                let mut ctx = config.build_context(&ds, &server);
                // A reservation puts the planned budget below the GPU's
                // memory, so an over-budget fill books without an OOM.
                ctx.reserved_per_gpu = server.spec().gpu_memory / 4;
                let (setup, plans) = legion_setup_with_plans(&ctx, &config).expect(&case);
                let report = run_epoch(&setup, &ctx, &config);

                let mut dealt: Vec<VertexId> = setup.tablets.iter().flatten().copied().collect();
                dealt.sort_unstable();
                let mut train = ds.train_vertices.clone();
                train.sort_unstable();
                assert_eq!(dealt, train, "{case}: tablets partition the training set");
                for (g, tablet) in setup.tablets.iter().enumerate() {
                    let trained = report.metrics.counter(&format!("batch.gpu{g}.seeds"));
                    assert_eq!(trained, tablet.len() as u64, "{case}: GPU {g}'s seeds");
                }

                assert_eq!(
                    report.metrics.counter_sum("pcm."),
                    report.pcie_total,
                    "{case}"
                );

                for (cc, plan) in setup.layout.cliques.iter().zip(&plans) {
                    let booked: u64 = cc.gpus().iter().map(|&g| server.allocated_bytes(g)).sum();
                    assert!(
                        booked <= plan.budget,
                        "{case}: clique {:?} booked {booked} B of {} B",
                        cc.gpus(),
                        plan.budget
                    );
                }

                let slowest = (0..server.num_gpus())
                    .map(|g| report.metrics.gauge(&format!("epoch.gpu{g}.seconds")))
                    .fold(0.0, f64::max);
                assert_eq!(report.metrics.gauge("epoch.seconds"), slowest, "{case}");
            }
        }
    }
}

/// One epoch on `train_pa`'s set-up, seed 1: its plans and its report.
fn train_pa_epoch() -> (SystemSetup, Vec<CachePlan>, EpochReport) {
    let ds = spec_by_name("PA").expect("PA").instantiate(500, 42);
    let server = scaled_server(&ServerSpec::dgx_v100(), 2000).build();
    let config = LegionConfig {
        batch_size: 256,
        seed: 1,
        ..LegionConfig::default()
    };
    let ctx = config.build_context(&ds, &server);
    let (setup, plans) = legion_setup_with_plans(&ctx, &config).expect("train_pa set-up");
    let report = run_epoch(&setup, &ctx, &config);
    (setup, plans, report)
}

/// `train_pa`'s set-up: S2 puts PA's hubs in one clique, and without the
/// S2b balance that clique's GPUs set the epoch (max / mean 1.47).
#[test]
fn train_pa_cliques_finish_together() {
    let (setup, _, report) = train_pa_epoch();
    let seconds: Vec<f64> = (0..setup.tablets.len())
        .map(|g| report.metrics.gauge(&format!("epoch.gpu{g}.seconds")))
        .collect();
    let mean = seconds.iter().sum::<f64>() / seconds.len() as f64;
    let ratio = seconds.iter().copied().fold(0.0, f64::max) / mean;
    assert!(
        ratio <= 1.15,
        "max / mean of epoch.gpu{{g}}.seconds: {ratio}"
    );
}

/// The cost model predicts the feature traffic each clique's epoch
/// reads: pre-sampling's expected `H_F` priced at the chosen plan is
/// within 6 % of the clique's `pcm.gpu{g}.feature_tx`.
#[test]
fn train_pa_cost_model_predicts_feature_traffic() {
    let (setup, plans, report) = train_pa_epoch();
    for (cc, plan) in setup.layout.cliques.iter().zip(&plans) {
        let predicted = plan.evaluation.n_f / HOTNESS_UNIT as f64;
        let measured: u64 = cc
            .gpus()
            .iter()
            .map(|g| report.metrics.counter(&format!("pcm.gpu{g}.feature_tx")))
            .sum();
        let error = (predicted - measured as f64) / measured as f64;
        assert!(
            error.abs() <= 0.06,
            "clique {:?}: predicted N_F {predicted:.0}, measured {measured} ({:+.1} %)",
            cc.gpus(),
            error * 100.0
        );
    }
}

/// The cost model predicts the topology traffic each clique's epoch
/// reads: pre-sampling's expected `N_TSUM` and `H_T`, with `Q_T` ranked
/// by hotness per byte and priced at the chosen plan (Equation 5), are
/// within 10 % of the clique's `pcm.gpu{g}.topology_tx`.
#[test]
fn train_pa_cost_model_predicts_topology_traffic() {
    let (setup, plans, report) = train_pa_epoch();
    for (cc, plan) in setup.layout.cliques.iter().zip(&plans) {
        let predicted = plan.evaluation.n_t / HOTNESS_UNIT as f64;
        let measured: u64 = cc
            .gpus()
            .iter()
            .map(|g| report.metrics.counter(&format!("pcm.gpu{g}.topology_tx")))
            .sum();
        let error = (predicted - measured as f64) / measured as f64;
        assert!(
            error.abs() <= 0.10,
            "clique {:?}: predicted N_T {predicted:.0}, measured {measured} ({:+.1} %)",
            cc.gpus(),
            error * 100.0
        );
    }
}
