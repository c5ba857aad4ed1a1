//! Quickstart: train-ready Legion on a laptop-scale Products stand-in.
//!
//! Builds a scaled dataset, assembles the full Legion system (hierarchical
//! partitioning → pre-sampling → CSLP → automatic cache plan → unified
//! cache), runs one measured epoch, and compares it against DGL(UVA) on
//! the same simulated server.
//!
//! Run with: `cargo run --release -p legion-core --example quickstart`

use legion_baselines::dgl;
use legion_core::runner::run_epoch;
use legion_core::system::legion_setup_with_plans;
use legion_core::LegionConfig;
use legion_graph::dataset::spec_by_name;
use legion_hw::ServerSpec;
use legion_sampling::HOTNESS_UNIT;

fn main() {
    // A 1/500-scale OGB-Products stand-in: same degree skew, same feature
    // dimension, 10% training vertices.
    let dataset = spec_by_name("PR")
        .expect("PR is registered")
        .instantiate(500, 42);
    println!(
        "dataset {}: {} vertices, {} edges, {}-dim features, {} train vertices",
        dataset.name,
        dataset.graph.num_vertices(),
        dataset.graph.num_edges(),
        dataset.features.dim(),
        dataset.train_vertices.len()
    );

    // A 4-GPU server with NVLink pairs (Siton-like), 32 MiB per GPU so the
    // cache budget is a real constraint at this scale.
    let spec = ServerSpec::custom(4, 32 << 20, 2);
    let config = LegionConfig {
        fanouts: vec![25, 10],
        batch_size: 128,
        ..Default::default()
    };

    // Legion.
    let server = spec.build();
    let ctx = config.build_context(&dataset, &server);
    let (setup, plans) = legion_setup_with_plans(&ctx, &config).expect("legion setup");
    for (i, plan) in plans.iter().enumerate() {
        println!(
            "clique {i}: budget {} KiB, alpha = {:.2} ({} KiB topology, {} KiB features), \
             predicted residual PCIe = {:.0} transactions",
            plan.budget / 1024,
            plan.alpha,
            plan.topology_bytes() / 1024,
            plan.feature_bytes() / 1024,
            plan.evaluation.n_total() / HOTNESS_UNIT as f64,
        );
    }
    let legion = run_epoch(&setup, &ctx, &config);

    // DGL(UVA) on an identical fresh server.
    let server2 = spec.build();
    let ctx2 = config.build_context(&dataset, &server2);
    let dgl_setup = dgl::setup(&ctx2).expect("dgl setup");
    let dgl_report = run_epoch(&dgl_setup, &ctx2, &config);

    println!(
        "\n{:<10} {:>12} {:>16} {:>10}",
        "system", "epoch (s)", "PCIe txns", "hit rate"
    );
    for r in [&dgl_report, &legion] {
        println!(
            "{:<10} {:>12.4} {:>16} {:>9.1}%",
            r.name,
            r.epoch_seconds,
            r.pcie_total,
            r.feature_hit_rate() * 100.0
        );
    }
    println!(
        "\nLegion speedup over DGL(UVA): {:.2}x, PCIe reduction: {:.2}x",
        dgl_report.epoch_seconds / legion.epoch_seconds,
        dgl_report.pcie_total as f64 / legion.pcie_total.max(1) as f64
    );
}
