//! A tour of the automatic cache management mechanism (§4.3): build the
//! cost model from a pre-sampling pass, sweep the topology/feature split
//! `α` by hand, and watch the planner pick the argmin automatically.
//!
//! Run with: `cargo run --release -p legion-core --example autotuner_tour`

use legion_cache::{cslp, CostModel, PlannerConfig};
use legion_core::LegionConfig;
use legion_graph::dataset::spec_by_name;
use legion_hw::ServerSpec;
use legion_sampling::HOTNESS_UNIT;

fn main() {
    let dataset = spec_by_name("PA")
        .expect("PA registered")
        .instantiate(2000, 11);
    let server = ServerSpec::custom(2, 1 << 40, 2).build();
    let config = LegionConfig {
        batch_size: 128,
        ..Default::default()
    };

    // Pre-sampling on a two-GPU clique: one tablet per GPU.
    let tablets: Vec<Vec<u32>> = {
        let mid = dataset.train_vertices.len() / 2;
        vec![
            dataset.train_vertices[..mid].to_vec(),
            dataset.train_vertices[mid..].to_vec(),
        ]
    };
    let pres = config
        .build_context(&dataset, &server)
        .presample(&[0, 1], &tablets);
    // Pre-sampling returns expected tallies in fixed point.
    let unit = HOTNESS_UNIT as f64;
    println!(
        "pre-sampling: N_TSUM = {:.0} expected sampling transactions across the clique",
        pres.n_tsum as f64 / unit
    );

    // CSLP orders the candidates; the cost model prices any (B, alpha).
    let topo = cslp(&pres.h_t);
    let feat = cslp(&pres.h_f);
    let model = CostModel::new(
        &dataset.graph,
        &topo.clique_order,
        &topo.accumulated,
        &feat.clique_order,
        &feat.accumulated,
        pres.n_tsum,
        dataset.features.dim(),
        server.pcie().cls(),
    );

    // Manual sweep, like the Figure 13 experiment.
    let budget = dataset.feature_bytes() / 4;
    println!("\nmanual sweep at budget {} KiB:", budget / 1024);
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "alpha", "N_T", "N_F", "N_total"
    );
    for i in 0..=10 {
        let alpha = i as f64 / 10.0;
        let e = model.evaluate(budget, alpha);
        println!(
            "{:>6.1} {:>14.0} {:>14.0} {:>14.0}",
            alpha,
            e.n_t / unit,
            e.n_f / unit,
            e.n_total() / unit
        );
    }

    // The planner searches the same space at delta-alpha = 0.01.
    let planner = PlannerConfig {
        reserved_per_gpu: 0,
        delta_alpha: 0.01,
    };
    let plan = planner.plan_with_budget(&model, budget);
    println!(
        "\nautomatic plan: alpha = {:.2} -> {} KiB topology + {} KiB features, \
         predicted N_total = {:.0}",
        plan.alpha,
        plan.topology_bytes() / 1024,
        plan.feature_bytes() / 1024,
        plan.evaluation.n_total() / unit
    );
}
