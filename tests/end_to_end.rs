//! Cross-crate integration test: the full Legion pipeline, from dataset
//! synthesis through hierarchical partitioning, pre-sampling, CSLP, the
//! automatic cache plan, cache fill, and a measured training epoch.

use legion_core::runner::{run_epoch, run_epoch_with_model};
use legion_core::system::{legion_feature_cache_setup, legion_setup_with_plans};
use legion_core::LegionConfig;
use legion_gnn::ModelKind;
use legion_graph::dataset::spec_by_name;
use legion_hw::{MultiGpuServer, ServerSpec};

/// Bytes the fill's `cache_fill.gpu{g}.{kind}_bytes` counters book
/// across `server`.
fn filled(server: &MultiGpuServer, kind: &str) -> u64 {
    let fill = server.telemetry().snapshot();
    (0..server.num_gpus())
        .map(|g| fill.counter(&format!("cache_fill.gpu{g}.{kind}_bytes")))
        .sum()
}

fn config() -> LegionConfig {
    LegionConfig {
        fanouts: vec![5, 5],
        batch_size: 64,
        hidden_dim: 16,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_produces_consistent_state() {
    let dataset = spec_by_name("PR").unwrap().instantiate(1000, 99);
    let spec = ServerSpec::custom(4, 16 << 20, 2);
    let server = spec.build();
    let cfg = config();
    let ctx = cfg.build_context(&dataset, &server);
    let (setup, plans) = legion_setup_with_plans(&ctx, &cfg).expect("setup succeeds");

    // One plan per clique, each within its clique budget.
    assert_eq!(plans.len(), 2);
    for plan in &plans {
        assert!(plan.alpha >= 0.0 && plan.alpha <= 1.0);
        assert!(plan.topology_bytes() + plan.feature_bytes() <= plan.budget);
    }
    // Cache bytes on the server match what the fill booked exactly.
    let allocated: u64 = (0..4).map(|g| server.allocated_bytes(g)).sum();
    assert_eq!(
        filled(&server, "topology") + filled(&server, "feature"),
        allocated
    );

    // Epoch execution: every tablet trains, traffic is booked.
    let report = run_epoch(&setup, &ctx, &cfg);
    assert!(report.epoch_seconds > 0.0);
    assert_eq!(
        report.pcie_total,
        report.pcie_topology + report.pcie_feature
    );
    assert!(report.feature_hit_rate() > 0.0);
    // The traffic snapshot agrees with the byte totals.
    let snap_cpu: u64 = report.traffic.iter().map(|r| r[r.len() - 1]).sum();
    assert_eq!(snap_cpu, report.cpu_bytes);
}

#[test]
fn both_models_run_and_sage_costs_more_compute() {
    let dataset = spec_by_name("PR").unwrap().instantiate(1000, 99);
    let spec = ServerSpec::custom(4, 16 << 20, 2);
    let cfg = config();
    let server = spec.build();
    let ctx = cfg.build_context(&dataset, &server);
    let (setup, _) = legion_setup_with_plans(&ctx, &cfg).unwrap();
    let sage = run_epoch_with_model(&setup, &ctx, &cfg, ModelKind::GraphSage);
    let gcn = run_epoch_with_model(&setup, &ctx, &cfg, ModelKind::Gcn);
    assert!(sage.train_seconds > gcn.train_seconds);
    // Same data path: identical PCIe traffic for both models.
    assert_eq!(sage.pcie_total, gcn.pcie_total);
}

#[test]
fn bigger_cache_budget_never_hurts_traffic() {
    let dataset = spec_by_name("PA").unwrap().instantiate(4000, 99);
    let cfg = config();
    let mut last_tx = u64::MAX;
    for rows in [10usize, 100, 400] {
        let server = ServerSpec::custom(4, 1 << 40, 2).build();
        let ctx = cfg.build_context(&dataset, &server);
        let setup = legion_feature_cache_setup(&ctx, &cfg, rows).unwrap();
        let report = run_epoch(&setup, &ctx, &cfg);
        assert!(
            report.pcie_feature <= last_tx,
            "rows {rows}: {} > previous {last_tx}",
            report.pcie_feature
        );
        last_tx = report.pcie_feature;
    }
}

#[test]
fn unified_cache_serves_both_topology_and_features() {
    let dataset = spec_by_name("PA").unwrap().instantiate(4000, 99);
    let cfg = config();
    let server = ServerSpec::custom(2, 8 << 20, 2).build();
    let ctx = cfg.build_context(&dataset, &server);
    let (setup, plans) = legion_setup_with_plans(&ctx, &cfg).unwrap();
    // The auto planner chose a mixed plan on this skewed graph.
    let cache = &setup.layout.cliques[0];
    assert!(
        plans[0].alpha > 0.0,
        "expected some topology cache, alpha = {}",
        plans[0].alpha
    );
    assert!(filled(&server, "topology") > 0);
    assert!(filled(&server, "feature") > 0);
    // Hot vertices are cached for both kinds somewhere in the clique.
    let hot = (0..dataset.graph.num_vertices() as u32)
        .max_by_key(|&v| dataset.graph.degree(v))
        .unwrap();
    assert!(
        cache.has_topology(hot),
        "hottest vertex topology not cached"
    );
}

/// Every extracted row is metered as exactly one hit or one miss, on
/// every GPU and on every extraction path: the epoch runner's layout
/// pass, the serving engine's layout pass (static, and re-planned above
/// an oversubscribed store), and fleet members under churn. Read off
/// the snapshots, so it holds in a release build too — `flush_totals`
/// asserts the same per batch, in debug builds only.
#[test]
fn extracted_rows_are_conserved_as_hits_plus_misses() {
    use legion_fleet::scenarios::{churn, clique_machine, fleet, golden, oversub_drift};
    use legion_fleet::{serve_fleet, FleetConfig};
    use legion_serve::{serve, MutationSource, PolicyKind, ServeConfig};
    use legion_telemetry::Snapshot;

    fn check(what: &str, snapshot: &Snapshot) {
        let mut rows = 0;
        for g in 0..4 {
            let hits = snapshot.counter(&format!("cache.gpu{g}.feature_hits"));
            let misses = snapshot.counter(&format!("cache.gpu{g}.feature_misses"));
            let extracted = snapshot.counter(&format!("extract.gpu{g}.rows"));
            assert_eq!(hits + misses, extracted, "{what}, GPU {g}");
            rows += extracted;
        }
        assert!(rows > 0, "{what}: fixture extracted nothing");
    }

    let dataset = spec_by_name("PR").unwrap().instantiate(1000, 99);
    let spec = ServerSpec::custom(4, 16 << 20, 2);
    let server = spec.build();
    let cfg = config();
    let ctx = cfg.build_context(&dataset, &server);
    let (setup, _) = legion_setup_with_plans(&ctx, &cfg).expect("setup succeeds");
    check("training epoch", &run_epoch(&setup, &ctx, &cfg).metrics);

    let (graph, features) = (&dataset.graph, &dataset.features);
    let static_hot = golden(PolicyKind::StaticHot);
    let spec = clique_machine();
    check(
        "static serving",
        &serve(graph, features, &spec.build(), &static_hot).metrics,
    );

    let replan_store = oversub_drift(golden(PolicyKind::Replan));
    let report = serve(graph, features, &spec.build(), &replan_store);
    assert!(report.metrics.counter("serve.replan.count") > 0);
    assert!(report.metrics.counter("store.nvme.bytes") > 0);
    check("re-planned serving over a store", &report.metrics);

    let churned = ServeConfig {
        mutations: Some(MutationSource::Generate(churn())),
        ..static_hot
    };
    let fleet = FleetConfig {
        coalesce: true,
        ..fleet(2)
    };
    let report = serve_fleet(graph, features, &spec, &churned, &fleet);
    assert!(report.metrics.counter("fleet.mut.applied") > 0);
    for (i, member) in report.per_server.iter().enumerate() {
        check(&format!("fleet member {i} under churn"), &member.metrics);
    }
}

/// A cache's Equation 3 / Equation 6 byte counters are the only record
/// of what it occupies, so they must equal what its fill allocated on
/// the simulated GPU, per GPU and within the GPU's memory. Checked at
/// golden scale on the three fill paths: Legion's training fill
/// (`build_clique_cache`), the routed StaticHot layout and a Replan
/// warm-up plan per GPU, allocated as a deployment allocates it.
#[test]
fn cache_byte_counters_equal_the_gpu_allocation() {
    use legion_core::system::legion_setup;
    use legion_fleet::scenarios::{clique_machine, golden_dataset};
    use legion_sampling::access::CacheLayout;
    use legion_serve::{
        build_partitioned_layout_adaptive, plan_layout, profile_warmup,
        warmup_hot_vertices_weighted, TargetSampler,
    };

    fn check(what: &str, server: &MultiGpuServer, gpu: usize, layout: &CacheLayout) {
        let (cc, slot) = layout.for_gpu(gpu).expect("every GPU has a cache");
        let booked = cc.cache(slot).topology_bytes() + cc.cache(slot).feature_bytes();
        assert!(booked > 0, "{what}, GPU {gpu}: fixture cached nothing");
        assert_eq!(server.allocated_bytes(gpu), booked, "{what}, GPU {gpu}");
        assert!(booked <= server.spec().gpu_memory, "{what}, GPU {gpu}");
    }

    let dataset = spec_by_name("PR").unwrap().instantiate(1000, 42);
    let cfg = LegionConfig {
        seed: 42,
        ..config()
    };
    let server = ServerSpec::custom(4, 16 << 20, 2).build();
    let setup = legion_setup(&cfg.build_context(&dataset, &server), &cfg).unwrap();
    for gpu in 0..4 {
        check("Legion training fill", &server, gpu, &setup.layout);
    }

    let d = golden_dataset();
    let (graph, features) = (&d.graph, &d.features);
    let spec = clique_machine();
    let mut targets = TargetSampler::new((0..graph.num_vertices() as u32).collect(), 1.1, 0, 0);
    let (hot, weight) = warmup_hot_vertices_weighted(graph, &mut targets, 128, &[5, 3], 42);
    let server = spec.build();
    let (layout, _, _) =
        build_partitioned_layout_adaptive(graph, features, &server, &hot, &weight, 256);
    for gpu in 0..4 {
        check("routed StaticHot layout", &server, gpu, &layout);
    }

    let window = profile_warmup(graph, &mut targets, 128, &[5, 3], 42);
    let server = spec.build();
    for gpu in 0..4 {
        let plan = plan_layout(
            gpu,
            4,
            graph,
            features,
            &window.topo,
            &window.feat,
            window.n_tsum,
            256 * features.row_bytes(),
            0.05,
            server.pcie().cls(),
        );
        server.alloc(gpu, plan.contents.total_bytes()).unwrap();
        check("Replan warm-up plan", &server, gpu, &plan.layout);
    }
}

/// Legion's fill caches exactly the prefix of CSLP's clique orders that
/// the cost model priced (Equations 2–8), on a machine whose budget
/// cannot hold the graph: the first `k · rows_in_budget(m_F / k)` rows of
/// `Q_F`, and a prefix of `Q_T` whose first uncached row fits in no
/// member's remaining `m_T / k`. Each row sits on its CSLP owner unless
/// the owner was full when the row was placed, and then on the member
/// holding the least.
#[test]
fn every_clique_caches_its_plans_priced_prefix() {
    use legion_cache::fill::rows_in_budget;
    use legion_cache::unified::CacheHit;
    use legion_cache::{cslp, CliqueCache, CslpOutput};
    use legion_graph::{topology_bytes_for_degree, VertexId};

    /// Asserts the contract over one order; returns the prefix length.
    fn prefix(
        cache: &CliqueCache,
        order: &CslpOutput,
        cap: u64,
        cost: impl Fn(VertexId) -> u64,
        held: impl Fn(&CliqueCache, usize, VertexId) -> Option<CacheHit>,
    ) -> usize {
        let k = cache.gpus().len();
        let holder = |v| (0..k).find(|&s| held(cache, s, v) == Some(CacheHit::Local));
        let mut load = vec![0u64; k];
        let cached = order
            .clique_order
            .iter()
            .take_while(|&&v| holder(v).is_some())
            .count();
        for &v in &order.clique_order[..cached] {
            let (slot, owner) = (holder(v).unwrap(), order.owner[v as usize] as usize);
            if slot != owner {
                assert!(load[owner] + cost(v) > cap, "{v} left a roomy owner");
                assert_eq!(load[slot], *load.iter().min().unwrap(), "{v}");
            }
            load[slot] += cost(v);
            assert!(load[slot] <= cap, "slot {slot} books past its share");
        }
        let rest = &order.clique_order[cached..];
        assert!(rest.iter().all(|&v| holder(v).is_none()), "not a prefix");
        if let Some(&next) = rest.first() {
            assert!(load.iter().all(|&l| l + cost(next) > cap), "{next} fits");
        }
        cached
    }

    let dataset = spec_by_name("PR").unwrap().instantiate(1000, 99);
    let server = ServerSpec::custom(4, 1 << 18, 2).build();
    let cfg = config();
    let ctx = cfg.build_context(&dataset, &server);
    let (setup, plans) = legion_setup_with_plans(&ctx, &cfg).expect("setup succeeds");
    let (graph, features) = (&dataset.graph, &dataset.features);
    let n = graph.num_vertices();
    assert_eq!(plans.len(), setup.layout.cliques.len());
    for (cache, plan) in setup.layout.cliques.iter().zip(&plans) {
        let gpus = cache.gpus();
        let k = gpus.len();
        let tablets: Vec<_> = gpus.iter().map(|&g| setup.tablets[g].clone()).collect();
        let pres = ctx.presample(gpus, &tablets);
        let (t, f) = (cslp(&pres.h_t), cslp(&pres.h_f));
        let rows = rows_in_budget(features, plan.feature_bytes() / k as u64);
        let feat = prefix(cache, &f, rows as u64, |_| 1, CliqueCache::lookup_feature);
        assert_eq!(feat, (k * rows).min(n));
        let topo = prefix(
            cache,
            &t,
            plan.topology_bytes() / k as u64,
            |v| topology_bytes_for_degree(graph.degree(v)),
            CliqueCache::lookup_topology,
        );
        assert!(feat < n && topo < n, "the budget must not hold the graph");
        assert!(feat > 0 && topo > 0, "{plan:?}");
        // The priced prefixes, less at most what the even shares round
        // away.
        let priced = &plan.evaluation;
        assert!(feat <= priced.feat_cached_vertices && feat + k > priced.feat_cached_vertices);
        assert!(topo <= priced.topo_cached_vertices);
    }
}
