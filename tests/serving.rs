//! Cross-crate serving behaviour on a scaled Products (PR) dataset: plan
//! reuse, routing and QoS head-to-heads, and a sane throughput–latency
//! curve. Same-seed replay and the run identities are the config
//! lattice's (`tests/determinism.rs`) and the run checker's.

use legion_fleet::scenarios::{
    churn, clique_machine, golden, golden_dataset, oversub_drift, router_qos,
};
use legion_hw::{MultiGpuServer, ServerSpec};
use legion_serve::{
    estimate_capacity_rps, generate_requests, plan_deployment, run_sweep, serve, serve_requests,
    MutationSource, PolicyKind, PriorityClass, RouterPolicy, ServeConfig,
};

fn server() -> MultiGpuServer {
    ServerSpec::custom(2, 1 << 30, 1).build()
}

/// The golden run over twice the stream and twice the cache.
fn config(policy: PolicyKind) -> ServeConfig {
    ServeConfig {
        num_requests: 1600,
        // Age trigger off: batches close as soon as the GPU frees up,
        // which keeps latency monotone in offered load (a size-triggered
        // low-load point would instead wait for the batch to fill).
        max_wait: 0.0,
        cache_rows_per_gpu: 512,
        ..golden(policy)
    }
}

#[test]
fn different_seeds_change_the_metrics() {
    let d = golden_dataset();
    let server_a = server();
    let a = serve(&d.graph, &d.features, &server_a, &config(PolicyKind::Fifo));
    let server_b = server();
    let mut cfg = config(PolicyKind::Fifo);
    cfg.seed = 43;
    let b = serve(&d.graph, &d.features, &server_b, &cfg);
    assert_ne!(a.metrics, b.metrics);
}

/// A plan is not consumed by a run: two runs of one `Deployment` are
/// byte-identical, and both equal planning afresh. Each leg has state a
/// run mutates — the seeded dispatcher, the store's tier map, every
/// GPU's plan buffer, the overlay — so a run that moved or wrote through
/// the plan's copy instead of cloning it would start its successor from
/// somewhere else.
#[test]
fn deployment_serves_twice_byte_identically() {
    let d = golden_dataset();
    let oversubscribed = |policy| {
        oversub_drift(ServeConfig {
            num_requests: 1600,
            ..golden(policy)
        })
    };
    let legs = [
        (
            "static + router + qos",
            router_qos(config(PolicyKind::StaticHot)),
        ),
        ("fifo + store", oversubscribed(PolicyKind::Fifo)),
        ("replan + store + drift", oversubscribed(PolicyKind::Replan)),
        (
            "static + churn",
            ServeConfig {
                mutations: Some(MutationSource::Generate(churn())),
                ..config(PolicyKind::StaticHot)
            },
        ),
    ];
    for (leg, cfg) in legs {
        let requests = generate_requests(&d.graph, &cfg);
        let spec = clique_machine();
        let server = spec.build();
        let deployment = plan_deployment(&d.graph, &d.features, &server, &cfg);
        let first = deployment.serve(&server, &requests, None).metrics;
        let second = deployment.serve(&server, &requests, None).metrics;
        let fresh = serve_requests(&d.graph, &d.features, &spec.build(), &cfg, &requests).metrics;
        assert_eq!(first, second, "{leg}: the second run saw a used plan");
        assert_eq!(
            first, fresh,
            "{leg}: serving a plan differs from plan + serve"
        );
        if cfg.policy == PolicyKind::Replan {
            assert!(first.counter("serve.replan.count") > 0, "{leg}: no re-plan");
            assert!(
                first.counter("serve.store.migrations") > 0,
                "{leg}: no row migrated"
            );
        }
        if cfg.store.active() {
            assert!(first.counter("store.nvme.bytes") > 0, "{leg}: store idle");
        }
        if cfg.mutations.is_some() {
            assert!(first.counter("graph.mut.inserts") > 0, "{leg}: no churn");
        }
    }
}

/// The head-to-head the router exists for: on a clique server with a
/// partitioned cache, residency routing must beat blind round-robin on
/// feature-cache hit rate.
#[test]
fn residency_routing_beats_round_robin_hit_rate() {
    let d = golden_dataset();
    let hit_rate = |router: RouterPolicy| {
        let mut cfg = config(PolicyKind::StaticHot);
        cfg.router.policy = router;
        serve(&d.graph, &d.features, &clique_machine().build(), &cfg).feature_hit_rate()
    };
    let routed = hit_rate(RouterPolicy::Residency);
    let rr = hit_rate(RouterPolicy::RoundRobin);
    assert!(
        routed > rr,
        "residency routing hit rate {routed:.4} must beat round-robin {rr:.4}"
    );
}

/// End-to-end QoS under heavy overload: Batch is shed first and hardest,
/// Interactive keeps (near-)zero sheds and a better tail than it gets
/// from a class-blind FIFO queue.
#[test]
fn qos_overload_sheds_batch_first_and_protects_interactive() {
    let d = golden_dataset();
    // 3x the measured capacity: queues stay full and admission has to
    // choose whom to drop, but the Interactive share (20% of traffic)
    // still fits the service rate — so strict inverse-priority shedding
    // can keep it whole. The Interactive SLO sits between the priority
    // drain's tail and the class-blind tail, so attainment separates too.
    let capacity = {
        let server = clique_machine().build();
        estimate_capacity_rps(
            &d.graph,
            &d.features,
            &server,
            &router_qos(config(PolicyKind::StaticHot)),
        )
    };
    let overloaded = |qos: bool| {
        let server = clique_machine().build();
        let mut cfg = router_qos(config(PolicyKind::StaticHot));
        cfg.classes.qos = qos;
        cfg.classes.slo_us = [64, 1000, 8000];
        cfg.arrival = legion_serve::ArrivalProcess::Poisson {
            rate: 3.0 * capacity,
        };
        cfg.queue_capacity = 128;
        serve(&d.graph, &d.features, &server, &cfg)
    };
    let qos = overloaded(true);
    let fifo = overloaded(false);
    let i = PriorityClass::Interactive.index();
    let b = PriorityClass::Batch.index();
    assert!(qos.shed > 0, "fixture must overload");
    assert!(qos.class_shed[b] > 0, "Batch must shed under overload");
    assert_eq!(
        qos.class_shed[i], 0,
        "strict inverse-priority shedding keeps Interactive whole"
    );
    assert!(
        qos.class_p99_us[i] < qos.class_p99_us[b],
        "Interactive p99 {} must beat Batch p99 {} under QoS",
        qos.class_p99_us[i],
        qos.class_p99_us[b]
    );
    assert!(
        qos.class_p99_us[i] < fifo.class_p99_us[i],
        "QoS Interactive p99 {} must beat FIFO's {}",
        qos.class_p99_us[i],
        fifo.class_p99_us[i]
    );
    assert!(
        qos.class_slo_attainment[i] > fifo.class_slo_attainment[i],
        "QoS Interactive attainment {:.3} must beat FIFO's {:.3}",
        qos.class_slo_attainment[i],
        fifo.class_slo_attainment[i]
    );
}

#[test]
fn p99_is_monotone_across_the_load_sweep() {
    let d = golden_dataset();
    let srv = server();
    let cfg = config(PolicyKind::Fifo);
    let capacity = estimate_capacity_rps(&d.graph, &d.features, &srv, &cfg);
    let points = run_sweep(
        &d.graph,
        &d.features,
        &srv,
        &cfg,
        capacity,
        &[0.3, 0.9, 2.0],
    );
    assert_eq!(points.len(), 3);
    for pair in points.windows(2) {
        assert!(
            pair[1].p99_us >= pair[0].p99_us,
            "p99 regressed from {} us to {} us between load {} and {}",
            pair[0].p99_us,
            pair[1].p99_us,
            pair[0].load_multiplier,
            pair[1].load_multiplier
        );
    }
    for p in &points {
        assert!(p.slo_attainment >= 0.0 && p.slo_attainment <= 1.0);
    }
    // The overload point must actually be saturated: it sheds or its tail
    // latency dwarfs the light-load tail.
    let last = points.last().unwrap();
    assert!(
        last.shed > 0 || last.p99_us >= 5 * points[0].p99_us,
        "no saturation signature at 2x capacity: shed {} p99 {} vs {}",
        last.shed,
        last.p99_us,
        points[0].p99_us
    );
}
