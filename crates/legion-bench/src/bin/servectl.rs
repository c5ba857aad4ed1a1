//! `servectl` — sweep offered load over the online serving subsystem and
//! emit throughput–latency curves comparing the static-hotness cache,
//! the FIFO dynamic cache, and the online re-planned cache under
//! request-skew drift.
//!
//! ```bash
//! cargo run --release -p legion-bench --bin servectl           # sweep + drift + router
//! cargo run --release -p legion-bench --bin servectl -- --router # routing + QoS head-to-head
//! cargo run --release -p legion-bench --bin servectl -- --oversubscribe # out-of-core sweep
//! cargo run --release -p legion-bench --bin servectl -- --fleet 16 # scale-out fleet
//! cargo run --release -p legion-bench --bin servectl -- --churn # streaming mutations
//! ```
//!
//! The scenario flags (`--fleet N`, `--router`, `--oversubscribe`,
//! `--churn`) compose: each one named runs once, in that order, on the
//! one instantiated dataset, in place of the base sweep.
//!
//! `--fleet N` runs the scale-out head-to-head: the same open-loop
//! stream over `N` simulated servers, routed by shard residency +
//! projected load versus a uniform random-server baseline, with
//! cross-server feature reads charged through the analytic cluster
//! network model. Asserts residency capacity at matched p99 strictly
//! beats random and (N >= 16) a fleet knee at least 10x the
//! single-machine capacity.
//!
//! `--oversubscribe` runs the legion-store envelope: the same skewed
//! workload DRAM-resident versus a DRAM budget 10x smaller than the
//! feature table (cold tail on the simulated NVMe tier), asserting the
//! lookahead prefetcher hides the SSD below the knee.
//!
//! `--churn` runs the legion-dyn envelope: the same workload over a
//! frozen graph versus production-rate streaming mutations through the
//! delta-CSR overlay, asserting the hit rate stays within 15 points and
//! the p99 within 3x of the frozen baseline.
//!
//! Offered loads are multiples of a measured capacity estimate, so the
//! curve always crosses its saturation knee. Every table is printed
//! from serialized rows, and a scenario's rows are the ones its result
//! file holds. With `LEGION_RESULTS_DIR`
//! set, the run saves `servectl_curves.json` (all load points, all
//! policies) and `servectl_{static,fifo,replan}.metrics.json` (full
//! telemetry snapshots of the drift-comparison runs at 0.9x capacity).
//!
//! The drift comparison prints a per-phase table of *tail* hit rates —
//! the second half of each drift phase, after a policy has had time to
//! react to the rotation — and asserts that re-planning
//! ends strictly above both baselines and recovers to within five
//! points of its own fresh-plan (phase 0) hit rate in every phase.

use std::collections::{BTreeMap, BTreeSet};

use legion_bench::print_rows;
use legion_fleet::scenarios::{clique_machine, fleet, router_qos};
use legion_fleet::{serve_fleet, FleetConfig, FleetPolicy, FleetReport};
use legion_graph::dataset::{spec_by_name, Dataset};
use legion_hw::{MultiGpuServer, ServerSpec, UplinkConfig};
use legion_serve::{
    estimate_capacity_rps, run_sweep, serve, ArrivalProcess, ChurnConfig, LoadPoint,
    MutationSource, PolicyKind, PriorityClass, ReplanConfig, RouterPolicy, ServeConfig,
    ServeReport, StoreConfig, SWEEP_MULTIPLIERS,
};
use legion_telemetry::Snapshot;
use serde::{Serialize, Value};

const POLICIES: [PolicyKind; 3] = [PolicyKind::StaticHot, PolicyKind::Fifo, PolicyKind::Replan];

/// Per-drift-phase tail feature hit rates (`serve.phase{k}.tail_*`),
/// keyed by phase index. The tail covers the second half of each phase,
/// i.e. the settled hit rate after a policy reacted to the rotation.
fn tail_hit_rates(metrics: &Snapshot) -> BTreeMap<u64, f64> {
    let mut hits: BTreeMap<u64, u64> = BTreeMap::new();
    let mut misses: BTreeMap<u64, u64> = BTreeMap::new();
    for c in &metrics.counters {
        let Some(rest) = c.name.strip_prefix("serve.phase") else {
            continue;
        };
        let Some((idx, metric)) = rest.split_once('.') else {
            continue;
        };
        let Ok(k) = idx.parse::<u64>() else { continue };
        match metric {
            "tail_feature_hits" => *hits.entry(k).or_default() += c.value,
            "tail_feature_misses" => *misses.entry(k).or_default() += c.value,
            _ => {}
        }
    }
    let phases: BTreeSet<u64> = hits.keys().chain(misses.keys()).copied().collect();
    phases
        .into_iter()
        .filter_map(|k| {
            let h = *hits.get(&k).unwrap_or(&0);
            let total = h + *misses.get(&k).unwrap_or(&0);
            // Zeroed counters registered by an earlier run on the same
            // server linger in the snapshot; a phase with no samples is
            // not a phase of *this* run.
            (total > 0).then(|| (k, h as f64 / total as f64))
        })
        .collect()
}

/// One row of the router head-to-head: a (router policy, QoS, load) cell
/// with the routing and per-class QoS outcomes that matter for the
/// comparison.
#[derive(serde::Serialize)]
struct RouterRow {
    label: &'static str,
    router: &'static str,
    qos: bool,
    load_multiplier: f64,
    offered: u64,
    completed: u64,
    shed: u64,
    hit_rate: f64,
    route_locality: f64,
    spilled: u64,
    interactive_p99_us: u64,
    interactive_slo_attainment: f64,
    class_shed: [u64; legion_serve::CLASS_COUNT],
}

/// Head-to-head for the routing tier on a two-clique server: residency
/// dispatch vs blind round-robin at the saturation knee, then QoS vs
/// class-blind FIFO admission under overload. Asserts the wins the
/// router exists for.
fn router_head_to_head(dataset: &Dataset, base: &ServeConfig) -> Vec<RouterRow> {
    // The catalogue's routed corner on the 2x2-clique machine, with the
    // router and QoS switched per run.
    let cfg_for = |router: RouterPolicy, qos: bool| {
        let mut cfg = router_qos(ServeConfig {
            policy: PolicyKind::StaticHot,
            ..base.clone()
        });
        cfg.router.policy = router;
        cfg.classes.qos = qos;
        cfg.classes.slo_us = [base.classes.slo_us[0], 1000, 8000];
        cfg
    };
    let capacity = estimate_capacity_rps(
        &dataset.graph,
        &dataset.features,
        &clique_machine().build(),
        &cfg_for(RouterPolicy::Residency, true),
    );
    println!(
        "\nrouter head-to-head on 2x2-clique server (capacity {capacity:.0}/s, mix 20/50/30, interactive SLO {} us):",
        base.classes.slo_us[0]
    );
    let mut rows = Vec::new();
    let mut run =
        |label: &'static str, router: RouterPolicy, qos: bool, mult: f64, queue: usize| {
            let mut cfg = cfg_for(router, qos);
            cfg.arrival = base
                .arrival
                .scaled(mult * capacity / base.arrival.mean_rate());
            cfg.queue_capacity = queue;
            let server = clique_machine().build();
            let r = serve(&dataset.graph, &dataset.features, &server, &cfg);
            let i = PriorityClass::Interactive.index();
            rows.push(RouterRow {
                label,
                router: router.as_str(),
                qos,
                load_multiplier: mult,
                offered: r.offered,
                completed: r.completed,
                shed: r.shed,
                hit_rate: r.feature_hit_rate(),
                route_locality: r.route_locality,
                spilled: r.spilled,
                interactive_p99_us: r.class_p99_us[i],
                interactive_slo_attainment: r.class_slo_attainment[i],
                class_shed: r.class_shed,
            });
        };

    // Below saturation the tail is batch formation: residency routing
    // fills one clique member's batch at the clique's whole arrival
    // rate, where round-robin splits it across every GPU.
    run(
        "round_robin @knee",
        RouterPolicy::RoundRobin,
        true,
        0.9,
        base.queue_capacity,
    );
    run(
        "residency @knee",
        RouterPolicy::Residency,
        true,
        0.9,
        base.queue_capacity,
    );
    // Past the knee with a shallow queue the service-rate gap compounds:
    // slower batches mean deeper backlogs, more sheds, and a worse tail.
    // The FIFO pair isolates routing (class-blind admission on both
    // sides); the QoS pair isolates admission order (same routing).
    run("rr+qos @3x", RouterPolicy::RoundRobin, true, 3.0, 128);
    run("rr+fifo @3x", RouterPolicy::RoundRobin, false, 3.0, 128);
    run(
        "residency+fifo @3x",
        RouterPolicy::Residency,
        false,
        3.0,
        128,
    );
    run("residency+qos @3x", RouterPolicy::Residency, true, 3.0, 128);
    print_rows(&rows);

    let (rr_knee, res_knee) = (&rows[0], &rows[1]);
    let (rr_fifo, res_fifo, res_qos) = (&rows[3], &rows[4], &rows[5]);
    // Routing wins: strictly higher hit rate everywhere, a strictly
    // lower Interactive tail at the knee (fuller batches) and at
    // saturation (class-blind), plus fewer sheds at saturation (faster
    // batches drain deeper backlogs).
    assert!(
        res_knee.hit_rate > rr_knee.hit_rate,
        "residency routing hit rate {:.4} must beat round-robin {:.4} at the knee",
        res_knee.hit_rate,
        rr_knee.hit_rate
    );
    assert!(
        res_knee.interactive_p99_us < rr_knee.interactive_p99_us,
        "residency interactive p99 {} must strictly beat round-robin {} at the knee",
        res_knee.interactive_p99_us,
        rr_knee.interactive_p99_us
    );
    assert!(
        res_fifo.hit_rate > rr_fifo.hit_rate,
        "residency routing hit rate {:.4} must beat round-robin {:.4} at saturation",
        res_fifo.hit_rate,
        rr_fifo.hit_rate
    );
    assert!(
        res_fifo.interactive_p99_us < rr_fifo.interactive_p99_us,
        "residency interactive p99 {} must strictly beat round-robin {} at saturation",
        res_fifo.interactive_p99_us,
        rr_fifo.interactive_p99_us
    );
    assert!(
        res_fifo.shed < rr_fifo.shed,
        "residency routing must shed less at saturation: {} vs {}",
        res_fifo.shed,
        rr_fifo.shed
    );
    // QoS wins at the same routing: Batch shed first, Interactive kept
    // whole with its SLO intact and a tail no worse than class-blind.
    let b = PriorityClass::Batch.index();
    assert!(res_qos.shed > 0, "overload point must shed");
    assert!(
        res_qos.class_shed[b] > 0 && res_qos.class_shed[0] == 0,
        "QoS must shed Batch first and keep Interactive whole: {:?}",
        res_qos.class_shed
    );
    assert!(
        res_qos.interactive_slo_attainment >= 0.95,
        "QoS interactive SLO attainment {:.3} must stay above 95% under overload",
        res_qos.interactive_slo_attainment
    );
    assert!(
        res_qos.interactive_slo_attainment >= res_fifo.interactive_slo_attainment,
        "QoS interactive attainment {:.3} must not trail class-blind FIFO {:.3}",
        res_qos.interactive_slo_attainment,
        res_fifo.interactive_slo_attainment
    );
    assert!(
        res_qos.interactive_p99_us <= res_fifo.interactive_p99_us,
        "QoS interactive p99 {} must not trail class-blind FIFO {}",
        res_qos.interactive_p99_us,
        res_fifo.interactive_p99_us
    );
    println!(
        "  [router] hit rate +{:.1} pts, interactive p99 {} -> {} us at the knee; saturation \
         interactive p99 {} -> {} us, sheds {} -> {}; QoS interactive attainment {:.1}% \
         (class-blind {:.1}%)",
        (res_knee.hit_rate - rr_knee.hit_rate) * 100.0,
        rr_knee.interactive_p99_us,
        res_knee.interactive_p99_us,
        rr_fifo.interactive_p99_us,
        res_fifo.interactive_p99_us,
        rr_fifo.shed,
        res_fifo.shed,
        res_qos.interactive_slo_attainment * 100.0,
        res_fifo.interactive_slo_attainment * 100.0
    );
    rows
}

/// One row of the oversubscription sweep: a (config, load) cell with
/// the latency tail and the SSD-tier traffic that explains it.
#[derive(serde::Serialize)]
struct OversubRow {
    config: &'static str,
    load_multiplier: f64,
    offered: u64,
    completed: u64,
    shed: u64,
    p50_us: u64,
    p99_us: u64,
    prefetch_hits: u64,
    late_stalls: u64,
    cold_reads: u64,
    prefetch_hit_ratio: f64,
    nvme_bytes: u64,
    migrations: u64,
}

/// Prefetch hit ratio over all SSD-tier touches: of the rows a batch
/// needed that the plan placed on NVMe, the fraction already staged in
/// DRAM when the extractor asked for them.
fn prefetch_hit_ratio(metrics: &Snapshot) -> f64 {
    let hits = metrics.counter("serve.store.prefetch_hits");
    let total = hits
        + metrics.counter("serve.store.late_stalls")
        + metrics.counter("serve.store.cold_reads");
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

/// Out-of-core sweep: the same skewed serving workload with the whole
/// feature table DRAM-resident versus a DRAM budget ten times smaller
/// than the table, forcing the planner to spill the cold tail to the
/// simulated NVMe tier. Asserts the envelope the store exists for:
/// below the knee the lookahead prefetcher hides the SSD (hit ratio of
/// at least 80%) and the p99 at half the resident knee stays within 3x
/// of the resident baseline.
fn oversubscribe_sweep(dataset: &Dataset, base: &ServeConfig) -> Vec<OversubRow> {
    // A stable head-heavy skew (the drift-comparison exponent, drift
    // off): out-of-core placement is only meaningful when hotness is a
    // property of the vertex, not of the phase. Single-hop fanout — the
    // low-latency regime online serving runs in, and the one where the
    // lookahead prefetcher has exact coverage: every feature row a
    // queued request can touch lies in its target's adjacency list, so
    // staging target + neighbors ahead of extraction hides the SSD.
    let cfg_for = |store: StoreConfig| {
        let mut cfg = base.clone();
        cfg.policy = PolicyKind::StaticHot;
        cfg.zipf_exponent = 1.8;
        cfg.drift_period = 0;
        cfg.fanouts = vec![8];
        // The micro-batcher's accumulation window is sized to cover the
        // flash read wave (80 us base latency plus the block-granular
        // transfer of a whole adjacency list): a row staged at
        // admission is ready by the time its batch launches. Both
        // configs run the same window, so the resident baseline pays
        // the same batching delay and the comparison isolates the tier.
        cfg.max_wait = 4e-4;
        // Scarce HBM: with the sweep's generous per-GPU cache most of
        // the table is HBM-resident and the DRAM/SSD split never sees
        // traffic. 64 rows/GPU keeps the HBM tier an order of magnitude
        // below the DRAM budget.
        cfg.cache_rows_per_gpu = 64;
        cfg.store = store;
        cfg
    };
    // Feature table ~10x the DRAM budget; staging window and prefetch
    // depth sized so the lookahead prefetcher can keep the working set
    // of SSD rows staged at sub-knee load.
    let dram_budget = dataset.feature_bytes() / 10;
    let store_on = || StoreConfig {
        dram_budget_bytes: Some(dram_budget),
        staging_rows: 3072,
        nvme: legion_serve::NvmeGeneration::Gen3x4,
        lookahead_requests: 64,
        prefetch_neighbors: 64,
        prefetch_budget: 512,
    };
    let store_off = || StoreConfig::default();
    let server = || ServerSpec::dgx_v100().truncated(4).build();
    // Load points anchor to the *store-aware* capacity probe — the one
    // that charges NVMe staging time when the plan spills rows to SSD —
    // so "1.0x" sits at the oversubscribed config's own knee and the
    // sub-knee points genuinely are below it.
    let resident_cap = estimate_capacity_rps(
        &dataset.graph,
        &dataset.features,
        &server(),
        &cfg_for(store_off()),
    );
    let capacity = estimate_capacity_rps(
        &dataset.graph,
        &dataset.features,
        &server(),
        &cfg_for(store_on()),
    );
    println!(
        "\noversubscription sweep: feature table {:.2} MiB, DRAM budget {:.2} MiB (10x oversubscribed), \
         HBM {} rows/GPU, staging {} rows",
        dataset.feature_bytes() as f64 / (1 << 20) as f64,
        dram_budget as f64 / (1 << 20) as f64,
        cfg_for(store_off()).cache_rows_per_gpu,
        store_on().staging_rows,
    );
    println!(
        "  capacity probe: resident {resident_cap:.0}/s, oversubscribed {capacity:.0}/s \
         ({:.2}x slowdown); loads are multiples of the oversubscribed knee",
        resident_cap / capacity,
    );
    let mut rows = Vec::new();
    let multipliers = [0.25, 0.5, 0.75, 1.0, 1.5];
    let mut run = |label: &'static str, store: StoreConfig, mult: f64| {
        let server = server();
        let mut cfg = cfg_for(store);
        cfg.arrival = base
            .arrival
            .scaled(mult * capacity / base.arrival.mean_rate());
        let r = serve(&dataset.graph, &dataset.features, &server, &cfg);
        rows.push(OversubRow {
            config: label,
            load_multiplier: mult,
            offered: r.offered,
            completed: r.completed,
            shed: r.shed,
            p50_us: r.p50_us,
            p99_us: r.p99_us,
            prefetch_hits: r.metrics.counter("serve.store.prefetch_hits"),
            late_stalls: r.metrics.counter("serve.store.late_stalls"),
            cold_reads: r.metrics.counter("serve.store.cold_reads"),
            prefetch_hit_ratio: prefetch_hit_ratio(&r.metrics),
            nvme_bytes: r.metrics.counter("store.nvme.bytes"),
            migrations: r.metrics.counter("serve.store.migrations"),
        });
    };
    for mult in multipliers {
        run("resident", store_off(), mult);
        run("oversub", store_on(), mult);
    }
    print_rows(&rows);

    // The envelope the store is built for, point by point.
    let point = |label: &str, mult: f64| {
        rows.iter()
            .find(|r| r.config == label && r.load_multiplier == mult)
            .expect("sweep ran this point")
    };
    for r in rows.iter().filter(|r| r.config == "oversub") {
        assert!(
            r.nvme_bytes > 0,
            "oversubscribed run at {:.2}x must touch the NVMe tier",
            r.load_multiplier
        );
        if r.load_multiplier <= 0.5 {
            assert!(
                r.prefetch_hit_ratio >= 0.80,
                "prefetch hit ratio {:.3} at sub-knee load {:.2}x must stay >= 80%",
                r.prefetch_hit_ratio,
                r.load_multiplier
            );
        }
    }
    let (res_half, over_half) = (point("resident", 0.5), point("oversub", 0.5));
    assert!(
        over_half.p99_us <= 3 * res_half.p99_us.max(1),
        "oversubscribed p99 {} us at 0.5x knee must stay within 3x of the resident baseline {} us",
        over_half.p99_us,
        res_half.p99_us
    );
    println!(
        "  [store] 0.5x knee p99 {} -> {} us ({:.2}x); sub-knee prefetch hit ratio {:.1}%",
        res_half.p99_us,
        over_half.p99_us,
        over_half.p99_us as f64 / res_half.p99_us.max(1) as f64,
        over_half.prefetch_hit_ratio * 100.0,
    );
    rows
}

/// One row of the fleet head-to-head: a (routing policy, load) cell
/// with the cluster-wide tail, locality, and cross-server traffic. A
/// knee-search point carries its series' label with `/search` appended.
#[derive(serde::Serialize)]
struct FleetRow {
    policy: String,
    num_servers: usize,
    load_multiplier: f64,
    offered_rps: f64,
    offered: u64,
    completed: u64,
    shed: u64,
    p50_us: u64,
    p99_us: u64,
    throughput_rps: f64,
    locality: f64,
    remote_reads: u64,
    remote_bytes: u64,
    remote_msgs: u64,
    dedup_hits: u64,
    replicated_rows: usize,
}

/// Resolves a series' knee between its grid points. `grid` holds each
/// load fraction, ascending, with its throughput if that point passed;
/// `probe` runs one more load fraction and answers the same way. Bisects
/// between the highest passing grid point (or 0 if none passes) and the
/// lowest failing one above it down to a 0.01-wide bracket, so it never
/// runs above the grid's top point, and returns the best passing
/// throughput (0 if nothing passes).
fn resolve_knee(grid: &[(f64, Option<f64>)], mut probe: impl FnMut(f64) -> Option<f64>) -> f64 {
    let mut best = grid.iter().filter_map(|&(_, t)| t).fold(0.0, f64::max);
    let mut lo = grid
        .iter()
        .rev()
        .find(|(_, t)| t.is_some())
        .map_or(0.0, |&(frac, _)| frac);
    let Some(&(mut hi, _)) = grid.iter().find(|&&(frac, _)| frac > lo) else {
        return best;
    };
    while hi - lo > 0.01 {
        let mid = (lo + hi) / 2.0;
        match probe(mid) {
            Some(t) => {
                best = best.max(t);
                lo = mid;
            }
            None => hi = mid,
        }
    }
    best
}

/// Scale-out head-to-head: the same open-loop stream over `n` simulated
/// servers, front-tier routed by shard residency + projected load vs a
/// uniform random-server baseline, at multiples of the aggregate
/// (`n` x single-machine) capacity. Cross-server reads cost wire time
/// through the cluster network model, so mis-routing shows up as a
/// lower knee. Asserts the residency locality and remote-traffic wins,
/// residency knee capacity strictly above random at a matched p99
/// ceiling, and — with `n >= 16` — a fleet knee at least 10x the
/// single-machine capacity.
fn fleet_head_to_head(dataset: &Dataset, base: &ServeConfig, n: usize) -> Vec<FleetRow> {
    let spec = ServerSpec::dgx_v100().truncated(4);
    // The fleet comparison pins the per-server engine to the static
    // planned cache: plan quality is fixed, so
    // the only degrees of freedom are *which server* a request lands on
    // and what its misses cost on the wire.
    let cfg = ServeConfig {
        policy: PolicyKind::StaticHot,
        ..base.clone()
    };
    let capacity = estimate_capacity_rps(&dataset.graph, &dataset.features, &spec.build(), &cfg);
    let run_on = |policy: FleetPolicy,
                  servers: usize,
                  frac: f64,
                  uplink: Option<UplinkConfig>,
                  coalesce: bool|
     -> FleetReport {
        let fleet = FleetConfig {
            policy,
            // Both policies project against the same measured drain rate.
            drain_rps: Some(capacity),
            uplink,
            coalesce,
            ..fleet(servers)
        };
        let mut cfg = cfg.clone();
        cfg.arrival = base
            .arrival
            .scaled(frac * servers as f64 * capacity / base.arrival.mean_rate());
        // Scale the stream with the fleet so every server drains a
        // stream comparable to the single-machine baseline; with a
        // fixed stream the constant per-server pipeline-drain tail
        // would dominate the 16x-shorter arrival span and the measured
        // "scale-out" would be a finite-stream artifact, not routing.
        cfg.num_requests = cfg.num_requests.saturating_mul(servers);
        serve_fleet(&dataset.graph, &dataset.features, &spec, &cfg, &fleet)
    };

    let fractions = [0.2, 0.4, 0.6, 0.8, 1.1];
    let mut rows = Vec::new();
    // Series: the measured single-machine baseline (an N=1 fleet, which
    // is byte-identical to the plain engine), then the residency fleet,
    // then the random-server baseline. `--fleet 1` degenerates to the
    // single-machine series alone: with one server residency and random
    // route identically and nothing crosses the wire.
    let mut series: Vec<(&'static str, FleetPolicy, usize)> =
        vec![("single", FleetPolicy::Residency, 1)];
    if n > 1 {
        series.push(("residency", FleetPolicy::Residency, n));
        series.push(("random", FleetPolicy::Random, n));
    }
    let make_row = |label: String, servers: usize, frac: f64, r: &FleetReport| FleetRow {
        policy: label,
        num_servers: servers,
        load_multiplier: frac,
        offered_rps: frac * servers as f64 * capacity,
        offered: r.offered,
        completed: r.completed,
        shed: r.shed,
        p50_us: r.p50_us,
        p99_us: r.p99_us,
        throughput_rps: r.throughput_rps,
        locality: r.locality,
        remote_reads: r.remote_reads,
        remote_bytes: r.remote_bytes,
        remote_msgs: r.remote_msgs,
        dedup_hits: r.dedup_hits,
        replicated_rows: r.replicated_rows,
    };
    for &(label, policy, servers) in &series {
        for frac in fractions {
            let r = run_on(policy, servers, frac, None, false);
            if label == "residency" && frac == fractions[fractions.len() - 2] {
                legion_bench::save_snapshot("servectl_fleet_residency", &r.metrics);
            }
            rows.push(make_row(label.to_string(), servers, frac, &r));
        }
    }

    // Knee capacity at a matched p99: the shared ceiling is 5x the
    // lowest-load single-machine tail; a series' knee is the best
    // throughput it sustains at a load that sheds nothing and stays
    // under the ceiling, searched between the grid points. The grid
    // rows alone feed every other sum below.
    fn points<'a>(rows: &'a [FleetRow], label: &str) -> Vec<&'a FleetRow> {
        rows.iter().filter(|r| r.policy == label).collect()
    }
    let p99_cap = 5 * rows[0].p99_us.max(1);
    let passes = |r: &FleetRow| (r.shed == 0 && r.p99_us <= p99_cap).then_some(r.throughput_rps);
    let knee = |rows: &mut Vec<FleetRow>, label: &str, policy, servers, uplink| -> f64 {
        let grid: Vec<_> = points(rows, label)
            .iter()
            .map(|r| (r.load_multiplier, passes(r)))
            .collect();
        resolve_knee(&grid, |frac| {
            let r = run_on(policy, servers, frac, uplink, false);
            rows.push(make_row(format!("{label}/search"), servers, frac, &r));
            rows.last().and_then(passes)
        })
    };
    let knees: Vec<f64> = series
        .iter()
        .map(|&(label, policy, servers)| knee(&mut rows, label, policy, servers, None))
        .collect();
    let replicated = rows
        .iter()
        .find(|r| r.num_servers == n)
        .map_or(0, |r| r.replicated_rows);
    println!(
        "\nfleet head-to-head: {} servers ({} x4), single-machine capacity probe {capacity:.0}/s, \
         {} hot rows replicated per server; fleet loads are multiples of {}x that probe, and the \
         scale-out yardstick is the measured single-machine (N=1) open-loop knee",
        n, spec.name, replicated, n
    );
    print_rows(&rows);

    let single_knee = knees[0];
    assert!(
        single_knee > 0.0,
        "single-machine baseline must have a point under the p99 ceiling"
    );
    if n == 1 {
        println!(
            "  [fleet] single-machine open-loop knee {single_knee:.0}/s at p99 <= {p99_cap} us \
             (run --fleet N with N > 1 for the scale-out head-to-head)"
        );
        return rows;
    }
    let (res_knee, rnd_knee) = (knees[1], knees[2]);
    let res = points(&rows, "residency");
    let rnd = points(&rows, "random");
    let res_locality = res.iter().map(|r| r.locality).fold(f64::INFINITY, f64::min);
    let rnd_locality = rnd.iter().map(|r| r.locality).fold(0.0, f64::max);
    let res_remote: u64 = res.iter().map(|r| r.remote_reads).sum();
    let rnd_remote: u64 = rnd.iter().map(|r| r.remote_reads).sum();
    println!(
        "  [fleet] knee capacity at p99 <= {p99_cap} us: residency {res_knee:.0}/s vs random {rnd_knee:.0}/s \
         ({:+.1} %), single machine {single_knee:.0}/s; scale-out {:.1}x{} at N={n}; \
         locality {:.1}% vs {:.1}%; remote reads {res_remote} vs {rnd_remote}",
        (res_knee / rnd_knee - 1.0) * 100.0,
        res_knee / single_knee,
        if n >= 16 { " vs 10x" } else { "" },
        res_locality * 100.0,
        rnd_locality * 100.0,
    );
    assert!(
        res_locality > rnd_locality,
        "residency locality {res_locality:.3} must beat random {rnd_locality:.3}"
    );
    assert!(
        res_remote < rnd_remote,
        "residency must move fewer rows over the wire: {res_remote} vs {rnd_remote}"
    );
    assert!(
        res_knee > rnd_knee,
        "residency knee capacity {res_knee:.0}/s must strictly beat random {rnd_knee:.0}/s at matched p99"
    );
    if n >= 16 {
        assert!(
            res_knee >= 10.0 * single_knee,
            "a {n}-server fleet must sustain >= 10x the single-machine knee with a flat p99: \
             {res_knee:.0}/s vs 10x {single_knee:.0}/s"
        );
    }

    // Contended fabric: the same head-to-head with a heavily shared
    // uplink (8:1 ToR oversubscription, 25% per-peer NIC tax — a busy
    // cluster, not the 4:1 default), with and without per-owner
    // remote-read coalescing. Under contention every wire byte costs
    // more, so (a) coalescing must strictly cut both messages and
    // bytes, and (b) residency's knee advantage over random must
    // *widen* relative to the uncontended ratio measured above — the
    // contention multiplier amplifies exactly the per-row traffic
    // residency routes around.
    let uplink = UplinkConfig {
        oversubscription: 8.0,
        nic_serialization: 0.25,
    };
    println!(
        "\n  contended fabric: {}:1 ToR oversubscription, {:.0}% NIC serialization per peer \
         (stretch {:.2}x at {n} servers)",
        uplink.oversubscription,
        uplink.nic_serialization * 100.0,
        uplink.stretch(n)
    );
    let contended: Vec<(&'static str, FleetPolicy, bool)> = vec![
        ("res+up", FleetPolicy::Residency, false),
        ("res+up+co", FleetPolicy::Residency, true),
        ("rand+up", FleetPolicy::Random, false),
        ("rand+up+co", FleetPolicy::Random, true),
    ];
    let uncontended = rows.len();
    for &(label, policy, coalesce) in &contended {
        for frac in fractions {
            let r = run_on(policy, n, frac, Some(uplink), coalesce);
            rows.push(make_row(label.to_string(), n, frac, &r));
        }
    }
    let res_up_knee = knee(&mut rows, "res+up", FleetPolicy::Residency, n, Some(uplink));
    let rnd_up_knee = knee(&mut rows, "rand+up", FleetPolicy::Random, n, Some(uplink));
    print_rows(&rows[uncontended..]);
    let sum = |label: &str, f: fn(&FleetRow) -> u64| -> u64 {
        rows.iter().filter(|r| r.policy == label).map(f).sum()
    };
    let (raw_bytes, raw_msgs) = (
        sum("res+up", |r| r.remote_bytes),
        sum("res+up", |r| r.remote_msgs),
    );
    let (co_bytes, co_msgs) = (
        sum("res+up+co", |r| r.remote_bytes),
        sum("res+up+co", |r| r.remote_msgs),
    );
    let co_dedup = sum("res+up+co", |r| r.dedup_hits);
    println!(
        "  [fleet] coalescing: {raw_msgs} -> {co_msgs} wire messages, \
         {:.2} -> {:.2} MiB, {co_dedup} window dedup hits",
        raw_bytes as f64 / (1 << 20) as f64,
        co_bytes as f64 / (1 << 20) as f64,
    );
    assert!(
        co_msgs < raw_msgs,
        "per-owner coalescing must strictly cut wire messages: {co_msgs} vs {raw_msgs}"
    );
    assert!(
        co_bytes < raw_bytes,
        "per-owner coalescing must strictly cut wire bytes: {co_bytes} vs {raw_bytes}"
    );
    let (widened, uncontended_ratio) = (res_up_knee / rnd_up_knee, res_knee / rnd_knee);
    println!(
        "  [fleet] contended knees at p99 <= {p99_cap} us: residency \
         {res_up_knee:.0}/s vs random {rnd_up_knee:.0}/s (uncontended {res_knee:.0}/s vs {rnd_knee:.0}/s); \
         widen {widened:.3} vs {uncontended_ratio:.3} ({:+.1} %)",
        (widened / uncontended_ratio - 1.0) * 100.0
    );
    assert!(
        res_up_knee > 0.0,
        "residency must keep a point under the p99 ceiling on the contended fabric"
    );
    // Product form of res_up/rnd_up > res/rnd, robust to a random
    // baseline with no point under the ceiling.
    assert!(
        res_up_knee * rnd_knee > res_knee * rnd_up_knee,
        "residency's knee advantage must widen under contention: \
         {res_up_knee:.0}/{rnd_up_knee:.0} vs uncontended {res_knee:.0}/{rnd_knee:.0}"
    );
    rows
}

/// One scenario row of the drift-resize comparison.
#[derive(serde::Serialize)]
struct DriftFleetRow {
    scenario: &'static str,
    locality: f64,
    resizes: u64,
    refill_rows: u64,
    replicated_rows: usize,
    head_rows: u64,
    completed: u64,
    shed: u64,
    p99_us: u64,
}

/// Drift scenario for the fleet tier: the workload's hot set rotates
/// hard halfway through the stream (the existing drifting generator,
/// stride = half the vertex space), and the statically planned
/// replicated head goes cold. Three fleets serve it on the contended
/// fabric with coalescing on:
///
/// * `fresh` — no drift: the plan-time head matches the live hot set
///   all run (the fresh-plan yardstick),
/// * `frozen` — drifting stream, head pinned at plan time,
/// * `resized` — drifting stream, [`FleetConfig::resize_on_drift`]:
///   the front tier re-sizes the head from the windowed hotness curve
///   at bucket boundaries, refilling replicas over the charged fabric.
///
/// Asserts the rotation triggers at least one resize and that the
/// resized fleet's locality lands within five points of the fresh-plan
/// fleet's.
fn fleet_drift_resize(dataset: &Dataset, base: &ServeConfig, n: usize) -> Vec<DriftFleetRow> {
    let spec = ServerSpec::dgx_v100().truncated(4);
    let cfg = ServeConfig {
        policy: PolicyKind::StaticHot,
        ..base.clone()
    };
    let capacity = estimate_capacity_rps(&dataset.graph, &dataset.features, &spec.build(), &cfg);
    let mut drifting = cfg.clone();
    // Moderate load well under the knee: the comparison is about
    // residency, not queueing.
    drifting.arrival = base
        .arrival
        .scaled(0.5 * n as f64 * capacity / base.arrival.mean_rate());
    drifting.num_requests = cfg.num_requests.saturating_mul(n);
    // One hard rotation at mid-stream, displacing the hot head to the
    // far half of the vertex space.
    drifting.drift_period = drifting.num_requests / 2;
    drifting.drift_stride = dataset.graph.num_vertices() / 2;
    let fresh_cfg = ServeConfig {
        drift_period: 0,
        ..drifting.clone()
    };
    let run = |cfg: &ServeConfig, resize: bool| -> FleetReport {
        let fleet = FleetConfig {
            drain_rps: Some(capacity),
            uplink: Some(UplinkConfig::default()),
            coalesce: true,
            resize_on_drift: resize,
            ..fleet(n)
        };
        serve_fleet(&dataset.graph, &dataset.features, &spec, cfg, &fleet)
    };
    let fresh = run(&fresh_cfg, false);
    let frozen = run(&drifting, false);
    let resized = run(&drifting, true);
    println!(
        "\nfleet drift resize: {} servers, {} requests, hot set rotates {} positions at request {}",
        n, drifting.num_requests, drifting.drift_stride, drifting.drift_period
    );
    let rows: Vec<DriftFleetRow> = [
        ("fresh", &fresh),
        ("frozen", &frozen),
        ("resized", &resized),
    ]
    .into_iter()
    .map(|(label, r)| DriftFleetRow {
        scenario: label,
        locality: r.locality,
        resizes: r.resizes,
        refill_rows: r.metrics.counter("fleet.resize.refill_rows"),
        replicated_rows: r.replicated_rows,
        head_rows: r.metrics.gauge("fleet.resize.head_rows") as u64,
        completed: r.completed,
        shed: r.shed,
        p99_us: r.p99_us,
    })
    .collect();
    print_rows(&rows);
    assert!(
        resized.resizes >= 1,
        "the mid-stream rotation must trigger at least one head resize"
    );
    assert!(
        resized.locality >= fresh.locality - 0.05,
        "drift-resized locality {:.3} must land within 5 points of the fresh-plan fleet {:.3} \
         (frozen head: {:.3})",
        resized.locality,
        fresh.locality,
        frozen.locality
    );
    rows
}

/// One row of the churn head-to-head: a (policy, config) cell with the
/// latency tail, the cache hit rate, and the mutation/invalidation
/// telemetry that explains it.
#[derive(serde::Serialize)]
struct ChurnRow {
    policy: &'static str,
    config: &'static str,
    offered: u64,
    completed: u64,
    shed: u64,
    p50_us: u64,
    p99_us: u64,
    hit_rate: f64,
    mut_inserts: u64,
    mut_deletes: u64,
    compactions: u64,
    overlay_rows: u64,
    invalidate_topo_rows: u64,
    invalidate_residency_bits: u64,
}

/// Streaming-mutation head-to-head: the same skewed serving workload at
/// 0.9x capacity over a frozen graph versus production-rate churn
/// (edge inserts/deletes/vertex churn at a quarter of the request
/// rate) streamed through the delta-CSR overlay. Asserts, per policy,
/// that churn keeps the hit rate within 15 points and the p99 within
/// 3x of the frozen baseline.
fn churn_head_to_head(dataset: &Dataset, base: &ServeConfig) -> Vec<ChurnRow> {
    let spec = ServerSpec::dgx_v100().truncated(4);
    let capacity = estimate_capacity_rps(&dataset.graph, &dataset.features, &spec.build(), base);
    let rate = 0.9 * capacity;
    let churn_cfg = ChurnConfig {
        ops_per_sec: (0.25 * rate).max(2_000.0),
        // Low enough that batch-boundary compaction actually fires
        // within one stream.
        compact_threshold: 512,
    };
    println!(
        "\nchurn head-to-head at 0.9x capacity ({rate:.0} req/s): {:.0} mutations/s \
         ({}% inserts, {}% vertex churn), compaction threshold {} delta edges",
        churn_cfg.ops_per_sec,
        (legion_serve::INSERT_FRAC * 100.0) as u32,
        (legion_serve::CHURN_FRAC * 100.0) as u32,
        churn_cfg.compact_threshold,
    );
    let run = |policy: PolicyKind, mutations: Option<MutationSource>| {
        let mut cfg = base.clone();
        cfg.policy = policy;
        cfg.arrival = ArrivalProcess::Poisson { rate };
        cfg.mutations = mutations;
        serve(&dataset.graph, &dataset.features, &spec.build(), &cfg)
    };
    let row = |policy: PolicyKind, config: &'static str, r: &ServeReport| ChurnRow {
        policy: policy.as_str(),
        config,
        offered: r.offered,
        completed: r.completed,
        shed: r.shed,
        p50_us: r.p50_us,
        p99_us: r.p99_us,
        hit_rate: r.feature_hit_rate(),
        mut_inserts: r.metrics.counter("graph.mut.inserts"),
        mut_deletes: r.metrics.counter("graph.mut.deletes"),
        compactions: r.metrics.counter("graph.mut.compactions"),
        overlay_rows: r.metrics.counter("graph.mut.overlay_rows"),
        invalidate_topo_rows: r.metrics.counter("serve.invalidate.topo_rows"),
        invalidate_residency_bits: r.metrics.counter("serve.invalidate.residency_bits"),
    };
    let mut rows = Vec::new();
    let mut envelope = Vec::new();
    for &policy in &POLICIES {
        let frozen = run(policy, None);
        let churned = run(policy, Some(MutationSource::Generate(churn_cfg.clone())));
        let (fh, ch) = (frozen.feature_hit_rate(), churned.feature_hit_rate());
        assert!(
            ch >= fh - 0.15,
            "{}: churn hit rate {:.3} fell more than 15 points below frozen {:.3}",
            policy.as_str(),
            ch,
            fh
        );
        assert!(
            churned.p99_us <= 3 * frozen.p99_us.max(100),
            "{}: churn p99 {} us must stay within 3x of frozen {} us",
            policy.as_str(),
            churned.p99_us,
            frozen.p99_us
        );
        assert!(
            churned.metrics.counter("graph.mut.inserts")
                + churned.metrics.counter("graph.mut.deletes")
                > 0,
            "churn run must apply mutations"
        );
        envelope.push(format!(
            "{} {:.1}% -> {:.1}%, {} -> {} us",
            policy.as_str(),
            fh * 100.0,
            ch * 100.0,
            frozen.p99_us,
            churned.p99_us
        ));
        rows.push(row(policy, "frozen", &frozen));
        rows.push(row(policy, "churn", &churned));
    }
    print_rows(&rows);
    println!(
        "  [churn] hit rate and p99, frozen -> churned: {}",
        envelope.join("; ")
    );
    rows
}

const USAGE: &str = "usage: servectl [--router] [--oversubscribe] [--churn] [--fleet N]";

/// A named scenario; each runs instead of the base sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Fleet(usize),
    Router,
    Oversubscribe,
    Churn,
}

/// The flags of one invocation.
#[derive(Default)]
struct Cli {
    router: bool,
    oversubscribe: bool,
    churn: bool,
    fleet: Option<usize>,
}

impl Cli {
    /// Every scenario the command line named, once each, in the fixed
    /// run order (not the order typed). Empty means the base sweep.
    fn scenarios(&self) -> Vec<Scenario> {
        let named = [
            self.fleet.map(Scenario::Fleet),
            self.router.then_some(Scenario::Router),
            self.oversubscribe.then_some(Scenario::Oversubscribe),
            self.churn.then_some(Scenario::Churn),
        ];
        named.into_iter().flatten().collect()
    }
}

/// Parses the command line; `Err` says which argument is unknown or
/// lacks its positive-integer value.
fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--router" => cli.router = true,
            "--oversubscribe" => cli.oversubscribe = true,
            "--churn" => cli.churn = true,
            "--fleet" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => cli.fleet = Some(n),
                _ => return Err("--fleet takes a positive integer".to_string()),
            },
            other => return Err(format!("unrecognised argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("servectl: {e}; {USAGE}");
        std::process::exit(2);
    });
    let dataset_name = "PR";
    let divisor = legion_bench::dataset_divisor(dataset_name);
    let base = ServeConfig::default();

    legion_bench::banner(&format!(
        "servectl: online serving sweep on {dataset_name}/{divisor}x ({} requests/point)",
        base.num_requests
    ));
    let dataset: Dataset = spec_by_name(dataset_name)
        .expect("PR is registered")
        .instantiate(divisor, base.seed);
    let scenarios = cli.scenarios();
    for &scenario in &scenarios {
        match scenario {
            Scenario::Fleet(n) => {
                let rows = fleet_head_to_head(&dataset, &base, n);
                legion_bench::save_json("servectl_fleet", &rows);
                if n > 1 {
                    let drift_rows = fleet_drift_resize(&dataset, &base, n);
                    legion_bench::save_json("servectl_fleet_drift", &drift_rows);
                }
            }
            Scenario::Router => {
                let rows = router_head_to_head(&dataset, &base);
                legion_bench::save_json("servectl_router", &rows);
            }
            Scenario::Oversubscribe => {
                let rows = oversubscribe_sweep(&dataset, &base);
                legion_bench::save_json("servectl_oversubscribe", &rows);
            }
            Scenario::Churn => {
                let rows = churn_head_to_head(&dataset, &base);
                legion_bench::save_json("servectl_churn", &rows);
            }
        }
    }
    if !scenarios.is_empty() {
        println!("\nservectl: OK");
        return;
    }
    let spec = ServerSpec::dgx_v100().truncated(4);
    let server: MultiGpuServer = spec.build();
    println!(
        "dataset: {} ({} vertices), server: {} x4, policy knobs: max_batch {} max_wait {:.1} ms queue {} cache {} rows/GPU",
        dataset.name,
        dataset.graph.num_vertices(),
        spec.name,
        base.max_batch,
        base.max_wait * 1e3,
        base.queue_capacity,
        base.cache_rows_per_gpu,
    );
    println!(
        "replan knobs: bucket {} requests, window {} buckets, detector hit-rate EWMA (alpha {}, drop {}), cooldown {} buckets",
        base.replan.bucket_requests,
        base.replan.window_buckets,
        legion_serve::replan::EWMA_ALPHA,
        legion_serve::replan::EWMA_DROP,
        base.replan.cooldown_buckets,
    );

    let capacity = estimate_capacity_rps(&dataset.graph, &dataset.features, &server, &base);
    println!("estimated capacity: {capacity:.0} requests/s (warmed closed-loop probe)\n");

    let mut rows: Vec<LoadPoint> = Vec::new();
    for policy in POLICIES {
        let mut config = base.clone();
        config.policy = policy;
        let points = run_sweep(
            &dataset.graph,
            &dataset.features,
            &server,
            &config,
            capacity,
            &SWEEP_MULTIPLIERS,
        );
        print_rows(&points);
        let (first, last) = (points.first().unwrap(), points.last().unwrap());
        let knee = last.p99_us >= 5 * first.p99_us;
        println!(
            "  [{}] p99 knee: {} us -> {} us ({:.1}x)",
            policy.as_str(),
            first.p99_us,
            last.p99_us,
            last.p99_us as f64 / first.p99_us.max(1) as f64,
        );
        assert!(
            knee,
            "{} curve has no saturation knee: p99 {} -> {}",
            policy.as_str(),
            first.p99_us,
            last.p99_us
        );
        rows.extend(points);
    }

    // Head-to-head under drift at a fixed 0.9x load: the static planner
    // filled its cache from pre-drift warmup traffic and never changes
    // it; the FIFO cache follows the drifting hot set access by access;
    // the re-planned cache detects the hit-rate drop and re-runs the
    // planner over its observed window, paying for each swap's refill.
    //
    // The drift runs reshape the workload into the regime re-planning
    // exists for:
    //
    // * a head-heavy Zipf skew — under the sweep's mild exponent most
    //   feature traffic lands on structural hubs every policy caches
    //   regardless, and rotating seed ranks barely moves the hit rate;
    // * a rotation stride equal to the cache width, so each rotation
    //   displaces the entire cached seed head;
    // * a rotation period long enough that the sliding window can fill
    //   with post-rotation traffic before the next rotation — each GPU
    //   only observes its quarter of the stream, so the per-GPU window
    //   needs a horizon comparable to the (global) warmup profile the
    //   initial plans are built from.
    // * a scarcer cache than the sweep's — when the cache comfortably
    //   holds the hubs plus most of the head, even a fully stale plan
    //   keeps hitting; scarcity is what makes plan *quality* matter.
    const DRIFT_ZIPF: f64 = 1.8;
    let drift_period = 2000;
    let drift_requests = 6 * drift_period;
    let drift_cache_rows = base.cache_rows_per_gpu / 2;
    let drift_stride = base.cache_rows_per_gpu;
    let drift_replan = ReplanConfig {
        bucket_requests: 16,
        window_buckets: 24,
        // Spread the episode's refinement re-plans across the phase: the
        // first re-plan fires while the window still holds pre-rotation
        // traffic, so the later, cleaner-window refinements are the ones
        // that close the gap to a fresh plan.
        cooldown_buckets: 4,
        max_episode_replans: 6,
        ..ReplanConfig::default()
    };
    println!(
        "\ndrift comparison at 0.9x capacity (drift period {drift_period} requests, stride {drift_stride}, cache {drift_cache_rows} rows/GPU, zipf {DRIFT_ZIPF}):"
    );
    let mut drift_reports: Vec<(PolicyKind, ServeReport)> = Vec::new();
    for policy in POLICIES {
        let mut config = base.clone();
        config.policy = policy;
        config.zipf_exponent = DRIFT_ZIPF;
        config.num_requests = drift_requests;
        config.drift_period = drift_period;
        config.drift_stride = drift_stride;
        config.cache_rows_per_gpu = drift_cache_rows;
        config.replan = drift_replan.clone();
        config.arrival = base
            .arrival
            .scaled(0.9 * capacity / base.arrival.mean_rate());
        let report = serve(&dataset.graph, &dataset.features, &server, &config);
        print!(
            "  {:<8} feature hit rate {:>5.1}%  p99 {:>7} us  SLO {:>5.1}%  throughput {:>8.0}/s",
            policy.as_str(),
            report.feature_hit_rate() * 100.0,
            report.p99_us,
            report.slo_attainment * 100.0,
            report.throughput_rps
        );
        if policy == PolicyKind::Replan {
            print!(
                "  ({} replans, {:.1} MiB swapped)",
                report.metrics.counter("serve.replan.count"),
                report.metrics.counter("serve.replan.swap_bytes") as f64 / (1 << 20) as f64,
            );
        }
        println!();
        legion_bench::save_snapshot(&format!("servectl_{}", policy.as_str()), &report.metrics);
        drift_reports.push((policy, report));
    }

    // Per-phase tail hit rates: phase 0 is pre-drift (every policy's
    // plan is fresh), each later phase starts right after a rotation.
    let tails: Vec<BTreeMap<u64, f64>> = drift_reports
        .iter()
        .map(|(_, r)| tail_hit_rates(&r.metrics))
        .collect();
    let phases: BTreeSet<u64> = tails.iter().flat_map(|t| t.keys().copied()).collect();
    println!("\n  per-phase tail feature hit rate (settled second half of each phase):");
    let phase_rows: Vec<Value> = phases
        .iter()
        .map(|&k| {
            let rates = POLICIES.iter().zip(&tails);
            let cells = rates.map(|(p, t)| (p.as_str().to_string(), t.get(&k).serialize()));
            Value::Object(
                std::iter::once(("phase".to_string(), k.serialize()))
                    .chain(cells)
                    .collect(),
            )
        })
        .collect();
    print_rows(&phase_rows);

    let replan_metrics = &drift_reports[2].1.metrics;
    let replans = replan_metrics.counter("serve.replan.count");
    let swap_bytes = replan_metrics.counter("serve.replan.swap_bytes");
    let last_phase = *phases.iter().next_back().expect("drift runs have phases");
    let end_rate = |i: usize| *tails[i].get(&last_phase).unwrap_or(&0.0);
    let fresh = *tails[2].get(&0).unwrap_or(&0.0);
    let worst_recovery = tails[2].values().copied().fold(f64::INFINITY, f64::min);
    println!(
        "\n  replan end-state: {:.1}% vs static {:.1}% / fifo {:.1}%; fresh-plan (phase 0) {:.1}%, worst phase {:.1}%",
        end_rate(2) * 100.0,
        end_rate(0) * 100.0,
        end_rate(1) * 100.0,
        fresh * 100.0,
        worst_recovery * 100.0,
    );
    assert!(replans > 0, "drift must trigger at least one re-plan");
    assert!(swap_bytes > 0, "re-plans must move refill bytes");
    assert!(
        end_rate(2) > end_rate(0) && end_rate(2) > end_rate(1),
        "replan end-state hit rate {:.3} must beat static {:.3} and fifo {:.3}",
        end_rate(2),
        end_rate(0),
        end_rate(1)
    );
    assert!(
        worst_recovery >= fresh - 0.05,
        "replan must recover to within 5 points of its fresh-plan rate: worst {:.3} vs fresh {:.3}",
        worst_recovery,
        fresh
    );
    legion_bench::save_json("servectl_curves", &rows);
    let router_rows = router_head_to_head(&dataset, &base);
    legion_bench::save_json("servectl_router", &router_rows);
    println!("\nservectl: OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenarios(args: &[&str]) -> Vec<Scenario> {
        parse_cli(args.iter().map(|a| a.to_string()))
            .unwrap_or_else(|e| panic!("{args:?}: {e}"))
            .scenarios()
    }

    #[test]
    fn scenario_flags_compose_in_fixed_order() {
        assert_eq!(
            scenarios(&["--router", "--churn"]),
            [Scenario::Router, Scenario::Churn]
        );
        assert_eq!(
            scenarios(&["--churn", "--oversubscribe", "--router", "--fleet", "2"]),
            [
                Scenario::Fleet(2),
                Scenario::Router,
                Scenario::Oversubscribe,
                Scenario::Churn
            ]
        );
        // A repeated flag names its scenario once.
        assert_eq!(scenarios(&["--churn", "--churn"]), [Scenario::Churn]);
        // No scenario flag: the base sweep.
        assert!(scenarios(&[]).is_empty());
    }

    #[test]
    fn knee_search_resolves_a_step_between_grid_points() {
        // A series that passes every load below `step`, at a throughput
        // equal to its load: the knee and every load the search probed.
        let search = |step: f64| {
            let pass = |frac: f64| (frac < step).then_some(frac);
            let grid = [0.2, 0.4, 0.6, 0.8, 1.1].map(|frac| (frac, pass(frac)));
            let mut probed = Vec::new();
            let knee = resolve_knee(&grid, |frac| {
                probed.push(frac);
                pass(frac)
            });
            (knee, probed)
        };
        for step in [0.537, 0.1, 1.05] {
            let (knee, probed) = search(step);
            assert!(knee < step && step - knee <= 0.01, "{step}: {knee}");
            assert!(probed.len() <= 5, "{step}: {probed:?}");
            assert!(probed.iter().all(|&frac| frac <= 1.1), "{step}: {probed:?}");
        }
        // The top grid point passes: nothing is searched above it.
        assert_eq!(search(5.0), (1.1, vec![]));
        assert_eq!(search(0.0).0, 0.0, "nothing passes");
    }
}
