//! The two single-machine serving workloads, both open loops (Poisson
//! arrivals on their own schedule, latency timed from arrival).
//!
//! * `serve_steady` — 0.8x the probed capacity of a 2x2-clique machine:
//!   static planned cache, residency router, three-class QoS mix, frozen
//!   graph, everything DRAM-resident, drift off. The event loop,
//!   batcher, router and QoS queue do most of the work and the cache is
//!   only *read*; store, fleet and dyn are bypassed.
//! * `serve_oversub_drift` — the `servectl --oversubscribe` shape under
//!   the re-planning policy with a rotating hot set, at 0.5x the
//!   store-aware capacity. `legion-store` and the re-planner do most of
//!   the work, and the cache and tier map are *written* (swaps,
//!   migrations) beside being read.

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_graph::dataset::{spec_by_name, Dataset};
use legion_graph::{CsrGraph, VertexId};
use legion_hw::{MultiGpuServer, ServerSpec};
use legion_sampling::access::CacheLayout;
use legion_serve::{
    build_partitioned_layout_adaptive, build_static_layout, estimate_capacity_rps,
    generate_workload_classed, plan_layout, profile_warmup, serve_requests,
    warmup_hot_vertices_weighted, ArrivalProcess, ClassConfig, ClassSampler, NvmeGeneration,
    PolicyKind, PriorityClass, ReplanConfig, Request, RouterPolicy, ServeConfig, ServeReport,
    StoreConfig, TargetSampler,
};

use legion_telemetry::Snapshot;

use crate::counts::{sockets, RunView};
use crate::harness::{
    host_reading, map_reading, measure_passes, measure_setups, record_harness_health,
    record_measured, snapshot_digest, Opts, DATASET_SEED, TRACED_SETUP_REPS,
};
use crate::metrics::{Outcome, Reading};
use crate::probes;
use crate::refk::Bracket;
use crate::trace::{traced_pairs, TraceBook, Tracer};

/// Dataset scale of the serving workloads: PR/50 is 48 K vertices,
/// 1.7 M edges, 100-dim features.
pub const PR_DIVISOR: u64 = 50;

/// Which single-machine serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    OversubDrift,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "serve_steady",
            Kind::OversubDrift => "serve_oversub_drift",
        }
    }

    /// Requests offered per pass, sized so a pass takes 0.25–0.45 s.
    fn requests(self) -> usize {
        match self {
            Kind::Steady => 32_000,
            Kind::OversubDrift => 14_000,
        }
    }

    /// Offered load, requests per simulated second. A constant, like the
    /// request count, so every seed and every commit serves the same
    /// load: the capacity probe's answer moves by +-25 % with the seed
    /// (it times twelve batches), and a rate derived from it put some
    /// seeds of `serve_oversub_drift` past their knee. Calibrated once
    /// against the probe over seeds 101–110: 0.8x the median 2.75 M/s,
    /// and 0.3x the median 0.5 M/s store-aware capacity (0.58x the knee
    /// under six rotations per pass, which sits near 0.26 M/s).
    fn offered_rps(self) -> f64 {
        match self {
            Kind::Steady => 2_200_000.0,
            Kind::OversubDrift => 150_000.0,
        }
    }

    /// Calls of the set-up sequence per timed set-up section. The
    /// round-robin capacity probe takes 2 ms, too short to time between
    /// two 25 ms reference runs, so a section repeats it.
    fn setup_calls(self) -> usize {
        match self {
            Kind::Steady => 1,
            Kind::OversubDrift => 16,
        }
    }

    fn server_spec(self) -> ServerSpec {
        match self {
            Kind::Steady => ServerSpec::custom(4, 1 << 30, 2),
            Kind::OversubDrift => ServerSpec::dgx_v100().truncated(4),
        }
    }

    fn config(self, ds: &Dataset, seed: u64) -> ServeConfig {
        let base = ServeConfig {
            seed,
            num_requests: self.requests(),
            arrival: ArrivalProcess::Poisson {
                rate: self.offered_rps(),
            },
            ..ServeConfig::default()
        };
        match self {
            Kind::Steady => ServeConfig {
                policy: PolicyKind::StaticHot,
                drift_period: 0,
                router: legion_serve::RouterConfig {
                    policy: RouterPolicy::Residency,
                    ..base.router
                },
                classes: ClassConfig {
                    mix: [0.2, 0.5, 0.3],
                    qos: true,
                    ..ClassConfig::default()
                },
                ..base
            },
            Kind::OversubDrift => {
                const HBM_ROWS: usize = 64;
                /// Hot-set rotations per pass; each displaces the whole
                /// cached head (stride = cached rows).
                const ROTATIONS: usize = 6;
                ServeConfig {
                    policy: PolicyKind::Replan,
                    zipf_exponent: 1.8,
                    fanouts: vec![8],
                    max_wait: 4e-4,
                    cache_rows_per_gpu: HBM_ROWS,
                    drift_period: self.requests() / (ROTATIONS + 1),
                    drift_stride: HBM_ROWS,
                    // `servectl`'s drift knobs, but a cooldown of 12
                    // buckets instead of 4: re-plans then come on a
                    // steady cadence (about 40 a pass, +-3 % between
                    // seeds, half the pass's host time) instead of in
                    // bursts (about 80, +-10 %, four fifths of it).
                    replan: ReplanConfig {
                        bucket_requests: 16,
                        window_buckets: 24,
                        cooldown_buckets: 12,
                        max_episode_replans: 6,
                        ..ReplanConfig::default()
                    },
                    store: StoreConfig {
                        dram_budget_bytes: Some(ds.feature_bytes() / 10),
                        staging_rows: 3072,
                        nvme: NvmeGeneration::Gen3x4,
                        lookahead_requests: 64,
                        prefetch_neighbors: 64,
                        prefetch_budget: 512,
                    },
                    ..base
                }
            }
        }
    }
}

/// The open-loop request stream `legion_serve::serve` would draw for
/// `config`, from the same public pieces.
pub fn generate_requests(graph: &CsrGraph, config: &ServeConfig) -> Vec<Request> {
    let all: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    let mut targets = TargetSampler::new(
        all,
        config.zipf_exponent,
        config.drift_period,
        config.drift_stride,
    );
    if config.classes.mix[PriorityClass::Interactive.index()] > 0.0 {
        targets = targets.with_interactive_boost(config.classes.interactive_boost);
    }
    let mut classes = ClassSampler::new(config.classes.mix, config.seed);
    let mut rng = StdRng::seed_from_u64(config.seed);
    generate_workload_classed(
        &config.arrival,
        &mut targets,
        &mut classes,
        config.num_requests,
        &mut rng,
    )
}

/// The cache plan the engine builds at the top of every pass.
pub struct BuiltPlan {
    /// The layout GPU 0 serves from.
    pub layout: CacheLayout,
    /// Route groups, under the residency router.
    pub groups: Option<Vec<Vec<usize>>>,
    /// Topology share of the cache budget (0 for feature-only plans).
    pub alpha: f64,
}

/// Rebuilds the engine's top-of-pass plan from the same public
/// functions: warm-up profile, then the layout of the configured policy.
pub fn build_plan(
    tr: &mut Tracer,
    ds: &Dataset,
    server: &MultiGpuServer,
    config: &ServeConfig,
) -> BuiltPlan {
    server.reset();
    let root = tr.enter("serve.plan");
    let all: Vec<VertexId> = (0..ds.graph.num_vertices() as VertexId).collect();
    let mut warm = TargetSampler::new(all, config.zipf_exponent, 0, 0);
    let (layout, groups, alpha) = match config.policy {
        PolicyKind::Replan => {
            let profile = profile_warmup(
                &ds.graph,
                &mut warm,
                config.warmup_requests,
                &config.fanouts,
                config.seed,
            );
            let budget = config.cache_rows_per_gpu as u64 * ds.features.row_bytes();
            let mut first = None;
            let mut alpha = 0.0;
            for gpu in 0..server.num_gpus() {
                let plan = tr.leaf("serve.replan_plan", || {
                    plan_layout(
                        gpu,
                        server.num_gpus(),
                        &ds.graph,
                        &ds.features,
                        &profile.topo,
                        &profile.feat,
                        profile.n_tsum,
                        budget,
                        config.replan.delta_alpha,
                        server.pcie().cls(),
                    )
                });
                alpha += plan.evaluation.alpha / server.num_gpus() as f64;
                first.get_or_insert(plan.layout);
            }
            (first.expect("a server has GPUs"), None, alpha)
        }
        _ => {
            let (hot, weight) = warmup_hot_vertices_weighted(
                &ds.graph,
                &mut warm,
                config.warmup_requests,
                &config.fanouts,
                config.seed,
            );
            if config.router.policy == RouterPolicy::Residency {
                let (layout, groups, _) = build_partitioned_layout_adaptive(
                    &ds.graph,
                    &ds.features,
                    server,
                    &hot,
                    &weight,
                    config.cache_rows_per_gpu,
                );
                (layout, Some(groups), 0.0)
            } else {
                let layout = build_static_layout(
                    &ds.graph,
                    &ds.features,
                    server,
                    &hot,
                    config.cache_rows_per_gpu,
                );
                (layout, None, 0.0)
            }
        }
    };
    tr.exit(root);
    BuiltPlan {
        layout,
        groups,
        alpha,
    }
}

/// Mean request latency from arrival, from the run's latency histogram.
pub fn mean_latency_us(metrics: &Snapshot, histogram: &str) -> f64 {
    metrics.histogram(histogram).map_or(0.0, |h| {
        h.sum as f64 / h.counts.iter().sum::<u64>().max(1) as f64
    })
}

pub fn run(kind: Kind, bracket: &mut Bracket, opts: &Opts) -> (Outcome, Option<TraceBook>) {
    let mut out = Outcome::default();
    let spec = spec_by_name("PR").expect("PR is a Table 2 dataset");
    let (ds, instantiate) = bracket.section(|| spec.instantiate(PR_DIVISOR, DATASET_SEED));
    let server_spec = kind.server_spec();
    let server = server_spec.build();
    let config = kind.config(&ds, opts.seed);
    let offered = config.num_requests as u64;

    if opts.measured {
        let calls = kind.setup_calls();
        let (capacity, mut setups) = measure_setups(bracket, opts.setup_reps(), &mut out, || {
            let mut capacity = 0.0;
            for _ in 0..calls {
                capacity = estimate_capacity_rps(&ds.graph, &ds.features, &server, &config);
            }
            Ok(capacity)
        });
        for s in &mut setups {
            s.raw_s /= calls as f64;
            s.norm_s /= calls as f64;
        }
        check_capacity(
            kind,
            &mut out,
            capacity.expect("the capacity probe cannot fail"),
        );
        let requests = generate_requests(&ds.graph, &config);
        let passes = measure_passes(
            bracket,
            opts,
            || serve_requests(&ds.graph, &ds.features, &server, &config, &requests),
            |report| snapshot_digest(&report.metrics),
        );
        record_measured(&mut out, &setups, &passes, offered);
        let report = &passes.last;
        out.failed += report.shed * passes.samples.len() as u64;
        out.set_exact("model_seeds_per_s", report.throughput_rps);
        out.set_exact(
            "model_wait_us",
            mean_latency_us(&report.metrics, "serve.latency_us"),
        );
        out.set_exact(
            "model_pcie_tx_per_kseed",
            report.metrics.counter_sum("pcm.") as f64 * 1000.0 / offered as f64,
        );
        check_report(kind, &mut out, report);
    }

    let mut book = None;
    if opts.traced {
        let mut tb = TraceBook::new(kind.name(), opts.seed);
        out.set("graph.instantiate_s", host_reading(&[instantiate]));

        let mut capacity = 0.0;
        for _ in 0..TRACED_SETUP_REPS {
            let pass = tb.tracer.next_pass();
            let (c, sample) = bracket.section(|| {
                tb.tracer.leaf("serve.capacity_probe", || {
                    estimate_capacity_rps(&ds.graph, &ds.features, &server, &config)
                })
            });
            tb.close_pass(pass, &sample);
            capacity = c;
        }
        out.set(
            "serve.capacity_probe_s",
            tb.span_seconds("serve.capacity_probe"),
        );
        tb.end_group();
        check_capacity(kind, &mut out, capacity);

        // The engine is one public call, so the traced pass holds the
        // coarse spans: the stream's generation, the plan the engine
        // rebuilds inside every pass (timed here on a second server), and
        // the call itself.
        let requests = generate_requests(&ds.graph, &config);
        let plan_server = server_spec.build();
        let engine = || serve_requests(&ds.graph, &ds.features, &server, &config, &requests);
        let pairs = traced_pairs(bracket, opts, &mut tb, engine, |tr| {
            let root = tr.enter("bench.pass");
            tr.leaf("serve.workload_gen", || {
                generate_requests(&ds.graph, &config)
            });
            let plan = build_plan(tr, &ds, &plan_server, &config);
            let report = tr.leaf("serve.serve_requests", engine);
            tr.exit(root);
            (report, plan)
        });
        let plain = &pairs.plain;
        let (report, plan): &(ServeReport, BuiltPlan) = &pairs.last_traced;
        out.attempted += offered * pairs.passes();
        out.failed += report.shed * pairs.passes();
        check_report(kind, &mut out, report);
        record_harness_health(&mut out, bracket, plain, offered);

        let engine_s = tb.span_seconds("serve.serve_requests");
        let plain_s = host_reading(plain).value;
        out.set_exact(
            "host.trace_overhead_share",
            (engine_s.value - plain_s) / plain_s,
        );
        out.set(
            "serve.workload_gen_ns_per_req",
            tb.span_ns_per("serve.workload_gen", offered as f64),
        );
        // The plan's span holds the per-GPU re-plan spans; its own
        // self time is the warm-up profile and layout build.
        let plan_self = tb.span_seconds("serve.plan");
        let replan = tb.span_seconds("serve.replan_plan");
        let plan_s = plan_self.value + replan.value;
        out.set(
            "serve.plan_s",
            Reading {
                value: plan_s,
                ..plan_self
            },
        );
        out.set(
            "serve.replan_plan_s",
            map_reading(&replan, |s| s / server.num_gpus() as f64),
        );
        out.set(
            "serve.loop_ns_per_req",
            map_reading(&engine_s, |s| (s - plan_s).max(0.0) * 1e9 / offered as f64),
        );
        tb.end_group();

        RunView {
            servers: vec![&report.metrics],
            fleet: None,
            seeds: offered,
            socket_of: sockets(&server_spec),
        }
        .record(&mut out);
        out.set_exact(
            "model.failed_share",
            report.shed as f64 / report.offered.max(1) as f64,
        );
        out.set_exact("cache.alpha", plan.alpha);

        let stream = probes::Stream::new(&ds, &config, &requests, &plan.layout);
        stream.record_operator_costs(bracket, &mut out);
        out.set(
            "router.qos_ns",
            probes::qos_queue(bracket, &config, &requests),
        );
        if let Some(groups) = plan.groups.clone() {
            out.set(
                "router.route_ns",
                probes::route_cliques(bracket, &ds.graph, &config, &requests, &plan.layout, groups),
            );
        }
        if config.store.active() {
            probes::store(bracket, &mut out, &ds, &config, &stream);
        }
        out.set(
            "telemetry.snapshot_ns",
            probes::snapshot_cost(bracket, &report.metrics),
        );
        check_bypassed(kind, &mut out);
        book = Some(tb);
    }
    (out, book)
}

/// The fixed offered load must sit below what the set-up's probe says
/// the machine can serve.
fn check_capacity(kind: Kind, out: &mut Outcome, capacity: f64) {
    out.check(
        "offered_below_probed_capacity",
        kind.offered_rps() < capacity,
        format!("{:.0} offered, {capacity:.0} probed", kind.offered_rps()),
    );
}

/// The output checks every serving pass must hold, plus the per-kind
/// proof that the layers the workload exists for actually ran.
fn check_report(kind: Kind, out: &mut Outcome, r: &ServeReport) {
    out.check(
        "request_conservation",
        r.offered == r.completed + r.shed,
        format!(
            "{} offered, {} completed, {} shed",
            r.offered, r.completed, r.shed
        ),
    );
    out.check("nothing_shed", r.shed == 0, format!("{} shed", r.shed));
    let m = &r.metrics;
    match kind {
        Kind::Steady => {
            out.check(
                "router_saw_every_request",
                r.routed + r.spilled == r.offered,
                format!("{} routed, {} spilled", r.routed, r.spilled),
            );
            for quiet in [
                "store.nvme.bytes",
                "serve.replan.count",
                "graph.mut.inserts",
            ] {
                out.check(
                    &format!("bypass.{quiet}"),
                    m.counter(quiet) == 0,
                    format!("{}", m.counter(quiet)),
                );
            }
        }
        Kind::OversubDrift => {
            for busy in [
                "store.nvme.bytes",
                "serve.replan.count",
                "serve.store.migrations",
            ] {
                out.check(
                    &format!("ran.{busy}"),
                    m.counter(busy) > 0,
                    format!("{}", m.counter(busy)),
                );
            }
        }
    }
}

/// The bypass matrix, on the printed per-layer numbers.
fn check_bypassed(kind: Kind, out: &mut Outcome) {
    for layer in ["fleet", "dyn"] {
        let zero = out.layer_is_zero(layer);
        out.check(&format!("bypass.{layer}_zero"), zero, String::new());
    }
    let store_zero = out.layer_is_zero("store");
    out.check(
        "bypass.store",
        store_zero == (kind == Kind::Steady),
        format!("store metrics all zero: {store_zero}"),
    );
}
