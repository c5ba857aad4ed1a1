//! `fleet_churn`: an open-loop stream over 4 servers x 4 GPUs behind the
//! residency front tier, on the harsh 8:1 / 0.25 uplink `servectl
//! --fleet` uses, with per-owner coalescing, while a mutation stream at
//! a quarter of the request rate rewrites the graph under the samplers.
//!
//! `legion-fleet`, `legion-hw::NetModel` and the `legion-dyn` overlay
//! (graph *writes* beside sampler reads) dominate; the SSD tier is off.

use legion_fleet::{plan_fleet, serve_fleet, FleetConfig, FleetPlan, FleetPolicy, FleetReport};
use legion_graph::dataset::spec_by_name;
use legion_hw::{ServerSpec, UplinkConfig};
use legion_serve::{
    estimate_capacity_rps, ArrivalProcess, ChurnConfig, MutationSource, PolicyKind, ServeConfig,
};
use legion_telemetry::Snapshot;

use crate::counts::{sockets, RunView};
use crate::harness::{
    host_reading, map_reading, measure_passes, measure_setups, record_harness_health,
    record_measured, snapshot_digest, Opts, DATASET_SEED, TRACED_SETUP_REPS,
};
use crate::metrics::Outcome;
use crate::probes;
use crate::refk::Bracket;
use crate::serve::{build_plan, generate_requests, mean_latency_us, PR_DIVISOR};
use crate::trace::{traced_pairs, TraceBook};

const SERVERS: usize = 4;
/// Requests offered per pass (fleet-wide), sized for a 0.4 s pass.
const REQUESTS: usize = 16_000;
/// Offered load, requests per simulated second fleet-wide, and the
/// per-server drain rate the front tier projects load with. Constants
/// (see `serve::Kind::offered_rps`): 0.45x four servers at the 2.5 M/s
/// the probe gives over seeds 101–110. The issue's 0.6x is past this
/// fleet's knee: on the 8:1 uplink under churn it completes 5.3 M/s, and
/// at 6 M/s offered the p99 grows with the stream's length (518 / 805 /
/// 1144 us at 16 / 32 / 48 K requests).
const OFFERED_RPS: f64 = 4_500_000.0;
const DRAIN_RPS: f64 = 2_500_000.0;
/// Mutations per request.
const CHURN_SHARE: f64 = 0.25;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        num_servers: SERVERS,
        policy: FleetPolicy::Residency,
        drain_rps: Some(DRAIN_RPS),
        uplink: Some(UplinkConfig {
            oversubscription: 8.0,
            nic_serialization: 0.25,
        }),
        coalesce: true,
        ..FleetConfig::default()
    }
}

fn churn_config() -> ChurnConfig {
    ChurnConfig {
        ops_per_sec: CHURN_SHARE * OFFERED_RPS,
        compact_threshold: 512,
        ..ChurnConfig::default()
    }
}

/// The per-server probe must leave room for a server's share of the load.
fn check_capacity(out: &mut Outcome, capacity: f64) {
    out.check(
        "offered_below_probed_capacity",
        OFFERED_RPS < SERVERS as f64 * capacity,
        format!("{OFFERED_RPS:.0} offered, {SERVERS} x {capacity:.0} probed"),
    );
}

fn fleet_digest(report: &FleetReport) -> String {
    let mut s = snapshot_digest(&report.metrics);
    for server in &report.per_server {
        s.push_str(&snapshot_digest(&server.metrics));
    }
    s
}

fn pcie_tx(report: &FleetReport) -> u64 {
    report
        .per_server
        .iter()
        .map(|s| s.metrics.counter_sum("pcm."))
        .sum()
}

pub fn run(bracket: &mut Bracket, opts: &Opts) -> (Outcome, Option<TraceBook>) {
    let mut out = Outcome::default();
    let spec = spec_by_name("PR").expect("PR is a Table 2 dataset");
    let (ds, instantiate) = bracket.section(|| spec.instantiate(PR_DIVISOR, DATASET_SEED));
    let server_spec = ServerSpec::dgx_v100().truncated(4);
    let churn = churn_config();
    let config = ServeConfig {
        seed: opts.seed,
        num_requests: REQUESTS,
        policy: PolicyKind::StaticHot,
        arrival: ArrivalProcess::Poisson { rate: OFFERED_RPS },
        mutations: Some(MutationSource::Generate(churn.clone())),
        ..ServeConfig::default()
    };
    let fleet = fleet_config();
    let offered = REQUESTS as u64;

    if opts.measured {
        let (capacity, setups) = measure_setups(bracket, opts.setup_reps(), &mut out, || {
            let capacity =
                estimate_capacity_rps(&ds.graph, &ds.features, &server_spec.build(), &config);
            plan_fleet(&ds.graph, &config, &fleet);
            Ok(capacity)
        });
        check_capacity(&mut out, capacity.expect("the capacity probe cannot fail"));
        let passes = measure_passes(
            bracket,
            opts,
            || serve_fleet(&ds.graph, &ds.features, &server_spec, &config, &fleet),
            fleet_digest,
        );
        record_measured(&mut out, &setups, &passes, offered);
        let report = &passes.last;
        out.failed += report.shed * passes.samples.len() as u64;
        out.set_exact("model_seeds_per_s", report.throughput_rps);
        out.set_exact(
            "model_wait_us",
            mean_latency_us(&report.metrics, "fleet.latency_us"),
        );
        out.set_exact(
            "model_pcie_tx_per_kseed",
            pcie_tx(report) as f64 * 1000.0 / offered as f64,
        );
        check_report(&mut out, report);
    }

    let mut book = None;
    if opts.traced {
        let mut tb = TraceBook::new("fleet_churn", opts.seed);
        out.set("graph.instantiate_s", host_reading(&[instantiate]));

        let mut capacity = 0.0;
        let mut plan: Option<FleetPlan> = None;
        for _ in 0..TRACED_SETUP_REPS {
            let pass = tb.tracer.next_pass();
            let (_, sample) = bracket.section(|| {
                let tr = &mut tb.tracer;
                let root = tr.enter("bench.setup");
                capacity = tr.leaf("serve.capacity_probe", || {
                    estimate_capacity_rps(&ds.graph, &ds.features, &server_spec.build(), &config)
                });
                plan = Some(tr.leaf("fleet.plan", || plan_fleet(&ds.graph, &config, &fleet)));
                tr.exit(root);
            });
            tb.close_pass(pass, &sample);
        }
        out.set(
            "serve.capacity_probe_s",
            tb.span_seconds("serve.capacity_probe"),
        );
        let fleet_plan_s = tb.span_seconds("fleet.plan");
        out.set("fleet.plan_s", fleet_plan_s.clone());
        tb.end_group();
        let plan = plan.expect("set-up ran");
        check_capacity(&mut out, capacity);

        // The fleet is one public call that plans, generates the stream,
        // routes it and runs every server; the traced pass times the
        // stream's generation and one server's plan beside it.
        let plan_server = server_spec.build();
        let engine = || serve_fleet(&ds.graph, &ds.features, &server_spec, &config, &fleet);
        let pairs = traced_pairs(bracket, opts, &mut tb, engine, |tr| {
            let root = tr.enter("bench.pass");
            tr.leaf("serve.workload_gen", || {
                generate_requests(&ds.graph, &config)
            });
            let server_plan = build_plan(tr, &ds, &plan_server, &config);
            let report = tr.leaf("fleet.serve_fleet", engine);
            tr.exit(root);
            (report, server_plan)
        });
        let plain = &pairs.plain;
        let (report, server_plan) = &pairs.last_traced;
        out.attempted += offered * pairs.passes();
        out.failed += report.shed * pairs.passes();
        check_report(&mut out, report);
        record_harness_health(&mut out, bracket, plain, offered);

        let engine_s = tb.span_seconds("fleet.serve_fleet");
        let plain_s = host_reading(plain).value;
        out.set_exact(
            "host.trace_overhead_share",
            (engine_s.value - plain_s) / plain_s,
        );
        let gen_s = tb.span_seconds("serve.workload_gen");
        out.set(
            "serve.workload_gen_ns_per_req",
            map_reading(&gen_s, |s| s * 1e9 / offered as f64),
        );
        let plan_s = tb.span_seconds("serve.plan");
        out.set("serve.plan_s", plan_s.clone());
        // What is left of the call once its own planning, stream
        // generation and each server's plan are taken out.
        let fixed_s = fleet_plan_s.value + gen_s.value + SERVERS as f64 * plan_s.value;
        out.set(
            "serve.loop_ns_per_req",
            map_reading(&engine_s, |s| (s - fixed_s).max(0.0) * 1e9 / offered as f64),
        );
        tb.end_group();

        let servers: Vec<&Snapshot> = report.per_server.iter().map(|s| &s.metrics).collect();
        RunView {
            servers,
            fleet: Some(&report.metrics),
            seeds: offered,
            socket_of: sockets(&server_spec),
        }
        .record(&mut out);
        out.set_exact(
            "model.failed_share",
            report.shed as f64 / report.offered.max(1) as f64,
        );
        out.set_exact("cache.alpha", server_plan.alpha);

        let requests = generate_requests(&ds.graph, &config);
        let stream = probes::Stream::new(&ds, &config, &requests, &server_plan.layout);
        stream.record_operator_costs(bracket, &mut out);
        out.set(
            "router.qos_ns",
            probes::qos_queue(bracket, &config, &requests),
        );
        out.set(
            "router.route_ns",
            probes::route_fleet(bracket, &ds.graph, &config, &fleet, &plan, &requests),
        );
        out.set(
            "hw.net_charge_ns_per_wave",
            probes::net_waves(bracket, &fleet, &plan, &stream, ds.features.row_bytes()),
        );
        let horizon = requests.last().map_or(0.0, |r| r.arrival);
        probes::mutations(bracket, &mut out, &ds.graph, &churn, opts.seed, horizon);
        out.set(
            "telemetry.snapshot_ns",
            probes::snapshot_cost(bracket, &report.per_server[0].metrics),
        );
        check_bypassed(&mut out);
        book = Some(tb);
    }
    (out, book)
}

fn check_report(out: &mut Outcome, r: &FleetReport) {
    out.check(
        "request_conservation",
        r.offered == r.completed + r.shed,
        format!(
            "{} offered, {} completed, {} shed",
            r.offered, r.completed, r.shed
        ),
    );
    out.check("nothing_shed", r.shed == 0, format!("{} shed", r.shed));
    let per_server =
        |name: &str| -> u64 { r.per_server.iter().map(|s| s.metrics.counter(name)).sum() };
    for (name, value) in [
        ("fleet.mut.applied", r.metrics.counter("fleet.mut.applied")),
        ("graph.mut.compactions", per_server("graph.mut.compactions")),
        (
            "serve.remote.coalesced_msgs",
            per_server("serve.remote.coalesced_msgs"),
        ),
    ] {
        out.check(&format!("ran.{name}"), value > 0, format!("{value}"));
    }
    let nvme = per_server("store.nvme.bytes");
    out.check("bypass.store.nvme.bytes", nvme == 0, format!("{nvme}"));
}

/// The bypass matrix, on the printed per-layer numbers.
fn check_bypassed(out: &mut Outcome) {
    let (store, fleet, dynamic) = (
        out.layer_is_zero("store"),
        out.layer_is_zero("fleet"),
        out.layer_is_zero("dyn"),
    );
    out.check("bypass.store_zero", store, String::new());
    out.check("ran.fleet_nonzero", !fleet, String::new());
    out.check("ran.dyn_nonzero", !dynamic, String::new());
}
