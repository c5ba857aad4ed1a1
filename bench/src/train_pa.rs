//! `train_pa`: the paper's core loop, closed (the next mini-batch starts
//! when the previous one ends). Legion set-up and GraphSAGE epochs on
//! PA/500 over an 8-GPU DGX-V100 shape.
//!
//! GPU memory is scaled so a clique's unified cache holds only part of
//! topology + features: hits and misses both do real work. Set-up is
//! `legion-partition`, pre-sampling, CSLP, the `(B, α)` cost model and
//! the cache fill; a pass is nearly all sampler and `AccessEngine`
//! extraction. No serve, router, store, fleet or dyn code runs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_baselines::{BuildContext, ScheduleKind, SystemError, SystemSetup};
use legion_cache::{build_clique_cache, cslp, CachePlan, CostModel, PlannerConfig};
use legion_core::{
    legion_setup, legion_setup_with_plans, run_epoch, scaled_server, EpochReport, LegionConfig,
};
use legion_gnn::{GnnModel, ModelKind};
use legion_graph::dataset::spec_by_name;
use legion_graph::VertexId;
use legion_hw::pcm::TrafficKind;
use legion_hw::ServerSpec;
use legion_partition::hierarchical_partition;
use legion_pipeline::{epoch_time_pipelined, BatchCost, StageRecorder, TimeModel};
use legion_sampling::access::{AccessEngine, BatchTotals, CacheLayout, TopologyPlacement};
use legion_sampling::{presample, BatchGenerator, KHopSampler, SampleScratch};
use legion_telemetry::Snapshot;

use crate::counts::{sockets, sum_counters, RunView};
use crate::harness::{
    host_reading, measure_passes, measure_setups, record_harness_health, record_measured,
    snapshot_digest, Opts, DATASET_SEED, TRACED_SETUP_REPS,
};
use crate::metrics::Outcome;
use crate::probes;
use crate::refk::Bracket;
use crate::trace::{traced_pairs, TraceBook, Tracer};

/// Dataset scale: PA/500 is 222 K vertices, 2.5 M edges, 128-dim
/// features (108 MiB), built once per run.
const PA_DIVISOR: u64 = 500;
/// Memory scale of the DGX-V100: 8 MiB of HBM per GPU, which lands the
/// feature hit rate near 0.8.
const MEMORY_DIVISOR: u64 = 2000;
const BATCH_SIZE: usize = 256;
/// The band the feature hit rate must land in for the workload to mean
/// what it says (both hits and misses do real work).
const HIT_RATE_BAND: (f64, f64) = (0.5, 0.95);

pub fn run(bracket: &mut Bracket, opts: &Opts) -> (Outcome, Option<TraceBook>) {
    let mut out = Outcome::default();
    let spec = spec_by_name("PA").expect("PA is a Table 2 dataset");
    let (ds, instantiate) = bracket.section(|| spec.instantiate(PA_DIVISOR, DATASET_SEED));
    let server_spec = scaled_server(&ServerSpec::dgx_v100(), MEMORY_DIVISOR);
    let server = server_spec.build();
    let config = LegionConfig {
        batch_size: BATCH_SIZE,
        seed: opts.seed,
        ..LegionConfig::default()
    };
    let ctx = config.build_context(&ds, &server);
    let seeds = ds.train_vertices.len() as u64;

    if opts.measured {
        let (setup, setups) = measure_setups(bracket, opts.setup_reps(), &mut out, || {
            server.reset();
            legion_setup(&ctx, &config).map_err(|e| e.to_string())
        });
        let Some(setup) = setup else {
            out.check("setup", false, "no set-up succeeded".into());
            return (out, None);
        };
        let passes = measure_passes(
            bracket,
            opts,
            || run_epoch(&setup, &ctx, &config),
            |report| snapshot_digest(&report.metrics),
        );
        record_measured(&mut out, &setups, &passes, seeds);
        record_model_clock(&mut out, &passes.last, seeds);
        check_epoch(&mut out, &passes.last, seeds);
    }

    let mut book = None;
    if opts.traced {
        let mut tb = TraceBook::new("train_pa", opts.seed);
        out.set("graph.instantiate_s", host_reading(&[instantiate]));

        // Set-up, rebuilt from the public stages and traced, on a second
        // server so the reference set-up below stays untouched.
        let replay_server = server_spec.build();
        let replay_ctx = config.build_context(&ds, &replay_server);
        let mut replayed = None;
        for _ in 0..TRACED_SETUP_REPS {
            let pass = tb.tracer.next_pass();
            let (result, sample) = bracket.section(|| {
                replay_server.reset();
                traced_setup(&mut tb.tracer, &replay_ctx, &config)
            });
            tb.close_pass(pass, &sample);
            out.attempted += 1;
            match result {
                Ok(r) => replayed = Some(r),
                Err(e) => {
                    out.failed += 1;
                    eprintln!("traced set-up failed: {e}");
                }
            }
        }
        for (metric, span) in [
            ("partition.hier_s", "partition.hierarchical"),
            ("sampling.presample_s", "sampling.presample"),
            ("cache.cslp_s", "cache.cslp"),
            ("cache.plan_s", "cache.plan"),
            ("cache.fill_s", "cache.fill"),
        ] {
            out.set(metric, tb.span_seconds(span));
        }
        tb.end_group();

        server.reset();
        let reference = legion_setup_with_plans(&ctx, &config);
        let (Some((replay_setup, replay_plans)), Ok((setup, plans))) = (replayed, reference) else {
            out.check("setup", false, "no set-up succeeded".into());
            return (out, Some(tb));
        };
        out.check(
            "replay.plans_equal",
            replay_plans == plans,
            format!("{} clique plans", plans.len()),
        );
        let alpha = plans.iter().map(|p| p.alpha).sum::<f64>() / plans.len().max(1) as f64;
        out.set_exact("cache.alpha", alpha);

        // Un-traced passes are the program's own `run_epoch`; traced ones
        // are the epoch rebuilt from public calls.
        let pairs = traced_pairs(
            bracket,
            opts,
            &mut tb,
            || run_epoch(&setup, &ctx, &config),
            |tr| traced_epoch(tr, &replay_setup, &replay_ctx, &config),
        );
        out.attempted += seeds * pairs.passes();
        let (report, replay) = (pairs.last_plain, pairs.last_traced);
        let (plain, traced) = (pairs.plain, pairs.traced);

        check_replay(&mut out, &report.metrics, &replay.snapshot);
        check_epoch(&mut out, &report, seeds);
        record_harness_health(&mut out, bracket, &plain, seeds);
        let (plain_s, traced_s) = (host_reading(&plain).value, host_reading(&traced).value);
        out.set_exact("host.trace_overhead_share", (traced_s - plain_s) / plain_s);

        let rows = report.metrics.counter_sum("extract.") as f64;
        let batches = sum_counters(&report.metrics, "batch.gpu", ".batches") as f64;
        out.set(
            "sampling.khop_ns_per_seed",
            tb.span_ns_per("sampling.khop", seeds as f64),
        );
        out.set(
            "sampling.extract_ns_per_row",
            tb.span_ns_per("sampling.extract", rows),
        );
        out.set(
            "gnn.flops_ns_per_batch",
            tb.span_ns_per("gnn.flops", batches),
        );
        out.set_exact("gnn.flops_per_seed", replay.flops / seeds as f64);
        let overhead = tb.span_seconds("core.epoch").value;
        out.set_exact("core.epoch_overhead_share", overhead / traced_s);
        out.check(
            "trace.layers_cover_pass",
            overhead / traced_s <= 0.10,
            format!(
                "{:.1} % of the traced pass is outside layer spans",
                100.0 * overhead / traced_s
            ),
        );
        tb.end_group();

        RunView {
            servers: vec![&report.metrics],
            fleet: None,
            seeds,
            socket_of: sockets(&server_spec),
        }
        .record(&mut out);
        out.set_exact("model.failed_share", 0.0);

        out.set(
            "cache.lookup_ns_per_probe",
            probes::cache_lookup(bracket, &replay_setup.layout, 0, &replay.probe_vertices),
        );
        out.set(
            "telemetry.snapshot_ns",
            probes::snapshot_cost(bracket, &report.metrics),
        );
        check_bypassed(&mut out);
        book = Some(tb);
    }
    (out, book)
}

/// Model-clock end-to-end metrics of one epoch.
fn record_model_clock(out: &mut Outcome, report: &EpochReport, seeds: u64) {
    let m = &report.metrics;
    let prep_ns =
        sum_counters(m, "stage.gpu", ".sample_ns") + sum_counters(m, "stage.gpu", ".extract_ns");
    let batches = sum_counters(m, "batch.gpu", ".batches");
    out.set_exact("model_seeds_per_s", seeds as f64 / report.epoch_seconds);
    out.set_exact("model_wait_us", prep_ns as f64 / batches as f64 / 1e3);
    out.set_exact(
        "model_pcie_tx_per_kseed",
        report.pcie_total as f64 * 1000.0 / seeds as f64,
    );
}

fn check_epoch(out: &mut Outcome, report: &EpochReport, seeds: u64) {
    let m = &report.metrics;
    let trained = sum_counters(m, "batch.gpu", ".seeds");
    out.check(
        "every_seed_trained",
        trained == seeds,
        format!("{trained} of {seeds}"),
    );
    let hit = report.feature_hit_rate();
    out.check(
        "hit_rate_in_band",
        (HIT_RATE_BAND.0..=HIT_RATE_BAND.1).contains(&hit),
        format!("feature hit rate {hit:.4}"),
    );
    out.check(
        "pcm_totals_consistent",
        report.pcie_total == m.counter_sum("pcm."),
        format!("{} vs {}", report.pcie_total, m.counter_sum("pcm.")),
    );
}

/// The traced replay must reproduce the program's own epoch: PCM,
/// traffic and cache counters and the modelled epoch time.
fn check_replay(out: &mut Outcome, program: &Snapshot, replay: &Snapshot) {
    let family = |s: &Snapshot, prefix: &str| -> Vec<(String, u64)> {
        s.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| (c.name.clone(), c.value))
            .collect()
    };
    for prefix in [
        "pcm.", "cache.", "traffic.", "stage.", "sample.", "extract.",
    ] {
        let (a, b) = (family(program, prefix), family(replay, prefix));
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        out.check(
            &format!("replay.{prefix}counters_equal"),
            a == b && !a.is_empty(),
            format!("{} counters, {differing} differ", a.len()),
        );
    }
    let (a, b) = (
        program.gauge("epoch.seconds"),
        replay.gauge("epoch.seconds"),
    );
    out.check(
        "replay.epoch_seconds_equal",
        a.to_bits() == b.to_bits(),
        format!("{a} vs {b}"),
    );
}

/// No serving-side layer leaves a mark on a training pass.
fn check_bypassed(out: &mut Outcome) {
    for layer in ["serve", "router", "store", "fleet", "dyn"] {
        let zero = out.layer_is_zero(layer);
        out.check(&format!("bypass.{layer}_zero"), zero, String::new());
    }
}

/// `legion_setup` rebuilt stage by stage from public functions, each
/// call into a layer inside a span.
fn traced_setup(
    tr: &mut Tracer,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
) -> Result<(SystemSetup, Vec<CachePlan>), SystemError> {
    let root = tr.enter("core.setup");
    let result = traced_setup_stages(tr, ctx, config);
    tr.exit(root);
    result
}

fn traced_setup_stages(
    tr: &mut Tracer,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
) -> Result<(SystemSetup, Vec<CachePlan>), SystemError> {
    let ds = ctx.dataset;
    let needed = ds.topology_bytes() + ds.feature_bytes();
    let available = ctx.server.spec().cpu_memory;
    if needed > available {
        return Err(SystemError::CpuOom { needed, available });
    }
    let partitioner = config.partitioner.build(config.seed);
    let plan = tr.leaf("partition.hierarchical", || {
        hierarchical_partition(
            &ds.graph,
            &ds.train_vertices,
            ctx.server.nvlink(),
            partitioner.as_ref(),
        )
    });
    let sampler = KHopSampler::new(config.fanouts.clone());
    let planner = PlannerConfig {
        reserved_per_gpu: ctx.reserved_per_gpu,
        delta_alpha: config.delta_alpha,
    };
    let mut cliques = Vec::with_capacity(plan.cliques.len());
    let mut plans = Vec::with_capacity(plan.cliques.len());
    for clique_gpus in &plan.cliques {
        let tablets: Vec<_> = clique_gpus
            .iter()
            .map(|&g| plan.tablets[g].clone())
            .collect();
        let pres = tr.leaf("sampling.presample", || {
            presample(
                &ds.graph,
                &ds.features,
                ctx.server,
                clique_gpus,
                &tablets,
                &sampler,
                ctx.batch_size,
                config.presample_epochs,
                config.seed,
            )
        });
        let (topo_order, feat_order) = tr.leaf("cache.cslp", || (cslp(&pres.h_t), cslp(&pres.h_f)));
        let cache_plan = tr.leaf("cache.plan", || {
            let model = CostModel::new(
                &ds.graph,
                &topo_order.clique_order,
                &topo_order.accumulated,
                &feat_order.clique_order,
                &feat_order.accumulated,
                pres.n_tsum,
                ds.features.dim(),
                ctx.server.pcie().cls(),
            );
            let mut budget = planner.clique_budget(ctx.server.spec().gpu_memory, clique_gpus.len());
            if let Some(cap) = ctx.cache_budget_override {
                budget = budget.min(cap * clique_gpus.len() as u64);
            }
            planner.plan_with_budget(&model, budget)
        });
        let cache = tr
            .leaf("cache.fill", || {
                build_clique_cache(
                    &ds.graph,
                    &ds.features,
                    clique_gpus,
                    &topo_order,
                    &feat_order,
                    &cache_plan,
                    ctx.server,
                )
            })
            .map_err(SystemError::GpuOom)?;
        cliques.push(cache);
        plans.push(cache_plan);
    }
    let layout = tr.leaf("sampling.layout", || {
        CacheLayout::from_cliques(ctx.server.num_gpus(), cliques)
    });
    let setup = SystemSetup {
        name: "Legion".to_string(),
        layout,
        tablets: plan.tablets,
        topology_placement: TopologyPlacement::CpuUva,
        schedule: ScheduleKind::Pipelined,
    };
    Ok((setup, plans))
}

/// What one traced epoch leaves behind.
struct Replay {
    snapshot: Snapshot,
    /// Training FLOPs of the epoch, summed over batches.
    flops: f64,
    /// Input vertices of the first GPU's first batches, for the cache
    /// lookup probe.
    probe_vertices: Vec<VertexId>,
}

/// How many input vertices the cache-lookup probe replays.
const LOOKUP_PROBE_VERTICES: usize = 200_000;

/// One epoch rebuilt from public calls — the body of `run_epoch` for a
/// pipelined schedule — with a span around every call into a layer.
fn traced_epoch(
    tr: &mut Tracer,
    setup: &SystemSetup,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
) -> Replay {
    assert_eq!(
        setup.schedule,
        ScheduleKind::Pipelined,
        "the replay mirrors the pipelined runner only"
    );
    let root = tr.enter("core.epoch");
    let server = ctx.server;
    let ds = ctx.dataset;
    tr.leaf("telemetry.reset", || server.telemetry().reset());
    let time_model = TimeModel::new(server.spec());
    let engine = tr.leaf("sampling.engine_new", || {
        AccessEngine::new(
            &ds.graph,
            &ds.features,
            &setup.layout,
            server,
            setup.topology_placement,
        )
    });
    let sampler = KHopSampler::new(config.fanouts.clone());
    let flops_model = tr.leaf("gnn.model_new", || {
        let mut rng = StdRng::seed_from_u64(config.seed);
        GnnModel::new(
            ModelKind::GraphSage,
            ds.features.dim(),
            config.hidden_dim,
            16,
            config.fanouts.len(),
            &mut rng,
        )
    });
    let n = server.num_gpus();
    let recorders: Vec<StageRecorder> = (0..n)
        .map(|g| StageRecorder::for_gpu(server.telemetry(), g))
        .collect();
    let mut per_gpu_costs: Vec<Vec<BatchCost>> = vec![Vec::new(); n];
    let mut scratch = SampleScratch::new();
    let mut features: Vec<f32> = Vec::new();
    let mut totals = BatchTotals::new(n);
    let mut flops = 0.0;
    let mut probe_vertices = Vec::new();

    for gpu in 0..n {
        if setup.tablets[gpu].is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ (gpu as u64).wrapping_mul(0x517c_c1b7));
        let batches = tr.leaf("sampling.batch_gen", || {
            BatchGenerator::new(setup.tablets[gpu].clone(), ctx.batch_size)
                .with_telemetry(server.telemetry(), gpu)
                .epoch(&mut rng)
        });
        for batch in &batches {
            let topo_before = server.pcm().gpu_kind(gpu, TrafficKind::Topology);
            let sample = tr.leaf("sampling.khop", || {
                sampler.sample_batch_with(&engine, gpu, batch, &mut rng, None, &mut scratch)
            });
            let topo_tx = server.pcm().gpu_kind(gpu, TrafficKind::Topology) - topo_before;
            let feat_before = server.pcm().gpu_kind(gpu, TrafficKind::Feature);
            let peer_before: u64 = (0..n).map(|s| server.traffic().gpu_to_gpu(s, gpu)).sum();
            tr.leaf("sampling.extract", || {
                engine.read_features_batch(gpu, sample.input_vertices(), &mut features, &mut totals)
            });
            let feat_tx = server.pcm().gpu_kind(gpu, TrafficKind::Feature) - feat_before;
            let peer_after: u64 = (0..n).map(|s| server.traffic().gpu_to_gpu(s, gpu)).sum();
            let batch_flops = tr.leaf("gnn.flops", || flops_model.training_flops(&sample));
            flops += batch_flops;
            let (sample_t, extract_t, train_t) = tr.leaf("pipeline.time_model", || {
                (
                    time_model.sample_seconds(topo_tx, sample.total_edges() as u64),
                    time_model.extract_seconds(feat_tx, peer_after - peer_before),
                    time_model.train_seconds(batch_flops),
                )
            });
            recorders[gpu].record(sample_t, extract_t, train_t);
            per_gpu_costs[gpu].push(BatchCost::overlapped(sample_t, extract_t, train_t));
            if gpu == 0 && probe_vertices.len() < LOOKUP_PROBE_VERTICES {
                probe_vertices.extend_from_slice(sample.input_vertices());
            }
        }
    }
    let epoch_seconds = tr.leaf("pipeline.time_model", || {
        per_gpu_costs
            .iter()
            .map(|c| epoch_time_pipelined(c))
            .fold(0.0, f64::max)
    });
    let snapshot = tr.leaf("telemetry.snapshot", || {
        let registry = server.telemetry();
        let (mut hits, mut misses) = (0u64, 0u64);
        for g in 0..n {
            hits += registry.counter_value(&format!("cache.gpu{g}.feature_hits"));
            misses += registry.counter_value(&format!("cache.gpu{g}.feature_misses"));
        }
        let rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        registry.gauge("epoch.seconds").set(epoch_seconds);
        registry.gauge("epoch.feature_hit_rate").set(rate);
        registry.snapshot()
    });
    tr.exit(root);
    Replay {
        snapshot,
        flops,
        probe_vertices,
    }
}
