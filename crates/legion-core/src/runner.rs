//! The shared epoch runner: executes one training epoch of any
//! [`SystemSetup`] on the simulated server, metering PCIe transactions,
//! traffic matrices and cache hits, and deriving the epoch time through
//! the §5 pipeline model.
//!
//! Every numeric field of [`EpochReport`] is derived from the server's
//! [`legion_telemetry::Registry`] snapshot — the runner itself only
//! computes pipeline epoch time; all traffic, cache, and stage-time
//! accounting flows through the metric registry and is preserved verbatim
//! in [`EpochReport::metrics`].

#![warn(clippy::too_many_lines)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_baselines::{ScheduleKind, SystemSetup};
use legion_gnn::{GnnModel, ModelKind};
use legion_hw::pcm::{pcm_counter_name, TrafficKind};
use legion_hw::traffic::{traffic_counter_name, Source};
use legion_hw::{MultiGpuServer, TimeModel};
use legion_pipeline::{
    epoch_time_factored, epoch_time_pipelined, epoch_time_serial, BatchCost, StageRecorder,
};
use legion_sampling::access::AccessEngine;
use legion_sampling::extract::HitStats;
use legion_sampling::{worker_rng, BatchGenerator, BatchStep, Extract, KHopSampler};
use legion_telemetry::{Snapshot, NANOS_PER_SEC};

use legion_baselines::BuildContext;

use crate::config::LegionConfig;

/// Everything measured over one epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// System name.
    pub name: String,
    /// Modeled wall-clock epoch time in seconds.
    pub epoch_seconds: f64,
    /// Total CPU→GPU PCIe transactions (PCM).
    pub pcie_total: u64,
    /// Maximum per-GPU PCIe transactions.
    pub pcie_max_gpu: u64,
    /// Maximum per-socket PCIe transactions — the metric the paper's
    /// Figure 8 reports from PCM (§6.2).
    pub pcie_max_socket: u64,
    /// Sampling-side PCIe transactions.
    pub pcie_topology: u64,
    /// Feature-side PCIe transactions.
    pub pcie_feature: u64,
    /// Total CPU→GPU bytes.
    pub cpu_bytes: u64,
    /// Total GPU↔GPU (NVLink) bytes.
    pub peer_bytes: u64,
    /// Per-GPU feature-cache hit statistics.
    pub per_gpu_hits: Vec<HitStats>,
    /// Figure 10-style traffic snapshot (`rows[dst] = [src..., cpu]`).
    pub traffic: Vec<Vec<u64>>,
    /// Aggregate per-stage seconds (pre-overlap), quantized to integer
    /// nanoseconds by the stage counters.
    pub sample_seconds: f64,
    /// Total feature-extraction seconds.
    pub extract_seconds: f64,
    /// Total training seconds.
    pub train_seconds: f64,
    /// The full metric snapshot the fields above are derived from.
    pub metrics: Snapshot,
}

impl EpochReport {
    /// Overall feature-cache hit rate across GPUs.
    pub fn feature_hit_rate(&self) -> f64 {
        let mut agg = HitStats::default();
        for h in &self.per_gpu_hits {
            agg.merge(*h);
        }
        agg.hit_rate()
    }

    /// Per-GPU hit rates (0 for GPUs that trained nothing).
    pub fn per_gpu_hit_rates(&self) -> Vec<f64> {
        self.per_gpu_hits.iter().map(|h| h.hit_rate()).collect()
    }
}

/// Sets the epoch gauges, snapshots the server's registry, and derives
/// every numeric report field from that snapshot.
fn finalize_report(name: String, server: &MultiGpuServer, epoch_seconds: f64) -> EpochReport {
    let registry = server.telemetry();
    let n = server.num_gpus();
    let mut agg = HitStats::default();
    for g in 0..n {
        agg.merge(HitStats {
            hits: registry.counter_value(&format!("cache.gpu{g}.feature_hits")),
            misses: registry.counter_value(&format!("cache.gpu{g}.feature_misses")),
        });
    }
    registry.gauge("epoch.seconds").set(epoch_seconds);
    registry.gauge("epoch.feature_hit_rate").set(agg.hit_rate());
    let metrics = registry.snapshot();

    let spec = server.spec();
    let mut pcie_topology = 0u64;
    let mut pcie_feature = 0u64;
    let mut pcie_max_gpu = 0u64;
    let mut per_socket = vec![0u64; spec.sockets.max(1)];
    let mut per_gpu_hits = Vec::with_capacity(n);
    for g in 0..n {
        let t = metrics.counter(&pcm_counter_name(g, TrafficKind::Topology));
        let f = metrics.counter(&pcm_counter_name(g, TrafficKind::Feature));
        pcie_topology += t;
        pcie_feature += f;
        pcie_max_gpu = pcie_max_gpu.max(t + f);
        per_socket[spec.socket_of(g)] += t + f;
        per_gpu_hits.push(HitStats {
            hits: metrics.counter(&format!("cache.gpu{g}.feature_hits")),
            misses: metrics.counter(&format!("cache.gpu{g}.feature_misses")),
        });
    }

    let mut traffic = Vec::with_capacity(n);
    let mut cpu_bytes = 0u64;
    let mut peer_bytes = 0u64;
    for dst in 0..n {
        let mut row: Vec<u64> = (0..n)
            .map(|src| metrics.counter(&traffic_counter_name(dst, Source::Gpu(src))))
            .collect();
        peer_bytes += row.iter().sum::<u64>();
        let cpu = metrics.counter(&traffic_counter_name(dst, Source::Cpu));
        cpu_bytes += cpu;
        row.push(cpu);
        traffic.push(row);
    }

    let stage_secs = |stage: &str| -> f64 {
        (0..n)
            .map(|g| metrics.counter(&format!("stage.gpu{g}.{stage}_ns")))
            .sum::<u64>() as f64
            / NANOS_PER_SEC
    };

    EpochReport {
        name,
        epoch_seconds: metrics.gauge("epoch.seconds"),
        pcie_total: pcie_topology + pcie_feature,
        pcie_max_gpu,
        pcie_max_socket: per_socket.into_iter().max().unwrap_or(0),
        pcie_topology,
        pcie_feature,
        cpu_bytes,
        peer_bytes,
        per_gpu_hits,
        traffic,
        sample_seconds: stage_secs("sample"),
        extract_seconds: stage_secs("extract"),
        train_seconds: stage_secs("train"),
        metrics,
    }
}

/// How `schedule` composes one batch's stage times.
fn batch_cost(schedule: &ScheduleKind, sample_t: f64, extract_t: f64, train_t: f64) -> BatchCost {
    match schedule {
        ScheduleKind::Serial => BatchCost::serial(sample_t, extract_t, train_t),
        // Factored: samplers only sample; trainers extract + train
        // (GNNLab's feature cache lives on the trainer GPUs).
        ScheduleKind::Factored { .. } => BatchCost {
            prep: sample_t,
            train: extract_t + train_t,
        },
        _ => BatchCost::overlapped(sample_t, extract_t, train_t),
    }
}

/// Runs one epoch of `setup` under `config`, returning the full report.
///
/// Counters are reset at entry, so the report covers exactly this epoch.
/// Execution is sequential and fully deterministic for a fixed seed; the
/// multi-GPU parallelism is reflected in the epoch-time model rather than
/// host threads.
pub fn run_epoch(
    setup: &SystemSetup,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
) -> EpochReport {
    run_epoch_with_model(setup, ctx, config, ModelKind::GraphSage)
}

/// [`run_epoch`] with an explicit model kind (GraphSAGE or GCN): every
/// trainer GPU walks its shuffled batches through [`BatchStep::run`],
/// prices training from each sample's FLOPs, and the schedule's pipeline
/// model turns the per-batch costs into the epoch time.
pub fn run_epoch_with_model(
    setup: &SystemSetup,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    model_kind: ModelKind,
) -> EpochReport {
    let server = ctx.server;
    let graph = &ctx.dataset.graph;
    // Clear all metrics (PCM, traffic, cache, stage counters) so the
    // snapshot covers exactly this epoch.
    server.telemetry().reset();
    let engine = AccessEngine::new(
        graph,
        &ctx.dataset.features,
        &setup.layout,
        server,
        setup.topology_placement,
    );
    // A throwaway model instance supplies the FLOP counts; its weights
    // are never updated here.
    let mut flops_rng = StdRng::seed_from_u64(config.seed);
    let num_classes = 16usize;
    let flops_model = GnnModel::new(
        model_kind,
        ctx.dataset.features.dim(),
        config.hidden_dim,
        num_classes,
        config.fanouts.len(),
        &mut flops_rng,
    );

    let n = server.num_gpus();
    let recorders: Vec<StageRecorder> = (0..n)
        .map(|g| StageRecorder::for_gpu(server.telemetry(), g))
        .collect();
    let mut per_gpu_costs: Vec<Vec<BatchCost>> = vec![Vec::new(); n];
    // Round-robin cursor over dedicated samplers (factored design).
    let mut sampler_cursor = 0usize;
    let mut step = BatchStep::new(
        KHopSampler::new(config.fanouts.clone()),
        TimeModel::new(server.spec()),
        n,
    );
    for gpu in 0..n {
        if setup.tablets[gpu].is_empty() {
            continue;
        }
        let mut rng = worker_rng(config.seed, gpu);
        let mut generator = BatchGenerator::new(setup.tablets[gpu].clone(), ctx.batch_size)
            .with_telemetry(server.telemetry(), gpu);
        let batches = generator.epoch(&mut rng);
        for batch in &batches {
            let sampling_gpu = match &setup.schedule {
                ScheduleKind::Factored { samplers, .. } => {
                    let g = samplers[sampler_cursor % samplers.len()];
                    sampler_cursor += 1;
                    g
                }
                _ => gpu,
            };
            // Extraction is metered, not performed: nothing downstream
            // reads the rows.
            let out = step.run(
                &engine,
                sampling_gpu,
                gpu,
                batch,
                &mut rng,
                None,
                Extract::Layout,
                &mut [],
                0.0,
            );
            let time = step.time();
            let sample_t = match setup.schedule {
                ScheduleKind::CpuSampling => {
                    time.cpu_sample_seconds(out.sample.total_edges() as u64)
                }
                _ => out.sample_s,
            };
            let extract_t = out.extract_s;
            let train_t = time.train_seconds(flops_model.training_flops(&out.sample));
            // Stage times accrue to the trainer GPU's counters (for a
            // factored schedule the sampling ran elsewhere, but the batch
            // belongs to this trainer).
            recorders[gpu].record(sample_t, extract_t, train_t);
            per_gpu_costs[gpu].push(batch_cost(&setup.schedule, sample_t, extract_t, train_t));
        }
    }

    // Each trainer's makespan is its `epoch.gpu{g}.seconds`; the slowest
    // sets the epoch.
    let slowest_gpu = |epoch_time: fn(&[BatchCost]) -> f64| {
        let registry = server.telemetry();
        per_gpu_costs
            .iter()
            .enumerate()
            .map(|(gpu, c)| {
                let seconds = epoch_time(c);
                registry
                    .gauge(&format!("epoch.gpu{gpu}.seconds"))
                    .set(seconds);
                seconds
            })
            .fold(0.0, f64::max)
    };
    let epoch_seconds = match &setup.schedule {
        ScheduleKind::Pipelined | ScheduleKind::CpuSampling => slowest_gpu(epoch_time_pipelined),
        ScheduleKind::Serial => slowest_gpu(epoch_time_serial),
        ScheduleKind::Factored { samplers, trainers } => {
            let all: Vec<BatchCost> = per_gpu_costs.iter().flatten().copied().collect();
            epoch_time_factored(&all, samplers.len(), trainers.len())
        }
    };

    finalize_report(setup.name.clone(), server, epoch_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::legion_setup;
    use legion_baselines::dgl;
    use legion_graph::dataset::spec_by_name;
    use legion_graph::VertexId;
    use legion_hw::ServerSpec;

    #[test]
    fn legion_beats_dgl_on_pcie_and_epoch_time() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 3);
        let config = LegionConfig::small();

        let server = ServerSpec::custom(4, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let legion = legion_setup(&ctx, &config).unwrap();
        let legion_report = run_epoch(&legion, &ctx, &config);

        let server2 = ServerSpec::custom(4, 32 << 20, 2).build();
        let ctx2 = config.build_context(&ds, &server2);
        let dgl_setup = dgl::setup(&ctx2).unwrap();
        let dgl_report = run_epoch(&dgl_setup, &ctx2, &config);

        assert!(
            legion_report.pcie_total < dgl_report.pcie_total / 2,
            "legion {} dgl {}",
            legion_report.pcie_total,
            dgl_report.pcie_total
        );
        assert!(
            legion_report.epoch_seconds < dgl_report.epoch_seconds,
            "legion {} dgl {}",
            legion_report.epoch_seconds,
            dgl_report.epoch_seconds
        );
        assert!(legion_report.feature_hit_rate() > 0.3);
        assert_eq!(dgl_report.feature_hit_rate(), 0.0);
    }

    #[test]
    fn report_totals_are_consistent() {
        let ds = spec_by_name("PR").unwrap().instantiate(4000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(2, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = dgl::setup(&ctx).unwrap();
        let report = run_epoch(&setup, &ctx, &config);
        assert_eq!(
            report.pcie_total,
            report.pcie_topology + report.pcie_feature
        );
        assert!(report.pcie_max_gpu <= report.pcie_total);
        assert!(report.cpu_bytes > 0);
        // DGL uses no NVLink.
        assert_eq!(report.peer_bytes, 0);
        // Traffic snapshot row sums match CPU bytes.
        let snap_cpu: u64 = report.traffic.iter().map(|r| r[r.len() - 1]).sum();
        assert_eq!(snap_cpu, report.cpu_bytes);
        // Stage times are positive.
        assert!(report.sample_seconds > 0.0);
        assert!(report.extract_seconds > 0.0);
        assert!(report.train_seconds > 0.0);
        // Every numeric field is derived from the attached snapshot.
        assert_eq!(report.pcie_total, report.metrics.counter_sum("pcm."));
        assert_eq!(
            report.cpu_bytes + report.peer_bytes,
            report.metrics.counter_sum("traffic.")
        );
        assert_eq!(report.epoch_seconds, report.metrics.gauge("epoch.seconds"));
        // The epoch is its slowest trainer's makespan.
        let makespans: Vec<f64> = (0..2)
            .map(|g| report.metrics.gauge(&format!("epoch.gpu{g}.seconds")))
            .collect();
        assert!(makespans.iter().all(|&s| s > 0.0), "{makespans:?}");
        assert_eq!(report.epoch_seconds, makespans[0].max(makespans[1]));
        assert_eq!(
            report.feature_hit_rate(),
            report.metrics.gauge("epoch.feature_hit_rate")
        );
        // Pipeline operators all left their marks.
        assert!(report.metrics.counter_sum("batch.") > 0);
        assert!(report.metrics.counter_sum("sample.") > 0);
        assert!(report.metrics.counter_sum("extract.") > 0);
        assert!(report.metrics.counter_sum("subgraph.") > 0);
        assert!(report.metrics.counter_sum("cache.") > 0);
        let blocks: u64 = (0..2)
            .map(|g| report.metrics.counter(&format!("subgraph.gpu{g}.blocks")))
            .sum();
        let hist = report
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == "subgraph.block_edges")
            .expect("block-size histogram registered");
        assert_eq!(hist.counts.iter().sum::<u64>(), blocks);
    }

    #[test]
    fn runner_is_deterministic() {
        let ds = spec_by_name("PR").unwrap().instantiate(4000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(2, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = dgl::setup(&ctx).unwrap();
        let a = run_epoch(&setup, &ctx, &config);
        let b = run_epoch(&setup, &ctx, &config);
        assert_eq!(a.pcie_total, b.pcie_total);
        assert_eq!(a.epoch_seconds, b.epoch_seconds);
    }

    #[test]
    fn training_does_not_replay_the_presampling_draws() {
        // Unsalted, both streams are the bare seed at GPU 0, whose first
        // training batch would then be its first pre-sampling batch.
        let tablet: Vec<VertexId> = (0..256).collect();
        for gpu in 0..8 {
            let first = |mut rng: StdRng| {
                BatchGenerator::new(tablet.clone(), 32).epoch(&mut rng)[0].clone()
            };
            assert_ne!(
                first(worker_rng(7, gpu)),
                first(legion_sampling::presample_rng(7, gpu)),
                "GPU {gpu}"
            );
        }
    }

    #[test]
    fn gcn_and_sage_have_different_train_times() {
        let ds = spec_by_name("PR").unwrap().instantiate(4000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(2, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = dgl::setup(&ctx).unwrap();
        let sage = run_epoch_with_model(&setup, &ctx, &config, ModelKind::GraphSage);
        let gcn = run_epoch_with_model(&setup, &ctx, &config, ModelKind::Gcn);
        // SAGE weights are twice as wide -> more FLOPs.
        assert!(sage.train_seconds > gcn.train_seconds);
    }
}
