//! Offered-load sweeps: capacity estimation and throughput–latency
//! curves.
//!
//! Absolute request rates mean nothing across dataset scales and server
//! shapes, so the sweep is anchored to a measured capacity: a closed-loop
//! probe times a representative uncached batch, capacity is
//! `num_gpus * max_batch / service`, and offered loads are expressed as
//! multipliers of it. A multiplier past 1.0 is guaranteed overload, so
//! every sweep exhibits its saturation knee regardless of scale knobs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use legion_gnn::{GnnModel, ModelKind};
use legion_graph::{CsrGraph, FeatureTable};
use legion_hw::{MultiGpuServer, TimeModel};
use legion_pipeline::BatchCost;
use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::{BatchStep, Extract, KHopSampler, LowerTier};

use legion_graph::VertexId;
use legion_router::{fill_probe, RouterPolicy, CLASS_COUNT};

use crate::cache_policy::ownership_dispatcher;
use crate::engine::{generate_requests, plan_deployment};
use crate::workload::{ClassSampler, TargetSampler};
use crate::ServeConfig;

/// Default load multipliers for the full sweep; the knee sits between
/// 0.9 and 1.05, and the 4.0 point is deep saturation (queue-bound tail,
/// possibly shedding).
pub const SWEEP_MULTIPLIERS: [f64; 8] = [0.25, 0.5, 0.75, 0.9, 1.05, 1.3, 2.0, 4.0];

/// One row of the throughput–latency curve.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Cache policy name (`static` / `fifo` / `replan`).
    pub policy: &'static str,
    /// Offered load as a multiple of estimated capacity.
    pub load_multiplier: f64,
    /// Offered load in requests per simulated second.
    pub offered_rps: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Achieved throughput, requests per simulated second.
    pub throughput_rps: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Fraction of completed requests within the SLO.
    pub slo_attainment: f64,
    /// Per-class p99 latency (`[Interactive, Standard, Batch]`), zeros
    /// for single-class runs.
    pub class_p99_us: [u64; CLASS_COUNT],
    /// Per-class SLO attainment against the per-class targets; `1.0`
    /// for single-class runs.
    pub class_slo_attainment: [f64; CLASS_COUNT],
    /// Per-class shed counts.
    pub class_shed: [u64; CLASS_COUNT],
    /// Requests placed by clique coverage (residency-router runs).
    pub routed: u64,
    /// Requests spilled out of their best clique under saturation.
    pub spilled: u64,
    /// Mean probe coverage of the chosen clique; `1.0` with the router
    /// off.
    pub route_locality: f64,
}

/// The capacity probes' stand-in for the out-of-core store: a
/// DRAM-capacity FIFO window behind the probe's HBM FIFO. A feature
/// miss that also falls outside the window must stage from the
/// simulated NVMe before extraction can start, and the probe charges
/// that batch [`legion_store::NvmeModel::read_seconds`] exactly like
/// the engine charges cold reads. Inactive (`None`) when the store is
/// off *or* the DRAM budget holds the whole table — a DRAM-resident
/// probe stays byte-identical to the storeless one.
struct ProbeStore {
    dram: legion_cache::FifoCache,
    nvme: legion_store::NvmeModel,
    row_bytes: u64,
    cold: u64,
}

impl ProbeStore {
    fn new(config: &ServeConfig, num_vertices: usize, row_bytes: u64) -> Option<Self> {
        let budget = config.store.dram_budget_bytes?;
        let rows = (budget / row_bytes.max(1)).min(num_vertices as u64) as usize;
        if rows >= num_vertices {
            return None;
        }
        Some(Self {
            dram: legion_cache::FifoCache::new(rows.max(1) + config.store.staging_rows),
            nvme: legion_store::NvmeModel::new(config.store.nvme),
            row_bytes,
            cold: 0,
        })
    }
}

impl LowerTier for ProbeStore {
    /// Takes every HBM feature miss, noting whether the row was
    /// DRAM-resident or must stage from NVMe.
    fn claim(&mut self, v: VertexId) -> bool {
        if !self.dram.access(v) {
            self.cold += 1;
        }
        true
    }

    /// Drains the batch's accumulated cold reads into a staging charge.
    fn charge(&mut self, _at: f64) -> f64 {
        let t = self.nvme.read_seconds(self.cold, self.row_bytes);
        self.cold = 0;
        t
    }
}

/// Estimates serving capacity (requests per simulated second) with a
/// closed-loop probe: warm a FIFO feature cache of the configured size
/// with a few `max_batch`-sized batches, time the next few against it,
/// then scale by GPU count. Warming matters — an uncached probe would
/// undershoot the steady-state ceiling so badly that "1.3x capacity"
/// could still be under real capacity and never saturate. Resets the
/// server before and after, so the probe leaves no trace in later runs.
///
/// The probe is class-aware: its seed stream draws each probe target
/// for a class sampled from [`ClassConfig::mix`](crate::ClassConfig),
/// with `Interactive` targets from the boosted head when class skew is
/// enabled — so the estimate anchors to the *aggregate mix*, not to any
/// single class's distribution. With the default single-class mix the
/// probe is byte-identical to the original single-class estimator
/// (pinned by `legacy_probe_is_byte_identical_for_single_class`).
///
/// The two routing policies differ only in how a round's seeds reach
/// GPUs. Round-robin batches are independent single-GPU batches, so a
/// round is one `max_batch` batch timed on GPU 0. With the residency
/// router ([`RouterPolicy::Residency`]) a round draws
/// `num_gpus * max_batch` seeds and deals them through the same
/// [`Dispatcher`](legion_router::Dispatcher) scoring the engine uses,
/// against *projected* depths (incremented per placement within the
/// round); every GPU's routed sub-batch is timed against its own warmed
/// FIFO cache, GPUs run concurrently, and the round's service time is
/// the *max* over GPUs. Routed runs concentrate
/// each clique's partition on its own caches, so their steady-state
/// service rate (and therefore the knee a sweep should anchor to) is
/// higher than the round-robin probe reports. Either way capacity is
/// `num_gpus * max_batch / mean_round`.
///
/// With an active out-of-core store whose DRAM budget cannot hold the
/// feature table, each probe batch additionally pays the NVMe staging
/// time of its DRAM-cold misses (`ProbeStore`) — an oversubscribed
/// system's knee sits below its DRAM-resident twin's, and a sweep
/// anchored to the resident estimate would never cross it. A store
/// whose budget holds the whole table is inert and the probe stays
/// byte-identical to the storeless one.
pub fn estimate_capacity_rps(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    config: &ServeConfig,
) -> f64 {
    config.validate();
    server.reset();
    let num_gpus = server.num_gpus();
    let layout = CacheLayout::none(num_gpus);
    let engine = AccessEngine::new(graph, features, &layout, server, TopologyPlacement::CpuUva);
    let mut step = BatchStep::new(
        KHopSampler::new(config.fanouts.clone()),
        TimeModel::new(server.spec()),
        num_gpus,
    );
    let mut model_rng = StdRng::seed_from_u64(config.seed ^ 0x51ee_7d00_c0de_cafe);
    let model = GnnModel::new(
        ModelKind::GraphSage,
        features.dim(),
        config.hidden_dim,
        config.num_classes,
        config.fanouts.len(),
        &mut model_rng,
    );
    let mut targets = TargetSampler::new(
        (0..graph.num_vertices() as u32).collect(),
        config.zipf_exponent,
        0,
        0,
    );
    if config.classes.mix[0] > 0.0 {
        targets = targets.with_interactive_boost(config.classes.interactive_boost);
    }
    let mut classes = ClassSampler::new(config.classes.mix, config.seed ^ 0x0bad_cafe_f00d_beef);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0bad_cafe_f00d_beef);

    // The spill threshold is one batch per GPU: a capacity probe models
    // the system *at* saturation, where a clique past its fair share
    // spills to the globally least-loaded GPU — without it, coverage
    // skew would serialize whole rounds onto the hot clique and
    // undershoot aggregate capacity.
    let dispatcher = (config.router.policy == RouterPolicy::Residency)
        .then(|| ownership_dispatcher(graph, server, config.max_batch).batched(config.max_batch));
    let lanes = if dispatcher.is_some() { num_gpus } else { 1 };
    let row_bytes = features.row_bytes();
    // One FIFO cache and one probe store per timed GPU, like the
    // engine's per-worker state.
    let mut fifos: Vec<legion_cache::FifoCache> = (0..lanes)
        .map(|_| legion_cache::FifoCache::new(config.cache_rows_per_gpu))
        .collect();
    let mut stores: Vec<Option<ProbeStore>> = (0..lanes)
        .map(|_| ProbeStore::new(config, graph.num_vertices(), row_bytes))
        .collect();
    let mut lens = vec![0usize; lanes];
    let mut probe: Vec<VertexId> = Vec::new();
    let mut per_gpu: Vec<Vec<u32>> = vec![Vec::new(); lanes];

    const WARMUP_BATCHES: usize = 8;
    const PROBES: usize = 4;
    let mut total = 0.0f64;
    for i in 0..WARMUP_BATCHES + PROBES {
        for sub in &mut per_gpu {
            sub.clear();
        }
        lens.fill(0);
        for _ in 0..lanes * config.max_batch {
            let t = targets.next_for_class(classes.sample(), &mut rng);
            let gpu = dispatcher.as_ref().map_or(0, |d| {
                fill_probe(graph, t, config.router.probe_neighbors, &mut probe);
                // Projected depths: each placement deepens its GPU,
                // filling a clique's members one batch at a time and
                // spilling past one batch.
                let dec = d.route(&probe, &lens);
                lens[dec.gpu] += 1;
                dec.gpu
            });
            per_gpu[gpu].push(t);
        }
        let mut round = 0.0f64;
        for (gpu, seeds) in per_gpu.iter_mut().enumerate() {
            if seeds.is_empty() {
                continue;
            }
            // Same dedupe as the engine: duplicate targets expand once.
            seeds.sort_unstable();
            seeds.dedup();
            let how = Extract::Fifo(&mut fifos[gpu]);
            let mut tier = stores[gpu].as_mut().map(|s| s as &mut dyn LowerTier);
            let out = step.run(
                &engine,
                gpu,
                gpu,
                seeds,
                &mut rng,
                None,
                how,
                tier.as_mut_slice(),
                0.0,
            );
            let infer_t = step
                .time()
                .train_seconds(model.inference_flops(&out.sample));
            let cost = BatchCost::overlapped(out.sample_s, out.extract_s, infer_t);
            round = round.max(cost.prep + cost.train);
        }
        if i >= WARMUP_BATCHES {
            total += round;
        }
    }
    server.reset();
    let mean_round = total / PROBES as f64;
    assert!(mean_round > 0.0, "probe rounds took no simulated time");
    num_gpus as f64 * config.max_batch as f64 / mean_round
}

/// Runs `base` at each multiplier of `capacity_rps`, scaling its
/// arrival rate. Only the request stream changes between
/// points, so all of them run against one [`plan_deployment`].
pub fn run_sweep(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    base: &ServeConfig,
    capacity_rps: f64,
    multipliers: &[f64],
) -> Vec<LoadPoint> {
    assert!(capacity_rps > 0.0, "capacity must be positive");
    let deployment = plan_deployment(graph, features, server, base);
    multipliers
        .iter()
        .map(|&m| {
            let offered_rps = m * capacity_rps;
            let mut config = base.clone();
            config.arrival = base.arrival.scaled(offered_rps / base.arrival.mean_rate());
            let requests = generate_requests(graph, &config);
            let report = deployment.serve(server, &requests, None);
            LoadPoint {
                policy: base.policy.as_str(),
                load_multiplier: m,
                offered_rps,
                offered: report.offered,
                completed: report.completed,
                shed: report.shed,
                throughput_rps: report.throughput_rps,
                p50_us: report.p50_us,
                p95_us: report.p95_us,
                p99_us: report.p99_us,
                slo_attainment: report.slo_attainment,
                class_p99_us: report.class_p99_us,
                class_slo_attainment: report.class_slo_attainment,
                class_shed: report.class_shed,
                routed: report.routed,
                spilled: report.spilled,
                route_locality: report.route_locality,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_policy::PolicyKind;
    use legion_graph::GraphBuilder;
    use legion_hw::ServerSpec;

    fn fixture() -> (CsrGraph, FeatureTable, ServeConfig) {
        let mut b = GraphBuilder::new(128);
        for v in 0..128u32 {
            for d in 1..5u32 {
                b.push_edge(v, (v + d * 11) % 128);
            }
        }
        let config = ServeConfig {
            num_requests: 150,
            max_batch: 8,
            max_wait: 5e-4,
            queue_capacity: 64,
            cache_rows_per_gpu: 16,
            warmup_requests: 32,
            fanouts: vec![3, 2],
            policy: PolicyKind::Fifo,
            ..ServeConfig::default()
        };
        (b.build(), FeatureTable::zeros(128, 16), config)
    }

    #[test]
    fn capacity_probe_is_positive_deterministic_and_traceless() {
        let (g, f, config) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let a = estimate_capacity_rps(&g, &f, &server, &config);
        let b = estimate_capacity_rps(&g, &f, &server, &config);
        assert!(a > 0.0);
        assert_eq!(a, b);
        assert_eq!(
            server.telemetry().snapshot().counter_sum("pcm."),
            0,
            "probe must reset the server"
        );
    }

    #[test]
    fn sweep_scales_offered_load_and_saturates() {
        let (g, f, config) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let capacity = estimate_capacity_rps(&g, &f, &server, &config);
        let points = run_sweep(&g, &f, &server, &config, capacity, &[0.3, 2.0]);
        assert_eq!(points.len(), 2);
        assert!(points[0].offered_rps < points[1].offered_rps);
        assert!(points.iter().all(|p| p.policy == "fifo"));
        assert!(
            points[1].p99_us >= points[0].p99_us,
            "overload tail {} must not beat light load {}",
            points[1].p99_us,
            points[0].p99_us
        );
    }

    /// Reference reimplementation of the original single-class probe
    /// loop (before class-aware seeding). The class-aware probe with
    /// the default `[0, 1, 0]` mix must reproduce it bit-for-bit: the
    /// class stream lives on its own RNG and a `Standard` draw consumes
    /// exactly one uniform from the main stream, same as before.
    fn legacy_probe(
        graph: &CsrGraph,
        features: &FeatureTable,
        server: &MultiGpuServer,
        config: &ServeConfig,
    ) -> f64 {
        use legion_gnn::{GnnModel, ModelKind};
        use legion_hw::pcm::TrafficKind;
        use legion_pipeline::TimeModel;
        use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
        use legion_sampling::KHopSampler;

        server.reset();
        let layout = CacheLayout::none(server.num_gpus());
        let engine = AccessEngine::new(graph, features, &layout, server, TopologyPlacement::CpuUva);
        let time_model = TimeModel::new(server.spec());
        let sampler = KHopSampler::new(config.fanouts.clone());
        let mut model_rng = StdRng::seed_from_u64(config.seed ^ 0x51ee_7d00_c0de_cafe);
        let model = GnnModel::new(
            ModelKind::GraphSage,
            features.dim(),
            config.hidden_dim,
            config.num_classes,
            config.fanouts.len(),
            &mut model_rng,
        );
        let mut targets = TargetSampler::new(
            (0..graph.num_vertices() as u32).collect(),
            config.zipf_exponent,
            0,
            0,
        );
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0bad_cafe_f00d_beef);
        let mut fifo = legion_cache::FifoCache::new(config.cache_rows_per_gpu);
        let row_tx = server.pcie().transactions_for_payload(features.row_bytes());
        let mut total = 0.0f64;
        for i in 0..12 {
            let mut seeds: Vec<u32> = (0..config.max_batch)
                .map(|_| targets.next(&mut rng))
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            let topo_before = server.pcm().gpu_kind(0, TrafficKind::Topology);
            let sample = sampler.sample_batch(&engine, 0, &seeds, &mut rng, None);
            let topo_tx = server.pcm().gpu_kind(0, TrafficKind::Topology) - topo_before;
            let feat_tx: u64 = sample
                .all_vertices
                .iter()
                .filter(|&&v| !fifo.access(v))
                .count() as u64
                * row_tx;
            if i < 8 {
                continue;
            }
            let sample_t = time_model.sample_seconds(topo_tx, sample.total_edges() as u64);
            let extract_t = time_model.extract_seconds(feat_tx, 0);
            total +=
                sample_t.max(extract_t) + time_model.train_seconds(model.inference_flops(&sample));
        }
        server.reset();
        server.num_gpus() as f64 * config.max_batch as f64 / (total / 4.0)
    }

    #[test]
    fn legacy_probe_is_byte_identical_for_single_class() {
        let (g, f, config) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let new = estimate_capacity_rps(&g, &f, &server, &config);
        let old = legacy_probe(&g, &f, &server, &config);
        assert_eq!(new.to_bits(), old.to_bits(), "new {new} vs legacy {old}");
    }

    /// Regression for the mis-anchored router sweeps: with the
    /// residency router on, the probe must route through the
    /// `Dispatcher` (clique-local caches, concurrent GPUs) instead of
    /// timing round-robin single-GPU batches — the two anchors must
    /// differ, and the routed one stays deterministic and traceless.
    #[test]
    fn routed_probe_uses_the_dispatcher_anchor() {
        let (g, f, mut config) = fixture();
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        let unrouted = estimate_capacity_rps(&g, &f, &server, &config);
        config.router.policy = crate::RouterPolicy::Residency;
        let routed = estimate_capacity_rps(&g, &f, &server, &config);
        let routed_again = estimate_capacity_rps(&g, &f, &server, &config);
        assert!(routed > 0.0);
        assert_eq!(routed.to_bits(), routed_again.to_bits());
        assert_eq!(
            server.telemetry().snapshot().counter_sum("pcm."),
            0,
            "probe must reset the server"
        );
        assert_ne!(
            routed.to_bits(),
            unrouted.to_bits(),
            "routed runs must not anchor to the round-robin probe"
        );
    }

    /// The oversubscription anchor: a DRAM-resident store (or one whose
    /// budget holds the whole table) must leave the probe bit-for-bit
    /// unchanged, while a genuinely oversubscribed budget must lower
    /// the estimate — the staging charge is real service time.
    #[test]
    fn probe_accounts_for_nvme_staging_when_oversubscribed() {
        let (g, f, mut config) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let resident = estimate_capacity_rps(&g, &f, &server, &config);
        config.store.dram_budget_bytes = Some(u64::MAX);
        let infinite = estimate_capacity_rps(&g, &f, &server, &config);
        assert_eq!(
            resident.to_bits(),
            infinite.to_bits(),
            "a DRAM-resident store must not move the probe"
        );
        // 8 DRAM rows against a 128-vertex table: most misses stage.
        config.store.dram_budget_bytes = Some(8 * f.row_bytes());
        let oversubscribed = estimate_capacity_rps(&g, &f, &server, &config);
        assert!(oversubscribed > 0.0);
        assert!(
            oversubscribed < resident,
            "staging time must lower capacity: {oversubscribed} vs {resident}"
        );
        // The routed probe pays the same charge.
        config.router.policy = crate::RouterPolicy::Residency;
        let routed_over = estimate_capacity_rps(&g, &f, &server, &config);
        config.store.dram_budget_bytes = None;
        let routed_resident = estimate_capacity_rps(&g, &f, &server, &config);
        assert!(
            routed_over < routed_resident,
            "routed probe must charge staging: {routed_over} vs {routed_resident}"
        );
    }

    #[test]
    fn multi_class_probe_differs_and_sweep_exports_class_columns() {
        let (g, f, mut config) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let single = estimate_capacity_rps(&g, &f, &server, &config);
        config.classes.mix = [0.3, 0.4, 0.3];
        config.classes.qos = true;
        let mixed = estimate_capacity_rps(&g, &f, &server, &config);
        assert!(mixed > 0.0);
        assert_ne!(
            single.to_bits(),
            mixed.to_bits(),
            "a multi-class mix reshapes the probe's seed stream"
        );
        let points = run_sweep(&g, &f, &server, &config, mixed, &[2.0]);
        assert_eq!(points[0].class_p99_us.iter().filter(|&&p| p > 0).count(), 3);
        assert!(points[0]
            .class_slo_attainment
            .iter()
            .all(|&a| (0.0..=1.0).contains(&a)));
    }
}
