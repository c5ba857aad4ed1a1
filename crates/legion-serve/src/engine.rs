//! The discrete-event serving loop.
//!
//! One global event loop interleaves two event kinds in simulated time
//! across every GPU: request arrivals (route, then admit or shed) and
//! batch launches (close the micro-batch, run the real
//! sample→extract→infer operators against the metered server, and
//! record per-request latency). Batches on one GPU are serial; within a
//! batch, sampling and extraction overlap as in the paper's §5
//! pipeline, so service time is `max(sample, extract) + infer`.
//!
//! Arrivals pass through the front-end router first. Under
//! [`RouterPolicy::RoundRobin`] a request goes to GPU `id % num_gpus`.
//! Under [`RouterPolicy::Residency`]
//! the [`Dispatcher`] scores NVLink cliques by cached-neighborhood
//! coverage of the request's target (from a per-clique
//! [`ResidencyIndex`](legion_router::ResidencyIndex) refreshed on every
//! plan commit), sends it to the clique member whose open micro-batch is
//! fullest, and spills to the least-loaded GPU when the best clique
//! saturates.
//!
//! A batch's distinct targets are expanded and fetched once no matter
//! how many requests in the batch named the same vertex — duplicate
//! seeds previously re-expanded the same uncached vertex and
//! double-counted its miss (see `batch_seeds`).
//!
//! Under every policy but [`PolicyKind::Fifo`] each GPU keeps a
//! [`LandingRing`]: the HBM buffer one full all-miss batch lands in,
//! holding the last rows this server's host link moved. A miss it still
//! holds is copied inside HBM instead of crossing PCIe again
//! (`serve.landing.reused`); it still counts as a cache miss.
//!
//! Under [`PolicyKind::Replan`] the loop additionally drives a per-GPU
//! [`ReplanState`]: staged plans commit at the top of a batch (never
//! mid-batch), the swap's refill is charged to the PCIe meters and to
//! that batch's service time, and the router's residency index for that
//! GPU is rebuilt from the newly active plan.
//!
//! Everything is driven by seeded RNG streams and integer telemetry, so
//! the same `(config, dataset, server)` triple reproduces a run down to
//! byte-identical metric snapshots.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_cache::{hotness_order, FifoCache};
use legion_dyn::{DeltaOverlay, MutationLog, MutationOp};
use legion_gnn::{GnnModel, ModelKind};
use legion_graph::{topology_bytes_for_degree, CsrGraph, FeatureTable, VertexId};
use legion_hw::pcm::TrafficKind;
use legion_hw::traffic::Source;
use legion_hw::{GpuId, MultiGpuServer, TimeModel};
use legion_partition::detect_cliques;
use legion_pipeline::{BatchCost, QueueDepthMeter, StageRecorder};
use legion_router::{
    fill_probe, Admission, ClassedQueue, Dispatcher, PriorityClass, RouterPolicy, CLASS_COUNT,
};
use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::{
    worker_rng, BatchStep, Extract, KHopSampler, LandingRing, LowerTier, MiniBatchSample,
};
use legion_store::{NvmeModel, VertexStore};
use legion_telemetry::{Counter, Gauge, Histogram, Registry, Snapshot};

use crate::batcher::BatchPolicy;
use crate::cache_policy::{build_routed_unified_layout, ownership_dispatcher, PolicyKind};
use crate::replan::{profile_warmup, Plan, ReplanState, SwapDelta, WarmupProfile};
use crate::slo::{latency_buckets, SloTracker};
use crate::workload::{generate_workload_classed, ClassSampler, Request, TargetSampler};
use crate::{RemoteConfig, ServeConfig, StoreConfig};

/// Bucket bounds of the store's depth-shaped histograms
/// (`serve.store.inflight`, `store.nvme.queue_depth`).
const STORE_DEPTH_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Latency SLO of the run-wide attainment accounting (`serve.slo_ok`,
/// `serve.slo_attainment`), microseconds; multi-class runs also judge
/// each class against [`ClassConfig::slo_us`](crate::ClassConfig::slo_us).
const SLO_US: u64 = 1000;

/// Summary of one serving run; `metrics` is the full registry snapshot
/// (PCM, traffic matrix, cache hits, latency histogram, gauges).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The cache policy the run used.
    pub policy: PolicyKind,
    /// Requests offered by the workload.
    pub offered: u64,
    /// Requests that completed inference.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Latency quantiles in microseconds.
    pub p50_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Fraction of completed requests within the SLO.
    pub slo_attainment: f64,
    /// Simulated time of the last completion, seconds.
    pub makespan_s: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Per-class completed counts (`[Interactive, Standard, Batch]`);
    /// all zeros for single-class runs, which register no per-class
    /// trackers.
    pub class_completed: [u64; CLASS_COUNT],
    /// Per-class p99 latency, microseconds; zeros for single-class runs.
    pub class_p99_us: [u64; CLASS_COUNT],
    /// Per-class SLO attainment against
    /// [`ClassConfig::slo_us`](crate::ClassConfig::slo_us); `1.0` for
    /// single-class runs.
    pub class_slo_attainment: [f64; CLASS_COUNT],
    /// Per-class shed counts (arrival drops plus QoS evictions) — live
    /// in every run, since the classed queue always attributes sheds.
    pub class_shed: [u64; CLASS_COUNT],
    /// Requests placed in their coverage-chosen clique
    /// ([`RouterPolicy::Residency`] runs; zero otherwise).
    pub routed: u64,
    /// Requests diverted to the globally least-loaded GPU because the
    /// best clique was saturated.
    pub spilled: u64,
    /// Mean fraction of each routed request's probe (target + leading
    /// neighbors) resident in the clique it was sent to; `1.0` when the
    /// router is off.
    pub route_locality: f64,
    /// Full telemetry snapshot of the run.
    pub metrics: Snapshot,
}

impl ServeReport {
    /// GPU feature-cache hit rate over every GPU of the run
    /// (`cache.gpu{g}.feature_hits` over hits plus misses); 0 when
    /// nothing was extracted.
    pub fn feature_hit_rate(&self) -> f64 {
        let over_gpus = |suffix: &str| -> u64 {
            let counters = self.metrics.counters.iter();
            counters
                .filter(|c| c.name.starts_with("cache.gpu") && c.name.ends_with(suffix))
                .map(|c| c.value)
                .sum()
        };
        let (hits, misses) = (over_gpus(".feature_hits"), over_gpus(".feature_misses"));
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        }
    }
}

/// Run-wide meters of the re-planning loop, registered only for
/// [`PolicyKind::Replan`] runs; every worker holds handles to the same
/// cells. `mid_batch` audits plan-commit visibility: it counts
/// batches whose plan version changed *after* the batch-top commit
/// point — [`ReplanState::roll`] only stages, so the counter must stay
/// 0 in every run.
struct ReplanMeters {
    count: Counter,
    swap_bytes: Counter,
    recover: Histogram,
    mid_batch: Counter,
}

impl ReplanMeters {
    fn new(registry: &Registry) -> Self {
        Self {
            count: registry.counter("serve.replan.count"),
            swap_bytes: registry.counter("serve.replan.swap_bytes"),
            recover: registry.histogram("serve.replan.recover_us", &latency_buckets()),
            mid_batch: registry.counter("serve.replan.mid_batch_commits"),
        }
    }
}

/// Shared meters of the out-of-core store, registered only when the
/// tiered placement actually put rows on the SSD. Every per-GPU store
/// records into the same names.
struct StoreMeters {
    prefetch_hits: Counter,
    late_stalls: Counter,
    cold_reads: Counter,
    evictions: Counter,
    inflight: Histogram,
    migrations: Counter,
    migrated_bytes: Counter,
    nvme_bytes: Counter,
    nvme_queue_depth: Histogram,
    nvme_read_us: Histogram,
}

impl StoreMeters {
    fn new(registry: &Registry) -> Self {
        Self {
            prefetch_hits: registry.counter("serve.store.prefetch_hits"),
            late_stalls: registry.counter("serve.store.late_stalls"),
            cold_reads: registry.counter("serve.store.cold_reads"),
            evictions: registry.counter("serve.store.evictions"),
            inflight: registry.histogram("serve.store.inflight", &STORE_DEPTH_BUCKETS),
            migrations: registry.counter("serve.store.migrations"),
            migrated_bytes: registry.counter("serve.store.migrated_bytes"),
            nvme_bytes: registry.counter("store.nvme.bytes"),
            nvme_queue_depth: registry.histogram("store.nvme.queue_depth", &STORE_DEPTH_BUCKETS),
            nvme_read_us: registry.histogram("store.nvme.read_us", &latency_buckets()),
        }
    }

    /// Meters one device wave of `commands` commands moving `bytes`,
    /// `read_us` from its start to its last completion; none when the
    /// wave is empty.
    fn wave(&self, commands: u64, bytes: u64, read_us: u64) {
        if commands > 0 {
            self.nvme_bytes.add(bytes);
            self.nvme_queue_depth.observe(commands);
            self.nvme_read_us.observe(read_us);
        }
    }
}

/// The three-tier placement's SSD rows, hottest first: the feature
/// hotness order past the `m_f / row` HBM rows and `dram_budget / row`
/// DRAM rows of the warm-up profile's cost model's
/// [`legion_cache::CostModel::best_plan_tiered`] under the HBM budget
/// (`cache_rows_per_gpu` rows). The model, its HBM plans' own, ranks the
/// non-zero support only; the zero tail adds nothing to Eqs. 4, 7 or
/// `N_NVME`, so `α` and `m_f` are the full order's. `None` when the
/// budget holds the whole table: the two-tier run, no store state.
fn plan_store_placement(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    config: &ServeConfig,
    profile: &WarmupProfile,
    dram_budget: u64,
) -> Option<Vec<VertexId>> {
    let row_bytes = features.row_bytes();
    let nvme = NvmeModel::new(config.store.nvme);
    let hbm_budget = config.cache_rows_per_gpu as u64 * row_bytes;
    // One NVMe block transaction costs its bandwidth ratio against the
    // PCIe link in PCIe-transaction-equivalent terms.
    let block_payload = nvme.bytes_for_payload(row_bytes) as f64;
    let ssd_penalty = server.pcie().effective_bandwidth(row_bytes as f64)
        / nvme.effective_bandwidth(block_payload);
    let m_f = profile
        .model(graph, features, server.pcie().cls())
        .best_plan_tiered(
            hbm_budget,
            dram_budget,
            config.replan.delta_alpha,
            nvme.block_bytes(),
            ssd_penalty,
        )
        .plan
        .m_f;
    let mut ssd_rows = hotness_order(&profile.feat);
    let resident = (m_f / row_bytes).saturating_add(dram_budget / row_bytes);
    ssd_rows.drain(..resident.min(ssd_rows.len() as u64) as usize);
    (!ssd_rows.is_empty()).then_some(ssd_rows)
}

/// Per-worker out-of-core state: the GPU's NUMA-local store (NVMe
/// namespace + pinned staging window, which also holds the placement's
/// tiers and the batch's claimed misses), the shared meters and the
/// prefetcher's knobs.
pub(crate) struct StoreWorker {
    store: VertexStore,
    meters: StoreMeters,
    cfg: StoreConfig,
}

impl StoreWorker {
    fn new(
        ssd_rows: &[VertexId],
        num_vertices: usize,
        cfg: &StoreConfig,
        row_bytes: u64,
        registry: &Registry,
    ) -> Self {
        // The staging window warms from the hottest SSD rows, the same
        // warmup traffic the HBM plan was filled from — staged during the
        // warmup epoch, outside the measured serving window.
        let store = VertexStore::with_ssd_rows(
            NvmeModel::new(cfg.nvme),
            num_vertices,
            row_bytes,
            cfg.staging_rows,
            ssd_rows,
        );
        let meters = StoreMeters::new(registry);
        Self {
            store,
            meters,
            cfg: *cfg,
        }
    }

    /// Stages the SSD rows around `targets` (each target and its leading
    /// neighbors) at `at` under the per-call budget, metering the device
    /// traffic. Called at admission, so the NVMe read overlaps the
    /// micro-batcher's accumulation window, and at each batch boundary
    /// for the requests still queued, so the next batches launch against
    /// warm staging instead of cold flash.
    fn prefetch_around(
        &mut self,
        graph: &CsrGraph,
        targets: impl IntoIterator<Item = VertexId>,
        at: f64,
    ) {
        let out = self.store.prefetch_around(
            at,
            graph,
            targets,
            self.cfg.prefetch_neighbors,
            self.cfg.prefetch_budget,
        );
        self.meters.evictions.add(out.evictions);
        self.meters.wave(out.issued, out.nvme_bytes, out.read_us);
    }

    /// Batch-boundary migration for a committed re-plan
    /// ([`VertexStore::migrate_plan`]), metered. Returns the device time
    /// the committing batch pays.
    fn migrate_commit(
        &mut self,
        at: f64,
        old_feat: &[VertexId],
        new_feat: &[VertexId],
        refill: &[VertexId],
    ) -> f64 {
        let out = self.store.migrate_plan(at, old_feat, new_feat, refill);
        let moves = out.promoted + out.demoted;
        self.meters.migrations.add(moves);
        self.meters.migrated_bytes.add(out.nvme_bytes);
        let swap_us = (out.swap_s * 1e6).round() as u64;
        self.meters.wave(moves, out.nvme_bytes, swap_us);
        out.swap_s
    }
}

impl LowerTier for StoreWorker {
    /// Every miss the remote wave left is the store's.
    fn claim(&mut self, v: VertexId) -> bool {
        self.store.claim(v);
        true
    }

    /// Resolves the batch's misses against the store at simulated time
    /// `at`, metering every outcome.
    fn charge(&mut self, at: f64) -> f64 {
        let out = self.store.charge(at);
        self.meters.prefetch_hits.add(out.prefetch_hits);
        self.meters.late_stalls.add(out.late_stalls);
        self.meters.cold_reads.add(out.cold_reads);
        self.meters.evictions.add(out.evictions);
        self.meters
            .wave(out.nvme_reads, out.nvme_bytes, out.read_us);
        out.stall_s
    }
}

/// Per-worker fleet state: which vertices are locally owned (this
/// server's shard plus the replicated hot head), the cluster-network
/// model, and the shared remote-read meters. HBM-cache misses on
/// unowned vertices bypass the local DRAM/SSD tiers entirely — their
/// rows live on another server — and are charged one remote wave
/// through [`NetModel::wave`](legion_hw::NetModel::wave) instead.
pub(crate) struct RemoteWorker {
    owned: Rc<Vec<bool>>,
    net: legion_hw::NetModel,
    row_bytes: u64,
    /// Fleet size, all concurrently active on the shared uplink.
    num_servers: usize,
    reads: Counter,
    bytes: Counter,
    pending: u64,
    /// Per-owner coalescing state; `None` charges each miss as its own
    /// RPC and registers none of the coalescing meters.
    coalesce: Option<CoalesceState>,
}

/// Batches a fetched remote row stays deduplicable in the coalescing
/// staging buffer.
const DEDUP_WINDOW_BATCHES: u64 = 4;

/// The coalescing side of [`RemoteWorker`]: a batch-window dedup map
/// plus per-owner row buckets, drained once per batch into one batched
/// message per owning server.
struct CoalesceState {
    shard: Rc<Vec<u32>>,
    /// `last_fetch[v]` — the batch index that last pulled `v` over the
    /// wire (`u64::MAX` = never). A row re-missed within
    /// [`DEDUP_WINDOW_BATCHES`] of its fetch is still resident in the
    /// remote staging buffer and is deduplicated instead of re-fetched.
    last_fetch: Vec<u64>,
    batch_idx: u64,
    /// Rows this batch fetches from each owner; zeroed once charged.
    owner_rows: Vec<u64>,
    coalesced_msgs: Counter,
    dedup_hits: Counter,
    per_owner_bytes: Counter,
}

impl RemoteWorker {
    fn new(rc: &RemoteConfig, row_bytes: u64, registry: &Registry) -> Self {
        let coalesce = rc.shard.as_ref().map(|shard| CoalesceState {
            shard: Rc::clone(shard),
            last_fetch: vec![u64::MAX; shard.len()],
            batch_idx: 0,
            owner_rows: vec![0; rc.num_servers],
            coalesced_msgs: registry.counter("serve.remote.coalesced_msgs"),
            dedup_hits: registry.counter("serve.remote.dedup_hits"),
            per_owner_bytes: registry.counter("serve.remote.per_owner_bytes"),
        });
        Self {
            owned: Rc::clone(&rc.owned),
            net: rc.net,
            row_bytes,
            num_servers: rc.num_servers,
            reads: registry.counter("serve.remote.reads"),
            bytes: registry.counter("serve.remote.bytes"),
            pending: 0,
            coalesce,
        }
    }
}

impl LowerTier for RemoteWorker {
    /// Claims an HBM miss that is not locally owned: it joins this
    /// batch's remote wave and the local tiers never see it. Under
    /// coalescing the miss is first checked against the staging window
    /// (recently fetched rows dedupe) and then bucketed by its owning
    /// shard.
    fn claim(&mut self, v: VertexId) -> bool {
        if self.owned[v as usize] {
            return false;
        }
        self.pending += 1;
        if let Some(c) = self.coalesce.as_mut() {
            let last = c.last_fetch[v as usize];
            if last != u64::MAX && c.batch_idx - last <= DEDUP_WINDOW_BATCHES {
                c.dedup_hits.inc();
            } else {
                c.last_fetch[v as usize] = c.batch_idx;
                c.owner_rows[c.shard[v as usize] as usize] += 1;
            }
        }
        true
    }

    /// Charges the batch's accumulated remote reads as one
    /// [`NetModel::wave`](legion_hw::NetModel::wave) and returns the
    /// extraction stall, metering reads and wire bytes; the wave does not
    /// depend on `at`. The flat pool charges every miss as its own RPC;
    /// coalescing charges one batched message per owning server —
    /// headers and round-trip waves amortize across each owner's rows,
    /// and staging-window dedup hits cost no wire at all.
    fn charge(&mut self, _at: f64) -> f64 {
        let n = std::mem::take(&mut self.pending);
        self.reads.add(n);
        let (net, row_bytes, servers) = (&self.net, self.row_bytes, self.num_servers);
        let wave = match self.coalesce.as_mut() {
            None => net.wave(&[n], row_bytes, false, servers),
            Some(c) => {
                c.batch_idx += 1;
                let wave = net.wave(&c.owner_rows, row_bytes, true, servers);
                c.owner_rows.fill(0);
                c.coalesced_msgs.add(wave.messages);
                c.per_owner_bytes.add(wave.wire_bytes);
                wave
            }
        };
        self.bytes.add(wave.wire_bytes);
        wave.seconds
    }
}

/// Attributes each batch's feature hit/miss deltas to the drift phase of
/// its oldest request (`phase = id / drift_period`), plus tail-only
/// counters covering the second half of each phase — the "settled" hit
/// rate after a policy has had time to react to the rotation.
struct PhaseMeter {
    drift_period: u64,
    hits: Counter,
    misses: Counter,
}

impl PhaseMeter {
    fn new(registry: &Registry, drift_period: usize, gpu: GpuId) -> Self {
        Self {
            drift_period: drift_period as u64,
            hits: registry.counter(&format!("cache.gpu{gpu}.feature_hits")),
            misses: registry.counter(&format!("cache.gpu{gpu}.feature_misses")),
        }
    }

    fn totals(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Books the batch's hit/miss deltas on `registry`'s phase counters,
    /// registering them on the phase's first batch.
    fn record(&self, registry: &Registry, first_id: u64, hits_before: u64, misses_before: u64) {
        let dh = self.hits.get() - hits_before;
        let dm = self.misses.get() - misses_before;
        let phase = first_id / self.drift_period;
        registry
            .counter(&format!("serve.phase{phase:03}.feature_hits"))
            .add(dh);
        registry
            .counter(&format!("serve.phase{phase:03}.feature_misses"))
            .add(dm);
        if (first_id % self.drift_period) * 2 >= self.drift_period {
            registry
                .counter(&format!("serve.phase{phase:03}.tail_feature_hits"))
                .add(dh);
            registry
                .counter(&format!("serve.phase{phase:03}.tail_feature_misses"))
                .add(dm);
        }
    }
}

/// The distinct targets of a micro-batch, ascending.
///
/// Several requests in one batch frequently name the same (hot) vertex;
/// expanding each copy separately made the engine re-read the same
/// uncached adjacency and count one physical topology miss once per
/// duplicate request. Batched inference resolves one vertex once, so the
/// seed list is deduplicated here and the per-request results share it.
fn batch_seeds(batch: &[Request], seeds: &mut Vec<VertexId>) {
    seeds.clear();
    seeds.extend(batch.iter().map(|r| r.target));
    seeds.sort_unstable();
    seeds.dedup();
}

/// Replan-only per-worker state: the sliding-window estimator plus the
/// plan double-buffer, and this GPU's swap/hit meters.
struct ReplanWorker {
    state: ReplanState,
    meters: ReplanMeters,
    gpu_replans: Counter,
    gpu_swap_bytes: Counter,
    window_gauge: Gauge,
    feat_hits: Counter,
    feat_misses: Counter,
}

/// Cache-policy-specific batch machinery of one worker.
enum WorkerPolicy {
    /// A fixed layout filled once from warmup traffic; no per-worker
    /// state.
    StaticHot,
    /// The manual FIFO cache.
    Fifo(FifoCache),
    /// The per-GPU re-planning loop.
    Replan(Box<ReplanWorker>),
}

impl WorkerPolicy {
    /// The active plan's `(version, resident feature set)` if this is a
    /// replan worker — what the residency index needs after a commit.
    fn plan_residency(&self) -> Option<(u64, &[VertexId])> {
        match self {
            WorkerPolicy::Replan(rw) => Some((
                rw.state.plan.version(),
                rw.state.plan.active().contents.feat.as_slice(),
            )),
            _ => None,
        }
    }
}

/// What a batch's operators mutate whatever the cache policy: the RNG
/// stream, the deduplicated seed list, the batch step, and the tiers
/// below the HBM cache. Split from [`WorkerPolicy`] so a Replan batch
/// can read its plan's layout while the step runs.
struct BatchLane {
    rng: StdRng,
    seeds: Vec<VertexId>,
    step: BatchStep,
    /// The rows the last batches pulled over this server's host link;
    /// `None` under [`PolicyKind::Fifo`], whose cache already keeps the
    /// recent rows.
    ring: Option<LandingRing>,
    /// Out-of-core store state; `None` unless the run's tiered
    /// placement put rows on the SSD.
    store: Option<Box<StoreWorker>>,
    /// Fleet state; `None` unless this run is one server of a fleet.
    remote: Option<Box<RemoteWorker>>,
}

impl BatchLane {
    /// Runs the batch step on `gpu` over `seeds`, offering each HBM miss
    /// to the remote wave, then to the landing ring (so another server's
    /// rows never enter it) and then to the store, and prices inference
    /// from the sample's FLOPs.
    fn run(
        &mut self,
        ctx: &ServeContext<'_>,
        engine: &AccessEngine<'_>,
        gpu: GpuId,
        how: Extract<'_>,
        on_row: Option<&mut dyn FnMut(VertexId, u64)>,
        at: f64,
    ) -> (MiniBatchSample, BatchTiming) {
        let remote = self.remote.as_deref_mut().map(|r| r as &mut dyn LowerTier);
        let ring = self.ring.as_mut().map(|r| r as &mut dyn LowerTier);
        let store = self.store.as_deref_mut().map(|s| s as &mut dyn LowerTier);
        let mut tiers: Vec<_> = remote.into_iter().chain(ring).chain(store).collect();
        let (seeds, rng) = (&self.seeds, &mut self.rng);
        let out = self
            .step
            .run(engine, gpu, gpu, seeds, rng, on_row, how, &mut tiers, at);
        let flops = ctx.model.inference_flops(&out.sample);
        let timing = BatchTiming {
            sample_s: out.sample_s,
            extract_s: out.extract_s,
            infer_s: self.step.time().train_seconds(flops),
            swap_s: 0.0,
            topo_tx: out.topo_tx,
        };
        (out.sample, timing)
    }
}

/// One GPU of the event loop: its admission queue, busy horizon, batch
/// lane, meters, and policy state.
struct Worker {
    gpu: GpuId,
    queue: ClassedQueue<Request>,
    free_at: f64,
    makespan: f64,
    lane: BatchLane,
    batches: Counter,
    busy: Counter,
    gpu_shed: Counter,
    phase: Option<PhaseMeter>,
    depth: QueueDepthMeter,
    stages: StageRecorder,
    policy: WorkerPolicy,
    /// Plan version last pushed into the router's residency index
    /// (Replan + Residency runs only).
    last_plan_version: u64,
}

/// Residency-routing state of one run: the dispatcher plus per-clique
/// route counters and the locality accumulator.
struct RouterState {
    dispatcher: Dispatcher,
    routed: Vec<Counter>,
    spilled: Vec<Counter>,
    shed: Vec<Counter>,
    probe_neighbors: usize,
    covered: u64,
    probed: u64,
    probe: Vec<VertexId>,
    queue_lens: Vec<usize>,
    free: Vec<bool>,
}

impl RouterState {
    fn new(registry: &Registry, dispatcher: Dispatcher, probe_neighbors: usize) -> Self {
        let per_group = |suffix: &str| -> Vec<Counter> {
            (0..dispatcher.num_groups())
                .map(|q| registry.counter(&format!("serve.route.clique{q}.{suffix}")))
                .collect()
        };
        Self {
            routed: per_group("routed"),
            spilled: per_group("spilled"),
            shed: per_group("shed"),
            dispatcher,
            probe_neighbors,
            covered: 0,
            probed: 0,
            probe: Vec::new(),
            queue_lens: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Routes one request: builds the probe (target + leading
    /// neighbors), scores the cliques against current queue depths,
    /// prefers a free sibling in the chosen clique (no batch in service,
    /// NVMe queue drained at the arrival), and returns the destination
    /// GPU, metering the decision and the locality accumulator.
    fn route(&mut self, graph: &CsrGraph, workers: &[Worker], r: &Request) -> GpuId {
        self.queue_lens.clear();
        self.queue_lens
            .extend(workers.iter().map(|w| w.queue.len()));
        self.free.clear();
        self.free.extend(workers.iter().map(|w| {
            w.free_at <= r.arrival
                && w.lane
                    .store
                    .as_ref()
                    .is_none_or(|sw| sw.store.drained_by(r.arrival))
        }));
        fill_probe(graph, r.target, self.probe_neighbors, &mut self.probe);
        let dec = self
            .dispatcher
            .route_to_free(&self.probe, &self.queue_lens, &self.free);
        self.covered += self.dispatcher.score(dec.group, &self.probe) as u64;
        self.probed += self.probe.len() as u64;
        if dec.spilled {
            self.spilled[dec.group].inc();
        } else {
            self.routed[dec.group].inc();
        }
        dec.gpu
    }
}

/// One micro-batch's stage durations, simulated seconds, and the
/// topology transactions its sampling caused (the re-planner's `N_TSUM`
/// input). Service time follows the §5 intra-batch overlap: sampling and
/// extraction run concurrently, inference (and any plan-swap refill)
/// serializes after.
struct BatchTiming {
    sample_s: f64,
    extract_s: f64,
    infer_s: f64,
    swap_s: f64,
    topo_tx: u64,
}

impl BatchTiming {
    /// `max(sample, extract) + infer + swap`.
    fn service(&self) -> f64 {
        let cost = BatchCost::overlapped(self.sample_s, self.extract_s, self.infer_s);
        cost.prep + cost.train + self.swap_s
    }
}

/// Charges a committed plan swap: the entries the new plan holds that
/// the old one did not are refilled from CPU memory (PCM transactions +
/// traffic-matrix bytes), the GPU's memory budget is moved to the new
/// footprint, and the PCIe transactions are returned so the committing
/// batch pays for them.
fn charge_swap(ctx: &ServeContext<'_>, gpu: GpuId, delta: &SwapDelta, rw: &ReplanWorker) -> u64 {
    let server = ctx.server;
    let feat_tx =
        delta.new_feat.len() as u64 * server.pcie().transactions_for_payload(ctx.row_bytes);
    let mut bytes = delta.new_feat.len() as u64 * ctx.row_bytes;
    let mut topo_tx = 0u64;
    for &v in &delta.new_topo {
        let b = topology_bytes_for_degree(ctx.graph.degree(v));
        bytes += b;
        topo_tx += server.pcie().transactions_for_payload(b);
    }
    server.pcm().add(gpu, TrafficKind::Feature, feat_tx);
    server.pcm().add(gpu, TrafficKind::Topology, topo_tx);
    server.traffic().add(gpu, Source::Cpu, bytes);
    server
        .free(gpu, delta.old_bytes)
        .expect("retired plan freed");
    server
        .alloc(gpu, delta.new_bytes)
        .expect("replanned cache exceeds GPU memory");
    rw.meters.swap_bytes.add(bytes);
    rw.gpu_swap_bytes.add(bytes);
    feat_tx + topo_tx
}

/// Runs one replan-policy micro-batch: commit any staged plan (paying
/// the swap), run the batch step against the active plan's layout while
/// feeding the window estimator, then roll the window (possibly staging
/// the next plan).
fn replan_batch_service(
    ctx: &ServeContext<'_>,
    gpu: GpuId,
    lane: &mut BatchLane,
    rw: &mut ReplanWorker,
    requests: usize,
    at: f64,
) -> BatchTiming {
    // Batch-boundary swap: in-flight requests finished against the old
    // plan; this batch starts on the new one and pays its refill.
    let mut swap_s = 0.0f64;
    let old_feat = (lane.store.is_some() && rw.state.plan.has_staged())
        .then(|| rw.state.plan.active().contents.feat.clone());
    if let Some(delta) = rw.state.commit() {
        rw.gpu_replans.inc();
        rw.meters.count.inc();
        let swap_tx = charge_swap(ctx, gpu, &delta, rw);
        swap_s = lane.step.time().extract_seconds(swap_tx, 0);
        // Rows the new plan pulls into HBM come up off the SSD; rows
        // that left it fall back to their placement-time tier. Swap
        // bytes are charged to the NVMe model and the committing batch
        // pays the device time.
        if let (Some(sw), Some(old)) = (lane.store.as_deref_mut(), old_feat) {
            swap_s += sw.migrate_commit(
                at,
                &old,
                &rw.state.plan.active().contents.feat,
                &delta.new_feat,
            );
        }
    }
    // Plan-commit visibility audit: from here to the end of the batch
    // the version must not move — `roll` below only *stages* the next
    // plan, and nothing else touches this worker's buffer.
    let version_in_batch = rw.state.plan.version();
    let (h0, m0) = (rw.feat_hits.get(), rw.feat_misses.get());
    let mut timing = {
        let ReplanState { window, plan, .. } = &mut rw.state;
        let plan_engine = ctx.engine.with_layout(plan.active_layout());
        let mut note_edge = |v, drawn| window.note_edge(v, drawn);
        let on_row = Some(&mut note_edge as &mut dyn FnMut(VertexId, u64));
        let (sample, timing) = lane.run(ctx, &plan_engine, gpu, Extract::Layout, on_row, at);
        for &v in &sample.all_vertices {
            window.note_feature(v);
        }
        timing
    };
    timing.swap_s = swap_s;
    rw.state.window.note_batch(
        requests,
        rw.feat_hits.get() - h0,
        rw.feat_misses.get() - m0,
        timing.topo_tx,
    );
    if let Some(outcome) = rw.state.roll(at, ctx.graph, ctx.features) {
        rw.window_gauge.set(outcome.window_hit_rate);
        if let Some(dt) = outcome.recovered_after {
            rw.meters.recover.observe((dt * 1e6).round() as u64);
        }
    }
    if rw.state.plan.version() != version_in_batch {
        rw.meters.mid_batch.inc();
    }
    timing
}

/// Everything the batch path reads but never mutates: the dataset, the
/// metered server, the run config, and the shared trackers, whose only
/// interior mutability is their metric cells. All per-GPU mutable state
/// lives in [`Worker`].
struct ServeContext<'a> {
    graph: &'a CsrGraph,
    features: &'a FeatureTable,
    server: &'a MultiGpuServer,
    config: &'a ServeConfig,
    engine: AccessEngine<'a>,
    model: GnnModel,
    registry: &'a Registry,
    slo: SloTracker,
    class_slos: Option<Vec<SloTracker>>,
    shed_total: Counter,
    batch_policy: BatchPolicy,
    row_bytes: u64,
}

/// Offers one routed request to its worker's admission queue, metering
/// sheds (global, per-GPU, and — when routing is on — per-clique via
/// `route_shed`).
fn offer_request(ctx: &ServeContext<'_>, w: &mut Worker, r: Request, route_shed: Option<&Counter>) {
    let admitted = match w.queue.offer(r) {
        Admission::Admitted => true,
        admission @ (Admission::AdmittedEvicting(_) | Admission::Shed) => {
            ctx.shed_total.inc();
            w.gpu_shed.inc();
            if let Some(c) = route_shed {
                c.inc();
            }
            matches!(admission, Admission::AdmittedEvicting(_))
        }
    };
    // Batch-boundary lookahead alone misses a request that reaches an
    // idle worker: no boundary falls between its arrival and its batch.
    if admitted {
        if let Some(sw) = w.lane.store.as_deref_mut() {
            sw.prefetch_around(ctx.graph, [r.target], r.arrival);
        }
    }
}

/// Runs one worker's micro-batch launched at `at`: drains the queue,
/// runs the policy's operators, records stage times and each request's
/// latency, and advances the worker's busy horizon.
fn run_worker_batch(ctx: &ServeContext<'_>, w: &mut Worker, at: f64) {
    w.depth.observe(w.queue.len());
    let batch = w.queue.take(ctx.config.max_batch);
    let ready = batch.iter().fold(w.free_at, |t, r| t.max(r.arrival));
    debug_assert!(at >= ready, "retroactive launch on GPU {}", w.gpu);
    if let Some(sw) = w.lane.store.as_deref_mut() {
        sw.meters.inflight.observe(sw.store.inflight(at) as u64);
    }
    let before = w.phase.as_ref().map(|p| p.totals());
    batch_seeds(&batch, &mut w.lane.seeds);
    let (engine, lane) = (&ctx.engine, &mut w.lane);
    let timing = match &mut w.policy {
        WorkerPolicy::StaticHot => lane.run(ctx, engine, w.gpu, Extract::Layout, None, at).1,
        WorkerPolicy::Fifo(cache) => {
            lane.run(ctx, engine, w.gpu, Extract::Fifo(cache), None, at)
                .1
        }
        WorkerPolicy::Replan(rw) => replan_batch_service(ctx, w.gpu, lane, rw, batch.len(), at),
    };
    // Lookahead prefetch: the requests still queued behind the batch
    // just drained are exactly what the next few batches will ask for —
    // stage their SSD rows now so those launches find warm staging.
    if let Some(sw) = w.lane.store.as_deref_mut() {
        let queued = w
            .queue
            .peek_upto(sw.cfg.lookahead_requests)
            .map(|r| r.target);
        sw.prefetch_around(ctx.graph, queued, at);
    }
    if let (Some(p), Some((h0, m0))) = (w.phase.as_ref(), before) {
        p.record(ctx.registry, batch[0].id, h0, m0);
    }
    let service = timing.service();
    w.stages
        .record(timing.sample_s, timing.extract_s, timing.infer_s);
    w.batches.inc();
    w.busy.add_secs(service);
    let completion = at + service;
    for r in &batch {
        let latency_us = ((completion - r.arrival) * 1e6).round() as u64;
        ctx.slo.record(latency_us);
        if let Some(trackers) = ctx.class_slos.as_ref() {
            trackers[r.class.index()].record(latency_us);
        }
    }
    w.free_at = completion;
    w.makespan = w.makespan.max(completion);
}

/// Drives a resolved mutation stream through the event loop:
/// applies each op to the [`DeltaOverlay`] at its timestamp, meters the
/// `graph.mut.*` family, and runs the fast invalidation path — stale
/// cached topology rows are counted, the router's residency bits for
/// the mutated vertex are cleared (routing stops crediting a stale
/// row), and every replan worker's window estimator gets a hotness
/// nudge so the slow re-planning path eventually folds the change into
/// a fresh plan. Compaction runs only at batch boundaries, once the
/// overlay's pending delta edges cross the configured threshold.
pub(crate) struct MutationDriver<'a> {
    log: Rc<MutationLog>,
    cursor: usize,
    overlay: &'a DeltaOverlay,
    compact_threshold: usize,
    inserts: Counter,
    deletes: Counter,
    compactions: Counter,
    overlay_rows: Counter,
    invalidate_topo: Counter,
    invalidate_bits: Counter,
}

impl<'a> MutationDriver<'a> {
    /// Binds a resolved log to the run's overlay and registers the
    /// mutation counter families (only churn-enabled runs reach here,
    /// so frozen-graph snapshots never see the names).
    pub(crate) fn new(
        log: Rc<MutationLog>,
        compact_threshold: usize,
        overlay: &'a DeltaOverlay,
        registry: &Registry,
    ) -> Self {
        MutationDriver {
            log,
            cursor: 0,
            overlay,
            compact_threshold,
            inserts: registry.counter("graph.mut.inserts"),
            deletes: registry.counter("graph.mut.deletes"),
            compactions: registry.counter("graph.mut.compactions"),
            overlay_rows: registry.counter("graph.mut.overlay_rows"),
            invalidate_topo: registry.counter("serve.invalidate.topo_rows"),
            invalidate_bits: registry.counter("serve.invalidate.residency_bits"),
        }
    }

    /// Timestamp of the next unapplied mutation, if any remain.
    fn next_at(&self) -> Option<f64> {
        self.log.ops.get(self.cursor).map(|m| m.at)
    }

    /// Applies the next mutation and runs the fast invalidation path.
    fn fire(
        &mut self,
        ctx: &ServeContext<'_>,
        workers: &mut [Worker],
        router: &mut Option<RouterState>,
    ) {
        let m = self.log.ops[self.cursor];
        self.cursor += 1;
        let effect = self.overlay.apply(ctx.graph, &m.op);
        self.inserts.add(effect.inserted);
        self.deletes.add(effect.deleted);
        self.overlay_rows.add(effect.newly_dirty);
        if !effect.changed() {
            return;
        }
        let v = m.op.vertex();
        // A cached copy of the mutated row — in the serving layout or in
        // any replan worker's active plan — is now stale; samplers
        // detect this through the overlay's dirty bit and fall back to
        // CPU UVA, but we count the invalidation here for telemetry.
        let cached = ctx.engine.topology_cached_anywhere(v)
            || workers.iter().any(|w| match &w.policy {
                WorkerPolicy::Replan(rw) => rw
                    .state
                    .plan
                    .active_layout()
                    .cliques
                    .iter()
                    .any(|c| c.has_topology(v)),
                _ => false,
            });
        if cached {
            self.invalidate_topo.inc();
        }
        if let Some(rs) = router.as_mut() {
            let cleared = rs.dispatcher.invalidate_vertex(v);
            self.invalidate_bits.add(cleared as u64);
        }
        // Hotness nudge: a mutated vertex's neighborhood just changed,
        // so the windowed estimators treat it as freshly touched — the
        // slow path (re-planning) will re-examine it next roll.
        for w in workers.iter_mut() {
            if let WorkerPolicy::Replan(rw) = &mut w.policy {
                rw.state.window.note_edge(v, 1);
                if let MutationOp::InsertEdge { dst, .. } = m.op {
                    rw.state.window.note_feature(dst);
                }
            }
        }
    }

    /// Batch-boundary compaction: once enough delta edges are pending,
    /// fold the dirtied rows into fresh compacted rows (bounded work,
    /// never mid-batch). A threshold of zero disables compaction.
    fn maybe_compact(&mut self, ctx: &ServeContext<'_>) {
        if self.compact_threshold > 0
            && self.overlay.pending_delta_edges() >= self.compact_threshold
            && self.overlay.compact(ctx.graph) > 0
        {
            self.compactions.inc();
        }
    }
}

/// The global event loop: repeatedly take
/// the earliest event — the next arrival or the earliest batch launch
/// across all workers (launch ties go to the lowest GPU; an arrival
/// tying a launch yields to it, the same rule the per-GPU loops used).
/// When a mutation stream is attached its events interleave too: a
/// mutation fires whenever it is due no later than both the next
/// arrival and the earliest launch (ties go to the mutation, so an edge
/// changed "now" is visible to the batch launching "now").
fn run_sequential(
    ctx: &ServeContext<'_>,
    workers: &mut [Worker],
    router: &mut Option<RouterState>,
    requests: &[Request],
    mut driver: Option<MutationDriver<'_>>,
) {
    let num_gpus = workers.len();
    let mut next_req = 0usize;
    // The last event's time; debug builds check it never runs backward.
    let mut now = f64::NEG_INFINITY;
    let mut advance = |t: f64| {
        debug_assert!(t >= now, "event time went backward");
        now = t;
    };
    loop {
        let mut launch: Option<(f64, usize)> = None;
        for (wi, w) in workers.iter().enumerate() {
            if let Some(t) = ctx.batch_policy.launch_time(&w.queue, w.free_at) {
                if launch.is_none_or(|(bt, _)| t < bt) {
                    launch = Some((t, wi));
                }
            }
        }
        if let Some(d) = driver.as_mut() {
            if let Some(mt) = d.next_at() {
                let before_arrival = requests.get(next_req).is_none_or(|r| mt <= r.arrival);
                let before_launch = launch.is_none_or(|(t, _)| mt <= t);
                if before_arrival && before_launch {
                    advance(mt);
                    d.fire(ctx, workers, router);
                    continue;
                }
            }
        }
        match (requests.get(next_req), launch) {
            (Some(r), l) if l.is_none_or(|(t, _)| r.arrival < t) => {
                advance(r.arrival);
                next_req += 1;
                let wi = match router.as_mut() {
                    Some(rs) => rs.route(ctx.graph, workers, r),
                    None => (r.id % num_gpus as u64) as usize,
                };
                let route_shed = router
                    .as_ref()
                    .map(|rs| &rs.shed[rs.dispatcher.group_of(wi)]);
                offer_request(ctx, &mut workers[wi], *r, route_shed);
            }
            (_, Some((at, wi))) => {
                advance(at);
                run_worker_batch(ctx, &mut workers[wi], at);
                // Batch boundary: fold pending overlay deltas into
                // fresh compacted rows once the budget is crossed.
                if let Some(d) = driver.as_mut() {
                    d.maybe_compact(ctx);
                }
                // A committed plan changed this GPU's resident set:
                // rebuild its residency group from the active plan.
                if let Some(rs) = router.as_mut() {
                    let Worker {
                        gpu,
                        policy,
                        last_plan_version,
                        ..
                    } = &mut workers[wi];
                    if let Some((version, feat)) = policy.plan_residency() {
                        if version != *last_plan_version {
                            *last_plan_version = version;
                            let g = rs.dispatcher.group_of(*gpu);
                            rs.dispatcher.refresh_group(g, feat);
                        }
                    }
                }
            }
            // Only (None, None) reaches here: a pending arrival with no
            // launch deadline always takes the first arm.
            _ => break,
        }
    }
}

/// The open-loop request stream `config` describes: arrivals, priority
/// classes and (drifting) targets, every stream derived from the
/// config's seed. The class stream is seeded independently, and the
/// target sampler only gets the boosted Interactive head when the mix
/// can actually produce Interactive requests — so the default
/// single-class config reproduces the legacy stream byte-for-byte.
pub fn generate_requests(graph: &CsrGraph, config: &ServeConfig) -> Vec<Request> {
    let all_targets: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let mut target_sampler = TargetSampler::new(
        all_targets,
        config.zipf_exponent,
        config.drift_period,
        config.drift_stride,
    );
    if config.classes.mix[PriorityClass::Interactive.index()] > 0.0 {
        target_sampler = target_sampler.with_interactive_boost(config.classes.interactive_boost);
    }
    let mut class_sampler = ClassSampler::new(config.classes.mix, config.seed);
    let mut workload_rng = StdRng::seed_from_u64(config.seed);
    generate_workload_classed(
        &config.arrival,
        &mut target_sampler,
        &mut class_sampler,
        config.num_requests,
        &mut workload_rng,
    )
}

/// Runs the full serving simulation for `config` against `server`:
/// [`generate_requests`] from the config's seed, then
/// [`serve_requests`]. The server is reset first (memory and all
/// counters) and on return its registry holds the run's complete
/// metrics.
pub fn serve(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    config: &ServeConfig,
) -> ServeReport {
    config.validate();
    let requests = generate_requests(graph, config);
    serve_requests(graph, features, server, config, &requests)
}

/// Runs the serving simulation over a *pre-generated* request stream:
/// one [`plan_deployment`], one [`Deployment::serve`].
///
/// Arrivals must be sorted by time. An empty slice is legal and
/// produces an all-zero report. `serve(cfg) == serve_requests(cfg,
/// generate_requests(cfg))` byte-for-byte.
pub fn serve_requests(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    config: &ServeConfig,
    requests: &[Request],
) -> ServeReport {
    plan_deployment(graph, features, server, config).serve(server, requests, None)
}

/// Everything about a serving run that is decided before its first
/// request — what `legion_core`'s `SystemSetup` is to a training epoch.
/// [`plan_deployment`] computes it once; [`serve`](Self::serve) runs any
/// number of request streams against it, each from the same starting
/// state, because a run clones what it mutates and borrows the rest.
pub struct Deployment<'a> {
    graph: &'a CsrGraph,
    features: &'a FeatureTable,
    config: &'a ServeConfig,
    /// A private twin of the server the plan was made for. Planning
    /// fills caches against it, so it holds the plan's per-GPU footprint
    /// and the shape a run's server must match.
    twin: MultiGpuServer,
    /// StaticHot's unified cache, topology and features; empty for Fifo
    /// and Replan, whose caches live in the workers.
    layout: CacheLayout,
    /// Replan's warm-up plan per GPU: where its plan buffer starts.
    initial_plans: Vec<Plan>,
    /// The rows on the SSD, hottest first; `None` unless the config's
    /// DRAM budget leaves rows there.
    store: Option<Vec<VertexId>>,
    /// Residency router only: the route groups, seeded with the resident
    /// sets they start from.
    dispatcher: Option<Dispatcher>,
    /// Rows the clique-partitioned static layout replicated, all cliques.
    replicated_rows: Option<u64>,
}

/// The target stream every warmup pass profiles: the run's skew with
/// drift off.
fn warmup_targets(graph: &CsrGraph, config: &ServeConfig) -> TargetSampler {
    let all_targets = (0..graph.num_vertices() as u32).collect();
    TargetSampler::new(all_targets, config.zipf_exponent, 0, 0)
}

/// What a plan depends on in the server it is made for, printable.
fn server_shape(server: &MultiGpuServer) -> [(&'static str, String); 4] {
    let cliques = detect_cliques(server.nvlink());
    [
        ("GPU count", server.num_gpus().to_string()),
        ("NVLink clique grouping", format!("{cliques:?}")),
        ("host link", format!("{:?}", server.pcie())),
        (
            "per-GPU memory in bytes",
            server.spec().gpu_memory.to_string(),
        ),
    ]
}

/// Plans a deployment of `config` on a server shaped like `server` (GPU
/// count, NVLink cliques, host link, memory per GPU): a pure function of
/// its arguments that allocates nothing on `server` and registers no
/// metric. DESIGN.md §5a "Planning and running" lists what each policy
/// plans.
///
/// StaticHot, Replan and the store read one warm-up profile drawn from
/// the *initial* (pre-drift) skew — no planner can see the future, which
/// is exactly the handicap under drift. Each GPU's budget is
/// `cache_rows_per_gpu` feature rows' bytes, split by the cost model's α
/// between topology and features; an unrouted StaticHot GPU holds
/// exactly the plan a Replan GPU starts from, but never revises it. A
/// DRAM budget that swallows the whole table plans no store: the
/// two-tier run exactly.
///
/// # Panics
///
/// Panics if `config` is invalid or a planned cache exceeds GPU memory.
pub fn plan_deployment<'a>(
    graph: &'a CsrGraph,
    features: &'a FeatureTable,
    server: &MultiGpuServer,
    config: &'a ServeConfig,
) -> Deployment<'a> {
    config.validate();
    let twin = server.spec().build();
    let (num_gpus, num_vertices) = (twin.num_gpus(), graph.num_vertices());
    let routed = config.router.policy == RouterPolicy::Residency;
    let spill_len = (config.router.spill_threshold * config.queue_capacity as f64).ceil() as usize;
    // Fifo plans nothing unless a store needs its placement.
    let profile = (config.policy != PolicyKind::Fifo || config.store.active()).then(|| {
        profile_warmup(
            graph,
            &mut warmup_targets(graph, config),
            config.warmup_requests,
            &config.fanouts,
            config.seed,
        )
    });
    let store = config
        .store
        .dram_budget_bytes
        .zip(profile.as_ref())
        .and_then(|(budget, profile)| {
            plan_store_placement(graph, features, &twin, config, profile, budget)
        });

    let mut planned = Deployment {
        graph,
        features,
        config,
        layout: CacheLayout::none(num_gpus),
        initial_plans: Vec::new(),
        store,
        dispatcher: None,
        replicated_rows: None,
        twin,
    };
    let twin = &planned.twin;
    let budget = config.cache_rows_per_gpu as u64 * features.row_bytes();
    let delta_alpha = config.replan.delta_alpha;
    match (config.policy, profile.as_ref()) {
        // Fifo's cache starts empty: route on each clique's §4.1
        // ownership, which its content will come to track.
        (PolicyKind::Fifo, _) => {
            planned.dispatcher = routed
                .then(|| ownership_dispatcher(graph, twin, spill_len).batched(config.max_batch));
        }
        (PolicyKind::StaticHot, Some(profile)) if routed => {
            // Routed runs pool each clique's caches; the cliques are
            // the route groups, seeded with the feature rows their pools
            // hold.
            let (unified, groups, replicated) =
                build_routed_unified_layout(graph, features, twin, profile, budget, delta_alpha);
            let mut seeded =
                Dispatcher::new(groups, num_vertices, spill_len).batched(config.max_batch);
            for (g, clique) in unified.cliques.iter().enumerate() {
                seeded.refresh_group(g, &clique.feature_vertices());
            }
            planned.layout = unified;
            planned.dispatcher = Some(seeded);
            planned.replicated_rows = Some(replicated.iter().map(|&r| r as u64).sum());
        }
        // Unrouted, each GPU holds Replan's initial plan and keeps it.
        (PolicyKind::StaticHot, Some(profile)) => {
            let plans = warmup_plans(twin, graph, features, profile, budget, delta_alpha);
            let cliques = plans.into_iter().flat_map(|p| p.layout.cliques).collect();
            planned.layout = CacheLayout::from_cliques(num_gpus, cliques);
        }
        (PolicyKind::Replan, Some(profile)) => {
            planned.initial_plans =
                warmup_plans(twin, graph, features, profile, budget, delta_alpha);
            // One route group per GPU, seeded from its initial plan and
            // refreshed on every commit.
            planned.dispatcher = routed.then(|| {
                let groups = (0..num_gpus).map(|g| vec![g]).collect();
                let mut seeded =
                    Dispatcher::new(groups, num_vertices, spill_len).batched(config.max_batch);
                for (gpu, plan) in planned.initial_plans.iter().enumerate() {
                    seeded.refresh_group(seeded.group_of(gpu), &plan.contents.feat);
                }
                seeded
            });
        }
        (_, None) => unreachable!("planned policies profile warm-up"),
    }
    planned
}

/// Replan's initial plan for every GPU of `twin` — the cost model's
/// split of `budget` bytes over `profile` — booked on `twin`.
fn warmup_plans(
    twin: &MultiGpuServer,
    graph: &CsrGraph,
    features: &FeatureTable,
    profile: &WarmupProfile,
    budget: u64,
    delta_alpha: f64,
) -> Vec<Plan> {
    let plans = profile.plans(
        twin.num_gpus(),
        graph,
        features,
        budget,
        delta_alpha,
        twin.pcie().cls(),
    );
    for (gpu, plan) in plans.iter().enumerate() {
        twin.alloc(gpu, plan.contents.total_bytes())
            .expect("planned cache exceeds GPU memory");
    }
    plans
}

impl Deployment<'_> {
    /// Runs one request stream against the plan on `server`, which is
    /// reset first (memory and all counters) and on return holds the
    /// run's complete metrics. `remote` marks the run as one server of a
    /// fleet (members share a plan and differ in what they own); `None`
    /// means every feature row is machine-local.
    ///
    /// # Panics
    ///
    /// Panics, before touching `server`, if its shape is not the planned
    /// one, if `remote`'s maps do not fit the graph, or if `requests` is
    /// not sorted by arrival time.
    pub fn serve(
        &self,
        server: &MultiGpuServer,
        requests: &[Request],
        remote: Option<&RemoteConfig>,
    ) -> ServeReport {
        let (graph, features, config) = (self.graph, self.features, self.config);
        let (planned, found) = (server_shape(&self.twin), server_shape(server));
        for ((what, planned), (_, found)) in planned.into_iter().zip(found) {
            assert!(
                planned == found,
                "deployment was planned for a server whose {what} is {planned}, \
                 this one's is {found}"
            );
        }
        if let Some(rc) = remote {
            rc.validate(graph.num_vertices());
        }
        if let Some(i) = requests
            .windows(2)
            .position(|w| w[1].arrival < w[0].arrival)
        {
            panic!(
                "requests must be sorted by arrival time: request {} arrives before request {i}",
                i + 1
            );
        }
        server.reset();
        for gpu in 0..server.num_gpus() {
            let planned = self.twin.allocated_bytes(gpu);
            server.alloc(gpu, planned).expect("same shape, so it fits");
        }
        let registry = server.telemetry();
        if let Some(rows) = self.replicated_rows {
            registry.counter("serve.route.replicated_rows").add(rows);
        }

        // Streaming mutations: the delta-CSR overlay shared by every
        // sampler path. `None` — the default — leaves the engine overlay-
        // free and the run byte-identical to the frozen-graph engine.
        let overlay: Option<DeltaOverlay> = config
            .mutations
            .as_ref()
            .map(|_| DeltaOverlay::new(graph.num_vertices()));
        let engine = AccessEngine::new(
            graph,
            features,
            &self.layout,
            server,
            TopologyPlacement::CpuUva,
        )
        .with_overlay(overlay.as_ref());
        let mut model_rng = StdRng::seed_from_u64(config.seed ^ 0x6d5f_3a21_9b4e_c087);
        let model = GnnModel::new(
            ModelKind::GraphSage,
            features.dim(),
            config.hidden_dim,
            config.num_classes,
            config.fanouts.len(),
            &mut model_rng,
        );
        let slo = SloTracker::new(registry, SLO_US);
        let class_slos: Option<Vec<SloTracker>> = config.classes.multi_class().then(|| {
            (0..CLASS_COUNT)
                .map(|c| {
                    SloTracker::named(
                        registry,
                        &format!("serve.class{c}"),
                        config.classes.slo_us[c],
                    )
                })
                .collect()
        });
        registry.counter("serve.offered").add(requests.len() as u64);

        // Everything the batch path reads but never mutates, apart from
        // the metric cells (counters, histograms, the server's meters).
        let ctx = ServeContext {
            graph,
            features,
            server,
            config,
            engine,
            model,
            registry,
            slo,
            class_slos,
            shed_total: registry.counter("serve.shed"),
            batch_policy: BatchPolicy::new(config.max_batch, config.max_wait),
            row_bytes: features.row_bytes(),
        };
        let mut workers = build_workers(&ctx, self, remote);
        let mut router = self.dispatcher.as_ref().map(|seeded| {
            RouterState::new(registry, seeded.clone(), config.router.probe_neighbors)
        });

        // Mutation stream: resolved once per run (generated from the
        // config's churn knobs up to the last arrival, or replayed from
        // a logged stream) and interleaved into the event loop.
        let mutation_driver = config.mutations.as_ref().map(|src| {
            let horizon = requests.last().map(|r| r.arrival).unwrap_or(0.0);
            let (log, compact_threshold) = src.resolve(graph, config.seed, horizon);
            MutationDriver::new(
                log,
                compact_threshold,
                overlay.as_ref().expect("churn runs build an overlay"),
                registry,
            )
        });
        run_sequential(&ctx, &mut workers, &mut router, requests, mutation_driver);
        let report = build_report(&ctx, &workers, router.as_ref(), requests.len() as u64);
        crate::invariants::check_serve(config, &report);
        report
    }
}

/// One [`Worker`] per GPU with its queue, meters, the run's own copy
/// of the policy state and the tiers below the HBM cache.
fn build_workers(
    ctx: &ServeContext<'_>,
    deployment: &Deployment<'_>,
    remote: Option<&RemoteConfig>,
) -> Vec<Worker> {
    let (graph, server, config) = (ctx.graph, ctx.server, ctx.config);
    let (registry, row_bytes) = (ctx.registry, ctx.row_bytes);
    let num_gpus = server.num_gpus();
    (0..num_gpus)
        .map(|gpu| {
            let queue = if config.classes.qos {
                ClassedQueue::new_qos(config.queue_capacity, config.classes.qos_weights)
                    .with_service_floors(config.classes.qos_floors)
            } else {
                ClassedQueue::new_fifo(config.queue_capacity)
            };
            let policy = match config.policy {
                PolicyKind::StaticHot => WorkerPolicy::StaticHot,
                PolicyKind::Fifo => WorkerPolicy::Fifo(FifoCache::new(config.cache_rows_per_gpu)),
                PolicyKind::Replan => {
                    let state = ReplanState::new(
                        config.replan.clone(),
                        deployment.initial_plans[gpu].clone(),
                        graph.num_vertices(),
                        gpu,
                        num_gpus,
                        config.cache_rows_per_gpu as u64 * row_bytes,
                        server.pcie().cls(),
                    );
                    WorkerPolicy::Replan(Box::new(ReplanWorker {
                        state,
                        meters: ReplanMeters::new(registry),
                        gpu_replans: registry.counter(&format!("serve.gpu{gpu}.replans")),
                        gpu_swap_bytes: registry
                            .counter(&format!("serve.gpu{gpu}.replan.swap_bytes")),
                        window_gauge: registry.gauge(&format!("serve.gpu{gpu}.window_hit_rate")),
                        feat_hits: registry.counter(&format!("cache.gpu{gpu}.feature_hits")),
                        feat_misses: registry.counter(&format!("cache.gpu{gpu}.feature_misses")),
                    }))
                }
            };
            let sampler = KHopSampler::new(config.fanouts.clone());
            // The HBM buffer a full batch of all-miss rows lands in.
            let ring = (config.policy != PolicyKind::Fifo).then(|| {
                let rows = sampler.max_rows(config.max_batch);
                server
                    .alloc(gpu, rows as u64 * row_bytes)
                    .expect("landing ring exceeds GPU memory");
                let reused = registry.counter("serve.landing.reused");
                LandingRing::new(rows, graph.num_vertices(), reused)
            });
            Worker {
                gpu,
                queue,
                free_at: 0.0,
                makespan: 0.0,
                lane: BatchLane {
                    rng: worker_rng(config.seed, gpu),
                    seeds: Vec::new(),
                    step: BatchStep::new(sampler, TimeModel::new(server.spec()), num_gpus),
                    ring,
                    store: deployment.store.as_ref().map(|ssd_rows| {
                        let n = graph.num_vertices();
                        Box::new(StoreWorker::new(
                            ssd_rows,
                            n,
                            &config.store,
                            row_bytes,
                            registry,
                        ))
                    }),
                    remote: remote.map(|rc| Box::new(RemoteWorker::new(rc, row_bytes, registry))),
                },
                batches: registry.counter(&format!("serve.gpu{gpu}.batches")),
                busy: registry.counter(&format!("serve.gpu{gpu}.busy_ns")),
                gpu_shed: registry.counter(&format!("serve.gpu{gpu}.shed")),
                phase: (config.drift_period > 0)
                    .then(|| PhaseMeter::new(registry, config.drift_period, gpu)),
                depth: QueueDepthMeter::for_gpu(registry, gpu),
                stages: StageRecorder::for_gpu(registry, gpu),
                policy,
                last_plan_version: 0,
            }
        })
        .collect()
}

/// Report phase: exports the run-summary gauges and per-class / route
/// accounting, then snapshots the registry.
fn build_report(
    ctx: &ServeContext<'_>,
    workers: &[Worker],
    router: Option<&RouterState>,
    offered: u64,
) -> ServeReport {
    let registry = ctx.registry;
    let slo = &ctx.slo;
    let makespan = workers.iter().fold(0.0f64, |m, w| m.max(w.makespan));
    let completed = slo.completed();
    let throughput = if makespan > 0.0 {
        completed as f64 / makespan
    } else {
        0.0
    };
    registry
        .gauge("serve.p50_us")
        .set(slo.quantile_us(0.50) as f64);
    registry
        .gauge("serve.p95_us")
        .set(slo.quantile_us(0.95) as f64);
    registry
        .gauge("serve.p99_us")
        .set(slo.quantile_us(0.99) as f64);
    registry.gauge("serve.slo_attainment").set(slo.attainment());
    registry.gauge("serve.makespan_s").set(makespan);
    registry.gauge("serve.throughput_rps").set(throughput);

    // Per-class accounting: sheds are attributed by the queues in every
    // run; latency trackers and their exported gauges exist only for
    // multi-class runs.
    let mut class_shed = [0u64; CLASS_COUNT];
    for w in workers {
        for (c, shed) in class_shed.iter_mut().enumerate() {
            *shed += w.queue.shed(PriorityClass::from_index(c));
        }
    }
    let mut class_completed = [0u64; CLASS_COUNT];
    let mut class_p99_us = [0u64; CLASS_COUNT];
    let mut class_slo_attainment = [1.0f64; CLASS_COUNT];
    if let Some(trackers) = ctx.class_slos.as_ref() {
        for (c, t) in trackers.iter().enumerate() {
            class_completed[c] = t.completed();
            class_p99_us[c] = t.quantile_us(0.99);
            class_slo_attainment[c] = t.attainment();
            registry
                .counter(&format!("serve.class{c}.shed"))
                .add(class_shed[c]);
            registry
                .gauge(&format!("serve.class{c}.p99_us"))
                .set(class_p99_us[c] as f64);
            registry
                .gauge(&format!("serve.class{c}.slo_attainment"))
                .set(class_slo_attainment[c]);
        }
    }

    let (routed, spilled, route_locality) = match router {
        Some(rs) => {
            let routed: u64 = rs.routed.iter().map(Counter::get).sum();
            let spilled: u64 = rs.spilled.iter().map(Counter::get).sum();
            let locality = if rs.probed > 0 {
                rs.covered as f64 / rs.probed as f64
            } else {
                1.0
            };
            registry.gauge("serve.route.locality").set(locality);
            (routed, spilled, locality)
        }
        // No routing tier: nothing was probed, so locality is reported
        // as zero rather than a vacuous 100%.
        None => (0, 0, 0.0),
    };

    ServeReport {
        policy: ctx.config.policy,
        offered,
        completed,
        shed: ctx.shed_total.get(),
        p50_us: slo.quantile_us(0.50),
        p95_us: slo.quantile_us(0.95),
        p99_us: slo.quantile_us(0.99),
        slo_attainment: slo.attainment(),
        makespan_s: makespan,
        throughput_rps: throughput,
        class_completed,
        class_p99_us,
        class_slo_attainment,
        class_shed,
        routed,
        spilled,
        route_locality,
        metrics: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replan::ReplanConfig;
    use crate::workload::ArrivalProcess;
    use crate::{ChurnConfig, ClassConfig, MutationSource, RouterConfig};
    use legion_graph::GraphBuilder;
    use legion_hw::ServerSpec;

    fn tiny_graph() -> (CsrGraph, FeatureTable) {
        let mut b = GraphBuilder::new(256);
        for v in 0..256u32 {
            for d in 1..6u32 {
                b.push_edge(v, (v + d * 7) % 256);
            }
        }
        let g = b.build();
        let f = FeatureTable::zeros(256, 16);
        (g, f)
    }

    fn tiny_config(policy: PolicyKind) -> ServeConfig {
        ServeConfig {
            arrival: ArrivalProcess::Poisson { rate: 20_000.0 },
            num_requests: 300,
            max_batch: 8,
            max_wait: 5e-4,
            queue_capacity: 64,
            cache_rows_per_gpu: 32,
            warmup_requests: 64,
            fanouts: vec![3, 2],
            policy,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_completes_all_requests_under_light_load() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::Fifo);
        config.arrival = ArrivalProcess::Poisson { rate: 50.0 };
        let report = serve(&g, &f, &server, &config);
        assert_eq!(report.offered, 300);
        assert_eq!(report.completed, 300);
        assert_eq!(report.shed, 0);
        assert!(report.makespan_s > 0.0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
    }

    #[test]
    fn static_policy_hits_its_warm_cache() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::StaticHot);
        config.cache_rows_per_gpu = 128;
        let report = serve(&g, &f, &server, &config);
        let hits = report
            .metrics
            .counters
            .iter()
            .filter(|c| c.name.ends_with("feature_hits"))
            .map(|c| c.value)
            .sum::<u64>();
        assert!(hits > 0, "half the graph is cached; hits expected");
    }

    /// A serving GPU keeps the rows its last batches pulled over PCIe in
    /// a landing ring booked in its memory: a reused row is a plan miss
    /// that crosses no link. FIFO, already a recency cache, keeps none.
    #[test]
    fn the_landing_ring_takes_recent_misses_off_pcie() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let config = tiny_config(PolicyKind::StaticHot);
        let deployment = plan_deployment(&g, &f, &server, &config);
        let m = deployment
            .serve(&server, &generate_requests(&g, &config), None)
            .metrics;
        let misses = m.counter("cache.gpu0.feature_misses");
        let reused = m.counter("serve.landing.reused");
        assert!(0 < reused && reused < misses, "{reused} of {misses}");
        let row_tx = server.pcie().transactions_for_payload(f.row_bytes());
        assert_eq!(m.counter("pcm.gpu0.feature_tx"), (misses - reused) * row_tx);
        let rows = KHopSampler::new(config.fanouts.clone()).max_rows(config.max_batch);
        assert_eq!(
            server.allocated_bytes(0),
            deployment.twin.allocated_bytes(0) + rows as u64 * f.row_bytes()
        );
        let fresh = ServerSpec::custom(1, 1 << 30, 1).build();
        let fifo = serve(&g, &f, &fresh, &tiny_config(PolicyKind::Fifo)).metrics;
        assert!(fifo
            .counters
            .iter()
            .all(|c| !c.name.starts_with("serve.landing")));
    }

    /// A skewed graph: Chung–Lu degrees, so a few rows carry most of the
    /// sampled edges and the cost model gives topology a share.
    fn skewed_graph() -> (CsrGraph, FeatureTable) {
        let g = legion_graph::generate::ChungLuConfig {
            num_vertices: 512,
            num_edges: 4096,
            ..Default::default()
        }
        .generate(&mut StdRng::seed_from_u64(5));
        (g, FeatureTable::zeros(512, 16))
    }

    /// StaticHot plans Legion's unified cache: routed or not, every
    /// clique caches topology, and no GPU books more than its budget.
    #[test]
    fn static_plan_caches_topology_within_each_gpu_budget() {
        let (g, f) = skewed_graph();
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        for router in [RouterPolicy::RoundRobin, RouterPolicy::Residency] {
            let mut config = tiny_config(PolicyKind::StaticHot);
            config.router.policy = router;
            let deployment = plan_deployment(&g, &f, &server, &config);
            let cliques = &deployment.layout.cliques;
            assert!(!cliques.is_empty(), "{router:?}: a static plan has caches");
            for (c, clique) in cliques.iter().enumerate() {
                let slots = (0..clique.gpus().len()).map(|s| clique.cache(s));
                assert!(
                    slots.clone().map(|h| h.topology_bytes()).sum::<u64>() > 0,
                    "{router:?}: clique {c} caches no topology"
                );
                assert!(slots.map(|h| h.feature_bytes()).sum::<u64>() > 0);
            }
            let budget = config.cache_rows_per_gpu as u64 * f.row_bytes();
            for gpu in 0..server.num_gpus() {
                let booked = deployment.twin.allocated_bytes(gpu);
                assert!(
                    booked <= budget,
                    "{router:?}: GPU {gpu} books {booked} B of a {budget} B budget"
                );
            }
        }
    }

    /// Without the router each StaticHot GPU holds exactly the plan a
    /// Replan GPU starts from.
    #[test]
    fn unrouted_static_plan_is_replans_initial_plan() {
        let (g, f) = skewed_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let configs = [PolicyKind::StaticHot, PolicyKind::Replan].map(tiny_config);
        let planned = plan_deployment(&g, &f, &server, &configs[0]);
        let replan = plan_deployment(&g, &f, &server, &configs[1]);
        assert_eq!(replan.initial_plans.len(), 2);
        for (gpu, plan) in replan.initial_plans.iter().enumerate() {
            assert!(
                !plan.contents.topo.is_empty(),
                "the fixture must cache topology"
            );
            let (cache, _) = planned.layout.for_gpu(gpu).expect("every GPU holds a plan");
            assert_eq!(cache.gpus(), [gpu]);
            let topo: Vec<VertexId> = (0..g.num_vertices() as VertexId)
                .filter(|&v| cache.lookup_topology(0, v).is_some())
                .collect();
            assert_eq!(topo, plan.contents.topo);
            assert_eq!(cache.feature_vertices(), plan.contents.feat);
            assert_eq!(
                planned.twin.allocated_bytes(gpu),
                replan.twin.allocated_bytes(gpu)
            );
        }
    }

    /// Regression test for the duplicate-seed double count: on a
    /// single-vertex graph every request targets the one vertex, so a
    /// multi-request batch must expand its (uncached) topology exactly
    /// once and fetch its feature row exactly once. Before the fix each
    /// duplicate request re-expanded the vertex, charging one topology
    /// miss per *request* instead of per *batch*.
    #[test]
    fn duplicate_seeds_in_a_batch_meter_one_miss() {
        let g = GraphBuilder::new(1).build();
        let f = FeatureTable::zeros(1, 8);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let config = ServeConfig {
            arrival: ArrivalProcess::Poisson { rate: 1.0e6 },
            num_requests: 40,
            max_batch: 8,
            max_wait: 1e-3,
            queue_capacity: 64,
            cache_rows_per_gpu: 4,
            warmup_requests: 8,
            fanouts: vec![2],
            drift_period: 0,
            policy: PolicyKind::Fifo,
            ..ServeConfig::default()
        };
        let report = serve(&g, &f, &server, &config);
        let counter = |name: &str| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        let batches = counter("serve.gpu0.batches");
        assert!(
            batches < report.completed,
            "fixture must batch duplicates together ({batches} batches, {} requests)",
            report.completed
        );
        // One topology expansion per batch, not per request.
        assert_eq!(counter("cache.gpu0.topology_misses"), batches);
        assert_eq!(counter("cache.gpu0.topology_hits"), 0);
        // One feature fetch per batch: a cold miss, then FIFO hits.
        assert_eq!(counter("cache.gpu0.feature_misses"), 1);
        assert_eq!(counter("cache.gpu0.feature_hits"), batches - 1);
        assert_eq!(counter("extract.gpu0.rows"), batches);

        // The static policy caches the vertex up front: same dedupe,
        // all hits.
        let mut static_config = config.clone();
        static_config.policy = PolicyKind::StaticHot;
        static_config.cache_rows_per_gpu = 1;
        let report = serve(&g, &f, &server, &static_config);
        let counter = |name: &str| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        let batches = counter("serve.gpu0.batches");
        assert_eq!(counter("cache.gpu0.topology_misses"), batches);
        assert_eq!(counter("cache.gpu0.feature_hits"), batches);
        assert_eq!(counter("cache.gpu0.feature_misses"), 0);

        // The replan policy runs the same shared batch step against its
        // plan's layout: one expansion and one row read per batch.
        let mut replan_config = config.clone();
        replan_config.policy = PolicyKind::Replan;
        let metrics = serve(&g, &f, &server, &replan_config).metrics;
        let batches = metrics.counter("serve.gpu0.batches");
        assert!(batches < 40, "fixture must batch duplicates together");
        assert_eq!(
            metrics.counter("cache.gpu0.topology_hits")
                + metrics.counter("cache.gpu0.topology_misses"),
            batches
        );
        assert_eq!(
            metrics.counter("cache.gpu0.feature_hits")
                + metrics.counter("cache.gpu0.feature_misses"),
            batches
        );
        assert_eq!(metrics.counter("extract.gpu0.rows"), batches);
    }

    /// The replan policy must actually re-plan under rotation drift and
    /// meter its swaps.
    #[test]
    fn replan_policy_swaps_under_drift() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::Replan);
        config.num_requests = 600;
        config.drift_period = 100;
        config.drift_stride = 64;
        config.replan = ReplanConfig {
            bucket_requests: 8,
            window_buckets: 2,
            cooldown_buckets: 0,
            ..ReplanConfig::default()
        };
        let report = serve(&g, &f, &server, &config);
        let counter = |name: &str| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert!(
            counter("serve.replan.count") > 0,
            "drift must trigger replans"
        );
        assert!(
            counter("serve.replan.swap_bytes") > 0,
            "swaps must move bytes"
        );
        assert_eq!(
            counter("serve.replan.count"),
            counter("serve.gpu0.replans") + counter("serve.gpu1.replans"),
        );
        // Swap refills are real PCIe traffic: they appear in the PCM.
        assert!(server.telemetry().snapshot().counter_sum("pcm.") > 0);
        // The windowed hit-rate gauge was exported.
        assert!(report
            .metrics
            .gauges
            .iter()
            .any(|g| g.name == "serve.gpu0.window_hit_rate"));
    }

    /// Phase counters decompose the run's hit/miss totals exactly.
    #[test]
    fn phase_counters_partition_hits_and_misses() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::Fifo);
        config.drift_period = 100;
        config.drift_stride = 64;
        let report = serve(&g, &f, &server, &config);
        let sum = |prefix: &str, suffix: &str| {
            report
                .metrics
                .counters
                .iter()
                .filter(|c| c.name.starts_with(prefix) && c.name.ends_with(suffix))
                .map(|c| c.value)
                .sum::<u64>()
        };
        let phase_hits = sum("serve.phase", ".feature_hits");
        let phase_misses = sum("serve.phase", ".feature_misses");
        let total_hits = sum("cache.", "feature_hits");
        let total_misses = sum("cache.", "feature_misses");
        assert_eq!(phase_hits, total_hits);
        assert_eq!(phase_misses, total_misses);
        assert!(total_hits + total_misses > 0);
        // Tail counters cover the second half of each phase — a strict
        // subset of the phase totals.
        let tail_hits = sum("serve.phase", ".tail_feature_hits");
        let tail_misses = sum("serve.phase", ".tail_feature_misses");
        assert!(tail_hits <= phase_hits && tail_misses <= phase_misses);
        assert!(tail_hits + tail_misses > 0, "tail halves must be sampled");
    }

    /// Residency routing on a 2-clique server: every arrival gets a
    /// routing decision, per-clique counters are exported, and the
    /// locality gauge reflects real coverage.
    #[test]
    fn residency_router_routes_every_request_and_reports_locality() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        let mut config = tiny_config(PolicyKind::StaticHot);
        config.router = RouterConfig {
            policy: RouterPolicy::Residency,
            ..RouterConfig::default()
        };
        let report = serve(&g, &f, &server, &config);
        assert!(report.route_locality > 0.0 && report.route_locality <= 1.0);
        let routed_by_counter: u64 = report
            .metrics
            .counters
            .iter()
            .filter(|c| c.name.starts_with("serve.route.clique") && c.name.ends_with(".routed"))
            .map(|c| c.value)
            .sum();
        assert_eq!(routed_by_counter, report.routed);
        assert!(report
            .metrics
            .gauges
            .iter()
            .any(|g| g.name == "serve.route.locality"));
        // Queue-depth histograms are live for every GPU.
        assert!(report
            .metrics
            .histograms
            .iter()
            .any(|h| h.name == "pipeline.gpu0.queue_depth" && h.counts.iter().sum::<u64>() > 0));
    }

    /// Inside a clique an arrival goes to a free sibling before it joins
    /// the fullest open batch on a GPU that is still serving. GPU 0 takes
    /// a full batch of hubs and GPU 1, once 0 is busy, a full batch of
    /// leaves; the next arrival finds both busy and opens a batch on GPU
    /// 0. GPU 1 finishes first, so the one after that goes to GPU 1.
    #[test]
    fn an_arrival_skips_a_busy_open_batch_for_a_free_sibling() {
        // Vertices 0..4 are hubs with 400 out-edges; 400.. have none.
        let mut b = GraphBuilder::new(512);
        for hub in 0..4u32 {
            for d in 0..400u32 {
                b.push_edge(hub, 8 + (hub * 97 + d) % 500);
            }
        }
        let (g, f) = (b.build(), FeatureTable::zeros(512, 16));
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let mut config = tiny_config(PolicyKind::StaticHot);
        config.max_batch = 4;
        config.max_wait = 1.0;
        config.fanouts = vec![25];
        config.router.policy = RouterPolicy::Residency;
        let request = |id: u64, target: VertexId| Request {
            id,
            arrival: id as f64 * 1e-9,
            target,
            class: PriorityClass::Standard,
        };
        let head: Vec<Request> = [0, 1, 2, 3, 400, 401, 402, 403]
            .into_iter()
            .enumerate()
            .map(|(i, v)| request(i as u64, v))
            .collect();
        // The two full batches alone give each GPU's service time.
        let deployment = plan_deployment(&g, &f, &server, &config);
        let alone = deployment.serve(&server, &head, None).metrics;
        let busy = |m: &Snapshot, gpu: usize| m.counter(&format!("serve.gpu{gpu}.busy_ns"));
        let (hubs_ns, leaves_ns) = (busy(&alone, 0), busy(&alone, 1));
        assert!(leaves_ns + 100 < hubs_ns, "{leaves_ns} vs {hubs_ns} ns");
        let mut requests = head;
        requests.push(request(8, 404));
        requests.push(Request {
            arrival: (leaves_ns + hubs_ns) as f64 / 2.0 * 1e-9,
            ..request(9, 405)
        });
        let m = deployment.serve(&server, &requests, None).metrics;
        let batches = |gpu: usize| m.counter(&format!("serve.gpu{gpu}.batches"));
        // GPU 0: the hubs, then the open batch of request 8 alone; GPU 1:
        // the leaves, then request 9 alone.
        assert_eq!((batches(0), batches(1)), (2, 2));
    }

    /// QoS under 2x-style overload: Batch is shed strictly before
    /// Interactive, and per-class trackers partition the completions.
    #[test]
    fn qos_overload_sheds_batch_before_interactive() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::Fifo);
        config.arrival = ArrivalProcess::Poisson { rate: 1.0e8 };
        config.queue_capacity = 32;
        config.num_requests = 600;
        config.classes = ClassConfig {
            mix: [0.25, 0.35, 0.4],
            qos: true,
            ..ClassConfig::default()
        };
        let report = serve(&g, &f, &server, &config);
        let b = PriorityClass::Batch.index();
        let i = PriorityClass::Interactive.index();
        assert!(report.class_shed[b] > 0, "overload must shed Batch");
        assert!(
            report.class_shed[i] <= report.class_shed[b],
            "Interactive sheds ({}) must not exceed Batch sheds ({})",
            report.class_shed[i],
            report.class_shed[b]
        );
        // Per-class telemetry was exported.
        assert!(report
            .metrics
            .counters
            .iter()
            .any(|c| c.name == "serve.class0.completed"));
        assert!(report
            .metrics
            .gauges
            .iter()
            .any(|g| g.name == "serve.class2.slo_attainment"));
    }

    /// Regression for the Batch-starvation defect: the strict priority
    /// drain never reaches the Batch deque while Interactive keeps the
    /// queue full, so under sustained Interactive-heavy overload Batch
    /// only completes from the end-of-stream drain. A 25% service floor
    /// must keep Batch flowing mid-stream — strictly more completions
    /// than the floorless run.
    #[test]
    fn qos_service_floor_prevents_batch_starvation_at_3x_overload() {
        let (g, f) = tiny_graph();
        let run = |floors: [f64; crate::CLASS_COUNT]| {
            let server = ServerSpec::custom(2, 1 << 30, 1).build();
            let mut config = tiny_config(PolicyKind::Fifo);
            // Anchor "3x overload" to the measured capacity of this
            // exact fixture rather than a magic arrival rate.
            let capacity = crate::sweep::estimate_capacity_rps(&g, &f, &server, &config);
            config.arrival = ArrivalProcess::Poisson {
                rate: 3.0 * capacity,
            };
            config.num_requests = 1200;
            config.queue_capacity = 32;
            config.classes = ClassConfig {
                mix: [0.9, 0.0, 0.1],
                qos: true,
                qos_floors: floors,
                ..ClassConfig::default()
            };
            serve(&g, &f, &server, &config)
        };
        let starved = run([0.0; crate::CLASS_COUNT]);
        let floored = run([0.0, 0.0, 0.25]);
        let b = PriorityClass::Batch.index();
        let i = PriorityClass::Interactive.index();
        assert!(
            floored.class_completed[b] > 0,
            "Batch must keep a floor of service under Interactive overload"
        );
        assert!(
            floored.class_completed[b] > starved.class_completed[b],
            "floors must strictly improve Batch completions ({} vs {})",
            floored.class_completed[b],
            starved.class_completed[b]
        );
        assert!(
            floored.class_completed[i] > 0,
            "the floor must not invert the priority order"
        );
    }

    /// An oversubscribed run (DRAM budget a fraction of the feature
    /// table) must actually exercise the SSD tier: store telemetry is
    /// live, the NVMe device moves whole blocks, and the prefetcher
    /// converts queued lookahead into staging hits.
    #[test]
    fn store_oversubscription_exercises_the_ssd_tier() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::StaticHot);
        // 256 rows of 64 B = 16 KiB of features; grant 2 KiB of DRAM.
        config.store.dram_budget_bytes = Some(2048);
        config.store.staging_rows = 64;
        config.store.prefetch_budget = 64;
        config.num_requests = 600;
        let report = serve(&g, &f, &server, &config);
        let counter = |name: &str| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        let touched = counter("serve.store.prefetch_hits")
            + counter("serve.store.late_stalls")
            + counter("serve.store.cold_reads");
        assert!(touched > 0, "SSD-tier rows must actually be read");
        assert!(
            counter("serve.store.prefetch_hits") > 0,
            "lookahead prefetch must land staging hits"
        );
        let bytes = counter("store.nvme.bytes");
        assert!(bytes > 0 && bytes % 4096 == 0, "device moves whole blocks");
    }

    /// A churn-enabled run must apply mutations, invalidate cached rows
    /// and residency bits, compact at batch boundaries, and replay
    /// byte-identically from the logged stream (`Generate(cfg)` ==
    /// `Replay(log-of-cfg)`).
    #[test]
    fn churn_run_applies_invalidates_compacts_and_replays_byte_identically() {
        let (g, f) = tiny_graph();
        let churn = ChurnConfig {
            ops_per_sec: 200_000.0,
            compact_threshold: 32,
        };
        let mut config = tiny_config(PolicyKind::StaticHot);
        config.num_requests = 400;
        config.router = RouterConfig {
            policy: RouterPolicy::Residency,
            ..RouterConfig::default()
        };
        config.mutations = Some(MutationSource::Generate(churn.clone()));
        let run = |cfg: &ServeConfig| {
            let server = ServerSpec::custom(2, 1 << 30, 1).build();
            serve(&g, &f, &server, cfg)
        };
        let report = run(&config);
        let counter = |name: &str| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert!(counter("graph.mut.inserts") > 0, "churn must insert edges");
        assert!(counter("graph.mut.deletes") > 0, "churn must delete edges");
        assert!(counter("graph.mut.overlay_rows") > 0);
        assert!(
            counter("graph.mut.compactions") > 0,
            "a 32-edge threshold must trigger batch-boundary compaction"
        );
        // The static plan caches the hottest topology rows, so churn
        // on them must count invalidations.
        assert!(
            counter("serve.invalidate.topo_rows") > 0,
            "mutating a plan-cached topology row must count an invalidation"
        );
        assert!(
            counter("serve.invalidate.residency_bits") > 0,
            "mutations must clear residency bits in the router index"
        );
        // Replaying the logged stream reproduces the generated run
        // byte-for-byte: rebuild the log exactly as the engine resolved
        // it (same seed, horizon = last arrival) and swap the source.
        let requests = generate_requests(&g, &config);
        let horizon = requests.last().map(|r| r.arrival).unwrap_or(0.0);
        let log = Rc::new(MutationLog::generate(&g, &churn, config.seed, horizon));
        assert!(!log.ops.is_empty(), "churn fixture must generate mutations");
        let mut replayed = config.clone();
        replayed.mutations = Some(MutationSource::Replay {
            log,
            compact_threshold: churn.compact_threshold,
        });
        assert_eq!(
            report.metrics,
            run(&replayed).metrics,
            "replaying the logged stream must be byte-identical"
        );
    }

    /// Under `Replan`, churn must keep flowing through the window
    /// estimators (the slow path) while the overlay serves the fast
    /// path, and mutating a plan-cached topology row invalidates it.
    #[test]
    fn churn_under_replan_policy_invalidates_plan_cached_rows() {
        let (g, f) = tiny_graph();
        let mut config = tiny_config(PolicyKind::Replan);
        config.num_requests = 400;
        config.mutations = Some(MutationSource::Generate(ChurnConfig {
            ops_per_sec: 100_000.0,
            ..ChurnConfig::default()
        }));
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let report = serve(&g, &f, &server, &config);
        let counter = |name: &str| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        let applied = counter("graph.mut.inserts") + counter("graph.mut.deletes");
        assert!(applied > 0, "churn must apply under Replan");
        // Replan plans cache topology rows, so mutating a planned
        // vertex must fire the topo-row invalidation counter.
        assert!(
            counter("serve.invalidate.topo_rows") > 0,
            "mutating a plan-cached topology row must count an invalidation"
        );
    }

    /// Re-plan commits under an active store must migrate rows across
    /// the DRAM/SSD boundary and charge the device.
    #[test]
    fn replan_commits_migrate_rows_through_the_store() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::Replan);
        config.num_requests = 600;
        config.drift_period = 100;
        config.drift_stride = 64;
        config.store.dram_budget_bytes = Some(2048);
        config.store.staging_rows = 64;
        config.store.prefetch_budget = 64;
        config.replan = ReplanConfig {
            bucket_requests: 8,
            window_buckets: 2,
            cooldown_buckets: 0,
            ..ReplanConfig::default()
        };
        let report = serve(&g, &f, &server, &config);
        let counter = |name: &str| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert!(counter("serve.replan.count") > 0, "drift must replan");
        assert!(
            counter("serve.store.migrations") > 0,
            "commits must move rows across the DRAM/SSD boundary"
        );
        assert!(counter("serve.store.migrated_bytes") > 0);
    }

    /// The SSD tier is the suffix of the warm-up feature order past the
    /// HBM prefix and as many rows as the DRAM budget holds, at any HBM
    /// and DRAM budget; a DRAM budget that holds the whole table plans
    /// no store.
    #[test]
    fn store_placement_is_the_hotness_suffix_past_hbm_and_dram() {
        use rand::Rng;
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let row_bytes = f.row_bytes();
        let table = g.num_vertices() as u64 * row_bytes;
        let nvme = NvmeModel::new(StoreConfig::default().nvme);
        let ssd_penalty = server.pcie().effective_bandwidth(row_bytes as f64)
            / nvme.effective_bandwidth(nvme.bytes_for_payload(row_bytes) as f64);
        let mut rng = StdRng::seed_from_u64(7);
        let mut planned = 0;
        for case in 0..24 {
            let mut config = tiny_config(PolicyKind::StaticHot);
            config.cache_rows_per_gpu = rng.gen_range(0..96);
            let dram_budget = match case {
                0 => table,
                _ => rng.gen_range(0..table),
            };
            let profile = profile_warmup(
                &g,
                &mut warmup_targets(&g, &config),
                config.warmup_requests,
                &config.fanouts,
                config.seed,
            );
            let order = legion_cache::hotness_order(&profile.feat);
            let t = legion_cache::cslp(&legion_cache::HotnessMatrix::from_rows(&[&profile.topo]));
            let hbm_rows = legion_cache::CostModel::new(
                &g,
                &t.clique_order,
                &t.accumulated,
                &order,
                &profile.feat,
                profile.n_tsum,
                f.dim(),
                server.pcie().cls(),
            )
            .best_plan_tiered(
                config.cache_rows_per_gpu as u64 * row_bytes,
                dram_budget,
                config.replan.delta_alpha,
                nvme.block_bytes(),
                ssd_penalty,
            )
            .plan
            .feat_cached_vertices;
            let resident = (hbm_rows + (dram_budget / row_bytes) as usize).min(order.len());
            let expected = &order[resident..];
            match plan_store_placement(&g, &f, &server, &config, &profile, dram_budget) {
                None => assert!(expected.is_empty(), "case {case}: no store planned"),
                Some(ssd_rows) => {
                    planned += 1;
                    assert_eq!(ssd_rows, expected, "case {case}");
                    // A worker's store holds exactly these rows on the SSD.
                    let n = g.num_vertices();
                    let registry = Registry::new();
                    let sw = StoreWorker::new(&ssd_rows, n, &config.store, row_bytes, &registry);
                    let on_ssd = |v| sw.store.tier(v) == legion_store::Tier::Ssd;
                    let members = (0..n as VertexId).filter(|&v| on_ssd(v)).count();
                    assert_eq!(members, expected.len(), "case {case}");
                    assert!(expected.iter().all(|&v| on_ssd(v)));
                }
            }
            if case == 0 {
                assert!(expected.is_empty(), "a whole-table budget spills nothing");
            }
        }
        assert!(planned > 12, "only {planned} of 24 budgets spilled");
    }

    /// `serve_requests` validates the fleet tier's maps at entry: a
    /// shard id past the fleet is a message, not an index panic inside
    /// a batch.
    #[test]
    #[should_panic(expected = "coalescing shard map sends vertex 7 to server 2 of 2")]
    fn remote_config_is_validated_at_entry() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut shard = vec![1; 256];
        shard[7] = 2;
        let config = tiny_config(PolicyKind::Fifo);
        let remote = RemoteConfig {
            owned: Rc::new(vec![false; 256]),
            net: crate::NetModel::rdma(),
            num_servers: 2,
            shard: Some(Rc::new(shard)),
        };
        let requests = generate_requests(&g, &config);
        plan_deployment(&g, &f, &server, &config).serve(&server, &requests, Some(&remote));
    }

    /// Plans on two single-GPU cliques of 1 GiB GPUs behind a Gen3
    /// link, then serves on `other`.
    fn serve_on_a_server_unlike_the_planned_one(other: ServerSpec) {
        let (g, f) = tiny_graph();
        let config = tiny_config(PolicyKind::StaticHot);
        let planned_for = ServerSpec::custom(2, 1 << 30, 1).build();
        let deployment = plan_deployment(&g, &f, &planned_for, &config);
        deployment.serve(&other.build(), &generate_requests(&g, &config), None);
    }

    #[test]
    #[should_panic(expected = "whose GPU count is 2, this one's is 4")]
    fn deployment_rejects_another_gpu_count() {
        serve_on_a_server_unlike_the_planned_one(ServerSpec::custom(4, 1 << 30, 1));
    }

    #[test]
    #[should_panic(expected = "whose NVLink clique grouping is [[0], [1]], this one's is [[0, 1]]")]
    fn deployment_rejects_other_nvlink_cliques() {
        serve_on_a_server_unlike_the_planned_one(ServerSpec::custom(2, 1 << 30, 2));
    }

    #[test]
    #[should_panic(
        expected = "whose host link is PcieModel { generation: Gen3x16 }, this one's is PcieModel { generation: Gen4x16 }"
    )]
    fn deployment_rejects_another_host_link() {
        serve_on_a_server_unlike_the_planned_one(ServerSpec {
            pcie: legion_hw::PcieGeneration::Gen4x16,
            ..ServerSpec::custom(2, 1 << 30, 1)
        });
    }

    #[test]
    #[should_panic(
        expected = "whose per-GPU memory in bytes is 1073741824, this one's is 536870912"
    )]
    fn deployment_rejects_other_gpu_memory() {
        serve_on_a_server_unlike_the_planned_one(ServerSpec::custom(2, 1 << 29, 1));
    }

    #[test]
    #[should_panic(expected = "request 2 arrives before request 1")]
    fn unsorted_arrivals_invalid() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let request = |id: u64, arrival: f64| Request {
            id,
            arrival,
            target: 0,
            class: PriorityClass::Standard,
        };
        let requests = [request(0, 0.0), request(1, 2e-3), request(2, 1e-3)];
        serve_requests(&g, &f, &server, &tiny_config(PolicyKind::Fifo), &requests);
    }

    /// A multi-class FIFO run (no QoS) still attributes sheds by class
    /// but exerts no priority: drain order is arrival order.
    #[test]
    fn multi_class_without_qos_is_class_blind() {
        let (g, f) = tiny_graph();
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let mut config = tiny_config(PolicyKind::Fifo);
        config.arrival = ArrivalProcess::Poisson { rate: 1.0e8 };
        config.queue_capacity = 32;
        config.num_requests = 600;
        config.classes = ClassConfig {
            mix: [0.25, 0.35, 0.4],
            qos: false,
            ..ClassConfig::default()
        };
        let report = serve(&g, &f, &server, &config);
        // FIFO sheds whatever arrives when full: with this mix every
        // class takes losses (no strict protection).
        assert!(report.class_shed.iter().all(|&s| s > 0));
    }
}
