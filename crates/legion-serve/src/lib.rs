//! Online GNN inference serving over the simulated multi-GPU server.
//!
//! Legion's pipeline (§5) is built for throughput: epochs over a fixed
//! training set, where the only clock that matters is time-to-last-batch.
//! This crate asks the latency question instead — what happens when the
//! same multi-GPU machine, samplers, caches and traffic meters face an
//! *open-loop* request stream that arrives on its own schedule?
//!
//! The pieces, in data-flow order:
//!
//! * [`workload`] — Poisson arrivals and Zipf-skewed,
//!   drifting target-vertex sampling ([`ArrivalProcess`],
//!   [`TargetSampler`]);
//! * [`batcher`] — the dynamic micro-batching policy over the bounded
//!   per-GPU admission queue (`legion-router`'s `ClassedQueue`, which
//!   sheds load explicitly instead of queueing without bound): close at
//!   `max_batch` requests or `max_wait` simulated seconds
//!   ([`BatchPolicy`]);
//! * [`cache_policy`] — the serving-time cache trade-off: a statically
//!   planned hot set (Legion's offline planner pointed at requests),
//!   a dynamic FIFO cache that follows request-skew drift, or the
//!   re-planned cache ([`PolicyKind`]);
//! * [`replan`] — online re-planning: a sliding-window hotness
//!   estimator feeding CSLP + the `(B, α)` cost-model sweep, swapped in
//!   through a versioned double buffer at batch boundaries
//!   ([`ReplanState`]);
//! * [`engine`] — planning once ([`plan_deployment`]: layout, store
//!   placement, initial plans, router seeds) and running any number of
//!   times ([`Deployment::serve`]: the discrete-event loop that runs real
//!   sample→extract→infer operators against the metered server and the
//!   `legion-pipeline` time model); [`serve`] is plan + one run;
//! * [`slo`] — per-request latency histograms and SLO attainment
//!   ([`SloTracker`]);
//! * [`sweep`] — capacity-anchored offered-load sweeps producing
//!   throughput–latency curves ([`run_sweep`]).
//!
//! # Invariants
//!
//! * **Determinism** — the same `(config, dataset, server)` triple
//!   yields byte-identical metric snapshots. Everything that varies is
//!   derived from [`ServeConfig::seed`]; counters and histograms are
//!   integers; gauges are written once per run.
//! * **Conservation** — every run checks request conservation and the
//!   other run identities, stated once in [`invariants`], before it returns.
//! * **Open loop** — arrivals never wait for the server. Backpressure
//!   exists only as bounded admission queues that shed excess load.
//! * **Plan atomicity** — under [`PolicyKind::Replan`], plans change
//!   only between batches; no request is served against a mixed
//!   old/new cache view ([`replan::PlanBuffer`]).
//! * **Comparable meters** — all three policies account cache hits and
//!   misses under the same counter names, so snapshots are directly
//!   comparable across policies.
//!
//! # Metric names
//!
//! Every metric a run registers — its kind, its meaning and the runs
//! that register it — is listed once, in OPERATIONS.md's "Telemetry
//! counter glossary", which `tests/operations.rs` checks against live
//! snapshots in both directions.

#![warn(clippy::too_many_lines)]

pub mod batcher;
pub mod cache_policy;
pub mod engine;
pub mod invariants;
pub mod replan;
pub mod slo;
pub mod sweep;
pub mod workload;

pub use batcher::BatchPolicy;
pub use cache_policy::{
    adaptive_replicated_rows, build_partitioned_layout_adaptive, build_static_layout,
    warmup_hot_vertices_weighted, PolicyKind,
};
pub use engine::{
    generate_requests, plan_deployment, serve, serve_requests, Deployment, ServeReport,
};
pub use legion_dyn::{
    ChurnConfig, DeltaOverlay, Mutation, MutationLog, MutationOp, MutationSource, CHURN_FRAC,
    INSERT_FRAC,
};
pub use legion_hw::NetModel;
pub use legion_router::{PriorityClass, RouterConfig, RouterPolicy, CLASS_COUNT};
pub use legion_store::{NvmeGeneration, NvmeModel, Tier, VertexStore};
pub use replan::{
    plan_layout, profile_warmup, PlanBuffer, ReplanConfig, ReplanState, WindowEstimator,
};
pub use slo::{latency_buckets, SloTracker};
pub use sweep::{estimate_capacity_rps, run_sweep, LoadPoint, SWEEP_MULTIPLIERS};
pub use workload::{
    generate_workload_classed, ArrivalProcess, ClassSampler, Request, TargetSampler,
};

/// Full configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Arrival process of the open-loop request stream.
    pub arrival: ArrivalProcess,
    /// Number of requests to offer.
    pub num_requests: usize,
    /// Zipf exponent of the target-vertex popularity distribution.
    pub zipf_exponent: f64,
    /// Requests between drift steps of the hot set (0 disables drift).
    pub drift_period: usize,
    /// Positions the rank→vertex mapping rotates per drift step.
    pub drift_stride: usize,
    /// Micro-batch size trigger.
    pub max_batch: usize,
    /// Micro-batch age trigger, simulated seconds.
    pub max_wait: f64,
    /// Per-GPU admission-queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Cache policy.
    pub policy: PolicyKind,
    /// Online re-planning knobs (used only by [`PolicyKind::Replan`]).
    pub replan: ReplanConfig,
    /// Each GPU's cache size in feature rows: FIFO's capacity, and the
    /// byte budget (`rows × row_bytes`) StaticHot and Replan split
    /// between topology and features by the cost model's α.
    pub cache_rows_per_gpu: usize,
    /// Warmup requests the planned caches and the store profile before
    /// filling.
    pub warmup_requests: usize,
    /// Per-hop sampling fan-outs (outermost first).
    pub fanouts: Vec<usize>,
    /// Hidden width of the inference model.
    pub hidden_dim: usize,
    /// Output classes of the inference model.
    pub num_classes: usize,
    /// Front-end routing (round-robin vs residency-aware dispatch).
    pub router: RouterConfig,
    /// Priority-class mix and QoS knobs.
    pub classes: ClassConfig,
    /// Out-of-core feature store (SSD tier below host DRAM).
    pub store: StoreConfig,
    /// Streaming graph mutations applied while serving (edge
    /// inserts/deletes, vertex churn) through a delta-CSR overlay with
    /// fast-path cache/residency invalidation. `None` (the default)
    /// freezes the graph — the pre-mutation engine, byte-identical, with
    /// no `graph.mut.*` / `serve.invalidate.*` telemetry registered.
    pub mutations: Option<MutationSource>,
    /// Master seed; every internal RNG stream derives from it.
    pub seed: u64,
}

/// Cross-server residency handed down by the fleet tier: an argument of
/// [`Deployment::serve`], because every member runs the same plan with
/// its own maps.
///
/// When a serving run is one server of a fleet, some feature rows live
/// on *other* servers' shards. Every HBM-cache miss whose vertex is not
/// locally owned is charged through the cluster-interconnect model
/// instead of the local memory hierarchy, and metered under
/// `serve.remote.{reads,bytes}`. A run given no remote tier is the
/// single-machine engine.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// `owned[v]` — whether vertex `v`'s feature row is resident on
    /// this server (its shard or the replicated hot head). Length must
    /// equal the graph's vertex count.
    pub owned: std::rc::Rc<Vec<bool>>,
    /// The analytic network model remote reads are charged through.
    pub net: legion_hw::NetModel,
    /// Servers in the fleet: the `k` concurrently active on the shared
    /// uplink ([`legion_hw::NetModel::read_seconds_at`]) and the bound
    /// of the shard ids.
    pub num_servers: usize,
    /// `shard[v]` — the server whose shard owns vertex `v` (the fleet
    /// plan's partition vector); length must equal the graph's vertex
    /// count. `Some` coalesces each batch's remote wave per owner:
    /// misses are bucketed by owning server and charged one batched
    /// message per owner, so headers and round-trip waves amortize
    /// across every row the owner ships, and rows fetched within the
    /// last four batches are deduplicated instead of re-fetched
    /// (`serve.remote.{coalesced_msgs,dedup_hits,per_owner_bytes}`).
    /// `None` charges every miss as its own RPC.
    pub shard: Option<std::rc::Rc<Vec<u32>>>,
}

impl RemoteConfig {
    /// Checks the maps the fleet tier handed down against the graph
    /// they index: a short `owned` map or a shard id past the fleet
    /// would otherwise surface as a bare index panic deep inside a
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated
    /// invariant.
    pub fn validate(&self, num_vertices: usize) {
        assert!(
            self.num_servers > 0,
            "a remote tier needs at least one server"
        );
        assert_eq!(
            self.owned.len(),
            num_vertices,
            "remote ownership map must cover every vertex"
        );
        let Some(shard) = &self.shard else { return };
        assert_eq!(
            shard.len(),
            num_vertices,
            "coalescing shard map must cover every vertex"
        );
        if let Some(v) = shard.iter().position(|&s| s as usize >= self.num_servers) {
            panic!(
                "coalescing shard map sends vertex {v} to server {} of {}",
                shard[v], self.num_servers
            );
        }
    }
}

/// Configuration of the SSD-backed out-of-core feature tier.
///
/// The default (`dram_budget_bytes: None`) disables the store: feature
/// rows missing the GPU caches live entirely in host DRAM, and no
/// `store.*` telemetry is registered. Setting a DRAM budget turns on
/// three-tier placement: the cost model's tiered sweep
/// ([`legion_cache::CostModel::best_plan_tiered`]) cuts the feature
/// hotness order into an HBM prefix, a DRAM prefix and the SSD suffix,
/// and every SSD-tier row is served through a per-GPU
/// [`legion_store::VertexStore`]
/// — staged ahead of time by the lookahead prefetcher when possible,
/// read cold off the simulated NVMe device when not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Host-DRAM byte budget for feature rows that miss the GPU caches.
    /// `None` keeps every row DRAM-resident (store disabled); a budget
    /// large enough for the whole table degenerates to the same
    /// two-tier system byte-for-byte.
    pub dram_budget_bytes: Option<u64>,
    /// Rows the per-GPU DRAM staging window holds (staged + in flight).
    pub staging_rows: usize,
    /// Simulated NVMe device generation.
    pub nvme: legion_store::NvmeGeneration,
    /// Queued requests the prefetcher peeks past the batch head when
    /// assembling its candidate set.
    pub lookahead_requests: usize,
    /// Leading neighbors of each looked-ahead target added to the
    /// prefetch candidates (the first hop the sampler will most likely
    /// touch).
    pub prefetch_neighbors: usize,
    /// Maximum rows one prefetch wave may request from the device.
    pub prefetch_budget: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            dram_budget_bytes: None,
            staging_rows: 4096,
            nvme: legion_store::NvmeGeneration::Gen3x4,
            lookahead_requests: 64,
            prefetch_neighbors: 8,
            prefetch_budget: 256,
        }
    }
}

impl StoreConfig {
    /// Whether the SSD tier is enabled at all.
    pub fn active(&self) -> bool {
        self.dram_budget_bytes.is_some()
    }

    /// Checks the invariants the engine relies on.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated
    /// invariant.
    pub fn validate(&self) {
        if self.active() {
            assert!(
                self.staging_rows > 0,
                "store.staging_rows must be positive when the store is active"
            );
            assert!(
                self.prefetch_budget <= self.staging_rows,
                "store.prefetch_budget must not exceed staging_rows"
            );
        }
    }
}

/// Priority-class workload mix and QoS discipline of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassConfig {
    /// Relative class weights in priority order
    /// (`[Interactive, Standard, Batch]`); normalized internally. The
    /// default `[0, 1, 0]` reproduces the legacy single-class stream
    /// byte-for-byte.
    pub mix: [f64; CLASS_COUNT],
    /// Zipf-exponent multiplier for `Interactive` targets (drawn from a
    /// hotter head); `1.0` disables class-correlated skew.
    pub interactive_boost: f64,
    /// Per-class latency SLO targets, microseconds, in priority order.
    pub slo_us: [u64; CLASS_COUNT],
    /// Whether admission queues run the QoS discipline (priority drain,
    /// weighted quotas, inverse-priority shedding) instead of FIFO.
    pub qos: bool,
    /// Per-class admission-quota weights (fraction of queue capacity
    /// guaranteed to each class under QoS); must sum to at most 1.
    pub qos_weights: [f64; CLASS_COUNT],
    /// Per-class minimum *service* shares under QoS: each batch drain
    /// reserves `ceil(floor * max_batch)` slots for floored classes so
    /// strict priority cannot starve them (the Batch-starvation fix).
    /// `[0, 0, 0]` (the default) reproduces the strict priority drain
    /// byte-for-byte; must sum to at most 1.
    pub qos_floors: [f64; CLASS_COUNT],
}

impl Default for ClassConfig {
    fn default() -> Self {
        Self {
            mix: [0.0, 1.0, 0.0],
            interactive_boost: 1.5,
            slo_us: [500, 1000, 8000],
            qos: false,
            qos_weights: [0.5, 0.3, 0.2],
            qos_floors: [0.0; CLASS_COUNT],
        }
    }
}

impl ClassConfig {
    /// Whether more than one class has positive weight — per-class
    /// telemetry is registered only for such runs.
    pub fn multi_class(&self) -> bool {
        self.mix.iter().filter(|&&w| w > 0.0).count() > 1
    }

    /// Checks the invariants the engine relies on.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated
    /// invariant.
    pub fn validate(&self) {
        assert!(
            self.mix.iter().all(|&w| w >= 0.0) && self.mix.iter().sum::<f64>() > 0.0,
            "class mix must be non-negative with positive total"
        );
        assert!(
            self.interactive_boost >= 1.0,
            "interactive_boost must be >= 1.0"
        );
        assert!(
            self.slo_us.iter().all(|&s| s > 0),
            "per-class SLOs must be positive"
        );
        assert!(
            self.qos_weights.iter().all(|&w| (0.0..=1.0).contains(&w)),
            "qos_weights must be in [0, 1]"
        );
        assert!(
            self.qos_weights.iter().sum::<f64>() <= 1.0 + 1e-9,
            "qos_weights must sum to at most 1"
        );
        assert!(
            self.qos_floors.iter().all(|&f| (0.0..=1.0).contains(&f)),
            "qos_floors must be in [0, 1]"
        );
        assert!(
            self.qos_floors.iter().sum::<f64>() <= 1.0 + 1e-9,
            "qos_floors must sum to at most 1"
        );
    }
}

impl Default for ServeConfig {
    /// Defaults tuned so a capacity-anchored sweep shows a clear knee:
    /// light-load p99 is floored at `max_wait` + one batch service, while
    /// deep overload drains a full `queue_capacity`-deep queue — roughly
    /// an order of magnitude apart for the PR preset. The stream is long
    /// enough (`num_requests`) that overload actually accumulates that
    /// backlog before the workload ends.
    fn default() -> Self {
        Self {
            arrival: ArrivalProcess::Poisson { rate: 2000.0 },
            num_requests: 6000,
            zipf_exponent: 1.1,
            drift_period: 250,
            drift_stride: 4096,
            max_batch: 32,
            max_wait: 2e-4,
            queue_capacity: 1024,
            policy: PolicyKind::Fifo,
            replan: ReplanConfig::default(),
            cache_rows_per_gpu: 4096,
            warmup_requests: 512,
            fanouts: vec![10, 5],
            hidden_dim: 32,
            num_classes: 16,
            router: RouterConfig::default(),
            classes: ClassConfig::default(),
            store: StoreConfig::default(),
            mutations: None,
            seed: 42,
        }
    }
}

impl ServeConfig {
    /// Checks the invariants the engine relies on.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated invariant.
    pub fn validate(&self) {
        assert!(self.num_requests > 0, "num_requests must be positive");
        assert!(self.zipf_exponent > 0.0, "zipf_exponent must be positive");
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.max_wait >= 0.0, "max_wait must be non-negative");
        assert!(self.max_wait.is_finite(), "max_wait must be finite");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(!self.fanouts.is_empty(), "need at least one sampling hop");
        assert!(self.hidden_dim > 0, "hidden_dim must be positive");
        assert!(self.num_classes > 0, "num_classes must be positive");
        assert!(
            self.arrival.mean_rate() > 0.0,
            "arrival rate must be positive"
        );
        if let Some(m) = &self.mutations {
            if let Err(e) = m.validate() {
                panic!("mutations: {e}");
            }
        }
        self.replan.validate();
        self.router.validate();
        self.classes.validate();
        self.store.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate();
    }

    #[test]
    fn default_knee_headroom() {
        // Light-load tail is bounded by max_wait + service; overload tail
        // by a full queue drained max_batch at a time. The defaults keep
        // those regimes far apart (the >= 5x knee the sweep asserts).
        let c = ServeConfig::default();
        let batches_to_drain = c.queue_capacity / c.max_batch;
        assert!(
            batches_to_drain >= 32,
            "queue must be deep enough to show overload"
        );
        assert!(
            c.max_wait <= 2e-3,
            "age trigger must keep light-load latency low"
        );
    }

    #[test]
    #[should_panic(expected = "num_requests must be positive")]
    fn zero_requests_invalid() {
        ServeConfig {
            num_requests: 0,
            ..ServeConfig::default()
        }
        .validate();
    }

    fn remote(owned_len: usize, shard: Vec<u32>, num_servers: usize) -> RemoteConfig {
        RemoteConfig {
            owned: std::rc::Rc::new(vec![false; owned_len]),
            net: NetModel::rdma(),
            num_servers,
            shard: Some(std::rc::Rc::new(shard)),
        }
    }

    #[test]
    fn remote_maps_that_fit_the_graph_are_valid() {
        remote(8, vec![0, 1, 0, 1, 0, 1, 0, 1], 2).validate(8);
    }

    #[test]
    #[should_panic(expected = "remote ownership map must cover every vertex")]
    fn short_ownership_map_invalid() {
        remote(7, vec![0; 8], 2).validate(8);
    }

    #[test]
    #[should_panic(expected = "coalescing shard map must cover every vertex")]
    fn short_shard_map_invalid() {
        remote(8, vec![0; 7], 2).validate(8);
    }

    #[test]
    #[should_panic(expected = "coalescing shard map sends vertex 3 to server 2 of 2")]
    fn shard_id_past_the_fleet_invalid() {
        remote(8, vec![0, 1, 0, 2, 0, 1, 0, 1], 2).validate(8);
    }

    #[test]
    #[should_panic(expected = "a remote tier needs at least one server")]
    fn coalescing_without_servers_invalid() {
        remote(8, vec![0; 8], 0).validate(8);
    }

    #[test]
    #[should_panic(expected = "a remote tier needs at least one server")]
    fn remote_tier_without_servers_invalid() {
        RemoteConfig {
            shard: None,
            ..remote(8, vec![0; 8], 0)
        }
        .validate(8);
    }

    #[test]
    #[should_panic(expected = "at least one sampling hop")]
    fn empty_fanouts_invalid() {
        ServeConfig {
            fanouts: vec![],
            ..ServeConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_wait must be finite")]
    fn infinite_max_wait_invalid() {
        ServeConfig {
            max_wait: f64::INFINITY,
            ..ServeConfig::default()
        }
        .validate();
    }
}
