//! Scale-out serving fleet: the fourth tier of the hierarchy.
//!
//! Legion's unified cache exploits the *machine-internal* hierarchy
//! (GPU → NVLink clique → machine). This crate extends the same design
//! one level up — **cluster → machine → clique → GPU** — by simulating
//! `N` full multi-GPU servers behind a shard-residency front tier:
//!
//! * **Server sharding** ([`plan_fleet`]) — the graph is partitioned
//!   across servers with the *same* edge-cut partitioner
//!   ([`legion_partition::LdgPartitioner`]) the machine tier uses for
//!   NVLink cliques, so neighborhoods stay server-local for the same
//!   reason they stay clique-local.
//! * **Hot-head replication** — the globally hottest vertices (ranked
//!   by the warmup hotness curve, exactly the signal the machine-tier
//!   planner uses) are replicated to *every* server, sized by the same
//!   marginal-gain rule as
//!   [`legion_serve::adaptive_replicated_rows`]: replicate row `r`
//!   while serving it locally on all `N` servers beats giving its `N-1`
//!   copies' slots to the shard tail.
//! * **Front-tier routing** ([`serve_fleet`]) — each request is scored
//!   against every server's owned set (shard + replicated head) by a
//!   [`legion_router::Dispatcher`] over single-server groups: coverage
//!   first, projected queue depth as the tie-break, spill to the
//!   least-loaded server past the threshold. The server-level decision
//!   happens *before* `legion-router` picks a clique inside the chosen
//!   machine.
//! * **Cross-server reads** — a routed server still misses sometimes;
//!   rows it does not own are charged through
//!   [`legion_hw::NetModel`] (per-message overhead + bandwidth
//!   saturation + round-trip waves, integer-ns quantized) via the
//!   [`legion_serve::RemoteConfig`] each server's run is given, so
//!   mis-routed traffic costs wire time instead of being silently
//!   local.
//!
//! The machine tier is planned once for the fleet
//! ([`legion_serve::plan_deployment`]: every member has the same config,
//! warm-up stream and server shape) and each server is one
//! [`legion_serve::Deployment::serve`] of that plan — its own cliques,
//! caches, admission queues, and (optionally) out-of-core store — over
//! its routed slice of the global request stream, with its own
//! ownership map as the run's remote tier.
//!
//! # Determinism
//!
//! The global workload is generated from the base config's seed with
//! the exact code `legion_serve::serve` uses; routing is a pure
//! function of the plan and arrival order (the random baseline draws
//! from its own salted seed); every per-server run is the deterministic
//! single-machine engine; and the fleet snapshot is integers plus
//! once-written gauges. The same `(graph, spec, config, fleet)` tuple
//! therefore reproduces byte-identical [`FleetReport::metrics`], and a
//! single-server fleet is byte-identical to the non-fleet engine.
//!
//! # Fleet telemetry
//!
//! The `fleet.*` metrics are listed once, in OPERATIONS.md's "Telemetry
//! counter glossary" ("Fleet tier"), which `tests/operations.rs` checks
//! against live snapshots in both directions.

#![warn(clippy::too_many_lines)]

pub mod scenarios;

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use legion_graph::{CsrGraph, FeatureTable, VertexId};
use legion_hw::{NetModel, ServerSpec, UplinkConfig};
use legion_partition::{LdgPartitioner, Partitioner};
use legion_router::{fill_probe, Dispatcher};
use legion_serve::{
    adaptive_replicated_rows, estimate_capacity_rps, generate_requests, invariants,
    latency_buckets, plan_deployment, warmup_hot_vertices_weighted, MutationLog, MutationSource,
    RemoteConfig, Request, ServeConfig, ServeReport, TargetSampler, WindowEstimator,
};
use legion_telemetry::{Registry, Snapshot};

/// Salt of the random-server baseline's RNG stream.
const RANDOM_ROUTE_SALT: u64 = 0xf1ee_7a11_0c8e_55aa;

/// Wire payload of one cross-server mutation notification: a packed
/// op tag plus two vertex ids (the timestamp rides in the message
/// header the [`NetModel`] overhead already accounts for).
const MUTATION_NOTIFY_PAYLOAD_BYTES: u64 = 12;

/// How the front tier picks a server for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Shard-residency routing: coverage of the request's probe against
    /// each server's owned set, projected load as the tie-break, spill
    /// past the threshold — the fleet-level mirror of the machine
    /// tier's residency router.
    Residency,
    /// Uniform random server choice from a salted seed — the baseline
    /// the head-to-head sweep compares against.
    Random,
}

/// Configuration of the fleet tier around a base [`ServeConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Simulated servers in the fleet.
    pub num_servers: usize,
    /// Front-tier routing policy.
    pub policy: FleetPolicy,
    /// Leading neighbors of each target added to the routing probe
    /// (mirrors [`legion_serve::RouterConfig`]'s probe).
    pub probe_neighbors: usize,
    /// Fraction of a server's total queue capacity
    /// (`queue_capacity * num_gpus`) at which the front tier spills to
    /// the least-loaded server.
    pub spill_threshold: f64,
    /// Per-server drain rate the projected-load model assumes,
    /// requests/s; `None` measures it with
    /// [`legion_serve::estimate_capacity_rps`] on one probe server.
    pub drain_rps: Option<f64>,
    /// Shared-uplink contention ([`legion_hw::UplinkConfig`]): per-NIC
    /// serialization plus ToR oversubscription, applied to every
    /// server's remote waves at fleet concurrency. `None` (the
    /// default) charges each server's waves on an exclusive fabric.
    pub uplink: Option<UplinkConfig>,
    /// Per-owner coalescing of each server's remote waves: dedupe
    /// within the staging window, bucket misses by owning shard, one
    /// batched message per owner per batch. `false` (the default)
    /// charges every remote miss as its own RPC.
    pub coalesce: bool,
    /// Drift-driven replica resizing: feed the front tier's routed
    /// probes into a [`legion_serve::WindowEstimator`], and when the
    /// windowed hot set drifts away from the replicated head
    /// (rank-overlap trigger), re-run the adaptive marginal-gain rule
    /// on the window curve, resize every server's replicated head at
    /// the next bucket boundary (refills charged through the cluster
    /// [`NetModel`]), and re-route through refreshed dispatcher
    /// groups. `false` (the default) keeps the warmup-planned head for
    /// the whole run.
    pub resize_on_drift: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            num_servers: 2,
            policy: FleetPolicy::Residency,
            probe_neighbors: 8,
            spill_threshold: 0.75,
            drain_rps: None,
            uplink: None,
            coalesce: false,
            resize_on_drift: false,
        }
    }
}

impl FleetConfig {
    /// Checks the invariants [`serve_fleet`] relies on.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated
    /// invariant.
    pub fn validate(&self) {
        assert!(self.num_servers > 0, "num_servers must be positive");
        assert!(
            self.spill_threshold > 0.0 && self.spill_threshold <= 1.0,
            "spill_threshold must be in (0, 1]"
        );
        if let Some(d) = self.drain_rps {
            assert!(d > 0.0, "drain_rps must be positive");
        }
        if let Some(up) = self.uplink {
            up.validate();
        }
    }

    /// The cluster network model — a kernel-bypass RDMA fabric at 400 G
    /// line rate ([`NetModel::rdma`]), the class of interconnect
    /// billion-scale GPU clusters deploy — with the uplink contention
    /// term attached (when configured).
    pub fn effective_net(&self) -> NetModel {
        let net = NetModel::rdma();
        match self.uplink {
            Some(up) => net.with_contention(up),
            None => net,
        }
    }
}

/// The fleet's placement: which server owns which vertex.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// `shard[v]` — the server the edge-cut partitioner assigned vertex
    /// `v` to (all zeros for a single-server fleet).
    pub shard: Vec<u32>,
    /// Vertices of each shard, per server.
    pub shard_sizes: Vec<usize>,
    /// The globally hot head replicated to every server, descending
    /// warmup hotness.
    pub replicated: Vec<VertexId>,
    /// Per-server ownership bitmaps (shard ∪ replicated head) — what
    /// [`RemoteConfig`] hands each server's engine.
    pub owned: Vec<Rc<Vec<bool>>>,
}

/// Shards the graph across `fleet.num_servers` servers with the LDG
/// edge-cut partitioner and replicates the warmup-hot head to every
/// server, sized by the adaptive marginal-gain rule. Deterministic: the
/// partitioner is RNG-free and the hotness curve derives from
/// `base.seed`.
pub fn plan_fleet(graph: &CsrGraph, base: &ServeConfig, fleet: &FleetConfig) -> FleetPlan {
    fleet.validate();
    let n = fleet.num_servers;
    let num_vertices = graph.num_vertices();
    let shard = if n > 1 {
        LdgPartitioner::default().partition(graph, n)
    } else {
        vec![0u32; num_vertices]
    };
    let mut shard_sizes = vec![0usize; n];
    for &s in &shard {
        shard_sizes[s as usize] += 1;
    }
    let replicated: Vec<VertexId> = if n > 1 {
        let all: Vec<VertexId> = (0..num_vertices as VertexId).collect();
        let mut warm = TargetSampler::new(all, base.zipf_exponent, 0, 0);
        let (hot, weight) = warmup_hot_vertices_weighted(
            graph,
            &mut warm,
            base.warmup_requests,
            &base.fanouts,
            base.seed,
        );
        // The replication budget is one shard's worth of rows: the head
        // a server replicates displaces shard-tail residency of the
        // same size, which is exactly the trade the adaptive rule
        // prices (`G` = servers instead of cliques).
        let budget = shard_sizes.iter().copied().max().unwrap_or(0);
        let rows = adaptive_replicated_rows(&hot, &weight, budget, n).min(hot.len());
        hot.into_iter().take(rows).collect()
    } else {
        Vec::new()
    };
    let owned: Vec<Rc<Vec<bool>>> = (0..n)
        .map(|s| {
            let mut o: Vec<bool> = shard.iter().map(|&p| p as usize == s).collect();
            for &v in &replicated {
                o[v as usize] = true;
            }
            Rc::new(o)
        })
        .collect();
    FleetPlan {
        shard,
        shard_sizes,
        replicated,
        owned,
    }
}

/// Summary of one fleet run; `metrics` is the fleet-level registry
/// snapshot (per-server routing counters, merged latency histogram,
/// locality), and `per_server` holds each machine's full
/// [`ServeReport`].
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Front-tier routing policy of the run.
    pub policy: FleetPolicy,
    /// Servers in the fleet.
    pub num_servers: usize,
    /// Requests offered by the global workload.
    pub offered: u64,
    /// Requests completed across all servers.
    pub completed: u64,
    /// Requests shed across all servers.
    pub shed: u64,
    /// Cluster-wide latency quantiles (merged histogram), microseconds.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Latest per-server completion, simulated seconds.
    pub makespan_s: f64,
    /// Completed requests per simulated second, cluster-wide.
    pub throughput_rps: f64,
    /// Mean fraction of each routed probe resident on the chosen
    /// server.
    pub locality: f64,
    /// Hot-head rows replicated to every server.
    pub replicated_rows: usize,
    /// Cross-server feature reads, cluster-wide.
    pub remote_reads: u64,
    /// Wire bytes those reads moved.
    pub remote_bytes: u64,
    /// Messages actually put on the wire for those reads: per-owner
    /// batches when coalescing is on, one per row otherwise.
    pub remote_msgs: u64,
    /// Remote fetches absorbed by the coalescing window (rows already
    /// staged by a recent batch), cluster-wide.
    pub dedup_hits: u64,
    /// Drift-driven replica-head resizes the front tier committed.
    pub resizes: u64,
    /// Each server's full single-machine report, in server order.
    pub per_server: Vec<ServeReport>,
    /// Fleet-level telemetry snapshot.
    pub metrics: Snapshot,
}

/// Minimum seals between head resizes (lets a refreshed routing table
/// take effect before the window can trigger again).
const RESIZE_COOLDOWN_SEALS: u32 = 1;

/// Rank-overlap fraction below which the replicated head counts as
/// stale: fewer than this share of the window's hottest vertices still
/// sit in the head. High enough that a head resized off a
/// mid-transition window keeps correcting as the window cleans up,
/// low enough that steady-state rank jitter never triggers.
const RESIZE_MIN_OVERLAP: f64 = 0.7;

/// Drift-driven replica resizing at the front tier.
///
/// The same sliding-window hotness estimator the per-server `Replan`
/// policy uses ([`legion_serve::WindowEstimator`]) is fed the routed
/// probes; when a sealed bucket shows the windowed hot set has drifted
/// away from the replicated head (rank overlap below
/// [`RESIZE_MIN_OVERLAP`]), the head is re-sized with the *same*
/// marginal-gain rule that sized it at plan time
/// ([`adaptive_replicated_rows`]) — but on the live window curve
/// instead of the stale warmup curve. Every server's ownership bitmap
/// is updated, new replicas are refilled over the cluster network
/// (one [`NetModel::wave`] per server at fleet concurrency), and the
/// dispatcher's groups are refreshed so routing follows the new head
/// immediately. Resizes commit only at bucket boundaries — the routing
/// analog of the engine's batch-boundary plan swaps.
struct HeadResizer {
    window: WindowEstimator,
    /// Current replicated head, descending window hotness.
    head: Vec<VertexId>,
    /// `is_replicated[v]` — membership mirror of `head`.
    is_replicated: Vec<bool>,
    budget: usize,
    row_bytes: u64,
    net: NetModel,
    num_servers: usize,
    coalesce: bool,
    cooldown: u32,
    resizes: u64,
    refill_rows: u64,
    refill_bytes: u64,
    refill_s: f64,
}

impl HeadResizer {
    fn new(
        plan: &FleetPlan,
        base: &ServeConfig,
        fleet: &FleetConfig,
        num_vertices: usize,
        row_bytes: u64,
    ) -> Self {
        // Size buckets so the sliding window spans at most half a
        // drift period: a rotation then dominates the window within
        // half a period instead of being diluted by a full period of
        // stale traffic. Non-drifting configs fall back to a small
        // fixed fraction of the stream.
        let bucket = if base.drift_period > 0 {
            (base.drift_period / (2 * base.replan.window_buckets.max(1))).max(32)
        } else {
            (base.num_requests / 64).max(32)
        };
        let mut is_replicated = vec![false; num_vertices];
        for &v in &plan.replicated {
            is_replicated[v as usize] = true;
        }
        Self {
            window: WindowEstimator::new(num_vertices, bucket, base.replan.window_buckets),
            head: plan.replicated.clone(),
            is_replicated,
            budget: plan.shard_sizes.iter().copied().max().unwrap_or(0),
            row_bytes,
            net: fleet.effective_net(),
            num_servers: fleet.num_servers,
            coalesce: fleet.coalesce,
            cooldown: 0,
            resizes: 0,
            refill_rows: 0,
            refill_bytes: 0,
            refill_s: 0.0,
        }
    }

    /// Whether the sealed window has drifted away from the current
    /// head: rank overlap of the window's top-`|head|` vertices against
    /// the head below [`RESIZE_MIN_OVERLAP`]. An empty head goes stale
    /// as soon as the window sees any traffic (the warmup rule may
    /// have had nothing to replicate).
    fn stale(&self) -> bool {
        if self.head.is_empty() {
            return !self.window.top_feature_vertices(1).is_empty();
        }
        let top = self.window.top_feature_vertices(self.head.len());
        if top.is_empty() {
            return false;
        }
        let hits = top
            .iter()
            .filter(|&&v| self.is_replicated[v as usize])
            .count();
        (hits as f64) < RESIZE_MIN_OVERLAP * top.len() as f64
    }

    /// Re-sizes the replicated head from the window curve, updates the
    /// ownership bitmaps, charges the refill, and refreshes the
    /// dispatcher's routing groups. Returns whether anything changed.
    fn resize(
        &mut self,
        shard: &[u32],
        owned: &mut [Rc<Vec<bool>>],
        dispatcher: &mut Dispatcher,
    ) -> bool {
        let weights = self.window.feat();
        let hot = self.window.top_feature_vertices(self.budget);
        let rows =
            adaptive_replicated_rows(&hot, weights, self.budget, self.num_servers).min(hot.len());
        let new_head: Vec<VertexId> = hot.into_iter().take(rows).collect();
        if new_head == self.head {
            return false;
        }
        let mut in_new = vec![false; self.is_replicated.len()];
        for &v in &new_head {
            in_new[v as usize] = true;
        }
        let mut owner_rows = vec![0u64; self.num_servers];
        for (s, owned_s) in owned.iter_mut().enumerate() {
            let o = Rc::make_mut(owned_s);
            // Replicas the new head drops fall back to shard-only
            // ownership; rows the server's own shard holds stay put.
            for &v in &self.head {
                if !in_new[v as usize] && shard[v as usize] as usize != s {
                    o[v as usize] = false;
                }
            }
            // New replicas this server lacks are refilled from their
            // owning shards over the cluster fabric.
            owner_rows.fill(0);
            for &v in &new_head {
                if !o[v as usize] {
                    o[v as usize] = true;
                    owner_rows[shard[v as usize] as usize] += 1;
                }
            }
            let wave = self
                .net
                .wave(&owner_rows, self.row_bytes, self.coalesce, self.num_servers);
            self.refill_rows += owner_rows.iter().sum::<u64>();
            self.refill_bytes += wave.wire_bytes;
            self.refill_s += wave.seconds;
        }
        for &v in &self.head {
            self.is_replicated[v as usize] = false;
        }
        for &v in &new_head {
            self.is_replicated[v as usize] = true;
        }
        self.head = new_head;
        self.resizes += 1;
        // Re-route: every server's owned set changed shape.
        refresh_owned_groups(dispatcher, owned);
        true
    }

    /// Feeds one routed request into the window and commits a resize
    /// at bucket boundaries when the head has gone stale.
    fn observe(
        &mut self,
        probe: &[VertexId],
        covered: usize,
        shard: &[u32],
        owned: &mut [Rc<Vec<bool>>],
        dispatcher: &mut Dispatcher,
    ) {
        for &v in probe {
            self.window.note_feature(v);
        }
        self.window
            .note_batch(1, covered as u64, (probe.len() - covered) as u64, 0);
        if self.window.seal_if_due().is_none() {
            return;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        if self.stale() && self.resize(shard, owned, dispatcher) {
            self.cooldown = RESIZE_COOLDOWN_SEALS;
        }
    }
}

/// Points every single-server group of the front tier's dispatcher at
/// that server's owned set.
fn refresh_owned_groups(dispatcher: &mut Dispatcher, owned: &[Rc<Vec<bool>>]) {
    let mut owned_list = Vec::new();
    for (s, owned_s) in owned.iter().enumerate() {
        owned_list.clear();
        owned_list.extend(
            owned_s
                .iter()
                .enumerate()
                .filter(|&(_, &o)| o)
                .map(|(v, _)| v as VertexId),
        );
        dispatcher.refresh_group(s, &owned_list);
    }
}

/// What the front tier decided for one global stream: each server's
/// slice, the routing tallies, and the ownership maps as the last head
/// resize left them (what the members' engines receive).
struct FrontTier {
    streams: Vec<Vec<Request>>,
    routed: Vec<u64>,
    spilled: Vec<u64>,
    locality: f64,
    owned: Vec<Rc<Vec<bool>>>,
    resizer: Option<HeadResizer>,
}

/// Front tier: a Dispatcher over single-server groups, scored on each
/// server's owned set. Projected load is analytic — a server's backlog
/// is what the front tier sent it minus what a server draining at
/// `drain_rps` since time zero could have retired — because the fleet
/// router cannot see inside remote machines' queues, only its own
/// bookkeeping.
fn route_front_tier(
    graph: &CsrGraph,
    features: &FeatureTable,
    spec: &ServerSpec,
    base: &ServeConfig,
    fleet: &FleetConfig,
    plan: &FleetPlan,
    requests: &[Request],
) -> FrontTier {
    let n = fleet.num_servers;
    let server_backlog = base.queue_capacity * spec.num_gpus;
    let spill_len = (fleet.spill_threshold * server_backlog as f64).ceil() as usize;
    let groups: Vec<Vec<usize>> = (0..n).map(|s| vec![s]).collect();
    let mut dispatcher = Dispatcher::new(groups, graph.num_vertices(), spill_len);
    // Ownership bitmaps start as the plan's; drift-driven resizing
    // mutates this copy at bucket boundaries.
    let mut owned: Vec<Rc<Vec<bool>>> = plan.owned.clone();
    refresh_owned_groups(&mut dispatcher, &owned);
    let drain = fleet
        .drain_rps
        .unwrap_or_else(|| estimate_capacity_rps(graph, features, &spec.build(), base));
    let (num_vertices, row_bytes) = (graph.num_vertices(), features.row_bytes());
    let mut resizer = (fleet.resize_on_drift && n > 1)
        .then(|| HeadResizer::new(plan, base, fleet, num_vertices, row_bytes));

    let mut routed = vec![0u64; n];
    let mut spilled = vec![0u64; n];
    let mut assigned = vec![0u64; n];
    let mut depths = vec![0usize; n];
    let mut streams: Vec<Vec<Request>> = vec![Vec::new(); n];
    let mut probe: Vec<VertexId> = Vec::new();
    let mut covered = 0u64;
    let mut probed = 0u64;
    let mut random_rng = StdRng::seed_from_u64(base.seed ^ RANDOM_ROUTE_SALT);
    for r in requests {
        fill_probe(graph, r.target, fleet.probe_neighbors, &mut probe);
        let s = match fleet.policy {
            FleetPolicy::Residency => {
                let could_drain = (r.arrival * drain) as u64;
                for (d, &a) in depths.iter_mut().zip(&assigned) {
                    *d = a.saturating_sub(could_drain) as usize;
                }
                let dec = dispatcher.route(&probe, &depths);
                if dec.spilled {
                    spilled[dec.gpu] += 1;
                } else {
                    routed[dec.gpu] += 1;
                }
                dec.gpu
            }
            FleetPolicy::Random => {
                let s = random_rng.gen_range(0..n);
                routed[s] += 1;
                s
            }
        };
        let score = dispatcher.score(s, &probe);
        covered += score as u64;
        probed += probe.len() as u64;
        assigned[s] += 1;
        streams[s].push(*r);
        if let Some(rz) = resizer.as_mut() {
            rz.observe(&probe, score, &plan.shard, &mut owned, &mut dispatcher);
        }
    }
    let locality = if probed > 0 {
        covered as f64 / probed as f64
    } else {
        1.0
    };
    FrontTier {
        streams,
        routed,
        spilled,
        locality,
        owned,
        resizer,
    }
}

/// Runs each server's full single-machine engine over its slice: one
/// [`plan_deployment`] for the fleet (members share `config` and the
/// server shape), one run per member with that member's ownership map
/// as its remote tier. A single-server fleet gets no remote tier: every
/// row is local, the engine is the non-fleet engine byte-for-byte.
fn serve_members(
    graph: &CsrGraph,
    features: &FeatureTable,
    spec: &ServerSpec,
    config: &ServeConfig,
    fleet: &FleetConfig,
    plan: &FleetPlan,
    front: &FrontTier,
) -> Vec<ServeReport> {
    let n = fleet.num_servers;
    let deployment = plan_deployment(graph, features, &spec.build(), config);
    let net = fleet.effective_net();
    let shard = fleet.coalesce.then(|| Rc::new(plan.shard.clone()));
    (0..n)
        .map(|s| {
            let remote = (n > 1).then(|| RemoteConfig {
                owned: Rc::clone(&front.owned[s]),
                net,
                num_servers: n,
                shard: shard.clone(),
            });
            deployment.serve(&spec.build(), &front.streams[s], remote.as_ref())
        })
        .collect()
}

/// Runs the full fleet simulation: plan placement, generate the global
/// workload from `base.seed` (byte-identical to
/// [`legion_serve::serve`]'s stream), route every request through the
/// front tier, run each server's engine over its slice, and merge the
/// results.
///
/// Each server is built fresh from `spec`. A single-server fleet skips
/// the remote tier entirely, so its one [`ServeReport`] is
/// byte-identical to `legion_serve::serve` on the same config.
///
/// # Panics
///
/// Panics if `base` or `fleet` is invalid.
pub fn serve_fleet(
    graph: &CsrGraph,
    features: &FeatureTable,
    spec: &ServerSpec,
    base: &ServeConfig,
    fleet: &FleetConfig,
) -> FleetReport {
    base.validate();
    fleet.validate();
    let plan = plan_fleet(graph, base, fleet);
    let requests = generate_requests(graph, base);

    // Streaming mutations under the fleet: topology is replicated on
    // every server (only features are sharded), so the global stream is
    // resolved ONCE — from the base seed and the global horizon — and
    // every engine replays the identical log. The shard owner of each
    // mutated vertex applies the op authoritatively and notifies the
    // other `n - 1` servers; that fan-out is charged to the fabric
    // in the roll-up as fixed-size control messages.
    let mutations = base.mutations.as_ref().map(|src| {
        let horizon = requests.last().map(|r| r.arrival).unwrap_or(0.0);
        src.resolve(graph, base.seed, horizon)
    });
    let replayed = mutations
        .as_ref()
        .map(|(log, compact_threshold)| ServeConfig {
            mutations: Some(MutationSource::Replay {
                log: Rc::clone(log),
                compact_threshold: *compact_threshold,
            }),
            ..base.clone()
        });
    let member_config = replayed.as_ref().unwrap_or(base);

    let front = route_front_tier(graph, features, spec, base, fleet, &plan, &requests);
    let reports = serve_members(graph, features, spec, member_config, fleet, &plan, &front);
    let log = mutations.as_ref().map(|(log, _)| &**log);
    let report = roll_up(fleet, &plan, requests.len() as u64, &front, reports, log);
    invariants::check_fleet(&report.metrics, &report.per_server);
    report
}

/// Fleet registry: routing outcomes, per-server summaries, and the
/// merged latency histogram. Counters and histogram buckets are
/// integers; every gauge is written exactly once.
fn roll_up(
    fleet: &FleetConfig,
    plan: &FleetPlan,
    offered: u64,
    front: &FrontTier,
    reports: Vec<ServeReport>,
    mutation_log: Option<&MutationLog>,
) -> FleetReport {
    let n = fleet.num_servers;
    let registry = Registry::new();
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut remote_reads = 0u64;
    let mut remote_bytes = 0u64;
    let mut coalesced_msgs = 0u64;
    let mut dedup_hits = 0u64;
    let mut makespan = 0.0f64;
    let merged = registry.histogram("fleet.latency_us", &latency_buckets());
    for (s, report) in reports.iter().enumerate() {
        completed += report.completed;
        shed += report.shed;
        makespan = makespan.max(report.makespan_s);
        let reads = report.metrics.counter("serve.remote.reads");
        let bytes = report.metrics.counter("serve.remote.bytes");
        remote_reads += reads;
        remote_bytes += bytes;
        coalesced_msgs += report.metrics.counter("serve.remote.coalesced_msgs");
        dedup_hits += report.metrics.counter("serve.remote.dedup_hits");
        let server = |what: &str| registry.counter(&format!("fleet.server{s}.{what}"));
        server("routed").add(front.routed[s]);
        server("spilled").add(front.spilled[s]);
        server("shed").add(report.shed);
        server("remote_reads").add(reads);
        server("remote_bytes").add(bytes);
        registry
            .counter(&format!("fleet.shard{s}.vertices"))
            .add(plan.shard_sizes[s] as u64);
        registry
            .gauge(&format!("fleet.server{s}.hit_rate"))
            .set(report.feature_hit_rate());
        if let Some(h) = report.metrics.histogram("serve.latency_us") {
            merged.merge_counts(&h.counts, h.sum);
        }
    }
    registry.counter("fleet.offered").add(offered);
    registry.counter("fleet.completed").add(completed);
    registry.counter("fleet.shed").add(shed);
    registry
        .counter("fleet.replicated_rows")
        .add(plan.replicated.len() as u64);
    // Contention, coalescing, and resize telemetry register only when
    // the corresponding feature is on, so defaults-off snapshots stay
    // byte-identical to earlier releases.
    if let Some(up) = fleet.uplink {
        registry.gauge("fleet.uplink.servers").set(n as f64);
        registry
            .gauge("fleet.uplink.oversubscription")
            .set(up.oversubscription);
        registry
            .gauge("fleet.uplink.nic_serialization")
            .set(up.nic_serialization);
        registry.gauge("fleet.uplink.stretch").set(up.stretch(n));
    }
    if fleet.coalesce && n > 1 {
        registry
            .counter("fleet.uplink.coalesced_msgs")
            .add(coalesced_msgs);
        registry.counter("fleet.uplink.dedup_hits").add(dedup_hits);
    }
    // Mutation fan-out: each op is applied by its shard owner and
    // broadcast to the other servers as a fixed-size control message
    // charged through the fabric model. Registered only when churn is
    // on, so frozen-fleet snapshots keep their exact name set.
    if let Some(log) = mutation_log {
        let applied = log.ops.len() as u64;
        let mut owned_ops = vec![0u64; n];
        for m in &log.ops {
            owned_ops[plan.shard[m.op.vertex() as usize] as usize] += 1;
        }
        let notify_msgs = applied * (n as u64 - 1);
        let notify_bytes = notify_msgs
            * fleet
                .effective_net()
                .bytes_for_payload(MUTATION_NOTIFY_PAYLOAD_BYTES);
        registry.counter("fleet.mut.applied").add(applied);
        registry.counter("fleet.mut.notify_msgs").add(notify_msgs);
        registry.counter("fleet.mut.notify_bytes").add(notify_bytes);
        for (s, count) in owned_ops.iter().enumerate() {
            registry
                .counter(&format!("fleet.server{s}.mut_owned"))
                .add(*count);
        }
    }
    if let Some(rz) = &front.resizer {
        registry.counter("fleet.resize.count").add(rz.resizes);
        registry
            .counter("fleet.resize.refill_rows")
            .add(rz.refill_rows);
        registry
            .counter("fleet.resize.refill_bytes")
            .add(rz.refill_bytes);
        registry
            .counter("fleet.resize.refill_us")
            .add((rz.refill_s * 1e6).round() as u64);
        registry
            .gauge("fleet.resize.head_rows")
            .set(rz.head.len() as f64);
    }
    let throughput = if makespan > 0.0 {
        completed as f64 / makespan
    } else {
        0.0
    };
    registry.gauge("fleet.locality").set(front.locality);
    for (name, q) in [("p50_us", 0.50), ("p95_us", 0.95), ("p99_us", 0.99)] {
        let gauge = registry.gauge(&format!("fleet.{name}"));
        gauge.set(merged.quantile(q) as f64);
    }
    registry.gauge("fleet.makespan_s").set(makespan);
    registry.gauge("fleet.throughput_rps").set(throughput);

    FleetReport {
        policy: fleet.policy,
        num_servers: n,
        offered,
        completed,
        shed,
        p50_us: merged.quantile(0.50),
        p95_us: merged.quantile(0.95),
        p99_us: merged.quantile(0.99),
        makespan_s: makespan,
        throughput_rps: throughput,
        locality: front.locality,
        replicated_rows: plan.replicated.len(),
        remote_reads,
        remote_bytes,
        remote_msgs: if fleet.coalesce && n > 1 {
            coalesced_msgs
        } else {
            remote_reads
        },
        dedup_hits,
        resizes: front.resizer.as_ref().map_or(0, |rz| rz.resizes),
        per_server: reports,
        metrics: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::GraphBuilder;
    use legion_serve::{ArrivalProcess, PolicyKind};

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

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            arrival: ArrivalProcess::Poisson { rate: 20_000.0 },
            num_requests: 400,
            max_batch: 8,
            max_wait: 5e-4,
            queue_capacity: 64,
            cache_rows_per_gpu: 32,
            warmup_requests: 64,
            fanouts: vec![3, 2],
            policy: PolicyKind::Fifo,
            ..ServeConfig::default()
        }
    }

    fn tiny_fleet(n: usize) -> FleetConfig {
        FleetConfig {
            num_servers: n,
            drain_rps: Some(5_000.0),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn plan_reuses_the_edge_cut_partitioner_verbatim() {
        let (g, _) = tiny_graph();
        let plan = plan_fleet(&g, &tiny_config(), &tiny_fleet(3));
        let direct = LdgPartitioner::default().partition(&g, 3);
        assert_eq!(plan.shard, direct);
        // LDG keeps the shards balanced: no server owns more than twice
        // the mean shard.
        let mean = plan.shard.len() / 3;
        for (s, &size) in plan.shard_sizes.iter().enumerate() {
            assert!(
                size <= 2 * mean,
                "shard {s} unbalanced: {size} vs mean {mean}"
            );
        }
        // And it is stable across calls.
        let again = plan_fleet(&g, &tiny_config(), &tiny_fleet(3));
        assert_eq!(plan.shard, again.shard);
        assert_eq!(plan.replicated, again.replicated);
    }

    #[test]
    fn ownership_covers_shard_and_replicated_head() {
        let (g, _) = tiny_graph();
        let plan = plan_fleet(&g, &tiny_config(), &tiny_fleet(4));
        for v in 0..g.num_vertices() {
            let owner = plan.shard[v] as usize;
            assert!(plan.owned[owner][v], "shard owner must own its vertex");
        }
        for &v in &plan.replicated {
            for o in &plan.owned {
                assert!(o[v as usize], "replicated head must be owned everywhere");
            }
        }
        let sizes: usize = plan.shard_sizes.iter().sum();
        assert_eq!(sizes, g.num_vertices());
    }

    /// A churn-enabled fleet replays one global log on every server
    /// (identical overlay state cluster-wide) and charges the
    /// notification fan-out through the fabric model.
    #[test]
    fn churn_fleet_replays_one_log_and_meters_the_notify_fanout() {
        let (g, f) = tiny_graph();
        let spec = legion_hw::ServerSpec::custom(2, 1 << 30, 1);
        let mut config = tiny_config();
        config.mutations = Some(MutationSource::Generate(legion_serve::ChurnConfig {
            ops_per_sec: 100_000.0,
            ..legion_serve::ChurnConfig::default()
        }));
        let report = serve_fleet(&g, &f, &spec, &config, &tiny_fleet(2));
        let applied = report.metrics.counter("fleet.mut.applied");
        assert!(applied > 0, "churn must stream mutations into the fleet");
        assert!(report.metrics.counter("fleet.mut.notify_bytes") > 0);
        // Every server replayed the same global log: identical applied
        // op totals in each per-server snapshot.
        let per_applied: Vec<u64> = report
            .per_server
            .iter()
            .map(|r| {
                r.metrics.counter("graph.mut.inserts") + r.metrics.counter("graph.mut.deletes")
            })
            .collect();
        assert!(per_applied[0] > 0);
        assert!(
            per_applied.iter().all(|&a| a == per_applied[0]),
            "replicated replay must apply the same ops everywhere"
        );
    }

    #[test]
    fn residency_routing_is_more_local_than_random() {
        let (g, f) = tiny_graph();
        let spec = legion_hw::ServerSpec::custom(2, 1 << 30, 1);
        let config = tiny_config();
        let res = serve_fleet(&g, &f, &spec, &config, &tiny_fleet(4));
        let rand = serve_fleet(
            &g,
            &f,
            &spec,
            &config,
            &FleetConfig {
                policy: FleetPolicy::Random,
                ..tiny_fleet(4)
            },
        );
        assert!(
            res.locality > rand.locality,
            "residency locality {} must beat random {}",
            res.locality,
            rand.locality
        );
        assert!(
            res.remote_reads < rand.remote_reads,
            "residency remote reads {} must undercut random {}",
            res.remote_reads,
            rand.remote_reads
        );
        assert!(rand.remote_reads > 0, "random routing must go remote");
    }

    #[test]
    fn coalescing_cuts_messages_and_bytes_but_not_reads() {
        let (g, f) = tiny_graph();
        let spec = legion_hw::ServerSpec::custom(2, 1 << 30, 1);
        let config = tiny_config();
        // Random routing maximizes remote traffic, giving coalescing
        // the most to chew on.
        let base_fleet = FleetConfig {
            policy: FleetPolicy::Random,
            ..tiny_fleet(3)
        };
        let off = serve_fleet(&g, &f, &spec, &config, &base_fleet);
        let on = serve_fleet(
            &g,
            &f,
            &spec,
            &config,
            &FleetConfig {
                coalesce: true,
                ..base_fleet
            },
        );
        assert!(off.remote_reads > 0, "random routing must go remote");
        assert_eq!(
            off.remote_msgs, off.remote_reads,
            "uncoalesced wire messages are one per row"
        );
        assert!(
            on.remote_msgs < on.remote_reads,
            "coalescing must batch rows into fewer messages ({} vs {} reads)",
            on.remote_msgs,
            on.remote_reads
        );
        assert!(
            on.remote_bytes < off.remote_bytes,
            "per-owner batches must shed per-message overhead ({} vs {})",
            on.remote_bytes,
            off.remote_bytes
        );
        assert!(
            on.dedup_hits > 0,
            "the staging window must absorb repeated rows"
        );
        assert_eq!(
            on.metrics.counter("fleet.uplink.coalesced_msgs"),
            on.remote_msgs
        );
        assert_eq!(
            off.metrics.counter("fleet.uplink.coalesced_msgs"),
            0,
            "coalescing metrics must not register when the feature is off"
        );
    }

    #[test]
    fn uplink_contention_slows_the_fleet_and_registers_gauges() {
        let (g, f) = tiny_graph();
        let spec = legion_hw::ServerSpec::custom(2, 1 << 30, 1);
        let config = tiny_config();
        let base_fleet = FleetConfig {
            policy: FleetPolicy::Random,
            ..tiny_fleet(3)
        };
        let calm = serve_fleet(&g, &f, &spec, &config, &base_fleet);
        let uplink = UplinkConfig {
            oversubscription: 8.0,
            nic_serialization: 0.5,
        };
        let contended = serve_fleet(
            &g,
            &f,
            &spec,
            &config,
            &FleetConfig {
                uplink: Some(uplink),
                ..base_fleet
            },
        );
        assert!(
            contended.makespan_s >= calm.makespan_s,
            "a contended uplink cannot finish earlier ({} vs {})",
            contended.makespan_s,
            calm.makespan_s
        );
        assert_eq!(
            contended.metrics.gauge("fleet.uplink.stretch"),
            uplink.stretch(3)
        );
        let json = serde_json::to_string(&calm.metrics).unwrap();
        assert!(
            !json.contains("fleet.uplink"),
            "uplink gauges must not register when contention is off"
        );
    }

    #[test]
    fn drift_resize_commits_and_recovers_locality() {
        let (g, f) = tiny_graph();
        let spec = legion_hw::ServerSpec::custom(2, 1 << 30, 1);
        // A hard mid-stream rotation: the warmup head goes cold at
        // request 600.
        let config = ServeConfig {
            num_requests: 1200,
            drift_period: 600,
            drift_stride: 96,
            ..tiny_config()
        };
        let frozen = serve_fleet(&g, &f, &spec, &config, &tiny_fleet(3));
        let resized = serve_fleet(
            &g,
            &f,
            &spec,
            &config,
            &FleetConfig {
                resize_on_drift: true,
                ..tiny_fleet(3)
            },
        );
        assert!(resized.resizes >= 1, "the rotation must trigger a resize");
        // At this toy scale (weak Zipf over 256 vertices) replication
        // barely moves locality either way; the realistic-scale
        // recovery claim lives in servectl's drift scenario. Here we
        // pin that tracking the window never costs more than a point.
        assert!(
            resized.locality >= frozen.locality - 0.01,
            "a resized head must stay within a point of a frozen one ({} vs {})",
            resized.locality,
            frozen.locality
        );
        assert_eq!(
            resized.metrics.counter("fleet.resize.count"),
            resized.resizes
        );
        assert!(
            resized.metrics.counter("fleet.resize.refill_rows") > 0,
            "growing the head must refill replicas over the wire"
        );
        let json = serde_json::to_string(&frozen.metrics).unwrap();
        assert!(
            !json.contains("fleet.resize"),
            "resize counters must not register when the feature is off"
        );
    }

    #[test]
    #[should_panic(expected = "num_servers must be positive")]
    fn zero_servers_invalid() {
        FleetConfig {
            num_servers: 0,
            ..FleetConfig::default()
        }
        .validate();
    }
}
