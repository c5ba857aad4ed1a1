//! Online cache re-planning: the §4.2/§4.3 planner closed into a loop.
//!
//! Legion plans its unified cache once, offline, from pre-sampled
//! hotness. Under serving drift that plan decays (PR 2's experiment), so
//! this module re-runs the same planning machinery — CSLP ordering plus
//! the `(B, α)` cost-model sweep — over a *sliding window* of observed
//! accesses, and swaps the produced plan in without ever exposing a
//! half-updated cache:
//!
//! * [`WindowEstimator`] — a ring of epoch-style buckets; each bucket
//!   holds its own sparse per-vertex deltas so retiring it subtracts
//!   exactly what it added from the aggregate hotness rows (the
//!   window's one-GPU `H_T` / `H_F`) and the windowed `N_TSUM`;
//! * the drift detector — an EWMA of per-bucket hit rates
//!   ([`EWMA_ALPHA`]) dropping more than [`EWMA_DROP`] below the best
//!   level seen since the last swap;
//! * [`plan_layout`] — CSLP + [`CostModel::best_plan`] over the window,
//!   materialized as a single-GPU [`CliqueCache`] holding both topology
//!   and feature entries (the serving analogue of Algorithm 1's output).
//!   Planning reads only the window's *support* (the vertices with
//!   non-zero hotness, which the live buckets already list), so a
//!   re-plan costs what the window holds, not what the graph holds;
//! * [`PlanBuffer`] — a versioned double buffer: a staged plan becomes
//!   visible only at a batch boundary via [`PlanBuffer::commit`], so
//!   every request is served entirely against one plan version;
//! * [`ReplanState`] — the per-GPU controller gluing the above together
//!   for the engine loop.
//!
//! The swap is not free: the engine charges the refill (rows and
//! adjacency lists absent from the previous plan) to the PCIe meters as
//! real CPU→GPU traffic and adds the transfer time to the committing
//! batch's service time.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_cache::{place_prefix, sort_by_hotness, CliqueCache, CostModel, PlanEvaluation};
use legion_graph::{CsrGraph, FeatureTable, VertexId};
use legion_hw::GpuId;
use legion_sampling::access::{sample_from_into, topology_read_tx, CacheLayout, FloydSet};

use crate::workload::TargetSampler;

/// Smoothing factor of the drift detector's EWMA over per-bucket
/// feature hit rates (1 = last bucket only).
pub const EWMA_ALPHA: f64 = 0.5;

/// Hit-rate drop, in absolute points below the best EWMA seen since the
/// last swap, that trips the drift detector (0.08 = 8 points).
pub const EWMA_DROP: f64 = 0.08;

/// How far below the all-time-high hit-rate watermark the rate may sit
/// and still count as recovered (0.05 = within 5 points). The
/// watermark — unlike the drop-detection reference — never resets, so
/// the recovery bar cannot erode across successive episodes.
const RECOVER_MARGIN: f64 = 0.05;

/// Knobs of the re-planning loop; see module docs for the moving parts.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanConfig {
    /// Requests per window bucket (the window's time resolution).
    pub bucket_requests: usize,
    /// Buckets the sliding window retains; older buckets retire.
    pub window_buckets: usize,
    /// Sealed buckets that must pass after a swap before the detector
    /// may stage another plan (limits churn while a swap takes effect).
    pub cooldown_buckets: usize,
    /// `Δα` of serving's cost-model sweep: every planned serving cache
    /// (StaticHot's plan, Replan's initial plan and its re-plans, the
    /// store's tier split) picks its α on this grid. Coarser than the
    /// offline default 0.01 — re-planning runs on the serving path.
    pub delta_alpha: f64,
    /// Re-plans allowed per drift episode (the detection-time plan plus
    /// refinements from fresher windows). When the cap is hit without
    /// the hit rate reaching the recovery target, the episode closes and
    /// the detector re-baselines on the plan it has — the target may
    /// simply be unreachable under the new skew.
    pub max_episode_replans: usize,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        Self {
            bucket_requests: 16,
            window_buckets: 4,
            cooldown_buckets: 1,
            delta_alpha: 0.05,
            max_episode_replans: 4,
        }
    }
}

impl ReplanConfig {
    /// Checks the invariants [`ReplanState`] relies on.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated invariant.
    pub fn validate(&self) {
        assert!(self.bucket_requests > 0, "bucket_requests must be positive");
        assert!(self.window_buckets > 0, "window_buckets must be positive");
        assert!(
            self.delta_alpha > 0.0 && self.delta_alpha <= 1.0,
            "delta_alpha must be in (0, 1]"
        );
        assert!(
            self.max_episode_replans > 0,
            "max_episode_replans must be positive"
        );
    }
}

/// One bucket of the sliding window: sparse per-vertex deltas plus the
/// bucket's own traffic/hit tallies, kept so retirement can subtract
/// exactly this bucket's contribution from the window aggregates.
#[derive(Debug, Default)]
struct Bucket {
    topo: HashMap<VertexId, u64>,
    feat: HashMap<VertexId, u64>,
    topo_tx: u64,
    hits: u64,
    misses: u64,
    requests: usize,
}

/// Per-bucket hit statistics returned when a bucket seals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketStats {
    /// Feature hit rate of the sealed bucket alone.
    pub hit_rate: f64,
}

/// Sliding-window access-frequency estimator: the serving-time stand-in
/// for pre-sampling's `H_T` / `H_F` / `N_TSUM` triple (§4.2.2), windowed
/// so old skew ages out instead of diluting the estimate forever.
#[derive(Debug)]
pub struct WindowEstimator {
    bucket_requests: usize,
    window_buckets: usize,
    /// Aggregate windowed `H_T`: this GPU's row, indexed by vertex.
    topo: Vec<u64>,
    /// Aggregate windowed `H_F`.
    feat: Vec<u64>,
    /// Windowed `N_TSUM`: topology PCIe transactions in the window.
    n_tsum: u64,
    hits: u64,
    misses: u64,
    ring: VecDeque<Bucket>,
    current: Bucket,
}

impl WindowEstimator {
    /// An empty window over a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize, bucket_requests: usize, window_buckets: usize) -> Self {
        assert!(bucket_requests > 0, "bucket_requests must be positive");
        assert!(window_buckets > 0, "window_buckets must be positive");
        Self {
            bucket_requests,
            window_buckets,
            topo: vec![0; num_vertices],
            feat: vec![0; num_vertices],
            n_tsum: 0,
            hits: 0,
            misses: 0,
            ring: VecDeque::new(),
            current: Bucket::default(),
        }
    }

    /// Records `edges > 0` traversed edges whose source is `v` (the `H_T`
    /// rule: "whenever an edge is traversed ... the hotness of its source
    /// vertex is incremented by 1"). A vertex has a key in the window
    /// exactly when its hotness is non-zero, so nothing records zero.
    pub fn note_edge(&mut self, v: VertexId, edges: u64) {
        debug_assert!(edges > 0, "a zero count would list {v} with no hotness");
        self.topo[v as usize] += edges;
        *self.current.topo.entry(v).or_insert(0) += edges;
    }

    /// Records one vertex appearing in a batch's sample results (the
    /// `H_F` rule).
    pub fn note_feature(&mut self, v: VertexId) {
        self.feat[v as usize] += 1;
        *self.current.feat.entry(v).or_insert(0) += 1;
    }

    /// Records a completed batch's request count, feature hit/miss deltas
    /// and topology PCIe transactions.
    pub fn note_batch(&mut self, requests: usize, hits: u64, misses: u64, topo_tx: u64) {
        self.current.requests += requests;
        self.current.hits += hits;
        self.current.misses += misses;
        self.current.topo_tx += topo_tx;
        self.n_tsum += topo_tx;
        self.hits += hits;
        self.misses += misses;
    }

    /// Seals the current bucket if it has accumulated `bucket_requests`
    /// requests, retiring the oldest bucket when the ring is full.
    pub fn seal_if_due(&mut self) -> Option<BucketStats> {
        if self.current.requests < self.bucket_requests {
            return None;
        }
        let sealed = std::mem::take(&mut self.current);
        let served = sealed.hits + sealed.misses;
        let hit_rate = if served == 0 {
            0.0
        } else {
            sealed.hits as f64 / served as f64
        };
        self.ring.push_back(sealed);
        if self.ring.len() > self.window_buckets {
            let old = self.ring.pop_front().expect("ring non-empty");
            for (row, deltas) in [(&mut self.topo, &old.topo), (&mut self.feat, &old.feat)] {
                for (&v, &c) in deltas {
                    let cell = &mut row[v as usize];
                    *cell = cell
                        .checked_sub(c)
                        .expect("hotness underflow: bucket retired more than it added");
                }
            }
            self.n_tsum -= old.topo_tx;
            self.hits -= old.hits;
            self.misses -= old.misses;
        }
        Some(BucketStats { hit_rate })
    }

    /// The windowed feature hotness row, indexed by vertex.
    pub fn feat(&self) -> &[u64] {
        &self.feat
    }

    /// The windowed `N_TSUM` (topology transactions over live buckets
    /// plus the still-open bucket).
    pub fn n_tsum(&self) -> u64 {
        self.n_tsum
    }

    /// Feature hit rate over the whole window (live buckets plus the
    /// still-open one); 0 when nothing was served yet.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.misses;
        if served == 0 {
            0.0
        } else {
            self.hits as f64 / served as f64
        }
    }

    /// The window's `top_k` hottest feature vertices (ties break toward
    /// the smaller vertex id), used by the fleet's head-resize check.
    pub fn top_feature_vertices(&self, top_k: usize) -> Vec<VertexId> {
        let mut hot = self.ranked_feat().order;
        hot.truncate(top_k);
        hot
    }

    /// One windowed hotness row ranked over its support. A vertex has
    /// non-zero windowed hotness exactly when a live bucket (or the open
    /// one) holds a delta for it, so the buckets' keys list the support
    /// without a pass over the `|V|`-sized row.
    fn ranked<'a>(
        &'a self,
        row: &'a [u64],
        deltas: impl Fn(&Bucket) -> &HashMap<VertexId, u64>,
    ) -> Ranked<'a> {
        let listed = self
            .ring
            .iter()
            .chain(std::iter::once(&self.current))
            .flat_map(|b| deltas(b).keys().copied())
            .collect();
        Ranked::new(row, listed)
    }

    fn ranked_topo(&self) -> Ranked<'_> {
        self.ranked(&self.topo, |b| &b.topo)
    }

    fn ranked_feat(&self) -> Ranked<'_> {
        self.ranked(&self.feat, |b| &b.feat)
    }
}

/// One GPU's hotness row with its non-zero support in cache-priority
/// order: descending hotness, ties toward the smaller vertex id. This is
/// CSLP's clique order for a one-GPU clique, cut where the hotness
/// reaches zero — the part of the order a plan can ever cache.
struct Ranked<'a> {
    hot: &'a [u64],
    order: Vec<VertexId>,
}

impl<'a> Ranked<'a> {
    /// Ranks `listed`: every vertex with non-zero `hot`, in any order,
    /// repeats allowed.
    fn new(hot: &'a [u64], mut listed: Vec<VertexId>) -> Self {
        sort_by_hotness(&mut listed, hot);
        listed.dedup();
        Self { hot, order: listed }
    }

    /// The order and its hotness row, as [`cost_model`] takes them.
    fn rows(&self) -> (&[VertexId], &[u64]) {
        (&self.order, self.hot)
    }

    /// Finds the support by scanning the row.
    fn scan(hot: &'a [u64]) -> Self {
        let listed = (0..hot.len() as VertexId)
            .filter(|&v| hot[v as usize] > 0)
            .collect();
        Self::new(hot, listed)
    }
}

/// What one re-planned cache holds, recorded so a later swap can compute
/// its refill delta and memory footprint without walking the cache maps.
#[derive(Debug, Clone)]
pub struct PlanContents {
    /// Vertices with cached topology, ascending.
    pub topo: Vec<VertexId>,
    /// Vertices with cached feature rows, ascending.
    pub feat: Vec<VertexId>,
    /// Equation 3 bytes of the cached topology.
    pub topo_bytes: u64,
    /// Equation 6 bytes of the cached feature rows.
    pub feat_bytes: u64,
}

impl PlanContents {
    /// Total cache footprint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.topo_bytes + self.feat_bytes
    }
}

/// One materialized cache plan: the layout the access engine serves
/// from, its contents summary, and the cost model's prediction for it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Cache layout (a single-GPU clique at the owning GPU's slot).
    pub layout: CacheLayout,
    /// What the plan caches.
    pub contents: PlanContents,
    /// The `(B, α)` evaluation that chose this plan.
    pub evaluation: PlanEvaluation,
}

/// The refill work a committed swap implies: entries the new plan holds
/// that the old one did not, plus the footprint change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapDelta {
    /// Topology vertices to fetch fresh from CPU memory, ascending.
    pub new_topo: Vec<VertexId>,
    /// Feature vertices to fetch fresh from CPU memory, ascending.
    pub new_feat: Vec<VertexId>,
    /// Footprint of the retired plan.
    pub old_bytes: u64,
    /// Footprint of the now-active plan.
    pub new_bytes: u64,
}

/// Versioned double-buffered plan holder. [`stage`](Self::stage) parks a
/// new plan without touching the active one; [`commit`](Self::commit)
/// swaps atomically and bumps the version. The engine commits only at
/// batch boundaries, so no request ever observes a mixed old/new view.
#[derive(Debug)]
pub struct PlanBuffer {
    version: u64,
    active: Plan,
    staged: Option<Plan>,
}

impl PlanBuffer {
    /// A buffer whose active plan is `initial` (version 0, nothing
    /// staged).
    pub fn new(initial: Plan) -> Self {
        Self {
            version: 0,
            active: initial,
            staged: None,
        }
    }

    /// Monotone plan version; bumped by every [`commit`](Self::commit).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The plan requests are currently served against.
    pub fn active(&self) -> &Plan {
        &self.active
    }

    /// The active plan's cache layout.
    pub fn active_layout(&self) -> &CacheLayout {
        &self.active.layout
    }

    /// Whether a staged plan awaits the next batch boundary.
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Parks `plan` for the next commit; replaces any prior staged plan.
    pub fn stage(&mut self, plan: Plan) {
        self.staged = Some(plan);
    }

    /// Promotes the staged plan (if any) to active, returning the refill
    /// delta the caller must charge to the interconnect meters.
    pub fn commit(&mut self) -> Option<SwapDelta> {
        let staged = self.staged.take()?;
        let delta = SwapDelta {
            new_topo: sorted_difference(&staged.contents.topo, &self.active.contents.topo),
            new_feat: sorted_difference(&staged.contents.feat, &self.active.contents.feat),
            old_bytes: self.active.contents.total_bytes(),
            new_bytes: staged.contents.total_bytes(),
        };
        self.active = staged;
        self.version += 1;
        Some(delta)
    }
}

/// Elements of sorted `a` absent from sorted `b` (two-pointer merge).
fn sorted_difference(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for &v in a {
        while j < b.len() && b[j] < v {
            j += 1;
        }
        if j >= b.len() || b[j] != v {
            out.push(v);
        }
    }
    out
}

/// Runs the planning pass over one GPU's hotness rows (indexed by
/// vertex, e.g. a [`WarmupProfile`]'s): CSLP orders the candidates
/// (Algorithm 1 with a one-GPU "clique"), the cost model sweeps `α`
/// (§4.3.3), and the winning `(B, α)` prefix of each order is
/// materialized into a fresh [`CliqueCache`] holding topology *and*
/// feature entries. Zero-hotness vertices are never candidates, so they
/// are never cached even when the budget would admit them.
#[allow(clippy::too_many_arguments)]
pub fn plan_layout(
    gpu: GpuId,
    num_gpus: usize,
    graph: &CsrGraph,
    features: &FeatureTable,
    topo: &[u64],
    feat: &[u64],
    n_tsum: u64,
    budget: u64,
    delta_alpha: f64,
    cls: u64,
) -> Plan {
    plan_ranked(
        gpu,
        num_gpus,
        graph,
        features,
        &Ranked::scan(topo),
        &Ranked::scan(feat),
        n_tsum,
        budget,
        delta_alpha,
        cls,
    )
}

/// The planner behind [`plan_layout`] and every re-plan: the cost
/// model's split, then the plan it describes for `gpu`.
#[allow(clippy::too_many_arguments)]
fn plan_ranked(
    gpu: GpuId,
    num_gpus: usize,
    graph: &CsrGraph,
    features: &FeatureTable,
    topo: &Ranked<'_>,
    feat: &Ranked<'_>,
    n_tsum: u64,
    budget: u64,
    delta_alpha: f64,
    cls: u64,
) -> Plan {
    let evaluation = cost_model(graph, features, topo.rows(), feat.rows(), n_tsum, cls)
        .best_plan(budget, delta_alpha);
    materialize(gpu, num_gpus, graph, features, topo, feat, evaluation)
}

/// The §4.3 cost model over `(order, hotness)` rows of topology and
/// features at PCIe cache-line size `cls` — the one place serving builds
/// one. A support-only order is taken as it is: the zero-hotness tail it
/// leaves out adds nothing to Equations 4 and 7, so `α`, `N_T` and `N_F`
/// equal the full-order result, and the cached-vertex counts are exactly
/// what a plan holds.
fn cost_model(
    graph: &CsrGraph,
    features: &FeatureTable,
    (q_t, a_t): (&[VertexId], &[u64]),
    (q_f, a_f): (&[VertexId], &[u64]),
    n_tsum: u64,
    cls: u64,
) -> CostModel {
    CostModel::new(graph, q_t, a_t, q_f, a_f, n_tsum, features.dim(), cls)
}

/// `gpu`'s single-GPU cache holding the `evaluation`-sized prefixes of
/// the two orders.
fn materialize(
    gpu: GpuId,
    num_gpus: usize,
    graph: &CsrGraph,
    features: &FeatureTable,
    topo: &Ranked<'_>,
    feat: &Ranked<'_>,
    evaluation: PlanEvaluation,
) -> Plan {
    let mut cc = CliqueCache::new(vec![gpu], graph.num_vertices(), features.dim());
    place_prefix(&mut cc, Some(graph), &topo.order, evaluation.m_t, |_| None);
    place_prefix(&mut cc, None, &feat.order, evaluation.m_f, |_| None);
    let mut topo_set = topo.order[..evaluation.topo_cached_vertices].to_vec();
    let mut feat_set = feat.order[..evaluation.feat_cached_vertices].to_vec();
    // The walk holds exactly the vertices the cost model priced.
    assert_eq!(
        cc.cache(0).topology_entries(),
        evaluation.topo_cached_vertices
    );
    assert_eq!(
        cc.cache(0).feature_entries(),
        evaluation.feat_cached_vertices
    );
    topo_set.sort_unstable();
    feat_set.sort_unstable();
    let contents = PlanContents {
        topo_bytes: cc.cache(0).topology_bytes(),
        feat_bytes: cc.cache(0).feature_bytes(),
        topo: topo_set,
        feat: feat_set,
    };
    Plan {
        layout: CacheLayout::from_cliques(num_gpus, vec![cc]),
        contents,
        evaluation,
    }
}

/// CPU-side warmup profile standing in for pre-sampling (§4.2.2 S1)
/// before any live traffic exists: windowed `H_T` / `H_F` hotness plus
/// an analytic `N_TSUM` (one offset transaction plus one per sampled
/// edge, the UVA charge of `legion-sampling`'s CPU fallback path).
#[derive(Debug, Clone)]
pub struct WarmupProfile {
    /// Profiled topology hotness, indexed by vertex.
    pub topo: Vec<u64>,
    /// Profiled feature hotness, indexed by vertex.
    pub feat: Vec<u64>,
    /// Analytic topology transaction total of the profile.
    pub n_tsum: u64,
}

/// Profiles `warmup_requests` request neighborhoods on the CPU-resident
/// graph (no simulated traffic is charged — this is an offline planning
/// step). Every planned serving cache and the store's placement read
/// one such profile.
pub fn profile_warmup(
    graph: &CsrGraph,
    targets: &mut TargetSampler,
    warmup_requests: usize,
    fanouts: &[usize],
    seed: u64,
) -> WarmupProfile {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_ab1e_5eed_0001);
    let n = graph.num_vertices();
    let mut topo = vec![0u64; n];
    let mut feat = vec![0u64; n];
    let mut n_tsum = 0u64;
    let mut seen = FloydSet::new();
    let (mut touched, mut frontier, mut next) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..warmup_requests {
        let target = targets.next(&mut rng);
        touched.clear();
        touched.push(target);
        frontier.clear();
        frontier.push(target);
        for &fanout in fanouts {
            next.clear();
            for &v in &frontier {
                let tx = topology_read_tx(graph.degree(v) as usize, fanout);
                topo[v as usize] += tx - 1;
                n_tsum += tx;
                sample_from_into(graph.neighbors(v), fanout, &mut rng, &mut seen, &mut next);
            }
            next.sort_unstable();
            next.dedup();
            touched.extend_from_slice(&next);
            std::mem::swap(&mut frontier, &mut next);
        }
        touched.sort_unstable();
        touched.dedup();
        for &v in &touched {
            feat[v as usize] += 1;
        }
    }
    WarmupProfile { topo, feat, n_tsum }
}

impl WarmupProfile {
    /// Both rows ranked and the cost model over them.
    fn ranked(
        &self,
        graph: &CsrGraph,
        features: &FeatureTable,
        cls: u64,
    ) -> (Ranked<'_>, Ranked<'_>, CostModel) {
        let (topo, feat) = (Ranked::scan(&self.topo), Ranked::scan(&self.feat));
        let model = cost_model(graph, features, topo.rows(), feat.rows(), self.n_tsum, cls);
        (topo, feat, model)
    }

    /// The cost model over this profile's support-ranked rows: the one
    /// model its HBM plans and the store's SSD cut price with.
    pub(crate) fn model(&self, graph: &CsrGraph, features: &FeatureTable, cls: u64) -> CostModel {
        self.ranked(graph, features, cls).2
    }

    /// The cost model's best split of `budget` bytes over this profile,
    /// with the topology rows it caches, hottest first.
    pub(crate) fn best_split(
        &self,
        graph: &CsrGraph,
        features: &FeatureTable,
        budget: u64,
        delta_alpha: f64,
        cls: u64,
    ) -> (PlanEvaluation, Vec<VertexId>) {
        let (topo, _, model) = self.ranked(graph, features, cls);
        let evaluation = model.best_plan(budget, delta_alpha);
        let mut cached = topo.order;
        cached.truncate(evaluation.topo_cached_vertices);
        (evaluation, cached)
    }

    /// [`plan_layout`] over this profile for every GPU of a `num_gpus`
    /// server, ranked and priced once: the plans differ only in their GPU.
    pub(crate) fn plans(
        &self,
        num_gpus: usize,
        graph: &CsrGraph,
        features: &FeatureTable,
        budget: u64,
        delta_alpha: f64,
        cls: u64,
    ) -> Vec<Plan> {
        let (topo, feat, model) = self.ranked(graph, features, cls);
        let evaluation = model.best_plan(budget, delta_alpha);
        (0..num_gpus)
            .map(|gpu| materialize(gpu, num_gpus, graph, features, &topo, &feat, evaluation))
            .collect()
    }
}

/// What a sealed bucket told the controller, for the engine to export as
/// telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketOutcome {
    /// The sealed bucket's own feature hit rate.
    pub bucket_hit_rate: f64,
    /// Feature hit rate over the full window after sealing.
    pub window_hit_rate: f64,
    /// Simulated seconds from drift detection to recovery, when this
    /// bucket's hit rate first climbed back above the recovery target.
    pub recovered_after: Option<f64>,
    /// Whether this seal staged a new plan.
    pub staged: bool,
}

/// Per-GPU re-planning controller: owns the window, the plan buffer and
/// the detector state. The engine calls [`commit`](Self::commit) at the
/// top of every batch and [`roll`](Self::roll) after metering it.
#[derive(Debug)]
pub struct ReplanState {
    /// The sliding-window hotness estimator.
    pub window: WindowEstimator,
    /// The double-buffered plan.
    pub plan: PlanBuffer,
    config: ReplanConfig,
    gpu: GpuId,
    num_gpus: usize,
    budget: u64,
    cls: u64,
    ewma: Option<f64>,
    reference: f64,
    watermark: f64,
    buckets_since_swap: usize,
    drift_at: Option<f64>,
    recover_target: f64,
    episode_replans: usize,
}

impl ReplanState {
    /// A controller for `gpu` starting from `initial` (normally a
    /// [`profile_warmup`]-derived plan), re-planning against `budget`
    /// bytes at PCIe cache-line size `cls`.
    pub fn new(
        config: ReplanConfig,
        initial: Plan,
        num_vertices: usize,
        gpu: GpuId,
        num_gpus: usize,
        budget: u64,
        cls: u64,
    ) -> Self {
        config.validate();
        let window =
            WindowEstimator::new(num_vertices, config.bucket_requests, config.window_buckets);
        Self {
            window,
            plan: PlanBuffer::new(initial),
            config,
            gpu,
            num_gpus,
            budget,
            cls,
            ewma: None,
            reference: 0.0,
            watermark: 0.0,
            buckets_since_swap: 0,
            drift_at: None,
            recover_target: 0.0,
            episode_replans: 0,
        }
    }

    /// Promotes any staged plan (batch-boundary swap), resetting the
    /// detector's cooldown and its hit-rate baseline: the EWMA and the
    /// reference restart from the new plan's own behavior, so a lucky
    /// early bucket under the old plan cannot keep the detector
    /// permanently tripped. Returns the refill delta to charge.
    pub fn commit(&mut self) -> Option<SwapDelta> {
        let delta = self.plan.commit();
        if delta.is_some() {
            self.buckets_since_swap = 0;
            self.ewma = None;
            self.reference = 0.0;
        }
        delta
    }

    /// Advances the controller after a metered batch at simulated time
    /// `now`: seals a due bucket, updates the EWMA and recovery state,
    /// and stages a re-planned cache when the detector fires.
    pub fn roll(
        &mut self,
        now: f64,
        graph: &CsrGraph,
        features: &FeatureTable,
    ) -> Option<BucketOutcome> {
        let stats = self.window.seal_if_due()?;
        let rate = stats.hit_rate;
        let ewma = match self.ewma {
            None => rate,
            Some(prev) => EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * prev,
        };
        self.ewma = Some(ewma);
        let recovered_after = match self.drift_at {
            Some(t0) if rate >= self.recover_target => {
                self.drift_at = None;
                self.episode_replans = 0;
                Some(now - t0)
            }
            _ => None,
        };
        self.reference = self.reference.max(ewma);
        self.watermark = self.watermark.max(ewma);
        self.buckets_since_swap += 1;
        let drifted = ewma < self.reference - EWMA_DROP;
        // An episode that exhausted its re-plan budget without reaching
        // the recovery target closes here: the target is unreachable
        // under the new skew, so the detector re-baselines on the plan
        // it has instead of churning forever.
        if self.drift_at.is_some() && self.episode_replans >= self.config.max_episode_replans {
            self.drift_at = None;
            self.episode_replans = 0;
        }
        // Stage on a fresh detector trip, and also *refine* while an
        // episode is open (drifted but not yet recovered): the plan
        // staged at detection time was built from a window still partly
        // covering pre-drift traffic, so later re-plans from an
        // ever-fresher window keep improving until the hit rate climbs
        // back to the recovery target.
        let mut staged = false;
        if (drifted || self.drift_at.is_some())
            && !self.plan.has_staged()
            && self.buckets_since_swap > self.config.cooldown_buckets
        {
            let plan = plan_ranked(
                self.gpu,
                self.num_gpus,
                graph,
                features,
                &self.window.ranked_topo(),
                &self.window.ranked_feat(),
                self.window.n_tsum(),
                self.budget,
                self.config.delta_alpha,
                self.cls,
            );
            self.plan.stage(plan);
            if self.drift_at.is_none() {
                self.drift_at = Some(now);
                // Recovery is judged against the all-time watermark, not
                // the (commit-reset) drop reference: a reference that
                // rebuilt from a degraded plan would lower the bar every
                // episode, letting refinement stop earlier at a worse
                // plan each phase.
                self.recover_target = self.watermark - RECOVER_MARGIN;
                self.episode_replans = 0;
            }
            self.episode_replans += 1;
            staged = true;
        }
        Some(BucketOutcome {
            bucket_hit_rate: rate,
            window_hit_rate: self.window.hit_rate(),
            recovered_after,
            staged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::GraphBuilder;
    use rand::Rng;

    fn ring_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            b.push_edge(v, (v + 1) % n as u32);
            b.push_edge(v, (v + 2) % n as u32);
        }
        b.build()
    }

    fn hot_rows(n: usize, hot: &[(VertexId, u64)]) -> Vec<u64> {
        let mut row = vec![0; n];
        for &(v, h) in hot {
            row[v as usize] += h;
        }
        row
    }

    fn plan_for(hot: &[(VertexId, u64)], budget: u64) -> Plan {
        let g = ring_graph(16);
        let feats = FeatureTable::zeros(16, 4);
        let row = hot_rows(16, hot);
        plan_layout(0, 1, &g, &feats, &row, &row, 100, budget, 0.25, 64)
    }

    #[test]
    fn window_retires_buckets_exactly() {
        let mut w = WindowEstimator::new(8, 2, 2);
        // Bucket 1: vertex 3 twice.
        w.note_edge(3, 2);
        w.note_feature(3);
        w.note_batch(2, 1, 1, 10);
        assert!(w.seal_if_due().is_some());
        // Buckets 2 and 3: vertex 5.
        for _ in 0..2 {
            w.note_edge(5, 1);
            w.note_feature(5);
            w.note_batch(2, 2, 0, 4);
            assert!(w.seal_if_due().is_some());
        }
        // Bucket 1 retired: vertex 3's contribution is fully gone.
        assert_eq!(w.topo[3], 0);
        assert_eq!(w.feat()[3], 0);
        assert_eq!(w.topo[5], 2);
        assert_eq!(w.n_tsum(), 8);
        assert_eq!(w.hit_rate(), 1.0);
    }

    #[test]
    fn window_seals_only_when_due() {
        let mut w = WindowEstimator::new(4, 10, 2);
        w.note_batch(4, 1, 3, 0);
        assert!(w.seal_if_due().is_none());
        w.note_batch(6, 0, 6, 0);
        let stats = w.seal_if_due().expect("bucket due");
        assert!((stats.hit_rate - 0.1).abs() < 1e-12);
        assert!(w.seal_if_due().is_none(), "fresh bucket is empty");
    }

    #[test]
    fn plan_layout_caches_hottest_and_respects_budget() {
        // Feature rows are 4 floats = 16 bytes; budget of 64 bytes fits
        // at most 4 rows across both halves of the split.
        let plan = plan_for(&[(1, 50), (2, 30), (3, 10)], 64);
        assert!(plan.contents.total_bytes() <= 64);
        assert!(!plan.contents.feat.is_empty() || !plan.contents.topo.is_empty());
        // Zero-hotness vertices are never cached.
        for &v in plan.contents.feat.iter().chain(&plan.contents.topo) {
            assert!([1, 2, 3].contains(&v), "cold vertex {v} cached");
        }
        let (cache, slot) = plan.layout.for_gpu(0).expect("gpu 0 has a cache");
        assert_eq!(slot, 0);
        for &v in &plan.contents.feat {
            assert!(cache.lookup_feature(0, v).is_some());
        }
        for &v in &plan.contents.topo {
            assert!(cache.lookup_topology(0, v).is_some());
        }
    }

    /// The planner as it stood before it read the support only: full
    /// `cslp` orders over every vertex, the cost model over those, and a
    /// materialisation that stops at the first zero-hotness vertex.
    fn plan_dense(
        graph: &CsrGraph,
        topo: &[u64],
        feat: &[u64],
        n_tsum: u64,
        budget: u64,
    ) -> (PlanEvaluation, Vec<VertexId>, Vec<VertexId>) {
        let cslp = |row| legion_cache::cslp(&legion_cache::HotnessMatrix::from_rows(&[row]));
        let (t, f) = (cslp(topo), cslp(feat));
        let model = CostModel::new(
            graph,
            &t.clique_order,
            &t.accumulated,
            &f.clique_order,
            &f.accumulated,
            n_tsum,
            4,
            64,
        );
        let evaluation = model.best_plan(budget, 0.05);
        let cached = |order: &[VertexId], hot: &[u64], count: usize| {
            let mut set: Vec<VertexId> = order[..count]
                .iter()
                .copied()
                .take_while(|&v| hot[v as usize] > 0)
                .collect();
            set.sort_unstable();
            set
        };
        (
            evaluation,
            cached(
                &t.clique_order,
                &t.accumulated,
                evaluation.topo_cached_vertices,
            ),
            cached(
                &f.clique_order,
                &f.accumulated,
                evaluation.feat_cached_vertices,
            ),
        )
    }

    /// Drives `w` through `batches` random batches over vertices
    /// `0..span`, sealing whenever a bucket is due.
    fn feed(w: &mut WindowEstimator, rng: &mut StdRng, span: u32, batches: usize) {
        for _ in 0..batches {
            for _ in 0..rng.gen_range(0..6) {
                w.note_edge(rng.gen_range(0..span), rng.gen_range(1..4));
            }
            for _ in 0..rng.gen_range(0..6) {
                w.note_feature(rng.gen_range(0..span));
            }
            w.note_batch(rng.gen_range(1..4), 1, 1, rng.gen_range(0..9));
            w.seal_if_due();
        }
    }

    #[test]
    fn window_support_is_exactly_the_nonzero_hotness() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..40 {
            let mut w = WindowEstimator::new(64, 1 + case % 5, 1 + case % 3);
            for _ in 0..12 {
                feed(&mut w, &mut rng, 64, 5);
                for (ranked, row) in [
                    (w.ranked_topo(), w.topo.as_slice()),
                    (w.ranked_feat(), w.feat()),
                ] {
                    let mut support = ranked.order;
                    support.sort_unstable();
                    let nonzero: Vec<VertexId> = (0..64).filter(|&v| row[v as usize] > 0).collect();
                    assert_eq!(support, nonzero);
                }
            }
        }
    }

    #[test]
    fn support_only_plan_equals_the_dense_plan() {
        let g = ring_graph(64);
        let feats = FeatureTable::zeros(64, 4);
        let mut rng = StdRng::seed_from_u64(23);
        let mut roomy = 0;
        for case in 0..60u64 {
            let mut w = WindowEstimator::new(64, 3, 2);
            // Narrow spans leave most of the graph cold, so the larger
            // budgets reach past the support into the zero-hotness tail.
            feed(&mut w, &mut rng, 4 + (case % 16) as u32 * 4, 12);
            let budget = 32 << (case % 5);
            let window = plan_ranked(
                0,
                1,
                &g,
                &feats,
                &w.ranked_topo(),
                &w.ranked_feat(),
                w.n_tsum(),
                budget,
                0.05,
                64,
            );
            let scanned = plan_layout(
                0,
                1,
                &g,
                &feats,
                &w.topo,
                w.feat(),
                w.n_tsum(),
                budget,
                0.05,
                64,
            );
            let (dense, dense_topo, dense_feat) =
                plan_dense(&g, &w.topo, w.feat(), w.n_tsum(), budget);
            for plan in [&window, &scanned] {
                assert_eq!(plan.contents.topo, dense_topo);
                assert_eq!(plan.contents.feat, dense_feat);
                assert_eq!(plan.evaluation.alpha, dense.alpha);
                assert_eq!(plan.evaluation.n_t, dense.n_t);
                assert_eq!(plan.evaluation.n_f, dense.n_f);
                assert_eq!(plan.evaluation.topo_cached_vertices, dense_topo.len());
                assert_eq!(plan.evaluation.feat_cached_vertices, dense_feat.len());
            }
            if dense.feat_cached_vertices > dense_feat.len() {
                roomy += 1;
            }
        }
        assert!(roomy > 0, "some budget must out-size its window's support");
    }

    #[test]
    fn plan_buffer_commit_is_atomic_and_versioned() {
        // The mid-batch invariant: staging never changes what in-flight
        // requests see; only an explicit batch-boundary commit does, and
        // then the view is entirely the new plan.
        let mut buf = PlanBuffer::new(plan_for(&[(1, 10), (2, 5)], 64));
        let old_feat = buf.active().contents.feat.clone();
        assert_eq!(buf.version(), 0);

        // Mid-batch: a replan is staged while "requests are in flight".
        buf.stage(plan_for(&[(7, 20), (2, 5)], 64));
        assert!(buf.has_staged());
        assert_eq!(buf.version(), 0, "staging must not bump the version");
        assert_eq!(
            buf.active().contents.feat,
            old_feat,
            "staging must not leak into the active view"
        );
        let (cache, _) = buf.active_layout().for_gpu(0).expect("cache");
        assert!(
            cache.lookup_feature(0, 7).is_none(),
            "staged entries must be invisible before commit"
        );

        // Batch boundary: the swap is total, not partial.
        let delta = buf.commit().expect("staged plan");
        assert_eq!(buf.version(), 1);
        assert!(!buf.has_staged());
        let (cache, _) = buf.active_layout().for_gpu(0).expect("cache");
        for &v in &buf.active().contents.feat {
            assert!(cache.lookup_feature(0, v).is_some());
        }
        assert!(delta.new_feat.contains(&7), "7 is new to the plan");
        assert!(!delta.new_feat.contains(&2), "2 was already cached");
        assert!(buf.commit().is_none(), "nothing left to commit");
    }

    #[test]
    fn sorted_difference_is_setwise() {
        assert_eq!(sorted_difference(&[1, 2, 4, 6], &[2, 3, 6]), vec![1, 4]);
        assert_eq!(sorted_difference(&[], &[1]), Vec::<VertexId>::new());
        assert_eq!(sorted_difference(&[5], &[]), vec![5]);
    }

    #[test]
    fn ewma_detector_stages_on_hit_rate_drop() {
        let g = ring_graph(16);
        let f = FeatureTable::zeros(16, 4);
        let config = ReplanConfig {
            bucket_requests: 4,
            window_buckets: 2,
            cooldown_buckets: 0,
            ..ReplanConfig::default()
        };
        let mut state = ReplanState::new(config, plan_for(&[(1, 10)], 64), 16, 0, 1, 64, 64);
        // Two healthy buckets establish the reference.
        for _ in 0..2 {
            state.window.note_feature(1);
            state.window.note_batch(4, 9, 1, 5);
            let out = state.roll(1.0, &g, &f).expect("sealed");
            assert!(!out.staged);
        }
        // A collapsed bucket crosses the drop threshold.
        state.window.note_feature(9);
        state.window.note_batch(4, 1, 9, 5);
        let out = state.roll(2.0, &g, &f).expect("sealed");
        assert!(out.staged, "EWMA drop must stage a replan");
        assert!(state.plan.has_staged());
        // Committing applies it and resets the cooldown.
        assert!(state.commit().is_some());
        assert_eq!(state.plan.version(), 1);
    }

    #[test]
    fn recovery_is_reported_once() {
        let g = ring_graph(16);
        let f = FeatureTable::zeros(16, 4);
        let config = ReplanConfig {
            bucket_requests: 2,
            window_buckets: 2,
            cooldown_buckets: 0,
            ..ReplanConfig::default()
        };
        let mut state = ReplanState::new(config, plan_for(&[(1, 10)], 64), 16, 0, 1, 64, 64);
        // Establish a high reference, then collapse.
        state.window.note_batch(2, 10, 0, 1);
        state.roll(1.0, &g, &f);
        state.window.note_batch(2, 0, 10, 1);
        let out = state.roll(2.0, &g, &f).expect("sealed");
        assert!(out.staged);
        assert!(out.recovered_after.is_none());
        state.commit();
        // Hit rate climbs back above reference - margin.
        state.window.note_batch(2, 10, 0, 1);
        let out = state.roll(5.0, &g, &f).expect("sealed");
        let dt = out.recovered_after.expect("recovered");
        assert!((dt - 3.0).abs() < 1e-9, "recovery measured from trigger");
        // Subsequent healthy buckets do not re-report recovery.
        state.window.note_batch(2, 10, 0, 1);
        let out = state.roll(6.0, &g, &f).expect("sealed");
        assert!(out.recovered_after.is_none());
    }

    #[test]
    fn profile_warmup_is_deterministic_and_counts_edges() {
        let g = ring_graph(32);
        let run = || {
            let mut t = TargetSampler::new((0..32).collect(), 1.2, 0, 0);
            profile_warmup(&g, &mut t, 50, &[2, 2], 9)
        };
        let a = run();
        let b = run();
        assert_eq!(a.topo, b.topo);
        assert_eq!(a.feat, b.feat);
        assert_eq!(a.n_tsum, b.n_tsum);
        // Every expansion charges 1 offset + edges transactions, so
        // n_tsum must exceed the total edge hotness.
        let edge_hot: u64 = a.topo.iter().sum();
        assert!(a.n_tsum > edge_hot);
        assert!(edge_hot > 0);
    }

    #[test]
    #[should_panic(expected = "bucket_requests must be positive")]
    fn config_rejects_zero_bucket() {
        ReplanConfig {
            bucket_requests: 0,
            ..ReplanConfig::default()
        }
        .validate();
    }
}
