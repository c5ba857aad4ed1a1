//! Cache policies under serving traffic.
//!
//! Training-time Legion plans its cache *offline* from pre-sampled
//! hotness (§4.2). Serving breaks the planner's core assumption — that
//! the access distribution at fill time is the access distribution
//! forever — because request skew drifts. This module names the three
//! points on that trade-off:
//!
//! * [`PolicyKind::StaticHot`] — Legion's unified cache, planned once
//!   from a warm-up profile of request neighborhoods and never changed:
//!   the cost model's α splits each GPU's byte budget between the
//!   hottest topology rows and the hottest feature rows (each clique
//!   pools its members' budgets under the residency router);
//! * [`PolicyKind::Fifo`] — an admission-on-miss FIFO cache
//!   ([`legion_cache::FifoCache`]) that tracks the drifting hot set at
//!   the cost of replacement churn;
//! * [`PolicyKind::Replan`] — the planned cache kept honest: the
//!   [`replan`](crate::replan) controller re-runs CSLP + the cost-model
//!   sweep over a sliding window of observed traffic and swaps plans in
//!   at batch boundaries, paying for each swap's refill on the PCIe
//!   meters.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_cache::{book_cache, hotness_order, place_prefix, CliqueCache};
use legion_graph::{CsrGraph, FeatureTable, VertexId};
use legion_hw::{GpuId, MultiGpuServer};
use legion_partition::{detect_cliques, LdgPartitioner, Partitioner};
use legion_router::Dispatcher;
use legion_sampling::access::{sample_from_into, CacheLayout, FloydSet};

use crate::replan::WarmupProfile;
use crate::workload::TargetSampler;

/// Which cache policy a serving run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Unified topology + feature cache, planned once from warm-up
    /// traffic: without the router each GPU holds Replan's initial plan,
    /// with it each clique pools its members' budgets. Each GPU stays
    /// within `cache_rows_per_gpu` feature rows' bytes.
    StaticHot,
    /// Dynamic per-GPU FIFO cache, admitted on miss.
    Fifo,
    /// Planned cache with online re-planning under drift
    /// ([`crate::replan`]).
    Replan,
}

impl PolicyKind {
    /// Stable lowercase name used in metrics and JSON rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            PolicyKind::StaticHot => "static",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Replan => "replan",
        }
    }
}

/// Ranks vertices by how often `warmup_requests` simulated request
/// neighborhoods touch them, hottest first (ties broken by vertex id so
/// the ranking is deterministic). The fleet sizes its replicated head
/// from it; serving caches plan from [`profile_warmup`](crate::replan::profile_warmup).
///
/// The expansion mirrors the serving sampler — `fanouts[h]` uniform
/// neighbors per frontier vertex at hop `h` — but runs directly on the
/// CPU-resident graph: warmup profiling is an offline planning step and
/// must not charge the simulated server's traffic counters.
///
/// Returns the ranking and the raw per-vertex touch counts it was
/// derived from — the hotness weights the adaptive replication rule
/// compares replicas against displaced partitioned rows with.
pub fn warmup_hot_vertices_weighted(
    graph: &CsrGraph,
    targets: &mut TargetSampler,
    warmup_requests: usize,
    fanouts: &[usize],
    seed: u64,
) -> (Vec<VertexId>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut touches = vec![0u64; graph.num_vertices()];
    let mut seen = FloydSet::new();
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    for _ in 0..warmup_requests {
        let target = targets.next(&mut rng);
        touches[target as usize] += 1;
        frontier.clear();
        frontier.push(target);
        for &fanout in fanouts {
            next.clear();
            for &v in &frontier {
                sample_from_into(graph.neighbors(v), fanout, &mut rng, &mut seen, &mut next);
            }
            for &s in &next {
                touches[s as usize] += 1;
            }
            next.sort_unstable();
            next.dedup();
            std::mem::swap(&mut frontier, &mut next);
        }
    }
    (hotness_order(&touches), touches)
}

/// The §4.1 edge-cut partition — the one place this crate names the
/// partitioner, so layout, router seeds and capacity probe agree on it.
fn edge_cut_partition(graph: &CsrGraph, k: usize) -> Vec<u32> {
    LdgPartitioner::default().partition(graph, k)
}

/// A dispatcher over the server's NVLink cliques whose residency is each
/// clique's edge-cut partition: the stand-in for cache content that
/// tracks ownership (the Fifo policy's router seeds, and the capacity
/// probe's uniform approximation of all three policies).
pub(crate) fn ownership_dispatcher(
    graph: &CsrGraph,
    server: &MultiGpuServer,
    spill_len: usize,
) -> Dispatcher {
    let groups = detect_cliques(server.nvlink());
    let part = edge_cut_partition(graph, groups.len());
    let mut dispatcher = Dispatcher::new(groups, graph.num_vertices(), spill_len);
    for g in 0..dispatcher.num_groups() {
        let owned: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
            .filter(|&v| part[v as usize] as usize == g)
            .collect();
        dispatcher.refresh_group(g, &owned);
    }
    dispatcher
}

/// Builds a features-only replicated layout: every GPU gets its own
/// single-GPU [`CliqueCache`] holding the feature rows of the
/// `rows_per_gpu` hottest vertices and no topology, with the cache
/// footprint charged to the GPU's memory budget.
///
/// No [`PolicyKind`] deploys it: StaticHot holds Replan's initial
/// unified plan instead. It stays for callers that rebuild or compare
/// against a features-only cache.
///
/// # Panics
///
/// Panics if a GPU cannot fit `rows_per_gpu` feature rows.
pub fn build_static_layout(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    hot: &[VertexId],
    rows_per_gpu: usize,
) -> CacheLayout {
    let cap = rows_per_gpu as u64 * features.row_bytes();
    let cliques = (0..server.num_gpus())
        .map(|gpu| {
            let mut cc = CliqueCache::new(vec![gpu], graph.num_vertices(), features.dim());
            place_prefix(&mut cc, None, hot, cap, |_| None);
            book_cache(server, &cc).expect("static feature cache exceeds GPU memory");
            cc
        })
        .collect();
    CacheLayout::from_cliques(server.num_gpus(), cliques)
}

/// Builds the clique-partitioned hybrid layout the residency router
/// dispatches over: each NVLink clique pools its members' cache budgets
/// (`rows_per_gpu` rows per member GPU), replicates the globally hottest
/// vertices into *every* clique (so the ultra-hot head is always a local
/// hit regardless of routing), and fills the remainder with the hottest
/// vertices the LDG partitioner (§4.1) assigned to that clique —
/// backfilled from the global hotness ranking when the clique's
/// partition runs short. Rows are striped round-robin across the
/// clique's member slots, so each GPU stores an equal share and a
/// within-clique remote row costs one NVLink read instead of a PCIe
/// fetch.
///
/// The replicated head is sized from measured hotness: it grows one
/// vertex at a time while the marginal routed-coverage gain of another
/// replica exceeds the partitioned row it displaces.
///
/// Replicating the `k`-th globally hottest vertex buys local hits for
/// its touches in the `G - 1` cliques that do not own it — a gain of
/// `w(hot[k]) * (G - 1) / G` per clique slot, since the replica costs a
/// slot in every clique. The slot it takes would otherwise hold the
/// coolest still-resident row, which under residency routing serves
/// essentially all of its own touches — a loss of `w(hot[budget-1-k])`.
/// The head stops growing at the first `k` where the gain no longer
/// covers the loss:
///
/// ```text
/// (G - 1) * w(hot[k])  <  G * w(hot[budget - 1 - k])
/// ```
///
/// With one clique there is nothing to replicate for (`G - 1 = 0`), so
/// the rule degenerates to a fully partitioned cache. `weight` is the
/// per-vertex hotness `hot` is ranked by (a warm-up profile's feature
/// row, or [`warmup_hot_vertices_weighted`]'s touch counts), indexed by
/// vertex id.
///
/// Returns the layout, the clique membership (`groups[g]` is the list
/// of GPU ids in route group `g`, for the dispatcher), and the
/// replicated head size chosen for each clique (for telemetry).
///
/// # Panics
///
/// Panics if a GPU cannot fit its share of the pooled rows.
pub fn build_partitioned_layout_adaptive(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    hot: &[VertexId],
    weight: &[u64],
    rows_per_gpu: usize,
) -> (CacheLayout, Vec<Vec<GpuId>>, Vec<usize>) {
    let (cliques, groups, replicated) =
        partitioned_feature_cliques(graph, features, server, hot, weight, rows_per_gpu);
    for cc in &cliques {
        book_cache(server, cc).expect("partitioned feature cache exceeds GPU memory");
    }
    let layout = CacheLayout::from_cliques(server.num_gpus(), cliques);
    (layout, groups, replicated)
}

/// [`build_partitioned_layout_adaptive`]'s cliques, walked but not yet
/// booked on the server.
fn partitioned_feature_cliques(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    hot: &[VertexId],
    weight: &[u64],
    rows_per_gpu: usize,
) -> (Vec<CliqueCache>, Vec<Vec<GpuId>>, Vec<usize>) {
    let groups = detect_cliques(server.nvlink());
    let part = edge_cut_partition(graph, groups.len());
    let mut cliques = Vec::with_capacity(groups.len());
    let mut replicated_per_clique = Vec::with_capacity(groups.len());
    for (gi, members) in groups.iter().enumerate() {
        let budget = (rows_per_gpu * members.len()).min(hot.len());
        let replicated = adaptive_replicated_rows(hot, weight, budget, groups.len());
        replicated_per_clique.push(replicated);
        let mut taken = vec![false; graph.num_vertices()];
        let mut chosen: Vec<VertexId> = Vec::with_capacity(budget);
        for &v in &hot[..replicated] {
            if !taken[v as usize] {
                taken[v as usize] = true;
                chosen.push(v);
            }
        }
        // Clique-owned remainder: hottest vertices the partitioner
        // assigned to this clique, then globally hottest leftovers as
        // backfill when the partition runs short of the budget.
        for &v in hot {
            if chosen.len() >= budget {
                break;
            }
            if part[v as usize] as usize == gi && !taken[v as usize] {
                taken[v as usize] = true;
                chosen.push(v);
            }
        }
        for &v in hot {
            if chosen.len() >= budget {
                break;
            }
            if !taken[v as usize] {
                taken[v as usize] = true;
                chosen.push(v);
            }
        }
        // Least-loaded at one cost per row, ties to the lower slot: a
        // round-robin stripe, and every chosen row fits.
        let mut cc = CliqueCache::new(members.clone(), graph.num_vertices(), features.dim());
        let cap = rows_per_gpu as u64 * features.row_bytes();
        place_prefix(&mut cc, None, &chosen, cap, |_| None);
        cliques.push(cc);
    }
    (cliques, groups, replicated_per_clique)
}

/// Routed StaticHot's plan: Legion's unified cache on every NVLink
/// clique, split by the cost model over the warm-up `profile`. A clique
/// pools `|clique| × budget` bytes and the cost model's α splits them
/// into `m_t` topology and `m_f` feature bytes.
///
/// * The hottest topology rows of `m_t` bytes are striped across the
///   clique's members: each row goes to the member holding the fewest
///   topology bytes, and the stripe stops before a member would pass
///   `m_t / |clique|`. Every clique of one size holds the same rows.
/// * The feature rows are [`build_partitioned_layout_adaptive`]'s at
///   `m_f / row_bytes / |clique|` rows per GPU (the fewest any clique
///   affords when clique sizes differ), ranked and weighted by the
///   profile's feature hotness.
///
/// So no GPU books more than `budget` bytes. Returns what
/// [`build_partitioned_layout_adaptive`] returns.
///
/// # Panics
///
/// Panics if a GPU cannot fit its share of the pooled rows.
pub(crate) fn build_routed_unified_layout(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    profile: &WarmupProfile,
    budget: u64,
    delta_alpha: f64,
) -> (CacheLayout, Vec<Vec<GpuId>>, Vec<usize>) {
    let cls = server.pcie().cls();
    let mut splits = BTreeMap::new();
    for members in detect_cliques(server.nvlink()) {
        let k = members.len();
        splits.entry(k).or_insert_with(|| {
            profile.best_split(graph, features, k as u64 * budget, delta_alpha, cls)
        });
    }
    let rows_per_gpu = splits
        .iter()
        .map(|(&k, (split, _))| split.m_f / features.row_bytes() / k as u64)
        .min()
        .unwrap_or(0) as usize;
    let weight = &profile.feat;
    let (mut cliques, groups, replicated) = partitioned_feature_cliques(
        graph,
        features,
        server,
        &hotness_order(weight),
        weight,
        rows_per_gpu,
    );
    for clique in &mut cliques {
        let k = clique.gpus().len();
        let (split, topo) = &splits[&k];
        place_prefix(clique, Some(graph), topo, split.m_t / k as u64, |_| None);
        book_cache(server, clique).expect("routed unified cache exceeds GPU memory");
    }
    let layout = CacheLayout::from_cliques(server.num_gpus(), cliques);
    (layout, groups, replicated)
}

/// The greedy head-sizing rule behind
/// [`build_partitioned_layout_adaptive`], exposed for direct testing:
/// returns how many of the hottest vertices to replicate into every
/// clique given a per-clique row `budget` and `num_cliques` cliques.
pub fn adaptive_replicated_rows(
    hot: &[VertexId],
    weight: &[u64],
    budget: usize,
    num_cliques: usize,
) -> usize {
    if num_cliques <= 1 {
        return 0;
    }
    let b = budget.min(hot.len());
    let (g, mut r) = (num_cliques as u64, 0usize);
    while r < b {
        let gain = (g - 1) * weight[hot[r] as usize];
        let loss = g * weight[hot[b - 1 - r] as usize];
        if gain < loss || gain == 0 {
            break;
        }
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::GraphBuilder;
    use legion_hw::ServerSpec;

    fn chain_with_hub() -> CsrGraph {
        // Vertex 0 is a hub every other vertex points at.
        let mut b = GraphBuilder::new(32);
        for v in 1..32 {
            b.push_edge(v, 0);
            b.push_edge(v, (v + 1) % 32);
        }
        b.build()
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(PolicyKind::StaticHot.as_str(), "static");
        assert_eq!(PolicyKind::Fifo.as_str(), "fifo");
        assert_eq!(PolicyKind::Replan.as_str(), "replan");
    }

    #[test]
    fn warmup_ranks_the_hub_first() {
        let g = chain_with_hub();
        // Skewed targets over the non-hub vertices: all of them sample
        // the hub as a neighbor.
        let mut targets = TargetSampler::new((1..32).collect(), 1.0, 0, 0);
        let ranked = warmup_hot_vertices_weighted(&g, &mut targets, 200, &[2], 7).0;
        assert_eq!(ranked.len(), 32);
        assert_eq!(ranked[0], 0, "hub must be hottest");
    }

    #[test]
    fn warmup_is_deterministic() {
        let g = chain_with_hub();
        let run = || {
            let mut t = TargetSampler::new((1..32).collect(), 1.1, 16, 3);
            warmup_hot_vertices_weighted(&g, &mut t, 100, &[2, 2], 11)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn static_layout_caches_hot_rows_on_every_gpu() {
        let g = chain_with_hub();
        let f = FeatureTable::zeros(32, 8);
        let server = ServerSpec::custom(2, 1 << 20, 1).build();
        let mut targets = TargetSampler::new((1..32).collect(), 1.0, 0, 0);
        let hot = warmup_hot_vertices_weighted(&g, &mut targets, 100, &[2], 3).0;
        let layout = build_static_layout(&g, &f, &server, &hot, 4);
        for gpu in 0..2 {
            let (cache, slot) = layout.for_gpu(gpu).expect("gpu has a cache");
            assert_eq!(slot, 0);
            assert!(cache.lookup_feature(0, hot[0]).is_some());
            assert!(cache.lookup_feature(0, hot[20]).is_none());
            assert_eq!(server.allocated_bytes(gpu), 4 * f.row_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds GPU memory")]
    fn oversized_static_cache_panics() {
        let g = chain_with_hub();
        let f = FeatureTable::zeros(32, 8);
        let server = ServerSpec::custom(1, 64, 1).build();
        let hot: Vec<VertexId> = (0..32).collect();
        let _ = build_static_layout(&g, &f, &server, &hot, 32);
    }

    fn two_communities() -> CsrGraph {
        // Vertices 0..32 form one dense ring-with-chords community,
        // 32..64 another; a single bridge edge joins them so LDG has a
        // clean two-way cut.
        let mut b = GraphBuilder::new(64);
        for base in [0u32, 32] {
            for v in 0..32 {
                b.push_edge(base + v, base + (v + 1) % 32);
                b.push_edge(base + v, base + (v + 7) % 32);
            }
        }
        b.push_edge(0, 32);
        b.build()
    }

    #[test]
    fn adaptive_head_grows_with_skew_and_shrinks_without() {
        let hot: Vec<VertexId> = (0..16).collect();
        // Uniform hotness: no head vertex can cover its displacement
        // cost in G-1 cliques, so nothing replicates.
        let flat = vec![10u64; 16];
        assert_eq!(adaptive_replicated_rows(&hot, &flat, 8, 2), 0);
        // One clique: replication is meaningless regardless of skew.
        let skewed: Vec<u64> = (0..16).map(|i| 1u64 << (15 - i)).collect();
        assert_eq!(adaptive_replicated_rows(&hot, &skewed, 8, 1), 0);
        // Steep skew: the head earns replicas until the gain rule turns
        // over, and a steeper budget never replicates past half the
        // cache (the displaced row would be hotter than the replica).
        let r = adaptive_replicated_rows(&hot, &skewed, 8, 2);
        assert!(r > 0, "steep skew must replicate a head");
        assert!(r <= 4, "the head never displaces hotter rows: r = {r}");
        // More cliques lower the per-slot gain, so the head never grows
        // when the clique count rises.
        let r4 = adaptive_replicated_rows(&hot, &skewed, 8, 4);
        assert!(r4 <= r, "more cliques cannot justify a bigger head");
    }

    #[test]
    fn adaptive_layout_replicates_only_the_earning_head() {
        let g = two_communities();
        let f = FeatureTable::zeros(64, 8);
        let server = ServerSpec::custom(4, 1 << 20, 2).build();
        let hot: Vec<VertexId> = (0..64).collect();
        // Vertex 0 is overwhelmingly hot, the rest tepid: exactly one
        // vertex should earn cross-clique replicas.
        let mut weight = vec![1u64; 64];
        weight[0] = 1_000;
        let (layout, groups, replicated) =
            build_partitioned_layout_adaptive(&g, &f, &server, &hot, &weight, 8);
        assert_eq!(groups.len(), 2);
        assert_eq!(replicated, vec![1, 1]);
        for &gpu in &[0usize, 2] {
            let cache = layout.for_gpu(gpu).expect("gpu has a cache").0;
            assert!(
                cache.feature_vertices().contains(&0),
                "the earning head must be resident in every clique"
            );
        }
        // Beyond the one-vertex head the cliques hold disjoint
        // partitions.
        let a = layout.for_gpu(0).unwrap().0.feature_vertices();
        let b = layout.for_gpu(2).unwrap().0.feature_vertices();
        assert_ne!(a, b, "tails must stay partitioned");
    }
}
