//! Residency-aware dispatcher.
//!
//! [`Dispatcher`] routes each request to an NVLink clique (a *route
//! group* of GPUs) by scoring candidate groups on expected
//! cached-neighborhood coverage: how many of the request's target
//! vertex plus a deterministic probe of its first few neighbors are
//! resident in the group's cache ([`ResidencyIndex`]). The two
//! top-scoring groups are compared power-of-two-choices style — equal
//! coverage falls through to each group's first GPU in *batch-filling
//! order*, then to the lower group index — and within the chosen group
//! the first GPU in that order wins. For a batch size `B`, the order
//! ranks a queue holding an open batch (`1 ≤ len < B`, fullest first),
//! then an empty queue, then queues whose next batch is already full
//! (shortest first), ties to the lowest GPU id: a clique's pooled cache
//! serves any member equally well, so filling one batch at the clique's
//! whole arrival rate beats splitting it across members. At `B = 1`
//! (plain [`Dispatcher::new`]) the order is exactly shortest queue.
//! [`Dispatcher::route_to_free`] applies that order to the chosen
//! group's free members first (the serving engine's pick), so a batch
//! never waits on a busy GPU while a sibling sits idle.
//! When every queue in the best group is at or past the spill
//! threshold, the request *spills* to the globally least-loaded GPU,
//! trading locality for queueing delay exactly like the paper's
//! cross-clique fallback trades NVLink reads for PCIe.
//!
//! Routing is deterministic: scores, loads, and all tie-breaks depend
//! only on the request stream and queue states, never on an RNG.

use legion_graph::{CsrGraph, VertexId};
use legion_hw::GpuId;

use crate::residency::ResidencyIndex;

/// Front-end routing policy for the serving tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Legacy behavior: request id modulo GPU count, no residency
    /// index, no routing counters.
    RoundRobin,
    /// Residency-scored clique routing; ties and the in-clique pick
    /// follow batch-filling order, with spill past saturation.
    Residency,
}

impl RouterPolicy {
    /// Stable name used in flags and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round_robin",
            RouterPolicy::Residency => "residency",
        }
    }
}

/// Front-end routing knobs of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Which dispatcher the serving front end runs.
    pub policy: RouterPolicy,
    /// Neighbors of the target probed for the coverage score (the
    /// target itself is always probed).
    pub probe_neighbors: usize,
    /// Fraction of per-GPU queue capacity at which a clique counts as
    /// saturated and requests spill, in `(0, 1]`.
    pub spill_threshold: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            policy: RouterPolicy::RoundRobin,
            probe_neighbors: 8,
            spill_threshold: 0.75,
        }
    }
}

impl RouterConfig {
    /// Checks the invariants the dispatcher relies on.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated
    /// invariant.
    pub fn validate(&self) {
        assert!(
            self.spill_threshold > 0.0 && self.spill_threshold <= 1.0,
            "spill_threshold must be in (0, 1]"
        );
    }
}

/// Refills `probe` with the routing probe of a request for `target`:
/// the target itself, then its first `neighbors` neighbors in CSR
/// order. The buffer is cleared first, so callers keep one per stream.
pub fn fill_probe(graph: &CsrGraph, target: VertexId, neighbors: usize, probe: &mut Vec<VertexId>) {
    probe.clear();
    probe.push(target);
    probe.extend(graph.neighbors(target).iter().take(neighbors).copied());
}

/// Where one request was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Destination GPU.
    pub gpu: GpuId,
    /// Route group (clique index) the GPU belongs to.
    pub group: usize,
    /// True when the best group was saturated and the request was
    /// diverted to the globally least-loaded GPU.
    pub spilled: bool,
}

/// Clique-aware request dispatcher.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    groups: Vec<Vec<GpuId>>,
    group_of_gpu: Vec<usize>,
    residency: ResidencyIndex,
    spill_len: usize,
    max_batch: usize,
}

impl Dispatcher {
    /// A dispatcher over `groups` (one entry per clique, each a
    /// non-empty list of GPU ids). `num_vertices` sizes the residency
    /// bitsets; `spill_len` is the absolute per-GPU queue length at
    /// which a group counts as saturated. Unbatched (`B = 1`): queues
    /// rank shortest first; see [`Dispatcher::batched`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or contains an empty group.
    pub fn new(groups: Vec<Vec<GpuId>>, num_vertices: usize, spill_len: usize) -> Self {
        assert!(!groups.is_empty(), "dispatcher needs at least one group");
        let max_gpu = groups
            .iter()
            .flat_map(|g| {
                assert!(!g.is_empty(), "route group must not be empty");
                g.iter().copied()
            })
            .max()
            .expect("non-empty groups");
        let mut group_of_gpu = vec![usize::MAX; max_gpu + 1];
        for (gi, members) in groups.iter().enumerate() {
            for &gpu in members {
                group_of_gpu[gpu] = gi;
            }
        }
        let residency = ResidencyIndex::new(num_vertices, groups.len());
        Dispatcher {
            groups,
            group_of_gpu,
            residency,
            spill_len: spill_len.max(1),
            max_batch: 1,
        }
    }

    /// The same dispatcher ranking queues in batch-filling order for
    /// micro-batches of `max_batch` requests (clamped to at least 1).
    pub fn batched(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Number of route groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// GPU members of group `g`.
    pub fn group_members(&self, g: usize) -> &[GpuId] {
        &self.groups[g]
    }

    /// Group the given GPU belongs to.
    pub fn group_of(&self, gpu: GpuId) -> usize {
        self.group_of_gpu[gpu]
    }

    /// Replace group `g`'s residency set (called at layout build and on
    /// every plan commit).
    pub fn refresh_group(&mut self, g: usize, vertices: &[VertexId]) {
        self.residency.refresh_group(g, vertices);
    }

    /// Clears `v`'s residency bit in every group, returning how many
    /// bits were actually cleared. The mutation fast path: a mutated
    /// vertex's cached rows are stale everywhere, so the router must
    /// stop steering its requests toward caches that can no longer
    /// serve it until the next plan commit refreshes the groups.
    pub fn invalidate_vertex(&mut self, v: VertexId) -> usize {
        (0..self.groups.len())
            .filter(|&g| self.residency.clear(g, v))
            .count()
    }

    /// Coverage score of group `g` for a probe slice (target vertex
    /// first, then its leading neighbors).
    pub fn score(&self, g: usize, probe: &[VertexId]) -> usize {
        self.residency.coverage(g, probe)
    }

    /// Route one request. `probe` is the target vertex followed by its
    /// first few neighbors; `queue_lens[gpu]` is the current admission
    /// queue depth of each GPU.
    pub fn route(&self, probe: &[VertexId], queue_lens: &[usize]) -> RouteDecision {
        // Top two groups by (coverage desc, index asc).
        let mut best = 0usize;
        let mut best_score = self.score(0, probe);
        let mut second: Option<(usize, usize)> = None;
        for g in 1..self.groups.len() {
            let s = self.score(g, probe);
            if s > best_score {
                second = Some((best, best_score));
                best = g;
                best_score = s;
            } else if second.is_none_or(|(_, ss)| s > ss) {
                second = Some((g, s));
            }
        }

        // Power-of-two-choices tie-break: equal coverage goes to the
        // group whose first GPU ranks earlier in batch-filling order,
        // further ties to the lower index (`best` already is the lower
        // index on equal scores).
        let rank = |gpu: GpuId| self.fill_rank(queue_lens[gpu]);
        let mut chosen = best;
        let mut gpu = self.first_to_fill(best, queue_lens);
        if let Some((g, s)) = second {
            let other = self.first_to_fill(g, queue_lens);
            if s == best_score && rank(other) < rank(gpu) {
                chosen = g;
                gpu = other;
            }
        }

        // Saturation check: if every GPU in the chosen group is at or
        // past the spill threshold, divert to the globally
        // least-loaded GPU (ties to the lowest id).
        if self.groups[chosen]
            .iter()
            .all(|&m| queue_lens[m] >= self.spill_len)
        {
            let gpu = (0..queue_lens.len())
                .min_by_key(|&m| queue_lens[m])
                .expect("at least one GPU");
            return RouteDecision {
                gpu,
                group: self.group_of_gpu[gpu],
                spilled: true,
            };
        }
        RouteDecision {
            gpu,
            group: chosen,
            spilled: false,
        }
    }

    /// [`route`](Self::route), then the in-clique pick goes to a sibling
    /// that would start the batch first: the first GPU in batch-filling
    /// order among the chosen group's members with `free[gpu]` set (idle,
    /// nothing in flight). The clique's pooled cache serves every member
    /// equally, so a busy GPU's open batch waits for its GPU while an idle
    /// sibling's would launch. With no free member, or on a spill, the
    /// decision is [`route`](Self::route)'s.
    pub fn route_to_free(
        &self,
        probe: &[VertexId],
        queue_lens: &[usize],
        free: &[bool],
    ) -> RouteDecision {
        let mut dec = self.route(probe, queue_lens);
        if !dec.spilled {
            if let Some(gpu) = self.groups[dec.group]
                .iter()
                .copied()
                .filter(|&m| free[m])
                .min_by_key(|&m| (self.fill_rank(queue_lens[m]), m))
            {
                dec.gpu = gpu;
            }
        }
        dec
    }

    /// Batch-filling rank of a queue `len` deep, lower first: an open
    /// batch (fullest first), then an empty queue, then a queue whose
    /// next batch is already full (shortest first).
    fn fill_rank(&self, len: usize) -> (u8, usize) {
        match len {
            0 => (1, 0),
            l if l < self.max_batch => (0, self.max_batch - l),
            l => (2, l),
        }
    }

    /// Group `g`'s first GPU in batch-filling order (ties to the lowest
    /// id).
    fn first_to_fill(&self, g: usize, queue_lens: &[usize]) -> GpuId {
        self.groups[g]
            .iter()
            .copied()
            .min_by_key(|&gpu| (self.fill_rank(queue_lens[gpu]), gpu))
            .expect("route groups are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Two cliques of two GPUs: group 0 = {0, 1}, group 1 = {2, 3}.
    fn two_clique_dispatcher(spill_len: usize) -> Dispatcher {
        let mut d = Dispatcher::new(vec![vec![0, 1], vec![2, 3]], 100, spill_len);
        d.refresh_group(0, &[0, 1, 2, 3]);
        d.refresh_group(1, &[50, 51, 52, 53]);
        d
    }

    #[test]
    fn routes_to_the_highest_coverage_group() {
        let d = two_clique_dispatcher(100);
        let lens = [5, 5, 0, 0];
        // Target 1 + neighbors 2, 3 are all resident in group 0, none
        // in group 1 — coverage wins even though group 1 is idle.
        let dec = d.route(&[1, 2, 3], &lens);
        assert_eq!(dec.group, 0);
        assert!(!dec.spilled);
        // Shortest queue within the group (tie → lowest id).
        assert_eq!(dec.gpu, 0);

        let dec = d.route(&[51, 52, 9], &lens);
        assert_eq!(dec.group, 1);
        assert_eq!(dec.gpu, 2);
    }

    #[test]
    fn equal_coverage_breaks_by_group_load_then_index() {
        let d = two_clique_dispatcher(100);
        // Vertex 99 is resident nowhere: scores tie at 0.
        let dec = d.route(&[99], &[3, 3, 1, 1]);
        assert_eq!(dec.group, 1, "less-loaded group wins the tie");
        let dec = d.route(&[99], &[2, 2, 2, 2]);
        assert_eq!(dec.group, 0, "full tie falls to the lower index");
    }

    #[test]
    fn within_group_shortest_queue_wins() {
        let d = two_clique_dispatcher(100);
        let dec = d.route(&[1, 2], &[7, 2, 0, 0]);
        assert_eq!(dec.group, 0);
        assert_eq!(dec.gpu, 1);
    }

    #[test]
    fn spills_to_globally_least_loaded_when_best_group_saturates() {
        let d = two_clique_dispatcher(4);
        // Group 0 holds the whole probe but both its queues are at the
        // threshold; GPU 3 is the global minimum.
        let dec = d.route(&[1, 2, 3], &[4, 6, 5, 2]);
        assert!(dec.spilled);
        assert_eq!(dec.gpu, 3);
        assert_eq!(dec.group, 1);
        // One queue under the threshold keeps routing local.
        let dec = d.route(&[1, 2, 3], &[4, 3, 0, 0]);
        assert!(!dec.spilled);
        assert_eq!(dec.gpu, 1);
        assert_eq!(dec.group, 0);
    }

    #[test]
    fn invalidate_vertex_clears_bits_and_redirects_routing() {
        let mut d = two_clique_dispatcher(100);
        d.refresh_group(1, &[1, 50]); // vertex 1 resident in both groups
        assert_eq!(d.residency.resident_count(0), 4);
        assert_eq!(d.invalidate_vertex(1), 2, "cleared in both groups");
        assert_eq!(d.invalidate_vertex(1), 0, "second clear is a no-op");
        assert_eq!(d.residency.resident_count(0), 3);
        assert!(!d.residency.contains(0, 1));
        // Out-of-range ids are ignored.
        assert_eq!(d.invalidate_vertex(10_000), 0);
        // Probing only the invalidated vertex now ties at 0 coverage and
        // falls through to load.
        let dec = d.route(&[1], &[5, 5, 0, 0]);
        assert_eq!(dec.group, 1);
    }

    #[test]
    fn higher_coverage_beats_lower_load() {
        let d = two_clique_dispatcher(100);
        // Group 0 scores 1, group 1 scores 0: load does not override a
        // strict coverage win.
        let dec = d.route(&[1, 99], &[9, 9, 0, 0]);
        assert_eq!(dec.group, 0);
        assert!(!dec.spilled);
    }

    /// Two cliques of two GPUs batching `max_batch` requests.
    fn batched_dispatcher(spill_len: usize, max_batch: usize) -> Dispatcher {
        two_clique_dispatcher(spill_len).batched(max_batch)
    }

    #[test]
    fn fullest_open_batch_beats_a_shorter_queue() {
        let d = batched_dispatcher(100, 4);
        let dec = d.route(&[1, 2], &[1, 3, 0, 0]);
        assert_eq!((dec.group, dec.gpu), (0, 1), "3 of 4 fills before 1 of 4");
        let dec = d.route(&[1, 2], &[0, 2, 0, 0]);
        assert_eq!(dec.gpu, 1, "an open batch beats an empty queue");
        let dec = d.route(&[1, 2], &[2, 2, 0, 0]);
        assert_eq!(dec.gpu, 0, "equal open batches tie to the lowest id");
    }

    #[test]
    fn an_empty_queue_beats_a_full_one() {
        let d = batched_dispatcher(100, 4);
        assert_eq!(d.route(&[1, 2], &[4, 0, 0, 0]).gpu, 1);
        assert_eq!(d.route(&[1, 2], &[0, 6, 0, 0]).gpu, 0);
    }

    #[test]
    fn with_every_next_batch_full_it_is_shortest_queue() {
        let d = batched_dispatcher(100, 4);
        assert_eq!(d.route(&[1, 2], &[7, 5, 0, 0]).gpu, 1);
        assert_eq!(d.route(&[1, 2], &[4, 4, 0, 0]).gpu, 0);
    }

    #[test]
    fn coverage_tie_goes_to_the_group_with_the_fuller_open_batch() {
        let d = batched_dispatcher(100, 4);
        // Vertex 99 is resident nowhere: scores tie at 0. Group 1 holds
        // more queued work in total but the fuller open batch.
        let dec = d.route(&[99], &[0, 0, 3, 3]);
        assert_eq!((dec.group, dec.gpu), (1, 2));
        let dec = d.route(&[99], &[1, 0, 0, 0]);
        assert_eq!(
            (dec.group, dec.gpu),
            (0, 0),
            "open beats empty across groups"
        );
        let dec = d.route(&[99], &[2, 5, 2, 0]);
        assert_eq!(dec.group, 0, "equal first members tie to the lower index");
    }

    #[test]
    fn batched_spill_still_reads_real_lengths() {
        // Batches of 8 but a spill threshold of 4: open batches at 5
        // and 4 rank first in fill order, yet the group is saturated.
        let d = batched_dispatcher(4, 8);
        let dec = d.route(&[1, 2, 3], &[5, 4, 1, 0]);
        assert!(dec.spilled);
        assert_eq!((dec.group, dec.gpu), (1, 3));
        // A spill ignores which members are free.
        assert_eq!(d.route_to_free(&[1, 2, 3], &[5, 4, 1, 0], &[true; 4]), dec);
        let dec = d.route(&[1, 2, 3], &[5, 3, 0, 0]);
        assert!(!dec.spilled);
        assert_eq!(
            dec.gpu, 0,
            "one member under the threshold keeps fill order"
        );
    }

    #[test]
    fn an_idle_sibling_takes_the_arrival_from_a_busy_one() {
        let d = batched_dispatcher(100, 4);
        // GPU 1 holds the fuller open batch but is serving; GPU 0 is idle.
        let dec = d.route_to_free(&[1, 2], &[1, 3, 0, 0], &[true, false, true, true]);
        assert_eq!((dec.group, dec.gpu), (0, 0));
        // Among free members the fullest open batch still wins.
        let dec = d.route_to_free(&[1, 2], &[1, 3, 0, 0], &[true; 4]);
        assert_eq!(dec.gpu, 1);
        // No free member: the fill rank picks, as in `route`.
        let dec = d.route_to_free(&[1, 2], &[1, 3, 0, 0], &[false, false, true, true]);
        assert_eq!(dec, d.route(&[1, 2], &[1, 3, 0, 0]));
        // The clique is still chosen by coverage, not by who is free.
        let dec = d.route_to_free(&[51, 52], &[0, 0, 2, 1], &[true, true, false, true]);
        assert_eq!((dec.group, dec.gpu), (1, 3));
    }

    /// Naive reference for single-member groups: the top two groups by
    /// (coverage desc, index asc), the shorter queue of the two on equal
    /// coverage, spilling to the lowest-id shortest queue at `spill_len`.
    fn shortest_queue_reference(
        resident: &[Vec<bool>],
        probe: &[VertexId],
        lens: &[usize],
        spill_len: usize,
    ) -> RouteDecision {
        let score = |g: usize| probe.iter().filter(|&&v| resident[g][v as usize]).count();
        let mut order: Vec<usize> = (0..resident.len()).collect();
        order.sort_by_key(|&g| std::cmp::Reverse(score(g)));
        let mut chosen = order[0];
        if let Some(&g) = order.get(1) {
            if score(g) == score(chosen) && lens[g] < lens[chosen] {
                chosen = g;
            }
        }
        if lens[chosen] >= spill_len {
            let min = *lens.iter().min().unwrap();
            let gpu = lens.iter().position(|&l| l == min).unwrap();
            return RouteDecision {
                gpu,
                group: gpu,
                spilled: true,
            };
        }
        RouteDecision {
            gpu: chosen,
            group: chosen,
            spilled: false,
        }
    }

    proptest! {
        #[test]
        fn unbatched_single_member_groups_route_by_shortest_queue(
            (resident, lens) in (1usize..6).prop_flat_map(|n| (
                proptest::collection::vec(proptest::collection::vec(any::<bool>(), 12), n),
                proptest::collection::vec(0usize..8, n),
            )),
            probe in proptest::collection::vec(0u32..12, 1..6),
            spill_len in 1usize..10,
        ) {
            let groups = (0..resident.len()).map(|g| vec![g]).collect();
            let mut d = Dispatcher::new(groups, 12, spill_len);
            for (g, bits) in resident.iter().enumerate() {
                let set: Vec<VertexId> = (0..12).filter(|&v| bits[v as usize]).collect();
                d.refresh_group(g, &set);
            }
            prop_assert_eq!(
                d.route(&probe, &lens),
                shortest_queue_reference(&resident, &probe, &lens, spill_len)
            );
        }
    }
}
