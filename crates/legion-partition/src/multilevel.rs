//! Multilevel k-way edge-cut partitioner (METIS stand-in).
//!
//! The classic three-phase scheme the paper relies on for inter-clique
//! partitioning (§4.1 S2, "an edge-cut minimizing partitioning algorithm,
//! e.g., METIS and XtraPulp"):
//!
//! 1. **Coarsening** — heavy-edge matching collapses matched pairs until
//!    the graph is small,
//! 2. **Initial partitioning** — greedy region growing on the coarsest
//!    graph, balanced by collapsed vertex weight,
//! 3. **Uncoarsening + refinement** — the assignment is projected back
//!    level by level, with FM-style boundary passes moving vertices to the
//!    part they are most connected to, subject to a balance tolerance.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use legion_graph::{CsrGraph, VertexId};

use crate::Partitioner;

/// Coarsening stops once the graph has at most `COARSEN_TARGET * k`
/// vertices.
const COARSEN_TARGET: usize = 30;

/// Boundary-refinement passes per level.
const REFINEMENT_PASSES: usize = 4;

/// Maximum allowed part weight as a multiple of the ideal weight.
pub const BALANCE_TOLERANCE: f64 = 1.05;

/// Multilevel partitioner configuration.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelPartitioner {
    /// RNG seed (matching order and growth seeds).
    pub seed: u64,
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        Self { seed: 0x1e91 }
    }
}

/// One coarsening level: weighted undirected graph plus the mapping from
/// the finer level's vertices onto this one.
struct Level {
    /// Adjacency with summed edge weights (no self-loops).
    adj: Vec<Vec<(u32, u64)>>,
    /// Collapsed vertex weights.
    vweight: Vec<u64>,
}

impl Level {
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn total_weight(&self) -> u64 {
        self.vweight.iter().sum()
    }
}

/// Builds the finest level from the (symmetrized) input graph.
fn finest_level(g: &CsrGraph) -> Level {
    let sym = g.symmetrize();
    let n = sym.num_vertices();
    let mut adj: Vec<Vec<(u32, u64)>> = Vec::with_capacity(n);
    for v in 0..n as VertexId {
        // `symmetrize` rows are sorted and unique; only self-loops go.
        adj.push(
            sym.neighbors(v)
                .iter()
                .filter(|&&u| u != v)
                .map(|&u| (u, 1u64))
                .collect(),
        );
    }
    Level {
        adj,
        vweight: vec![1; n],
    }
}

/// Heavy-edge matching: returns `(coarse_map, coarse_count)` or `None`
/// when matching makes no progress.
fn heavy_edge_matching(level: &Level, rng: &mut StdRng) -> Option<(Vec<u32>, usize)> {
    let n = level.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut mate = vec![usize::MAX; n];
    let mut matched = 0usize;
    for &v in &order {
        if mate[v] != usize::MAX {
            continue;
        }
        let mut best = usize::MAX;
        let mut best_w = 0u64;
        for &(u, w) in &level.adj[v] {
            let u = u as usize;
            if mate[u] == usize::MAX && w > best_w {
                best = u;
                best_w = w;
            }
        }
        if best != usize::MAX {
            mate[v] = best;
            mate[best] = v;
            matched += 1;
        }
    }
    if matched == 0 {
        return None;
    }
    let mut coarse_map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if coarse_map[v] != u32::MAX {
            continue;
        }
        coarse_map[v] = next;
        if mate[v] != usize::MAX {
            coarse_map[mate[v]] = next;
        }
        next += 1;
    }
    Some((coarse_map, next as usize))
}

/// Contracts a level along `coarse_map`.
fn contract(level: &Level, coarse_map: &[u32], coarse_n: usize) -> Level {
    let mut vweight = vec![0u64; coarse_n];
    for (v, &c) in coarse_map.iter().enumerate() {
        vweight[c as usize] += level.vweight[v];
    }
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); coarse_n];
    for (v, row) in level.adj.iter().enumerate() {
        let cv = coarse_map[v];
        for &(u, w) in row {
            let cu = coarse_map[u as usize];
            if cu != cv {
                adj[cv as usize].push((cu, w));
            }
        }
    }
    for row in &mut adj {
        row.sort_unstable();
        row.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
    }
    Level { adj, vweight }
}

/// Greedy region growing on the coarsest level.
fn initial_partition(level: &Level, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = level.num_vertices();
    let total = level.total_weight();
    let target = (total as f64 / k as f64).ceil() as u64;
    let mut assignment = vec![u32::MAX; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    for part in 0..k as u32 {
        remaining.retain(|&v| assignment[v] == u32::MAX);
        if remaining.is_empty() {
            break;
        }
        // Seed: random unassigned vertex.
        let seed = remaining[rng.gen_range(0..remaining.len())];
        let mut weight = 0u64;
        let mut frontier = std::collections::VecDeque::new();
        frontier.push_back(seed);
        while let Some(v) = frontier.pop_front() {
            if assignment[v] != u32::MAX {
                continue;
            }
            assignment[v] = part;
            weight += level.vweight[v];
            if weight >= target && part + 1 < k as u32 {
                break;
            }
            for &(u, _) in &level.adj[v] {
                if assignment[u as usize] == u32::MAX {
                    frontier.push_back(u as usize);
                }
            }
            // If the frontier dries up before the target, jump to another
            // unassigned vertex so the part still reaches its share.
            if frontier.is_empty() && weight < target {
                if let Some(&next) = remaining.iter().find(|&&u| assignment[u] == u32::MAX) {
                    frontier.push_back(next);
                }
            }
        }
    }
    // Any stragglers go to the lightest part.
    let mut weights = vec![0u64; k];
    for (v, &p) in assignment.iter().enumerate() {
        if p != u32::MAX {
            weights[p as usize] += level.vweight[v];
        }
    }
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        if assignment[v] == u32::MAX {
            let lightest = (0..k).min_by_key(|&p| weights[p]).expect("k > 0");
            assignment[v] = lightest as u32;
            weights[lightest] += level.vweight[v];
        }
    }
    assignment
}

/// FM-style boundary refinement: greedily move vertices to the part they
/// are most connected to, while keeping every part under the tolerance.
fn refine(level: &Level, assignment: &mut [u32], k: usize) {
    let total = level.total_weight();
    let max_weight = (BALANCE_TOLERANCE * total as f64 / k as f64).ceil() as u64;
    let mut weights = vec![0u64; k];
    for (v, &p) in assignment.iter().enumerate() {
        weights[p as usize] += level.vweight[v];
    }
    let mut conn = vec![0u64; k];
    for _ in 0..REFINEMENT_PASSES {
        let mut moved = 0usize;
        for v in 0..level.num_vertices() {
            let from = assignment[v] as usize;
            if level.adj[v].is_empty() {
                continue;
            }
            for c in conn.iter_mut() {
                *c = 0;
            }
            for &(u, w) in &level.adj[v] {
                conn[assignment[u as usize] as usize] += w;
            }
            let mut best = from;
            let mut best_gain = 0i64;
            for p in 0..k {
                if p == from {
                    continue;
                }
                let gain = conn[p] as i64 - conn[from] as i64;
                let fits = weights[p] + level.vweight[v] <= max_weight;
                if gain > best_gain && fits {
                    best_gain = gain;
                    best = p;
                }
            }
            if best != from {
                weights[from] -= level.vweight[v];
                weights[best] += level.vweight[v];
                assignment[v] = best as u32;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        assert!(k > 0, "cannot partition into zero parts");
        let n = g.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Phase 1: coarsen.
        let mut levels = vec![finest_level(g)];
        let mut maps: Vec<Vec<u32>> = Vec::new();
        let stop_at = (COARSEN_TARGET * k).max(32);
        loop {
            let top = levels.last().expect("at least the finest level");
            if top.num_vertices() <= stop_at {
                break;
            }
            match heavy_edge_matching(top, &mut rng) {
                Some((map, coarse_n)) => {
                    // Require at least 5% shrinkage to continue.
                    if coarse_n as f64 > 0.95 * top.num_vertices() as f64 {
                        break;
                    }
                    let coarse = contract(top, &map, coarse_n);
                    maps.push(map);
                    levels.push(coarse);
                }
                None => break,
            }
        }
        // Phase 2: initial partition on the coarsest level.
        let coarsest = levels.last().expect("non-empty");
        let mut assignment = initial_partition(coarsest, k, &mut rng);
        refine(coarsest, &mut assignment, k);
        // Phase 3: project back and refine each level.
        for li in (0..maps.len()).rev() {
            let fine = &levels[li];
            let map = &maps[li];
            let mut fine_assignment = vec![0u32; fine.num_vertices()];
            for (v, &c) in map.iter().enumerate() {
                fine_assignment[v] = assignment[c as usize];
            }
            refine(fine, &mut fine_assignment, k);
            assignment = fine_assignment;
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "multilevel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut_ratio};
    use crate::HashPartitioner;
    use legion_graph::builder::from_edges;
    use legion_graph::generate::SbmConfig;
    use legion_graph::GraphBuilder;

    fn community_graph(n: usize, k: usize) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(5);
        SbmConfig {
            num_vertices: n,
            num_communities: k,
            avg_degree: 12,
            intra_prob: 0.93,
            feature_dim: 1,
            ..Default::default()
        }
        .generate(&mut rng)
        .graph
    }

    #[test]
    fn output_is_valid_partition() {
        let g = community_graph(3000, 4);
        let a = MultilevelPartitioner::default().partition(&g, 4);
        assert_eq!(a.len(), 3000);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn recovers_planted_communities_better_than_hash() {
        let g = community_graph(3000, 2);
        let ml = MultilevelPartitioner::default().partition(&g, 2);
        let hash = HashPartitioner.partition(&g, 2);
        let ml_cut = edge_cut_ratio(&g, &ml);
        let hash_cut = edge_cut_ratio(&g, &hash);
        assert!(
            ml_cut < 0.4 * hash_cut,
            "multilevel cut {ml_cut} vs hash {hash_cut}"
        );
    }

    #[test]
    fn respects_balance_tolerance() {
        let g = community_graph(4000, 4);
        let a = MultilevelPartitioner::default().partition(&g, 4);
        assert!(
            balance(&a, 4) <= BALANCE_TOLERANCE + 0.05,
            "balance {}",
            balance(&a, 4)
        );
    }

    #[test]
    fn separates_two_disconnected_cliques_perfectly() {
        // Two 8-cliques joined by one bridge edge.
        let mut b = GraphBuilder::new(16);
        for base in [0u32, 8] {
            for i in base..base + 8 {
                for j in base..base + 8 {
                    if i != j {
                        b.push_edge(i, j);
                    }
                }
            }
        }
        b.push_edge(0, 8);
        let g = b.build();
        let a = MultilevelPartitioner::default().partition(&g, 2);
        // Within each clique the assignment is uniform.
        assert!(a[0..8].iter().all(|&p| p == a[0]));
        assert!(a[8..16].iter().all(|&p| p == a[8]));
        assert_ne!(a[0], a[8]);
    }

    #[test]
    fn single_part_trivial() {
        let g = community_graph(100, 2);
        let a = MultilevelPartitioner::default().partition(&g, 1);
        assert!(a.iter().all(|&p| p == 0));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(MultilevelPartitioner::default().partition(&g, 2).is_empty());
    }

    #[test]
    fn graph_smaller_than_k() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let a = MultilevelPartitioner::default().partition(&g, 8);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&p| p < 8));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = community_graph(1000, 4);
        let p = MultilevelPartitioner::default();
        assert_eq!(p.partition(&g, 4), p.partition(&g, 4));
    }
}
