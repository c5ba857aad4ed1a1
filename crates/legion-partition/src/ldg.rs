//! Streaming Linear Deterministic Greedy (LDG) partitioning.
//!
//! Our stand-in for XtraPulp's scalable edge-cut-minimizing partitioning
//! (the paper partitions UK-2014 with XtraPulp in 75 minutes; §6.6).
//! LDG [Stanton & Kliot, KDD'12] streams vertices and places each on the
//! part maximizing `|N(v) ∩ P_i| * (1 - |P_i| / C)` — neighbors pull a
//! vertex toward a part, the penalty term keeps parts balanced. We run up
//! to `passes` passes and stop at a fixed point; later passes re-place
//! vertices with full knowledge of the previous assignment, which
//! substantially lowers the cut on power-law graphs.

use legion_graph::{CsrGraph, VertexId};

use crate::Partitioner;

/// Streaming LDG partitioner.
#[derive(Debug, Clone, Copy)]
pub struct LdgPartitioner {
    /// Number of streaming passes (>= 1). The first pass streams over
    /// unassigned vertices; later passes refine.
    pub passes: usize,
    /// Slack multiplier on the per-part capacity `C = slack * n / k`.
    pub capacity_slack: f64,
}

impl Default for LdgPartitioner {
    fn default() -> Self {
        Self {
            passes: 3,
            capacity_slack: 1.05,
        }
    }
}

/// Not yet placed (first pass only).
const UNASSIGNED: u32 = u32::MAX;

/// The undirected neighbour sets LDG sums over: row `v` lists every `u`
/// with an edge `v -> u` or `u -> v` exactly once (a self-loop lists `v`
/// itself once) — [`CsrGraph::symmetrize`]'s edge set, in no particular
/// order. The score only *sums* over a row, so the order is free; it
/// sums each neighbour once, so de-duplication is not.
struct NeighbourSets {
    offsets: Vec<usize>,
    cols: Vec<VertexId>,
}

impl NeighbourSets {
    /// `O(V + E)`, no sort and no merge: size row `v` for its out- plus
    /// in-degree, copy the out-row, scatter `v` into the row of each of
    /// its out-neighbours, then squeeze repeats out of every row in
    /// place with a last-seen-in-row stamp per vertex. Unsorted rows,
    /// parallel edges and self-loops need no special case.
    fn of(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut cursor = vec![0usize; n];
        for &u in g.col_indices() {
            cursor[u as usize] += 1;
        }
        let mut cols: Vec<VertexId> = vec![0; 2 * g.num_edges()];
        let mut offsets = Vec::with_capacity(n + 1);
        let mut end = 0usize;
        for (v, slot) in cursor.iter_mut().enumerate() {
            offsets.push(end);
            let out = g.neighbors(v as VertexId);
            cols[end..end + out.len()].copy_from_slice(out);
            // The in-degree counted above becomes the write cursor for
            // the in-neighbours, which go after the out-row.
            let in_degree = std::mem::replace(slot, end + out.len());
            end += out.len() + in_degree;
        }
        offsets.push(end);
        for (v, u) in g.edges() {
            cols[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }

        let mut last_row = vec![VertexId::MAX; n];
        let mut kept = 0usize;
        for v in 0..n {
            let row = std::mem::replace(&mut offsets[v], kept)..offsets[v + 1];
            for i in row {
                let u = cols[i];
                // `kept <= i`: write first, keep the slot only if `u` is new.
                cols[kept] = u;
                kept += usize::from(last_row[u as usize] != v as VertexId);
                last_row[u as usize] = v as VertexId;
            }
        }
        offsets[n] = kept;
        cols.truncate(kept);
        Self { offsets, cols }
    }

    #[inline]
    fn row(&self, v: usize) -> &[VertexId] {
        &self.cols[self.offsets[v]..self.offsets[v + 1]]
    }
}

impl Partitioner for LdgPartitioner {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        assert!(k > 0, "cannot partition into zero parts");
        assert!(self.passes >= 1, "LDG needs at least one pass");
        let n = g.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }
        let neighbours = NeighbourSets::of(g);
        let capacity = (self.capacity_slack * n as f64 / k as f64).max(1.0);
        let mut assignment: Vec<u32> = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; k];
        // `counts[v * k + p]`: how many of `v`'s neighbours are in part
        // `p` now. Kept current by pushing each move to the mover's
        // neighbours, so a visit reads `k` counts instead of its row.
        let mut counts = vec![0u32; n * k];

        for pass in 0..self.passes {
            let mut moved = false;
            for v in 0..n {
                let old = assignment[v];
                if pass > 0 {
                    // Re-placement: remove v from its current part first
                    // (a self-loop still counts v towards that part).
                    sizes[old as usize] -= 1;
                }
                let mut best = 0usize;
                let mut best_score = f64::NEG_INFINITY;
                for (p, &count) in counts[v * k..(v + 1) * k].iter().enumerate() {
                    let penalty = 1.0 - sizes[p] as f64 / capacity;
                    // A full part is never chosen unless all are full.
                    let total = if sizes[p] as f64 >= capacity {
                        f64::NEG_INFINITY
                    } else {
                        f64::from(count) * penalty.max(0.0) + 1e-9 * penalty
                    };
                    if total > best_score {
                        best_score = total;
                        best = p;
                    }
                }
                if best_score == f64::NEG_INFINITY {
                    // Everything at capacity: pick the smallest part.
                    best = (0..k).min_by_key(|&p| sizes[p]).expect("k > 0");
                }
                sizes[best] += 1;
                if best as u32 == old {
                    continue;
                }
                // A self-loop lists `v` in its own row once, so its own
                // count moves with it.
                for &u in neighbours.row(v) {
                    let row = u as usize * k;
                    if old != UNASSIGNED {
                        counts[row + old as usize] -= 1;
                    }
                    counts[row + best] += 1;
                }
                assignment[v] = best as u32;
                moved = true;
            }
            // Fixed point: when a refinement pass moves nothing, every
            // visit of it saw the assignment and sizes the pass started
            // with, which are also the ones it ends with — so every visit
            // of the next pass would see them again and decide the same.
            // (Pass 0 moves every vertex, so it never stops here.)
            if !moved {
                break;
            }
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "ldg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut_ratio};
    use crate::HashPartitioner;
    use legion_graph::builder::from_edges;
    use legion_graph::generate::SbmConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn community_graph() -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(99);
        SbmConfig {
            num_vertices: 2000,
            num_communities: 4,
            avg_degree: 12,
            intra_prob: 0.92,
            feature_dim: 1,
            ..Default::default()
        }
        .generate(&mut rng)
        .graph
    }

    #[test]
    fn stops_at_the_first_refinement_pass_that_moves_nothing() {
        // A chain of eight 12-cliques, each joined to the next by one
        // edge: pass 0 already puts every clique whole on one of the four
        // parts, and no later pass takes a vertex off it.
        let mut edges: Vec<_> = (0..84).step_by(12).map(|v| (v, v + 23)).collect();
        for base in (0..96).step_by(12) {
            for a in 0..12 {
                edges.extend((a + 1..12).map(|b| (base + a, base + b)));
            }
        }
        let g = from_edges(96, &edges);
        let run = |passes| {
            LdgPartitioner {
                passes,
                ..LdgPartitioner::default()
            }
            .partition(&g, 4)
        };
        // One pass equal to two: the first refinement pass moved nothing.
        let fixed_point = run(1);
        for passes in [2, 3, 50] {
            assert_eq!(run(passes), fixed_point, "passes = {passes}");
        }
    }

    #[test]
    fn output_is_valid() {
        let g = community_graph();
        let a = LdgPartitioner::default().partition(&g, 4);
        assert_eq!(a.len(), g.num_vertices());
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn beats_hash_on_community_graphs() {
        let g = community_graph();
        let ldg = LdgPartitioner::default().partition(&g, 4);
        let hash = HashPartitioner.partition(&g, 4);
        let ldg_cut = edge_cut_ratio(&g, &ldg);
        let hash_cut = edge_cut_ratio(&g, &hash);
        assert!(
            ldg_cut < 0.6 * hash_cut,
            "LDG cut {ldg_cut} vs hash cut {hash_cut}"
        );
    }

    #[test]
    fn respects_balance() {
        let g = community_graph();
        let a = LdgPartitioner::default().partition(&g, 4);
        assert!(balance(&a, 4) < 1.10, "balance {}", balance(&a, 4));
    }

    #[test]
    fn single_part_is_all_zero() {
        let g = community_graph();
        let a = LdgPartitioner::default().partition(&g, 1);
        assert!(a.iter().all(|&p| p == 0));
    }

    #[test]
    fn empty_graph_yields_empty_assignment() {
        let g = CsrGraph::empty(0);
        assert!(LdgPartitioner::default().partition(&g, 3).is_empty());
    }

    #[test]
    fn more_parts_than_vertices() {
        let g = CsrGraph::empty(2);
        let a = LdgPartitioner::default().partition(&g, 8);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&p| p < 8));
    }
}
