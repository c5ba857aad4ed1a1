//! Streaming Linear Deterministic Greedy (LDG) partitioning.
//!
//! Our stand-in for XtraPulp's scalable edge-cut-minimizing partitioning
//! (the paper partitions UK-2014 with XtraPulp in 75 minutes; §6.6).
//! LDG [Stanton & Kliot, KDD'12] streams vertices and places each on the
//! part maximizing `|N(v) ∩ P_i| * (1 - |P_i| / C)` — neighbors pull a
//! vertex toward a part, the penalty term keeps parts balanced. We run a
//! configurable number of passes; later passes re-place vertices with full
//! knowledge of the previous assignment, which substantially lowers the
//! cut on power-law graphs.

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

/// Parts counted per 64-bit word: eight 8-bit lanes.
const LANES: usize = 8;

/// Neighbours a lane can count before it is flushed.
const LANE_MAX: usize = u8::MAX as usize;

/// `LANE_ONE[l]` adds one to lane `l`; index [`LANES`] is "some other
/// word, or unassigned" and adds nothing. (A load, because a variable
/// shift costs more than one on the baseline x86-64 target.)
const LANE_ONE: [u64; LANES + 1] = [
    1,
    1 << 8,
    1 << 16,
    1 << 24,
    1 << 32,
    1 << 40,
    1 << 48,
    1 << 56,
    0,
];

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

/// Adds to `counts[p]` the number of `row`'s vertices assigned to part
/// `p`, for every part; unassigned vertices count nowhere.
///
/// Eight parts share a `u64` of 8-bit lanes held in a register, so the
/// additions of one row do not wait on each other through memory the
/// way `score[p] += 1.0` does. Part `p` lives in word `p / 8`; a row is
/// walked once per word (once for `k <= 8`: a part is a GPU clique or a
/// server of a small fleet) and in chunks of at most [`LANE_MAX`]
/// neighbours, so no lane can carry into the next.
#[inline]
fn count_parts(row: &[VertexId], assignment: &[u32], counts: &mut [u32]) {
    for (word, counts) in counts.chunks_mut(LANES).enumerate() {
        let first_part = (word * LANES) as u32;
        for chunk in row.chunks(LANE_MAX) {
            let mut lanes = 0u64;
            for &u in chunk {
                // `first_part` is a multiple of eight, so the xor is the
                // lane for this word's parts and at least eight for any
                // other part and for `UNASSIGNED`.
                let lane = assignment[u as usize] ^ first_part;
                lanes += LANE_ONE[lane.min(LANES as u32) as usize];
            }
            for (lane, count) in counts.iter_mut().enumerate() {
                *count += u32::from((lanes >> (lane * 8)) as u8);
            }
        }
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
        let mut counts = vec![0u32; k];

        for pass in 0..self.passes {
            for v in 0..n {
                if pass > 0 {
                    // Re-placement: remove v from its current part first
                    // (a self-loop still counts v towards that part).
                    sizes[assignment[v] as usize] -= 1;
                }
                counts.fill(0);
                count_parts(neighbours.row(v), &assignment, &mut counts);
                let mut best = 0usize;
                let mut best_score = f64::NEG_INFINITY;
                for (p, &count) in counts.iter().enumerate() {
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
                assignment[v] = best as u32;
                sizes[best] += 1;
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
    fn count_parts_matches_a_plain_tally_on_long_rows_and_many_words() {
        // 1000 neighbours: 600 in a row in part 0 (more than two lane
        // flushes), the rest spread over 19 parts (three lane words)
        // with every seventh one unassigned.
        let assignment: Vec<u32> = (0..1000u32)
            .map(|v| match v {
                0..600 => 0,
                _ if v % 7 == 3 => UNASSIGNED,
                _ => v % 19,
            })
            .collect();
        let row: Vec<VertexId> = (0..1000).rev().collect();
        let mut counts = vec![0u32; 19];
        count_parts(&row, &assignment, &mut counts);
        let mut tally = vec![0u32; 19];
        for &p in assignment.iter().filter(|&&p| p != UNASSIGNED) {
            tally[p as usize] += 1;
        }
        assert_eq!(counts, tally);
        assert!(tally[0] > 2 * LANE_MAX as u32);
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
