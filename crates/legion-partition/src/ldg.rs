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
//!
//! `N(v)` is undirected: every `u` with an edge `v -> u` or `u -> v`,
//! once. LDG does not build those sets. It reads the graph's own sorted
//! out-rows and builds only the reverse rows (at most `E` ids, `u32`
//! offsets), keeping in row `v` just the in-neighbours `v`'s out-row
//! misses. A move walks the two rows one after the other, so a
//! reciprocal edge, a parallel edge or a self-loop counts once, and the
//! walk is as plain as a materialised set's. (A merge of the two full
//! rows on every move read slower on PA/500 than the sets it replaced.)

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

/// The neighbours the out-rows miss: row `v` lists, once each, every `u`
/// with an edge `u -> v` that is not an out-neighbour of `v`. With `v`'s
/// out-row, repeats skipped, it makes up `v`'s undirected neighbours
/// exactly once.
struct ReverseRows {
    offsets: Vec<u32>,
    cols: Vec<VertexId>,
}

impl ReverseRows {
    /// A counting sort by target, then one squeeze a row. The offsets
    /// double as the scatter cursors: each ends the scatter at the next
    /// row's start, and one shift puts them back. The squeeze stamps
    /// `v`'s out-row, then keeps each source of row `v` that carries no
    /// stamp of `v` yet, stamping it, so a reciprocal edge, a self-loop
    /// or a parallel edge leaves nothing behind; it writes before it
    /// decides, so it does not branch on the data.
    fn of(forward: &CsrGraph) -> Self {
        let n = forward.num_vertices();
        let edges = u32::try_from(forward.num_edges()).expect("LDG indexes edges in u32");
        let mut offsets = vec![0u32; n + 1];
        for &u in forward.col_indices() {
            offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cols: Vec<VertexId> = vec![0; edges as usize];
        for (v, u) in forward.edges() {
            let at = &mut offsets[u as usize];
            cols[*at as usize] = v;
            *at += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;

        let mut stamp = vec![VertexId::MAX; n];
        let mut kept = 0;
        for v in 0..n {
            let row =
                std::mem::replace(&mut offsets[v], kept as u32) as usize..offsets[v + 1] as usize;
            for &u in forward.neighbors(v as VertexId) {
                stamp[u as usize] = v as VertexId;
            }
            for at in row {
                let u = cols[at];
                // `kept <= at`: write first, keep the slot only if `u` is new.
                cols[kept] = u;
                kept += usize::from(stamp[u as usize] != v as VertexId);
                stamp[u as usize] = v as VertexId;
            }
        }
        offsets[n] = kept as u32;
        cols.truncate(kept);
        Self { offsets, cols }
    }

    #[inline]
    fn row(&self, v: usize) -> &[VertexId] {
        &self.cols[self.offsets[v] as usize..self.offsets[v + 1] as usize]
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
        // Rows from `from_parts` may be unsorted; the walk skips a
        // parallel edge's repeats only when they sit side by side.
        let sorted = g.with_sorted_rows();
        let forward: &CsrGraph = &sorted;
        let reverse = ReverseRows::of(forward);
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
                // A self-loop lists `v` among its own neighbours once, so
                // its own count moves with it.
                let mut push = |u: VertexId| {
                    let row = u as usize * k;
                    if old != UNASSIGNED {
                        counts[row + old as usize] -= 1;
                    }
                    counts[row + best] += 1;
                };
                let mut last = None;
                for &u in forward.neighbors(v as VertexId) {
                    // A sorted out-row holds a parallel edge's repeats
                    // side by side.
                    if last != Some(u) {
                        push(u);
                        last = Some(u);
                    }
                }
                reverse.row(v).iter().for_each(|&u| push(u));
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
    use legion_graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// LDG as first written: the neighbour sets materialised as the
    /// symmetrised graph, and every visit scans its row to count `v`'s
    /// neighbours per part. The partitioner keeps those counts in a
    /// table and walks the two rows only on a move.
    fn ldg_by_scan(ldg: &LdgPartitioner, g: &CsrGraph, k: usize) -> Vec<u32> {
        let n = g.num_vertices();
        let sym = g.symmetrize();
        let capacity = (ldg.capacity_slack * n as f64 / k as f64).max(1.0);
        let mut assignment = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; k];
        for pass in 0..ldg.passes {
            let mut moved = false;
            for v in 0..n {
                let old = assignment[v];
                if pass > 0 {
                    sizes[old as usize] -= 1;
                }
                let mut counts = vec![0u32; k];
                for &u in sym.neighbors(v as VertexId) {
                    if let Some(c) = counts.get_mut(assignment[u as usize] as usize) {
                        *c += 1;
                    }
                }
                let (mut best, mut best_score) = (0, f64::NEG_INFINITY);
                for (p, &count) in counts.iter().enumerate() {
                    let penalty = 1.0 - sizes[p] as f64 / capacity;
                    let total = if sizes[p] as f64 >= capacity {
                        f64::NEG_INFINITY
                    } else {
                        f64::from(count) * penalty.max(0.0) + 1e-9 * penalty
                    };
                    if total > best_score {
                        (best, best_score) = (p, total);
                    }
                }
                if best_score == f64::NEG_INFINITY {
                    best = (0..k).min_by_key(|&p| sizes[p]).expect("k > 0");
                }
                sizes[best] += 1;
                moved |= best as u32 != old;
                assignment[v] = best as u32;
            }
            if !moved {
                break;
            }
        }
        assignment
    }

    /// `n` in `1..40` (isolated vertices occur) with up to 120 edges
    /// drawn with repetition, so parallel edges and self-loops occur,
    /// then the reverse of the first third, so reciprocal edges do, and
    /// one self-loop on the last vertex.
    fn edge_lists() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
        (1usize..40).prop_flat_map(|n| {
            let v = 0..n as u32;
            (Just(n), proptest::collection::vec((v.clone(), v), 0..120)).prop_map(|(n, mut e)| {
                let mirrored: Vec<_> = e[..e.len() / 3].iter().map(|&(u, v)| (v, u)).collect();
                e.extend(mirrored);
                e.push((n as u32 - 1, n as u32 - 1));
                (n, e)
            })
        })
    }

    /// Rows in insertion order — unsorted, parallel edges kept — as
    /// only `from_parts` builds them.
    fn raw_rows(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut offsets = vec![0u64];
        let mut cols = Vec::with_capacity(edges.len());
        for v in 0..n as u32 {
            cols.extend(edges.iter().filter(|e| e.0 == v).map(|e| e.1));
            offsets.push(cols.len() as u64);
        }
        CsrGraph::from_parts(offsets, cols).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The two rows and the count table place every vertex where
        /// scanning the materialised symmetric rows does, on builder
        /// graphs and on raw rows alike.
        #[test]
        fn assignment_equals_the_materialised_set_reference((n, edges) in edge_lists()) {
            for g in [from_edges(n, &edges), raw_rows(n, &edges)] {
                for k in 2..=4 {
                    for passes in [1, 3] {
                        let ldg = LdgPartitioner { passes, ..LdgPartitioner::default() };
                        prop_assert_eq!(ldg.partition(&g, k), ldg_by_scan(&ldg, &g, k));
                    }
                }
            }
        }
    }

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
        let g = GraphBuilder::new(0).build();
        assert!(LdgPartitioner::default().partition(&g, 3).is_empty());
    }

    #[test]
    fn more_parts_than_vertices() {
        let g = GraphBuilder::new(2).build();
        let a = LdgPartitioner::default().partition(&g, 8);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&p| p < 8));
    }
}
