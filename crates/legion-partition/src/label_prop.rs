//! Balanced label-propagation partitioner.
//!
//! A third edge-cut minimizer (besides multilevel and LDG), in the family
//! XtraPulp itself belongs to: vertices iteratively adopt the most common
//! label among their neighbors, subject to a per-label capacity so parts
//! stay balanced. Cheap, parallel-friendly, and strong on graphs with
//! community structure — exactly the regime of the paper's datasets. Used
//! by the partitioner-ablation experiment to show Legion's results do not
//! hinge on one specific partitioner.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use legion_graph::{CsrGraph, VertexId};

use crate::Partitioner;

/// Maximum propagation rounds.
const ROUNDS: usize = 8;

/// Capacity slack multiplier over the ideal part size.
const CAPACITY_SLACK: f64 = 1.05;

/// Balanced label-propagation configuration.
#[derive(Debug, Clone, Copy)]
pub struct LabelPropPartitioner {
    /// RNG seed for the initial assignment and visit order.
    pub seed: u64,
}

impl Default for LabelPropPartitioner {
    fn default() -> Self {
        Self { seed: 0x1ab71 }
    }
}

impl Partitioner for LabelPropPartitioner {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        assert!(k > 0, "cannot partition into zero parts");
        let n = g.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }
        let sym = g.symmetrize();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Initial balanced random assignment.
        let mut assignment: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            assignment.swap(i, j);
        }
        let mut sizes = vec![0usize; k];
        for &a in &assignment {
            sizes[a as usize] += 1;
        }
        let capacity = (CAPACITY_SLACK * n as f64 / k as f64).max(1.0) as usize;
        let mut counts = vec![0u32; k];
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..ROUNDS {
            // Random visit order each round avoids oscillation artifacts.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut moved = 0usize;
            for &v in &order {
                let from = assignment[v] as usize;
                let neighbors = sym.neighbors(v as VertexId);
                if neighbors.is_empty() {
                    continue;
                }
                for c in counts.iter_mut() {
                    *c = 0;
                }
                for &u in neighbors {
                    counts[assignment[u as usize] as usize] += 1;
                }
                // Most common neighbor label with room left; tie toward
                // the current label.
                let mut best = from;
                let mut best_count = counts[from];
                for (p, &c) in counts.iter().enumerate() {
                    if p != from && c > best_count && sizes[p] < capacity {
                        best = p;
                        best_count = c;
                    }
                }
                if best != from {
                    sizes[from] -= 1;
                    sizes[best] += 1;
                    assignment[v] = best as u32;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "label-prop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut_ratio};
    use crate::HashPartitioner;
    use legion_graph::generate::SbmConfig;
    use legion_graph::GraphBuilder;

    fn community_graph() -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(41);
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
    fn output_is_valid() {
        let g = community_graph();
        let a = LabelPropPartitioner::default().partition(&g, 4);
        assert_eq!(a.len(), 2000);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn beats_hash_on_community_graphs() {
        let g = community_graph();
        let lp = LabelPropPartitioner::default().partition(&g, 4);
        let hash = HashPartitioner.partition(&g, 4);
        let lp_cut = edge_cut_ratio(&g, &lp);
        let hash_cut = edge_cut_ratio(&g, &hash);
        assert!(lp_cut < 0.7 * hash_cut, "lp {lp_cut} hash {hash_cut}");
    }

    #[test]
    fn respects_capacity() {
        let g = community_graph();
        let a = LabelPropPartitioner::default().partition(&g, 4);
        assert!(
            balance(&a, 4) <= CAPACITY_SLACK + 0.02,
            "balance {}",
            balance(&a, 4)
        );
    }

    #[test]
    fn trivial_cases() {
        let g = GraphBuilder::new(0).build();
        assert!(LabelPropPartitioner::default().partition(&g, 3).is_empty());
        let g1 = community_graph();
        assert!(LabelPropPartitioner::default()
            .partition(&g1, 1)
            .iter()
            .all(|&p| p == 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = community_graph();
        let p = LabelPropPartitioner::default();
        assert_eq!(p.partition(&g, 3), p.partition(&g, 3));
    }
}
