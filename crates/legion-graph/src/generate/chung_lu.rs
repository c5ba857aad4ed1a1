//! Chung–Lu random graphs with a Zipf expected-degree sequence.
//!
//! Each edge endpoint is drawn independently from a Zipf distribution over
//! vertices, so vertex `k`'s expected degree is proportional to
//! `1/(k+1)^s`. This reproduces the power-law degree skew of social
//! networks (the paper's Com-Friendster stand-in) with a directly tunable
//! exponent.

use rand::Rng;

use crate::csr::CsrGraph;
use crate::generate::zipf::Zipf;
use crate::GraphBuilder;
use crate::VertexId;

/// Configuration for the Chung–Lu generator.
#[derive(Debug, Clone, Copy)]
pub struct ChungLuConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target number of directed edges (before de-duplication).
    pub num_edges: usize,
    /// Zipf exponent of the expected-degree sequence (0 = uniform).
    pub exponent: f64,
    /// When true, vertex IDs are shuffled so hot vertices are not the
    /// lowest IDs (avoids accidental locality artifacts in caches).
    pub shuffle_ids: bool,
    /// Number of planted communities (0 or 1 disables community
    /// structure). Real social/citation graphs are both skewed *and*
    /// clustered; partition-based caching (PaGraph-plus, Legion) relies
    /// on that clustering.
    pub num_communities: usize,
    /// Probability that an edge stays inside its source's community.
    pub community_bias: f64,
}

impl Default for ChungLuConfig {
    fn default() -> Self {
        Self {
            num_vertices: 10_000,
            num_edges: 160_000,
            exponent: 0.8,
            shuffle_ids: true,
            num_communities: 0,
            community_bias: 0.0,
        }
    }
}

impl ChungLuConfig {
    /// Generates the graph. Self-loops are rejected and duplicates removed.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices == 0`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> CsrGraph {
        assert!(self.num_vertices > 0, "graph must have vertices");
        let n = self.num_vertices;
        let zipf = Zipf::new(n, self.exponent);
        // Communities are contiguous blocks in *rank* space; each block
        // gets its own Zipf head so every community has local hubs.
        let communities = self.num_communities.max(1).min(n);
        let block = n.div_ceil(communities);
        let block_zipf = if communities > 1 {
            Some(Zipf::new(block, self.exponent))
        } else {
            None
        };
        let perm = if self.shuffle_ids {
            random_permutation(n, rng)
        } else {
            (0..n as VertexId).collect()
        };
        let mut builder = GraphBuilder::new(n).with_edge_capacity(self.num_edges);
        let mut produced = 0usize;
        let mut attempts = 0usize;
        let max_attempts = self.num_edges.saturating_mul(4).max(16);
        while produced < self.num_edges && attempts < max_attempts {
            attempts += 1;
            let s = zipf.sample(rng);
            let d = match &block_zipf {
                Some(bz) if rng.gen::<f64>() < self.community_bias => {
                    let start = (s / block) * block;
                    (start + bz.sample(rng)).min(n - 1)
                }
                _ => zipf.sample(rng),
            };
            if s == d {
                continue;
            }
            builder.push_edge(perm[s], perm[d]);
            produced += 1;
        }
        builder.build()
    }
}

/// Fisher–Yates permutation of `0..n`.
pub(crate) fn random_permutation<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<VertexId> {
    let mut p: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn respects_vertex_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = ChungLuConfig {
            num_vertices: 500,
            num_edges: 4000,
            ..Default::default()
        }
        .generate(&mut rng);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn no_self_loops() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = ChungLuConfig {
            num_vertices: 200,
            num_edges: 2000,
            ..Default::default()
        }
        .generate(&mut rng);
        for (s, d) in g.edges() {
            assert_ne!(s, d);
        }
    }

    #[test]
    fn higher_exponent_more_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let flat = ChungLuConfig {
            num_vertices: 2000,
            num_edges: 20_000,
            exponent: 0.0,
            shuffle_ids: false,
            ..Default::default()
        }
        .generate(&mut rng);
        let skew = ChungLuConfig {
            num_vertices: 2000,
            num_edges: 20_000,
            exponent: 1.0,
            shuffle_ids: false,
            ..Default::default()
        }
        .generate(&mut rng);
        let max_degree = |g: &CsrGraph| (0..g.num_vertices() as u32).map(|v| g.degree(v)).max();
        let (a, b) = (
            max_degree(&flat.symmetrize()),
            max_degree(&skew.symmetrize()),
        );
        assert!(b > a, "skewed max {b:?} flat max {a:?}");
    }

    #[test]
    fn community_bias_creates_locality() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = ChungLuConfig {
            num_vertices: 4000,
            num_edges: 40_000,
            exponent: 0.8,
            shuffle_ids: false,
            num_communities: 8,
            community_bias: 0.8,
        };
        let g = cfg.generate(&mut rng);
        let block = 4000usize.div_ceil(8);
        let intra = g
            .edges()
            .filter(|&(s, d)| (s as usize) / block == (d as usize) / block)
            .count();
        let frac = intra as f64 / g.num_edges() as f64;
        // >= bias (global draws also land intra sometimes).
        assert!(frac > 0.7, "intra fraction {frac}");
        // Control: no communities -> intra fraction near 1/8 (plus the
        // Zipf head concentration, which inflates it somewhat).
        let flat = ChungLuConfig {
            num_communities: 0,
            community_bias: 0.0,
            ..cfg
        }
        .generate(&mut rng);
        let intra_flat = flat
            .edges()
            .filter(|&(s, d)| (s as usize) / block == (d as usize) / block)
            .count();
        let frac_flat = intra_flat as f64 / flat.num_edges() as f64;
        assert!(frac_flat < frac - 0.2, "flat {frac_flat} vs biased {frac}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = random_permutation(100, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
