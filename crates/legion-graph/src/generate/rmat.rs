//! R-MAT (recursive matrix) graph generator.
//!
//! R-MAT recursively subdivides the adjacency matrix into quadrants with
//! probabilities `(a, b, c, d)` and drops each edge into a quadrant chosen
//! independently per level. With the classic `(0.57, 0.19, 0.19, 0.05)`
//! parameters it produces the skewed, community-ish structure of web crawls
//! — our stand-in for UK-Union / UK-2014 / Clue-web.

use rand::Rng;

use crate::csr::CsrGraph;
use crate::GraphBuilder;
use crate::VertexId;

/// Configuration for the R-MAT generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices (the graph has `2^scale` vertices).
    pub scale: u32,
    /// Average out-degree; `edges = num_vertices * edge_factor`.
    pub edge_factor: usize,
    /// Quadrant probabilities; must be non-negative and sum to ~1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Noise added per recursion level to avoid exact self-similarity.
    pub noise: f64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        Self {
            scale: 14,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }
    }
}

impl RmatConfig {
    /// Generates the graph with the given RNG. Duplicate edges are removed,
    /// so the realized edge count can be slightly below
    /// `2^scale * edge_factor`.
    ///
    /// # Panics
    ///
    /// Panics if the quadrant probabilities are invalid.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> CsrGraph {
        let d = 1.0 - self.a - self.b - self.c;
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && d >= -1e-9,
            "R-MAT quadrant probabilities must be non-negative and sum to <= 1"
        );
        let n = 1usize << self.scale;
        let m = n * self.edge_factor;
        let mut builder = GraphBuilder::new(n).with_edge_capacity(m);
        for _ in 0..m {
            let (src, dst) = self.one_edge(rng);
            builder.push_edge(src, dst);
        }
        builder.build()
    }

    fn one_edge<R: Rng + ?Sized>(&self, rng: &mut R) -> (VertexId, VertexId) {
        let mut row = 0usize;
        let mut col = 0usize;
        for level in (0..self.scale).rev() {
            // Perturb the quadrant probabilities a little per level.
            let mut jitter = |p: f64| {
                let eps: f64 = rng.gen_range(-self.noise..=self.noise);
                (p * (1.0 + eps)).max(0.0)
            };
            let a = jitter(self.a);
            let b = jitter(self.b);
            let c = jitter(self.c);
            let d = jitter(1.0 - self.a - self.b - self.c);
            let total = a + b + c + d;
            let u: f64 = rng.gen_range(0.0..total);
            let bit = 1usize << level;
            if u < a {
                // Upper-left: nothing to add.
            } else if u < a + b {
                col |= bit;
            } else if u < a + b + c {
                row |= bit;
            } else {
                row |= bit;
                col |= bit;
            }
        }
        (row as VertexId, col as VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_vertex_count() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = RmatConfig {
            scale: 10,
            edge_factor: 8,
            ..Default::default()
        }
        .generate(&mut rng);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= 1024 * 8);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = RmatConfig {
            scale: 12,
            edge_factor: 16,
            ..Default::default()
        }
        .generate(&mut rng);
        let max = (0..g.num_vertices() as u32)
            .map(|v| g.degree(v))
            .max()
            .unwrap();
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        // R-MAT concentrates edges: the max degree far exceeds the mean.
        assert!(max as f64 > 8.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let cfg = RmatConfig {
            scale: 9,
            edge_factor: 4,
            ..Default::default()
        };
        let g1 = cfg.generate(&mut StdRng::seed_from_u64(5));
        let g2 = cfg.generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities")]
    fn rejects_bad_probabilities() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = RmatConfig {
            a: 0.9,
            b: 0.9,
            c: 0.9,
            ..Default::default()
        }
        .generate(&mut rng);
    }
}
