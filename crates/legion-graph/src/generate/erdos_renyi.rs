//! Erdős–Rényi `G(n, m)` random graphs.
//!
//! Used as the unskewed control in ablations: under uniform access the
//! hotness-ranked caches of the paper lose their advantage, which several
//! tests assert explicitly.

use rand::Rng;

use crate::csr::CsrGraph;
use crate::GraphBuilder;
use crate::VertexId;

/// Configuration for the loop-free `G(n, m)` generator.
#[derive(Debug, Clone, Copy)]
pub struct ErdosRenyiConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target number of directed edges (before de-duplication).
    pub num_edges: usize,
}

impl Default for ErdosRenyiConfig {
    fn default() -> Self {
        Self {
            num_vertices: 1000,
            num_edges: 8000,
        }
    }
}

impl ErdosRenyiConfig {
    /// Generates the graph; self-loops are never drawn.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices == 0`, or if `num_vertices == 1` while
    /// edges are requested.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> CsrGraph {
        assert!(self.num_vertices > 0, "graph must have vertices");
        assert!(
            self.num_vertices > 1 || self.num_edges == 0,
            "cannot draw loop-free edges on a single vertex"
        );
        let n = self.num_vertices as VertexId;
        let mut builder = GraphBuilder::new(self.num_vertices).with_edge_capacity(self.num_edges);
        let mut produced = 0usize;
        while produced < self.num_edges {
            let s = rng.gen_range(0..n);
            let d = rng.gen_range(0..n);
            if s == d {
                continue;
            }
            builder.push_edge(s, d);
            produced += 1;
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_generation() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = ErdosRenyiConfig::default().generate(&mut rng);
        assert_eq!(g.num_vertices(), 1000);
        assert!(g.num_edges() > 7000, "dedup removed too many edges");
    }

    #[test]
    fn degrees_are_flat() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = ErdosRenyiConfig {
            num_vertices: 2000,
            num_edges: 40_000,
        }
        .generate(&mut rng);
        let max = (0..g.num_vertices() as u32)
            .map(|v| g.degree(v))
            .max()
            .unwrap();
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        // Poisson(20): max degree stays within a small factor of the mean.
        assert!((max as f64) < 3.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn zero_edges_ok() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = ErdosRenyiConfig {
            num_vertices: 5,
            num_edges: 0,
        }
        .generate(&mut rng);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "single vertex")]
    fn single_vertex_no_loops_panics() {
        let mut rng = StdRng::seed_from_u64(14);
        let _ = ErdosRenyiConfig {
            num_vertices: 1,
            num_edges: 1,
        }
        .generate(&mut rng);
    }
}
