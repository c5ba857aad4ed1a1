//! Graph partitioning for the Legion reproduction.
//!
//! Legion's first contribution (C1, §4.1) is *NVLink-aware hierarchical
//! partitioning*: detect NVLink cliques with MaxCliqueDyn (S1), split the
//! graph across cliques with an edge-cut-minimizing partitioner (S2), deal
//! each clique's training vertices to its GPUs (S3), and assign tablets to
//! GPUs as batch seeds (S4). Two steps go past the paper. An edge cut
//! balances vertex counts, so the hubs' seeds land in one clique; S2b
//! moves boundary training seeds from the heaviest clique to the lightest,
//! priced at `√deg` per seed per GPU, until no move lowers the pair's
//! larger load. The paper's S3 slices at random into equal counts; here
//! the seeds are dealt by out-degree in snake order, so every tablet gets
//! the clique's degree mix. Either way no GPU draws the hubs and sets the
//! epoch. This crate implements that pipeline plus every partitioner the
//! paper references:
//!
//! * [`clique`] — MaxCliqueDyn maximum-clique search and greedy clique
//!   cover over the NVLink topology matrix,
//! * [`multilevel`] — a from-scratch METIS-style multilevel edge-cut
//!   partitioner (heavy-edge matching, greedy growing, FM-style boundary
//!   refinement),
//! * [`ldg`] — a streaming Linear Deterministic Greedy partitioner, the
//!   stand-in for XtraPulp's scalable partitioning,
//! * [`label_prop`] — balanced label propagation, a third edge-cut
//!   minimizer for the partitioner ablation,
//! * [`hash`] — the hash partitioner, and the baselines' hash tablets,
//! * [`pagraph`] — PaGraph's self-reliant partitioning with L-hop neighbor
//!   extension (the §3.1 baseline, including its duplication pathology),
//! * [`hierarchical`] — the full C1 pipeline, and
//! * [`quality`] — edge-cut and balance metrics.
//!
//! # Examples
//!
//! ```
//! use legion_graph::builder::from_edges;
//! use legion_hw::NvLinkTopology;
//! use legion_partition::{hierarchical_partition, MultilevelPartitioner};
//!
//! // Two triangles joined by one edge, training vertices 0 and 5.
//! let g = from_edges(
//!     6,
//!     &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
//! );
//! let topo = NvLinkTopology::disjoint_cliques(4, 2); // Two NVLink pairs.
//! let plan = hierarchical_partition(&g, &[0, 5], &topo, &MultilevelPartitioner::default());
//! assert_eq!(plan.cliques.len(), 2);
//! // Every training vertex landed in exactly one GPU tablet.
//! let total: usize = plan.tablets.iter().map(|t| t.len()).sum();
//! assert_eq!(total, 2);
//! ```

pub mod clique;
pub mod hash;
pub mod hierarchical;
pub mod label_prop;
pub mod ldg;
pub mod multilevel;
pub mod pagraph;
pub mod quality;

pub use clique::detect_cliques;
pub use hash::HashPartitioner;
pub use hierarchical::{hierarchical_partition, HierarchicalPlan};
pub use label_prop::LabelPropPartitioner;
pub use ldg::LdgPartitioner;
pub use multilevel::MultilevelPartitioner;

use legion_graph::CsrGraph;

/// A `k`-way vertex partitioner: returns one part id in `0..k` per vertex.
///
/// Implementations must return a vector of length `g.num_vertices()` with
/// every entry `< k`.
pub trait Partitioner {
    /// Partitions `g` into `k` parts.
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32>;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Wraps a partitioner so it runs on a random edge sample of the graph,
/// keeping all vertices — the paper's trick for graphs too large to
/// partition in memory: "we randomly sample a fraction of edges (25% for
/// UKL) and keep all vertices" (§6.6).
pub struct EdgeSampledPartitioner<P> {
    inner: P,
    /// Fraction of edges retained, in `(0, 1]`.
    pub edge_fraction: f64,
    /// RNG seed for the edge sample.
    pub seed: u64,
}

impl<P: Partitioner> EdgeSampledPartitioner<P> {
    /// Wraps `inner` to partition on an `edge_fraction` sample.
    ///
    /// # Panics
    ///
    /// Panics if `edge_fraction` is not in `(0, 1]`.
    pub fn new(inner: P, edge_fraction: f64, seed: u64) -> Self {
        assert!(
            edge_fraction > 0.0 && edge_fraction <= 1.0,
            "edge fraction must be in (0, 1]"
        );
        Self {
            inner,
            edge_fraction,
            seed,
        }
    }
}

impl<P: Partitioner> Partitioner for EdgeSampledPartitioner<P> {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        use rand::rngs::StdRng;
        use rand::Rng;
        use rand::SeedableRng;
        if self.edge_fraction >= 1.0 {
            return self.inner.partition(g, k);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut builder = legion_graph::GraphBuilder::new(g.num_vertices());
        for (s, d) in g.edges() {
            if rng.gen::<f64>() < self.edge_fraction {
                builder.push_edge(s, d);
            }
        }
        let sampled = builder.build();
        self.inner.partition(&sampled, k)
    }

    fn name(&self) -> &'static str {
        "edge-sampled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::generate::ErdosRenyiConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn edge_sampled_partitioner_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = ErdosRenyiConfig {
            num_vertices: 200,
            num_edges: 2000,
        }
        .generate(&mut rng);
        let p = EdgeSampledPartitioner::new(HashPartitioner, 0.25, 7);
        let assignment = p.partition(&g, 4);
        assert_eq!(assignment.len(), 200);
        assert!(assignment.iter().all(|&a| a < 4));
    }

    #[test]
    #[should_panic(expected = "edge fraction")]
    fn edge_sampled_rejects_zero_fraction() {
        let _ = EdgeSampledPartitioner::new(HashPartitioner, 0.0, 0);
    }
}
