//! Registry of the paper's Table 2 datasets at simulation scale.
//!
//! The paper evaluates on six graphs (Products, Paper100M, Com-Friendster,
//! UK-Union, UK-2014, Clue-web) up to a billion vertices. We cannot ship
//! those, so each dataset is replaced by a synthetic generator whose degree
//! skew matches its class (see DESIGN.md):
//!
//! * **PR** (OGB Products) — stochastic block model, so the classification
//!   task is learnable (needed by the Figure 11 convergence experiment),
//! * **PA/CO** (citation / social) — Chung–Lu power-law graphs,
//! * **UKS/UKL/CL** (web crawls) — R-MAT graphs.
//!
//! Vertex counts are the paper's divided by a configurable
//! `scale_divisor`; average degrees and feature dimensions are kept at the
//! paper's values so cache-size/traffic *ratios* are preserved.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::csr::CsrGraph;
use crate::features::FeatureTable;
use crate::generate::{ChungLuConfig, RmatConfig, SbmConfig};
use crate::VertexId;

/// Which synthetic generator backs a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// Stochastic block model with learnable labels (OGB-like).
    Sbm,
    /// Chung–Lu power-law (social/citation-like).
    ChungLu,
    /// R-MAT (web-crawl-like).
    Rmat,
}

/// Static description of one paper dataset (one Table 2 column).
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Short name used in the paper: PR, PA, CO, UKS, UKL, CL.
    pub name: &'static str,
    /// Vertex count reported in Table 2.
    pub paper_vertices: u64,
    /// Edge count reported in Table 2.
    pub paper_edges: u64,
    /// Feature dimensionality `D` reported in Table 2.
    pub feature_dim: usize,
    /// Fraction of vertices used as training vertices (paper: 10%).
    pub train_fraction: f64,
    /// Backing generator.
    pub generator: GeneratorKind,
    /// Degree-skew knob: Zipf/R-MAT skew setting for the generator.
    pub skew: f64,
}

/// A fully materialized dataset instance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short name (plus scale annotation).
    pub name: String,
    /// Topology.
    pub graph: CsrGraph,
    /// Features, always present. PR's are dense; the datasets whose
    /// originals have none (CO/UKS/UKL/CL, and PA here) get a generated
    /// table that stores no rows ([`FeatureTable::random`]).
    pub features: FeatureTable,
    /// Class labels, present only for learnable (SBM-backed) datasets.
    pub labels: Option<Vec<u32>>,
    /// Training vertex set (the paper's 10% random selection).
    pub train_vertices: Vec<VertexId>,
}

impl Dataset {
    /// Topology storage in bytes (Table 2's "Topology Storage" analog).
    pub fn topology_bytes(&self) -> u64 {
        self.graph.topology_bytes()
    }

    /// Feature storage in bytes (Table 2's "Feature Storage" analog).
    pub fn feature_bytes(&self) -> u64 {
        self.features.total_bytes()
    }
}

/// The six Table 2 datasets.
pub const ALL_SPECS: [DatasetSpec; 6] = [
    DatasetSpec {
        name: "PR",
        paper_vertices: 2_400_000,
        paper_edges: 120_000_000,
        feature_dim: 100,
        train_fraction: 0.10,
        generator: GeneratorKind::Sbm,
        skew: 0.0,
    },
    DatasetSpec {
        name: "PA",
        paper_vertices: 111_000_000,
        paper_edges: 1_600_000_000,
        feature_dim: 128,
        train_fraction: 0.10,
        generator: GeneratorKind::ChungLu,
        skew: 0.85,
    },
    DatasetSpec {
        name: "CO",
        paper_vertices: 65_000_000,
        paper_edges: 1_800_000_000,
        feature_dim: 256,
        train_fraction: 0.10,
        generator: GeneratorKind::ChungLu,
        skew: 0.9,
    },
    DatasetSpec {
        name: "UKS",
        paper_vertices: 133_000_000,
        paper_edges: 5_500_000_000,
        feature_dim: 256,
        train_fraction: 0.10,
        generator: GeneratorKind::Rmat,
        skew: 0.57,
    },
    DatasetSpec {
        name: "UKL",
        paper_vertices: 790_000_000,
        paper_edges: 47_200_000_000,
        feature_dim: 128,
        train_fraction: 0.10,
        generator: GeneratorKind::Rmat,
        skew: 0.57,
    },
    DatasetSpec {
        name: "CL",
        paper_vertices: 1_000_000_000,
        paper_edges: 42_500_000_000,
        feature_dim: 128,
        train_fraction: 0.10,
        generator: GeneratorKind::Rmat,
        skew: 0.57,
    },
];

/// Looks up a spec by its short name (case-insensitive).
pub fn spec_by_name(name: &str) -> Option<DatasetSpec> {
    ALL_SPECS
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .copied()
}

impl DatasetSpec {
    /// Average out-degree implied by Table 2.
    pub fn avg_degree(&self) -> usize {
        (self.paper_edges / self.paper_vertices) as usize
    }

    /// Materializes the dataset with vertex count `paper_vertices /
    /// scale_divisor` (clamped to at least 1024), keeping the paper's
    /// average degree and feature dimension.
    ///
    /// The same `(spec, scale_divisor, seed)` triple always produces the
    /// same instance.
    pub fn instantiate(&self, scale_divisor: u64, seed: u64) -> Dataset {
        assert!(scale_divisor > 0, "scale divisor must be positive");
        let n = ((self.paper_vertices / scale_divisor).max(1024)) as usize;
        let avg_degree = self.avg_degree().max(2);
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(self.name));
        let (graph, features, labels) = match self.generator {
            GeneratorKind::Sbm => {
                let sbm = SbmConfig {
                    num_vertices: n,
                    num_communities: 16,
                    avg_degree,
                    intra_prob: 0.8,
                    feature_dim: self.feature_dim,
                    feature_separation: 1.0,
                    feature_noise: 0.6,
                    hub_exponent: 1.2,
                }
                .generate(&mut rng);
                (sbm.graph, sbm.features, Some(sbm.labels))
            }
            GeneratorKind::ChungLu => {
                // Real citation/social graphs are clustered as well as
                // skewed; 64 planted communities with a 0.6 bias match the
                // locality that edge-cut partitioning exploits on
                // Paper100M / Com-Friendster.
                let g = ChungLuConfig {
                    num_vertices: n,
                    num_edges: n * avg_degree,
                    exponent: self.skew,
                    shuffle_ids: true,
                    num_communities: 64,
                    community_bias: 0.6,
                }
                .generate(&mut rng);
                let f = FeatureTable::random(n, self.feature_dim, &mut rng);
                (g, f, None)
            }
            GeneratorKind::Rmat => {
                // Round the vertex count to a power of two for R-MAT.
                let scale = (n as f64).log2().round().max(10.0) as u32;
                let g = RmatConfig {
                    scale,
                    edge_factor: avg_degree,
                    a: self.skew,
                    b: (1.0 - self.skew) / 2.2,
                    c: (1.0 - self.skew) / 2.2,
                    noise: 0.1,
                }
                .generate(&mut rng);
                let nv = g.num_vertices();
                let f = FeatureTable::random(nv, self.feature_dim, &mut rng);
                (g, f, None)
            }
        };
        let nv = graph.num_vertices();
        let train_count = ((nv as f64) * self.train_fraction).round().max(1.0) as usize;
        let train_vertices = sample_without_replacement(nv, train_count, &mut rng);
        Dataset {
            name: format!("{}/{}x", self.name, scale_divisor),
            graph,
            features,
            labels,
            train_vertices,
        }
    }
}

/// Deterministic tiny hash so each dataset gets a distinct RNG stream for
/// the same user seed.
fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Uniformly samples `k` distinct vertices out of `0..n` (partial
/// Fisher–Yates).
pub fn sample_without_replacement<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Vec<VertexId> {
    assert!(k <= n, "cannot sample {k} of {n}");
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids.shrink_to_fit();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_six_specs() {
        assert_eq!(ALL_SPECS.len(), 6);
        let names: Vec<_> = ALL_SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["PR", "PA", "CO", "UKS", "UKL", "CL"]);
    }

    #[test]
    fn spec_lookup_case_insensitive() {
        assert!(spec_by_name("pr").is_some());
        assert!(spec_by_name("Ukl").is_some());
        assert!(spec_by_name("nope").is_none());
    }

    #[test]
    fn avg_degrees_match_table2_ratios() {
        assert_eq!(spec_by_name("PR").unwrap().avg_degree(), 50);
        assert_eq!(spec_by_name("PA").unwrap().avg_degree(), 14);
        assert_eq!(spec_by_name("CL").unwrap().avg_degree(), 42);
    }

    #[test]
    fn instantiate_pr_is_learnable() {
        let d = spec_by_name("PR").unwrap().instantiate(1000, 42);
        assert!(d.labels.is_some());
        assert_eq!(d.features.dim(), 100);
        assert_eq!(d.features.num_rows(), d.graph.num_vertices());
        // ~10% training vertices.
        let frac = d.train_vertices.len() as f64 / d.graph.num_vertices() as f64;
        assert!((frac - 0.10).abs() < 0.01, "train fraction {frac}");
    }

    #[test]
    fn instantiate_is_deterministic() {
        let spec = spec_by_name("PA").unwrap();
        let a = spec.instantiate(2000, 7);
        let b = spec.instantiate(2000, 7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.train_vertices, b.train_vertices);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = spec_by_name("PA").unwrap();
        let a = spec.instantiate(2000, 7);
        let b = spec.instantiate(2000, 8);
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn train_vertices_are_sorted_unique_in_range() {
        let d = spec_by_name("CO").unwrap().instantiate(2000, 3);
        let tv = &d.train_vertices;
        assert!(tv.windows(2).all(|w| w[0] < w[1]));
        assert!(tv.iter().all(|&v| (v as usize) < d.graph.num_vertices()));
    }

    #[test]
    fn sample_without_replacement_edges() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_without_replacement(5, 0, &mut rng).len(), 0);
        let all = sample_without_replacement(5, 5, &mut rng);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_population_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_without_replacement(3, 4, &mut rng);
    }

    /// Every generator, and a builder fed many duplicates, leaves its CSR
    /// and training ids holding exactly their lengths: no spare capacity
    /// from the edge list or the id pool stays resident.
    #[test]
    fn graphs_and_training_ids_hold_exactly_their_lengths() {
        let exact = |g: &CsrGraph| g.capacities() == [g.num_vertices() + 1, g.num_edges()];
        for name in ["PR", "PA", "UKS"] {
            let d = spec_by_name(name).unwrap().instantiate(u64::MAX, 1);
            assert!(exact(&d.graph), "{name}: {:?}", d.graph.capacities());
            assert_eq!(
                d.train_vertices.capacity(),
                d.train_vertices.len(),
                "{name}"
            );
        }
        let repeated: Vec<(VertexId, VertexId)> = (0..4000).map(|i| (i % 7, i % 5)).collect();
        let g = crate::builder::from_edges(7, &repeated);
        for g in [g.transpose(), g.symmetrize(), g] {
            assert!(exact(&g), "{:?}", g.capacities());
        }
    }

    #[test]
    fn storage_accessors_are_consistent() {
        let d = spec_by_name("UKS").unwrap().instantiate(4000, 1);
        assert_eq!(d.topology_bytes(), d.graph.topology_bytes());
        assert_eq!(d.feature_bytes(), d.features.total_bytes());
        assert!(d.feature_bytes() > 0);
    }
}
