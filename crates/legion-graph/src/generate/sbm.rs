//! Planted-partition stochastic block model with learnable labels.
//!
//! The convergence experiment (paper Figure 11) compares local vs. global
//! shuffling on real training dynamics, so the task must be genuinely
//! learnable. The SBM plants `k` communities, wires vertices preferentially
//! within their community, assigns the community as the classification
//! label, and emits Gaussian features centred on a per-community mean —
//! i.e. both structure and features carry the label signal, as in OGB
//! Products.

use rand::Rng;

use crate::csr::CsrGraph;
use crate::features::FeatureTable;
use crate::GraphBuilder;
use crate::VertexId;

/// Configuration for the stochastic block model generator.
#[derive(Debug, Clone, Copy)]
pub struct SbmConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of planted communities (= number of class labels).
    pub num_communities: usize,
    /// Average out-degree per vertex.
    pub avg_degree: usize,
    /// Probability that an edge stays within its community.
    pub intra_prob: f64,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Distance between community feature means (higher = easier task).
    pub feature_separation: f32,
    /// Per-coordinate Gaussian noise standard deviation.
    pub feature_noise: f32,
    /// Zipf exponent for destination popularity *within* a community
    /// (0 = uniform). Real product/citation graphs have hub items; the
    /// skew is what makes hotness-ranked caching effective.
    pub hub_exponent: f64,
}

impl Default for SbmConfig {
    fn default() -> Self {
        Self {
            num_vertices: 4000,
            num_communities: 8,
            avg_degree: 16,
            intra_prob: 0.85,
            feature_dim: 32,
            feature_separation: 1.0,
            feature_noise: 0.5,
            hub_exponent: 0.0,
        }
    }
}

/// A generated SBM instance: topology, features and ground-truth labels.
#[derive(Debug, Clone)]
pub struct SbmGraph {
    /// Graph topology.
    pub graph: CsrGraph,
    /// Community-correlated dense features.
    pub features: FeatureTable,
    /// Ground-truth community label per vertex.
    pub labels: Vec<u32>,
}

impl SbmConfig {
    /// Generates the instance.
    ///
    /// # Panics
    ///
    /// Panics if `num_communities == 0` or `num_vertices < num_communities`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> SbmGraph {
        assert!(self.num_communities > 0, "need at least one community");
        assert!(
            self.num_vertices >= self.num_communities,
            "need at least one vertex per community"
        );
        let n = self.num_vertices;
        let k = self.num_communities;
        let labels: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
        // Group members by community for fast intra-community sampling.
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for (v, &c) in labels.iter().enumerate() {
            members[c as usize].push(v as VertexId);
        }
        // Per-community destination popularity: Zipf over member index
        // when hub skew is requested, so every community has hot hubs.
        let member_zipf = if self.hub_exponent > 0.0 {
            Some(crate::generate::Zipf::new(
                members.iter().map(|m| m.len()).max().unwrap_or(1),
                self.hub_exponent,
            ))
        } else {
            None
        };
        let mut builder = GraphBuilder::new(n).with_edge_capacity(n * self.avg_degree);
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            let c = labels[v] as usize;
            for _ in 0..self.avg_degree {
                let dst = if rng.gen::<f64>() < self.intra_prob {
                    let idx = match &member_zipf {
                        Some(z) => z.sample(rng) % members[c].len(),
                        None => rng.gen_range(0..members[c].len()),
                    };
                    members[c][idx]
                } else {
                    rng.gen_range(0..n as VertexId)
                };
                if dst as usize != v {
                    builder.push_edge(v as VertexId, dst);
                }
            }
        }
        let graph = builder.build();

        // Per-community mean vectors: random unit-ish directions scaled by
        // `feature_separation`.
        let mut means = vec![vec![0f32; self.feature_dim]; k];
        for mean in &mut means {
            for x in mean.iter_mut() {
                *x = (rng.gen::<f32>() - 0.5) * 2.0 * self.feature_separation;
            }
        }
        let mut values = Vec::with_capacity(n * self.feature_dim);
        for &label in &labels {
            let mean = &means[label as usize];
            values.extend(mean.iter().map(|m| m + gaussian(rng) * self.feature_noise));
        }
        SbmGraph {
            graph,
            features: FeatureTable::from_flat(values, self.feature_dim),
            labels,
        }
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels_cover_all_communities() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = SbmConfig {
            num_vertices: 100,
            num_communities: 5,
            ..Default::default()
        }
        .generate(&mut rng);
        for c in 0..5u32 {
            assert!(g.labels.contains(&c));
        }
        assert_eq!(g.labels.len(), 100);
        assert_eq!(g.features.num_rows(), 100);
    }

    #[test]
    fn edges_mostly_intra_community() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = SbmConfig {
            num_vertices: 1000,
            num_communities: 4,
            intra_prob: 0.9,
            ..Default::default()
        }
        .generate(&mut rng);
        let mut intra = 0usize;
        let mut total = 0usize;
        for (s, d) in g.graph.edges() {
            total += 1;
            if g.labels[s as usize] == g.labels[d as usize] {
                intra += 1;
            }
        }
        assert!(
            intra as f64 / total as f64 > 0.8,
            "intra ratio {}",
            intra as f64 / total as f64
        );
    }

    #[test]
    fn features_are_community_correlated() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SbmConfig {
            num_vertices: 400,
            num_communities: 2,
            feature_dim: 16,
            feature_separation: 2.0,
            feature_noise: 0.1,
            ..Default::default()
        };
        let g = cfg.generate(&mut rng);
        // Mean intra-class distance should be far below inter-class.
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>()
        };
        let row = |v| {
            let mut out = Vec::new();
            g.features.extend_row(v, &mut out);
            out
        };
        let v0 = row(0);
        let v2 = row(2); // Same community (labels cycle mod k).
        let v1 = row(1); // Other community.
        assert!(dist(&v0, &v2) < dist(&v0, &v1));
    }

    #[test]
    #[should_panic(expected = "at least one vertex per community")]
    fn too_few_vertices_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = SbmConfig {
            num_vertices: 2,
            num_communities: 5,
            ..Default::default()
        }
        .generate(&mut rng);
    }
}
