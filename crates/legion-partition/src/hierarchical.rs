//! NVLink-aware hierarchical partitioning — Legion's contribution C1
//! (§4.1, steps S1–S4).

use legion_graph::{CsrGraph, VertexId};
use legion_hw::{GpuId, NvLinkTopology};

use crate::clique::detect_cliques;
use crate::Partitioner;

/// The assignment plan produced by hierarchical partitioning: which clique
/// owns which graph partition, and which GPU owns which training tablet.
#[derive(Debug, Clone)]
pub struct HierarchicalPlan {
    /// NVLink cliques detected in S1 (each a list of GPU ids).
    pub cliques: Vec<Vec<GpuId>>,
    /// Per-vertex clique/partition id from the S2 inter-clique partition
    /// (`len == num_vertices`). With a single clique this is all zeros and
    /// S2 is effectively skipped, as the paper notes for NV8.
    pub vertex_partition: Vec<u32>,
    /// Per-GPU training tablets: `tablets[gpu]` is the sorted list of
    /// training vertices whose mini-batches GPU `gpu` will generate (S3 +
    /// S4).
    pub tablets: Vec<Vec<VertexId>>,
    /// Clique id of each GPU.
    pub gpu_clique: Vec<u32>,
}

impl HierarchicalPlan {
    /// Number of cliques (`K_c`).
    pub fn num_cliques(&self) -> usize {
        self.cliques.len()
    }
}

/// Runs hierarchical partitioning (S1–S4).
///
/// * **S1** — clique detection over `topology` (MaxCliqueDyn cover),
/// * **S2** — inter-clique partition of `graph` into `K_c` parts with the
///   supplied edge-cut-minimizing `partitioner` (skipped when `K_c == 1`),
/// * **S3** — degree deal of each clique's training vertices into `K_g`
///   tablets: sorted by out-degree and dealt in snake order, so tablet
///   sizes differ by at most one and each gets the clique's degree mix,
/// * **S4** — tablet-to-GPU assignment (tablet `j` of clique `i` goes to
///   the `j`-th GPU of clique `i`).
///
/// # Panics
///
/// Panics if `topology` has no GPUs, or a training vertex is out of range.
pub fn hierarchical_partition<P: Partitioner + ?Sized>(
    graph: &CsrGraph,
    train_vertices: &[VertexId],
    topology: &NvLinkTopology,
    partitioner: &P,
) -> HierarchicalPlan {
    assert!(topology.num_gpus() > 0, "server must have GPUs");
    for &v in train_vertices {
        assert!(
            (v as usize) < graph.num_vertices(),
            "training vertex {v} out of range"
        );
    }
    // S1: NVLink clique detection.
    let cliques = detect_cliques(topology);
    let kc = cliques.len();
    let mut gpu_clique = vec![0u32; topology.num_gpus()];
    for (ci, clique) in cliques.iter().enumerate() {
        for &g in clique {
            gpu_clique[g] = ci as u32;
        }
    }
    // S2: inter-clique graph partitioning (edge-cut minimizing). With one
    // clique "the inter-clique graph partitioning in Legion can be
    // skipped" (§6.3.1).
    let vertex_partition = if kc == 1 {
        vec![0u32; graph.num_vertices()]
    } else {
        let assignment = partitioner.partition(graph, kc);
        debug_assert_eq!(assignment.len(), graph.num_vertices());
        assignment
    };
    // Group training vertices by clique.
    let mut clique_train: Vec<Vec<VertexId>> = vec![Vec::new(); kc];
    for &v in train_vertices {
        clique_train[vertex_partition[v as usize] as usize].push(v);
    }
    // S3 + S4: intra-clique degree deal, tablet-to-GPU assignment.
    let mut tablets: Vec<Vec<VertexId>> = vec![Vec::new(); topology.num_gpus()];
    for (ci, clique) in cliques.iter().enumerate() {
        let split = deal_by_degree(graph, &mut clique_train[ci], clique.len());
        for (slot, tablet) in split.into_iter().enumerate() {
            tablets[clique[slot]] = tablet;
        }
    }
    HierarchicalPlan {
        cliques,
        vertex_partition,
        tablets,
        gpu_clique,
    }
}

/// S3: deals a clique's training vertices into `k` tablets by degree, not
/// at random. The clique's GPUs share one unified cache (§4.2), so a seed
/// costs the same locality on any of them; what differs is the work its
/// sampled neighbourhood brings, which grows with its out-degree. The
/// seeds are sorted by (out-degree descending, id ascending) and dealt in
/// snake order — slots `0..k`, then `k..0`, and so on — so every tablet
/// gets the clique's degree mix and tablet sizes differ by at most one.
/// Each tablet is returned sorted by id; `vertices` is left in deal order.
fn deal_by_degree(graph: &CsrGraph, vertices: &mut [VertexId], k: usize) -> Vec<Vec<VertexId>> {
    vertices.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut tablets = vec![Vec::with_capacity(vertices.len() / k + 1); k];
    for (i, &v) in vertices.iter().enumerate() {
        let (round, pos) = (i / k, i % k);
        let slot = if round % 2 == 0 { pos } else { k - 1 - pos };
        tablets[slot].push(v);
    }
    for t in &mut tablets {
        t.sort_unstable();
    }
    tablets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashPartitioner, MultilevelPartitioner};
    use legion_graph::generate::{ChungLuConfig, SbmConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (CsrGraph, Vec<VertexId>) {
        let mut rng = StdRng::seed_from_u64(21);
        let g = SbmConfig {
            num_vertices: n,
            num_communities: 4,
            avg_degree: 10,
            intra_prob: 0.9,
            feature_dim: 1,
            ..Default::default()
        }
        .generate(&mut rng)
        .graph;
        // Random 10% training selection, as in the paper ("the training
        // vertices are randomly selected from G", §4.1 S2).
        let train = legion_graph::dataset::sample_without_replacement(n, n / 10, &mut rng);
        (g, train)
    }

    #[test]
    fn tablets_cover_training_set_exactly() {
        let (g, train) = setup(2000);
        let topo = NvLinkTopology::disjoint_cliques(8, 2);
        let plan = hierarchical_partition(&g, &train, &topo, &MultilevelPartitioner::default());
        assert_eq!(plan.num_cliques(), 4);
        let mut all: Vec<VertexId> = plan.tablets.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut expected = train.clone();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn tablet_vertices_belong_to_their_clique_partition() {
        let (g, train) = setup(2000);
        let topo = NvLinkTopology::disjoint_cliques(8, 4);
        let plan = hierarchical_partition(&g, &train, &topo, &MultilevelPartitioner::default());
        for gpu in 0..8 {
            let clique = plan.gpu_clique[gpu];
            for &v in &plan.tablets[gpu] {
                assert_eq!(plan.vertex_partition[v as usize], clique);
            }
        }
    }

    #[test]
    fn single_clique_skips_inter_clique_partitioning() {
        let (g, train) = setup(1000);
        let topo = NvLinkTopology::fully_connected(8);
        let plan = hierarchical_partition(&g, &train, &topo, &MultilevelPartitioner::default());
        assert_eq!(plan.num_cliques(), 1);
        assert!(plan.vertex_partition.iter().all(|&p| p == 0));
        // Training vertices dealt across all 8 GPUs.
        let sizes: Vec<usize> = plan.tablets.iter().map(|t| t.len()).collect();
        assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn no_nvlink_behaves_like_per_gpu_partitioning() {
        let (g, train) = setup(1000);
        let topo = NvLinkTopology::none(4);
        let plan = hierarchical_partition(&g, &train, &topo, &MultilevelPartitioner::default());
        assert_eq!(plan.num_cliques(), 4);
        for t in &plan.tablets {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn tablets_are_roughly_balanced_within_clique() {
        // A community graph and a skewed one (Zipf degrees): either way
        // each clique's tablets partition its seeds, differ in size by at
        // most one, and differ in degree sum by at most the clique's
        // largest seed degree.
        let (sbm, sbm_train) = setup(4000);
        let mut rng = StdRng::seed_from_u64(5);
        let skewed = ChungLuConfig {
            num_vertices: 4000,
            num_edges: 60_000,
            exponent: 1.1,
            ..Default::default()
        }
        .generate(&mut rng);
        let skewed_train = legion_graph::dataset::sample_without_replacement(4000, 800, &mut rng);
        for (g, train) in [(&sbm, &sbm_train), (&skewed, &skewed_train)] {
            let topo = NvLinkTopology::disjoint_cliques(8, 4);
            let plan = hierarchical_partition(g, train, &topo, &HashPartitioner);
            for (ci, clique) in plan.cliques.iter().enumerate() {
                let mut seeds: Vec<VertexId> = train
                    .iter()
                    .copied()
                    .filter(|&v| plan.vertex_partition[v as usize] == ci as u32)
                    .collect();
                seeds.sort_unstable();
                let mut dealt: Vec<VertexId> = clique
                    .iter()
                    .flat_map(|&gpu| plan.tablets[gpu].clone())
                    .collect();
                dealt.sort_unstable();
                assert_eq!(dealt, seeds, "clique {ci}'s tablets partition its seeds");
                let sizes: Vec<usize> = clique.iter().map(|&gpu| plan.tablets[gpu].len()).collect();
                let spread = sizes.iter().max().unwrap() - sizes.iter().min().unwrap();
                assert!(spread <= 1, "sizes {sizes:?}");
                let sums: Vec<u64> = clique
                    .iter()
                    .map(|&gpu| plan.tablets[gpu].iter().map(|&v| g.degree(v)).sum())
                    .collect();
                let top = seeds.iter().map(|&v| g.degree(v)).max().unwrap_or(0);
                let spread = sums.iter().max().unwrap() - sums.iter().min().unwrap();
                assert!(spread <= top, "degree sums {sums:?}, largest degree {top}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_training_vertex() {
        let (g, _) = setup(100);
        let topo = NvLinkTopology::none(2);
        let _ = hierarchical_partition(&g, &[5000], &topo, &HashPartitioner);
    }
}
