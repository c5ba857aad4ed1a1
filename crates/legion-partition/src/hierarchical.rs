//! NVLink-aware hierarchical partitioning — Legion's contribution C1
//! (§4.1, steps S1–S4, plus this reproduction's S2b seed balance).

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
    /// Per-vertex clique id (`len == num_vertices`): the S2 inter-clique
    /// partition, except that a training vertex reads the clique that
    /// trains it after the S2b balance. With a single clique this is all
    /// zeros and S2 is effectively skipped, as the paper notes for NV8.
    pub vertex_partition: Vec<u32>,
    /// Per-GPU training tablets: `tablets[gpu]` is the sorted list of
    /// training vertices whose mini-batches GPU `gpu` will generate (S3 +
    /// S4).
    pub tablets: Vec<Vec<VertexId>>,
    /// Clique id of each GPU.
    pub gpu_clique: Vec<u32>,
}

/// Runs hierarchical partitioning (S1–S4).
///
/// * **S1** — clique detection over `topology` (MaxCliqueDyn cover),
/// * **S2** — inter-clique partition of `graph` into `K_c` parts with the
///   supplied edge-cut-minimizing `partitioner` (skipped when `K_c == 1`),
/// * **S2b** — training-seed balance across cliques (only when `K_c > 1`):
///   boundary seeds move from the heaviest clique to the lightest, priced
///   at `√deg` per seed per GPU, until no move lowers the pair's larger
///   load (see `balance_cliques`),
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
    let mut vertex_partition = if kc == 1 {
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
    // S2b: balance the cliques' training work.
    if kc > 1 {
        balance_cliques(graph, &cliques, &mut clique_train, &mut vertex_partition);
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

/// A training seed's S2b price: `√deg(v)`.
fn seed_price(graph: &CsrGraph, v: VertexId) -> f64 {
    (graph.degree(v) as f64).sqrt()
}

/// S2b: balances the training work S2's edge cut leaves on each clique.
/// An edge-cut partitioner balances vertex counts, so on a skewed graph
/// the hubs and the seeds around them land in one clique, whose GPUs
/// then set the epoch.
///
/// A clique's load is the sum of its seeds' prices over its GPU count,
/// and a seed costs `√deg(v)`: concave, not S3's linear degree. Within a
/// clique every GPU shares one unified cache, so a seed's work grows with
/// its degree. Across cliques it does not: the hub clique's cache
/// absorbs the hot rows its hubs share, so a seed's misses grow
/// sublinearly with its degree, and a linear price moves too much.
///
/// Each round takes the heaviest clique `h` and the lightest `l` (ties
/// to the lower id) and walks `h`'s seeds boundary-first: highest share
/// of out-neighbours already in `l`'s part first, ties by id, so a moved
/// seed keeps as much of its neighbourhood local as it can. A seed moves
/// only while its move lowers `max(load_h, load_l)`; the walk stops at
/// the first that would not (zero-price seeds are passed over: they
/// weigh nothing). The balance stops after a round that moves nothing.
/// Every round strictly lowers the load vector sorted descending, so it
/// ends; on stopping, the heaviest and lightest per-GPU loads differ by
/// at most the largest seed price. Each moved seed's `vertex_partition`
/// entry becomes its new clique; no other vertex moves.
fn balance_cliques(
    graph: &CsrGraph,
    cliques: &[Vec<GpuId>],
    clique_train: &mut [Vec<VertexId>],
    vertex_partition: &mut [u32],
) {
    loop {
        let loads: Vec<f64> = clique_train
            .iter()
            .zip(cliques)
            .map(|(seeds, gpus)| {
                seeds.iter().map(|&v| seed_price(graph, v)).sum::<f64>() / gpus.len() as f64
            })
            .collect();
        let (mut h, mut l) = (0, 0);
        for (c, &load) in loads.iter().enumerate() {
            if load > loads[h] {
                h = c;
            }
            if load < loads[l] {
                l = c;
            }
        }
        if h == l {
            return;
        }
        // One neighbour scan: (out-neighbours in `l`, out-degree, seed).
        // A seed without out-edges counts as degree 1, share 0.
        let mut order: Vec<(u64, u64, VertexId)> = clique_train[h]
            .iter()
            .map(|&v| {
                let row = graph.neighbors(v);
                let inside = row
                    .iter()
                    .filter(|&&u| vertex_partition[u as usize] == l as u32)
                    .count();
                (inside as u64, row.len().max(1) as u64, v)
            })
            .collect();
        // Share descending, compared exactly by cross-multiplication.
        order.sort_unstable_by(|a, b| (b.0 * a.1).cmp(&(a.0 * b.1)).then(a.2.cmp(&b.2)));
        let (per_h, per_l) = (cliques[h].len() as f64, cliques[l].len() as f64);
        let (mut load_h, mut load_l) = (loads[h], loads[l]);
        let mut moved = false;
        for &(_, _, v) in &order {
            let price = seed_price(graph, v);
            if price == 0.0 {
                continue;
            }
            // The pair's max falls iff `l` stays below `h`'s current load
            // (once `l` has passed it, no further move helps).
            if load_l + price / per_l >= load_h {
                break;
            }
            load_h -= price / per_h;
            load_l += price / per_l;
            vertex_partition[v as usize] = l as u32;
            moved = true;
        }
        if !moved {
            return;
        }
        let (gone, kept): (Vec<VertexId>, Vec<VertexId>) = clique_train[h]
            .iter()
            .partition(|&&v| vertex_partition[v as usize] == l as u32);
        clique_train[h] = kept;
        clique_train[l].extend(gone);
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
    use crate::{HashPartitioner, LdgPartitioner, MultilevelPartitioner};
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
        assert_eq!(plan.cliques.len(), 4);
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
        assert_eq!(plan.cliques.len(), 1);
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
        assert_eq!(plan.cliques.len(), 4);
        for t in &plan.tablets {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn tablets_are_roughly_balanced_within_clique() {
        // A community graph and a skewed one (Zipf degrees), split by hash
        // and by LDG over four and two cliques. Either way the tablets
        // partition the training set and each tablet's vertices read its
        // GPU's clique; S2b leaves the heaviest and lightest cliques'
        // per-GPU `√deg` loads at most one seed price apart; and each
        // clique's tablets differ in size by at most one and in degree
        // sum by at most the clique's largest seed degree.
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
        let partitioners: [&dyn Partitioner; 2] = [&HashPartitioner, &LdgPartitioner::default()];
        for (g, train) in [(&sbm, &sbm_train), (&skewed, &skewed_train)] {
            for (partitioner, clique_size) in partitioners.iter().flat_map(|p| [(p, 4), (p, 2)]) {
                let topo = NvLinkTopology::disjoint_cliques(8, clique_size);
                let plan = hierarchical_partition(g, train, &topo, *partitioner);
                let case = format!("{} over {clique_size}-GPU cliques", partitioner.name());
                let mut all: Vec<VertexId> = plan.tablets.iter().flatten().copied().collect();
                all.sort_unstable();
                let mut expected = train.clone();
                expected.sort_unstable();
                assert_eq!(all, expected, "{case}: tablets partition the training set");
                for (gpu, tablet) in plan.tablets.iter().enumerate() {
                    for &v in tablet {
                        assert_eq!(plan.vertex_partition[v as usize], plan.gpu_clique[gpu]);
                    }
                }
                let loads: Vec<f64> = plan
                    .cliques
                    .iter()
                    .map(|clique| {
                        clique
                            .iter()
                            .flat_map(|&gpu| &plan.tablets[gpu])
                            .map(|&v| seed_price(g, v))
                            .sum::<f64>()
                            / clique.len() as f64
                    })
                    .collect();
                let top_price = train.iter().map(|&v| seed_price(g, v)).fold(0.0, f64::max);
                let spread = loads.iter().copied().fold(0.0, f64::max)
                    - loads.iter().copied().fold(f64::INFINITY, f64::min);
                assert!(
                    spread <= top_price,
                    "{case}: clique loads {loads:?}, largest seed price {top_price}"
                );
                for clique in &plan.cliques {
                    let seeds: Vec<VertexId> = clique
                        .iter()
                        .flat_map(|&gpu| plan.tablets[gpu].clone())
                        .collect();
                    let sizes: Vec<usize> =
                        clique.iter().map(|&gpu| plan.tablets[gpu].len()).collect();
                    let spread = sizes.iter().max().unwrap() - sizes.iter().min().unwrap();
                    assert!(spread <= 1, "{case}: sizes {sizes:?}");
                    let sums: Vec<u64> = clique
                        .iter()
                        .map(|&gpu| plan.tablets[gpu].iter().map(|&v| g.degree(v)).sum())
                        .collect();
                    let top = seeds.iter().map(|&v| g.degree(v)).max().unwrap_or(0);
                    let spread = sums.iter().max().unwrap() - sums.iter().min().unwrap();
                    assert!(
                        spread <= top,
                        "{case}: degree sums {sums:?}, largest degree {top}"
                    );
                }
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
