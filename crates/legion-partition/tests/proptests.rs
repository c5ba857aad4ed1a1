//! Property-based tests for the partitioners and clique detection.

use std::collections::HashSet;

use proptest::prelude::*;

use legion_graph::builder::from_edges;
use legion_graph::CsrGraph;
use legion_hw::NvLinkTopology;
use legion_partition::multilevel::BALANCE_TOLERANCE;
use legion_partition::{
    detect_cliques, hierarchical_partition, HashPartitioner, LdgPartitioner, MultilevelPartitioner,
    Partitioner,
};

/// Sizes of each part.
fn part_sizes(assignment: &[u32], k: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; k];
    for &p in assignment {
        sizes[p as usize] += 1;
    }
    sizes
}

/// Largest part size over the ideal `n / k`; 1.0 is perfect.
fn balance(assignment: &[u32], k: usize) -> f64 {
    let max = part_sizes(assignment, k).into_iter().max().unwrap_or(0);
    max as f64 * k as f64 / assignment.len() as f64
}

fn graph_strategy() -> impl Strategy<Value = legion_graph::CsrGraph> {
    (8usize..64).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..256)
            .prop_map(move |edges| from_edges(n, &edges))
    })
}

/// LDG as its definition reads: a `HashSet` union of in- and
/// out-neighbours per vertex, then the scoring loop.
fn ldg_oracle(g: &CsrGraph, k: usize, passes: usize, slack: f64) -> Vec<u32> {
    let n = g.num_vertices();
    let mut neighbours = vec![HashSet::new(); n];
    for (u, v) in g.edges() {
        neighbours[u as usize].insert(v as usize);
        neighbours[v as usize].insert(u as usize);
    }
    let capacity = (slack * n as f64 / k as f64).max(1.0);
    let (mut part, mut sizes) = (vec![u32::MAX; n], vec![0usize; k]);
    for pass in 0..passes {
        for v in 0..n {
            if pass > 0 {
                sizes[part[v] as usize] -= 1;
            }
            let mut score = vec![0f64; k];
            for &u in neighbours[v].iter().filter(|&&u| part[u] != u32::MAX) {
                score[part[u] as usize] += 1.0;
            }
            let (mut best, mut best_score) = (0, f64::NEG_INFINITY);
            for p in 0..k {
                let penalty = 1.0 - sizes[p] as f64 / capacity;
                let total = if sizes[p] as f64 >= capacity {
                    f64::NEG_INFINITY
                } else {
                    score[p] * penalty.max(0.0) + 1e-9 * penalty
                };
                if total > best_score {
                    (best, best_score) = (p, total);
                }
            }
            if best_score == f64::NEG_INFINITY {
                best = (0..k).min_by_key(|&p| sizes[p]).unwrap();
            }
            part[v] = best as u32;
            sizes[best] += 1;
        }
    }
    part
}

/// Rows in insertion order: unsorted, parallel edges and self-loops
/// kept — everything `from_parts` accepts and the builder never emits.
fn raw_rows(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut offsets = vec![0u64];
    let mut cols = Vec::with_capacity(edges.len());
    for v in 0..n as u32 {
        cols.extend(edges.iter().filter(|e| e.0 == v).map(|e| e.1));
        offsets.push(cols.len() as u64);
    }
    CsrGraph::from_parts(offsets, cols).unwrap()
}

/// Directed multigraphs: `n` in `0..40` (so `n = 0` and isolated
/// vertices occur) with up to 160 edges drawn with repetition (so
/// parallel edges, mutual edges and self-loops do); or, half the time,
/// 260 to 330 vertices around a hub adjacent to every one of them, each
/// hub edge in a random direction — one move of the hub decrements hundreds
/// of neighbours' counts.
fn multigraphs() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (any::<bool>(), 0usize..40, 260usize..330).prop_flat_map(|(with_hub, small, large)| {
        let n = if with_hub { large } else { small };
        let hi = n.max(1) as u32;
        let max_edges = if n == 0 { 1 } else { 160 };
        (
            0..hi,
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec((0..hi, 0..hi), 0..max_edges),
        )
            .prop_map(move |(hub, outward, mut edges)| {
                if with_hub {
                    let spokes = (0..hi).zip(outward);
                    edges.extend(spokes.map(|(v, out)| if out { (hub, v) } else { (v, hub) }));
                }
                (n, edges)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ldg_matches_the_hash_set_oracle(
        (n, edges) in multigraphs(),
        k in 1usize..=17,
        passes in 1usize..=5,
        capacity_slack in 1.0f64..=1.3,
    ) {
        // Sorted rows with their parallel edges kept.
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        let ldg = LdgPartitioner { passes, capacity_slack };
        for g in [raw_rows(n, &edges), raw_rows(n, &sorted)] {
            prop_assert_eq!(ldg.partition(&g, k), ldg_oracle(&g, k, passes, capacity_slack));
        }
    }

    #[test]
    fn every_partitioner_outputs_valid_assignment(g in graph_strategy(), k in 1usize..6) {
        let partitioners: [&dyn Partitioner; 3] = [
            &HashPartitioner,
            &LdgPartitioner::default(),
            &MultilevelPartitioner::default(),
        ];
        for p in partitioners {
            let a = p.partition(&g, k);
            prop_assert_eq!(a.len(), g.num_vertices(), "{} length", p.name());
            prop_assert!(a.iter().all(|&x| (x as usize) < k), "{} range", p.name());
        }
    }

    #[test]
    fn ldg_respects_capacity_slack(g in graph_strategy(), k in 2usize..5) {
        let p = LdgPartitioner { passes: 2, capacity_slack: 1.10 };
        let a = p.partition(&g, k);
        let sizes = part_sizes(&a, k);
        let cap = (1.10 * g.num_vertices() as f64 / k as f64).max(1.0);
        for &s in &sizes {
            // One unit of slop for the all-full fallback path.
            prop_assert!(s as f64 <= cap + 1.0, "size {s} cap {cap}");
        }
    }

    #[test]
    fn multilevel_balance_is_bounded(g in graph_strategy(), k in 2usize..5) {
        let a = MultilevelPartitioner::default().partition(&g, k);
        if g.num_vertices() >= 4 * k {
            // Tolerance plus coarsening granularity slop.
            prop_assert!(
                balance(&a, k) <= BALANCE_TOLERANCE + 0.5,
                "balance {}",
                balance(&a, k)
            );
        }
    }

    #[test]
    fn clique_cover_is_a_partition_of_gpus(n in 1usize..10, links in proptest::collection::vec((0usize..10, 0usize..10), 0..20)) {
        let mut adj = vec![false; n * n];
        for (a, b) in links {
            let (a, b) = (a % n, b % n);
            if a != b {
                adj[a * n + b] = true;
                adj[b * n + a] = true;
            }
        }
        let topo = NvLinkTopology::from_matrix(n, adj.clone());
        let cliques = detect_cliques(&topo);
        // Disjoint cover of all GPUs.
        let mut seen = vec![false; n];
        for clique in &cliques {
            for &g in clique {
                prop_assert!(!seen[g], "GPU {g} in two cliques");
                seen[g] = true;
            }
            // Every pair in a clique is connected.
            for &a in clique {
                for &b in clique {
                    if a != b {
                        prop_assert!(adj[a * n + b]);
                    }
                }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s), "uncovered GPU");
    }

    #[test]
    fn hierarchical_tablets_partition_training_set(
        g in graph_strategy(),
        clique_size in prop_oneof![Just(1usize), Just(2), Just(4)],
        train_mask in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let train: Vec<u32> = (0..g.num_vertices() as u32)
            .filter(|&v| train_mask.get(v as usize).copied().unwrap_or(false))
            .collect();
        let topo = NvLinkTopology::disjoint_cliques(4.max(clique_size), clique_size);
        let plan = hierarchical_partition(&g, &train, &topo, &HashPartitioner);
        let mut all: Vec<u32> = plan.tablets.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut expected = train.clone();
        expected.sort_unstable();
        prop_assert_eq!(all, expected);
        // GPU-to-clique map is consistent with the clique lists.
        for (ci, clique) in plan.cliques.iter().enumerate() {
            for &gpu in clique {
                prop_assert_eq!(plan.gpu_clique[gpu] as usize, ci);
            }
        }
        // S2b: the heaviest and lightest cliques' per-GPU `√deg` loads
        // differ by at most the largest seed price.
        let price = |v: u32| (g.degree(v) as f64).sqrt();
        let loads: Vec<f64> = plan
            .cliques
            .iter()
            .map(|clique| {
                clique.iter().flat_map(|&gpu| &plan.tablets[gpu]).map(|&v| price(v)).sum::<f64>()
                    / clique.len() as f64
            })
            .collect();
        let top_price = train.iter().map(|&v| price(v)).fold(0.0, f64::max);
        let spread = loads.iter().copied().fold(0.0, f64::max)
            - loads.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(spread <= top_price, "loads {:?}, largest price {}", loads, top_price);
    }
}
