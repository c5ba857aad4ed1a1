//! Property-based tests for graph storage invariants.

use proptest::prelude::*;

use legion_graph::builder::from_edges;
use legion_graph::generate::Zipf;
use legion_graph::stats::edge_cut;
use legion_graph::{CsrGraph, GraphBuilder, VertexId};

/// Gini coefficient of the out-degree distribution — 0 for perfectly
/// uniform, approaching 1 for extreme skew.
fn degree_gini(g: &CsrGraph) -> f64 {
    let n = g.num_vertices();
    let mut degrees: Vec<u64> = (0..n as u32).map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    let total: u64 = degrees.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let weighted: f64 = (1..=n)
        .zip(&degrees)
        .map(|(i, &d)| (i as u64 * d) as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Arbitrary edge list over `n` vertices.
fn edges_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

proptest! {
    #[test]
    fn builder_output_is_structurally_valid((n, edges) in edges_strategy(64, 256)) {
        let g = from_edges(n, &edges);
        // Round-trip through the validating constructor.
        let ends = (0..n as VertexId).scan(0, |end, v| {
            *end += g.degree(v);
            Some(*end)
        });
        let offsets = std::iter::once(0).chain(ends).collect();
        let rebuilt = CsrGraph::from_parts(offsets, g.col_indices().to_vec());
        prop_assert_eq!(rebuilt.ok().as_ref(), Some(&g));
        // Adjacency is sorted and deduplicated.
        for v in 0..n as VertexId {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated");
        }
        // Every input edge is present.
        for &(s, d) in &edges {
            prop_assert!(g.neighbors(s).binary_search(&d).is_ok());
        }
    }

    #[test]
    fn transpose_is_an_involution((n, edges) in edges_strategy(48, 128)) {
        let g = from_edges(n, &edges);
        let tt = g.transpose().transpose();
        // Same edge multiset (builder sorts, so direct comparison works).
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn symmetrize_is_idempotent((n, edges) in edges_strategy(48, 128)) {
        let g = from_edges(n, &edges);
        let s1 = g.symmetrize();
        let s2 = s1.symmetrize();
        prop_assert_eq!(&s1, &s2);
        // Symmetry: (u, v) present iff (v, u) present.
        for (u, v) in s1.edges() {
            prop_assert!(s1.neighbors(v).binary_search(&u).is_ok());
        }
    }

    #[test]
    fn edge_cut_bounds((n, edges) in edges_strategy(48, 128), k in 1u32..5) {
        let g = from_edges(n, &edges);
        let assignment: Vec<u32> = (0..n as u32).map(|v| v % k).collect();
        let cut = edge_cut(&g, &assignment);
        prop_assert!(cut <= g.num_edges());
        // Single part: no cut.
        let single = vec![0u32; n];
        prop_assert_eq!(edge_cut(&g, &single), 0);
    }

    #[test]
    fn gini_is_in_unit_interval((n, edges) in edges_strategy(48, 128)) {
        let g = from_edges(n, &edges);
        let gini = degree_gini(&g);
        prop_assert!((0.0..=1.0).contains(&gini), "gini {gini}");
    }

    #[test]
    fn zipf_pmf_is_normalized(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "pmf total {total}");
        // PMF is non-increasing for positive exponents.
        if s > 0.0 {
            for k in 1..n {
                prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
            }
        }
    }

    #[test]
    fn builder_duplicate_edges_collapse(
        n in 2usize..32,
        src in 0u32..16,
        dst in 0u32..16,
        copies in 1usize..8,
    ) {
        let (src, dst) = (src % n as u32, dst % n as u32);
        let mut b = GraphBuilder::new(n);
        for _ in 0..copies {
            b.push_edge(src, dst);
        }
        let g = b.build();
        prop_assert_eq!(g.num_edges(), 1);
    }
}
