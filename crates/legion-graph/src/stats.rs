//! Edge-cut metric used by the partitioners and the experiment drivers.

use crate::csr::CsrGraph;

/// Gini coefficient of the out-degree distribution — 0 for perfectly
/// uniform, approaching 1 for extreme skew.
#[cfg(test)]
pub fn degree_gini(g: &CsrGraph) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut degrees: Vec<u64> = (0..n as u32).map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    let total: u64 = degrees.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut weighted = 0.0f64;
    for (i, &d) in degrees.iter().enumerate() {
        weighted += (i as f64 + 1.0) * d as f64;
    }
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Number of edges whose endpoints fall in different parts of `assignment`
/// (the edge-cut a partitioner minimizes), counting each directed edge once.
pub fn edge_cut(g: &CsrGraph, assignment: &[u32]) -> usize {
    assert_eq!(assignment.len(), g.num_vertices());
    g.edges()
        .filter(|&(s, d)| assignment[s as usize] != assignment[d as usize])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::GraphBuilder;

    #[test]
    fn gini_zero_for_regular_graph() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(degree_gini(&g).abs() < 1e-12);
    }

    #[test]
    fn gini_high_for_star() {
        let mut b = GraphBuilder::new(50);
        for v in 1..50 {
            b.push_edge(0, v);
        }
        let g = b.build();
        assert!(degree_gini(&g) > 0.9);
    }

    #[test]
    fn gini_zero_for_empty_graph() {
        assert_eq!(degree_gini(&GraphBuilder::new(4).build()), 0.0);
    }

    #[test]
    fn edge_cut_counts_cross_edges() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // Parts {0,1} and {2,3}: only 1 -> 2 crosses.
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 1);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 3);
    }
}
