//! Partition quality metrics.

use legion_graph::{stats::edge_cut, CsrGraph};

/// Fraction of directed edges cut by `assignment` (0 = no cut, 1 = all).
/// Graphs with no edges report 0.
pub fn edge_cut_ratio(g: &CsrGraph, assignment: &[u32]) -> f64 {
    if g.num_edges() == 0 {
        return 0.0;
    }
    edge_cut(g, assignment) as f64 / g.num_edges() as f64
}

/// Load-balance factor: largest part size divided by the ideal size
/// `n / k`. 1.0 is perfect; METIS-style tools typically accept <= 1.05.
///
/// # Panics
///
/// Panics if `k == 0` or any part id is `>= k`.
#[cfg(test)]
pub fn balance(assignment: &[u32], k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    if assignment.is_empty() {
        return 1.0;
    }
    let mut sizes = vec![0usize; k];
    for &p in assignment {
        assert!((p as usize) < k, "part id {p} out of range");
        sizes[p as usize] += 1;
    }
    let max = *sizes.iter().max().expect("k > 0");
    let ideal = assignment.len() as f64 / k as f64;
    max as f64 / ideal
}

/// Sizes of each part.
#[cfg(test)]
pub fn part_sizes(assignment: &[u32], k: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; k];
    for &p in assignment {
        sizes[p as usize] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::builder::from_edges;
    use legion_graph::GraphBuilder;

    #[test]
    fn cut_ratio_bounds() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(edge_cut_ratio(&g, &[0, 0, 0, 0]), 0.0);
        assert_eq!(edge_cut_ratio(&g, &[0, 1, 0, 1]), 1.0);
        assert!((edge_cut_ratio(&g, &[0, 0, 1, 1]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edgeless_graph_cut_is_zero() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(edge_cut_ratio(&g, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn balance_perfect_and_skewed() {
        assert!((balance(&[0, 1, 0, 1], 2) - 1.0).abs() < 1e-12);
        assert!((balance(&[0, 0, 0, 1], 2) - 1.5).abs() < 1e-12);
        assert_eq!(balance(&[], 4), 1.0);
    }

    #[test]
    fn part_sizes_counts() {
        assert_eq!(part_sizes(&[0, 2, 2, 1], 3), vec![1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn balance_rejects_bad_part_ids() {
        let _ = balance(&[0, 5], 2);
    }
}
