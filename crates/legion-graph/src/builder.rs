//! Edge-list ingestion into [`CsrGraph`].

use crate::csr::CsrGraph;
use crate::VertexId;

/// Incremental builder that collects `(src, dst)` pairs and finalizes them
/// into a sorted, de-duplicated CSR graph.
///
/// # Examples
///
/// ```
/// use legion_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(2);
/// b.extend_edges([(1, 0), (0, 1), (1, 0)]);
/// let g = b.build();
/// // Duplicates removed, adjacency sorted.
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `n` edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// Adds a directed edge. Endpoints outside the vertex range are a
    /// programming error and will panic at [`build`](Self::build) time.
    pub fn push_edge(&mut self, src: VertexId, dst: VertexId) {
        self.edges.push((src, dst));
    }

    /// Adds every edge in `it`.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, it: I) {
        self.edges.extend(it);
    }

    /// Finalizes into a CSR graph.
    ///
    /// # Panics
    ///
    /// Panics if any buffered edge references a vertex `>= num_vertices`.
    pub fn build(mut self) -> CsrGraph {
        let n = self.num_vertices;
        for &(s, d) in &self.edges {
            assert!(
                (s as usize) < n && (d as usize) < n,
                "edge ({s}, {d}) out of range for {n} vertices"
            );
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut offsets = vec![0u64; n + 1];
        for &(s, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let cols = self.edges.into_iter().map(|(_, d)| d).collect();
        CsrGraph::from_parts(offsets, cols).expect("builder output is structurally valid")
    }
}

/// Builds a CSR graph directly from an edge slice (convenience wrapper).
pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
    let mut b = GraphBuilder::new(num_vertices).with_edge_capacity(edges.len());
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_adjacency() {
        let g = from_edges(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn build_dedups_by_default() {
        let g = from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_panics_on_out_of_range_edge() {
        let _ = from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn empty_builder_yields_empty_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn from_edges_matches_builder() {
        let e = [(0, 1), (1, 2), (2, 0)];
        let g = from_edges(3, &e);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(2), &[0]);
    }
}
