//! Compressed-sparse-row graph topology.
//!
//! This is the structure Legion's topology cache holds per hot vertex: the
//! row offsets are `u64` and the column (neighbor) indices are `u32`, exactly
//! the data types the paper's cost model assumes in Equation 3.

use crate::{EdgeIndex, VertexId, COL_INDEX_BYTES, ROW_OFFSET_BYTES};

/// A directed graph in compressed-sparse-row layout.
///
/// Invariants (enforced by [`CsrGraph::from_parts`] and the builder):
///
/// * `row_offsets.len() == num_vertices + 1`,
/// * `row_offsets` is non-decreasing and `row_offsets[0] == 0`,
/// * `row_offsets[num_vertices] == col_indices.len()`,
/// * every column index is `< num_vertices`,
/// * each array's capacity equals its length: no spare allocation stays
///   resident beside the topology.
///
/// # Examples
///
/// ```
/// use legion_graph::builder::from_edges;
///
/// let g = from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.degree(1), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    row_offsets: Vec<EdgeIndex>,
    col_indices: Vec<VertexId>,
}

/// Errors that can arise when constructing a [`CsrGraph`] from raw parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `row_offsets` is empty (it must contain at least the single `0`).
    EmptyOffsets,
    /// `row_offsets[0]` is not zero.
    NonZeroFirstOffset,
    /// `row_offsets` decreases at the given vertex.
    DecreasingOffsets(usize),
    /// The final offset does not equal `col_indices.len()`.
    OffsetLengthMismatch { last_offset: u64, num_edges: usize },
    /// A column index references a vertex outside `0..num_vertices`.
    ColumnOutOfRange { edge: usize, vertex: VertexId },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::EmptyOffsets => write!(f, "row offsets must contain at least one entry"),
            CsrError::NonZeroFirstOffset => write!(f, "row_offsets[0] must be 0"),
            CsrError::DecreasingOffsets(v) => {
                write!(f, "row offsets decrease at vertex {v}")
            }
            CsrError::OffsetLengthMismatch {
                last_offset,
                num_edges,
            } => write!(
                f,
                "last row offset {last_offset} != number of edges {num_edges}"
            ),
            CsrError::ColumnOutOfRange { edge, vertex } => {
                write!(f, "edge {edge} references out-of-range vertex {vertex}")
            }
        }
    }
}

impl std::error::Error for CsrError {}

impl CsrGraph {
    /// Builds a CSR graph from raw offset and index arrays, validating all
    /// structural invariants. Spare capacity is released: a graph holds
    /// exactly its arrays' lengths.
    pub fn from_parts(
        mut row_offsets: Vec<EdgeIndex>,
        mut col_indices: Vec<VertexId>,
    ) -> Result<Self, CsrError> {
        if row_offsets.is_empty() {
            return Err(CsrError::EmptyOffsets);
        }
        if row_offsets[0] != 0 {
            return Err(CsrError::NonZeroFirstOffset);
        }
        for v in 1..row_offsets.len() {
            if row_offsets[v] < row_offsets[v - 1] {
                return Err(CsrError::DecreasingOffsets(v - 1));
            }
        }
        let last = *row_offsets.last().expect("checked non-empty");
        if last != col_indices.len() as u64 {
            return Err(CsrError::OffsetLengthMismatch {
                last_offset: last,
                num_edges: col_indices.len(),
            });
        }
        let n = (row_offsets.len() - 1) as u64;
        for (e, &c) in col_indices.iter().enumerate() {
            if (c as u64) >= n {
                return Err(CsrError::ColumnOutOfRange { edge: e, vertex: c });
            }
        }
        row_offsets.shrink_to_fit();
        col_indices.shrink_to_fit();
        Ok(Self {
            row_offsets,
            col_indices,
        })
    }

    /// The allocated lengths of the offset and column arrays.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 2] {
        [self.row_offsets.capacity(), self.col_indices.capacity()]
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// Out-degree of `v` (the paper's `nc(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let v = v as usize;
        self.row_offsets[v + 1] - self.row_offsets[v]
    }

    /// Out-neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        let lo = self.row_offsets[v] as usize;
        let hi = self.row_offsets[v + 1] as usize;
        &self.col_indices[lo..hi]
    }

    /// The raw column index array.
    #[inline]
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col_indices
    }

    /// Iterates over all `(src, dst)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Total bytes needed to store this topology in the cost model's CSR
    /// accounting: one `u64` row offset per vertex plus one `u32` per edge.
    pub fn topology_bytes(&self) -> u64 {
        self.num_vertices() as u64 * ROW_OFFSET_BYTES + self.num_edges() as u64 * COL_INDEX_BYTES
    }

    /// Returns the transposed (reverse-edge) graph. Used to convert between
    /// out-edge CSR and in-edge CSC views, e.g. for in-degree hotness
    /// metrics (PaGraph's cache policy) and GCN normalization.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut deg = vec![0u64; n];
        for &c in &self.col_indices {
            deg[c as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut cursor = offsets.clone();
        let mut cols = vec![0 as VertexId; self.num_edges()];
        for v in 0..n as VertexId {
            for &u in self.neighbors(v) {
                let slot = cursor[u as usize];
                cols[slot as usize] = v;
                cursor[u as usize] += 1;
            }
        }
        CsrGraph {
            row_offsets: offsets,
            col_indices: cols,
        }
    }

    /// This graph with every adjacency row in non-decreasing order:
    /// itself when the rows already are (the builder guarantees it;
    /// [`from_parts`](Self::from_parts) does not), else a copy sorted by
    /// transposing twice — the counting-sort
    /// [`transpose`](Self::transpose) emits each row in ascending source
    /// order.
    pub fn with_sorted_rows(&self) -> std::borrow::Cow<'_, CsrGraph> {
        let sorted = (0..self.num_vertices() as VertexId).all(|v| {
            let row = self.neighbors(v);
            let pairs = row.iter().zip(row.iter().skip(1));
            pairs.fold(true, |sorted, (a, b)| sorted & (a <= b))
        });
        if sorted {
            std::borrow::Cow::Borrowed(self)
        } else {
            std::borrow::Cow::Owned(self.transpose().transpose())
        }
    }

    /// Returns the symmetrized graph: for every edge `(u, v)` both `(u, v)`
    /// and `(v, u)` exist exactly once (self-loops kept once), every row
    /// sorted ascending. Partitioners operate on the symmetric structure.
    ///
    /// `O(V + E)`: the counting-sort [`transpose`](Self::transpose) emits
    /// each row in ascending source order, so row `v` of the result is the
    /// deduplicating merge of two sorted rows — `v`'s in-neighbors and its
    /// out-neighbors ([`with_sorted_rows`](Self::with_sorted_rows)).
    pub fn symmetrize(&self) -> CsrGraph {
        let n = self.num_vertices();
        let reverse = self.transpose();
        let forward = self.with_sorted_rows();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut cols: Vec<VertexId> = Vec::with_capacity(2 * self.num_edges());
        for v in 0..n as VertexId {
            let row_start = cols.len();
            let (a, b) = (forward.neighbors(v), reverse.neighbors(v));
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let next = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
                    i += 1;
                    a[i - 1]
                } else {
                    j += 1;
                    b[j - 1]
                };
                if cols.len() == row_start || cols[cols.len() - 1] != next {
                    cols.push(next);
                }
            }
            offsets.push(cols.len() as u64);
        }
        cols.shrink_to_fit();
        CsrGraph {
            row_offsets: offsets,
            col_indices: cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    /// The pair-sort symmetrisation `symmetrize` replaced, kept as the
    /// reference: materialise both directions, sort, dedup.
    fn symmetrize_by_pair_sort(g: &CsrGraph) -> CsrGraph {
        let n = g.num_vertices();
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(g.num_edges() * 2);
        for (u, v) in g.edges() {
            pairs.push((u, v));
            if u != v {
                pairs.push((v, u));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u64; n + 1];
        for &(u, _) in &pairs {
            offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let cols = pairs.into_iter().map(|(_, v)| v).collect();
        CsrGraph {
            row_offsets: offsets,
            col_indices: cols,
        }
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

    /// `n` in `0..40` (so `n = 0` and isolated vertices occur) with up to
    /// 160 edges drawn with repetition (so multi-edges and self-loops do).
    fn edge_lists() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
        (0usize..40).prop_flat_map(|n| {
            let hi = n.max(1) as u32;
            let max_edges = if n == 0 { 1 } else { 160 };
            (
                Just(n),
                proptest::collection::vec((0..hi, 0..hi), 0..max_edges),
            )
        })
    }

    proptest! {
        #[test]
        fn symmetrize_matches_the_pair_sort_oracle((n, edges) in edge_lists()) {
            // Sorted rows with their parallel edges kept.
            let mut sorted = edges.clone();
            sorted.sort_unstable();
            for g in [raw_rows(n, &edges), raw_rows(n, &sorted)] {
                let s = g.symmetrize();
                prop_assert_eq!(&s, &symmetrize_by_pair_sort(&g));
                for v in 0..n as VertexId {
                    prop_assert!(s.neighbors(v).windows(2).all(|w| w[0] < w[1]));
                }
                prop_assert_eq!(&s.symmetrize(), &s);
            }
        }
    }

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_parts_accepts_valid() {
        let g = CsrGraph::from_parts(vec![0, 2, 2, 3], vec![1, 2, 0]).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
    }

    #[test]
    fn from_parts_rejects_empty_offsets() {
        assert_eq!(
            CsrGraph::from_parts(vec![], vec![]),
            Err(CsrError::EmptyOffsets)
        );
    }

    #[test]
    fn from_parts_rejects_nonzero_start() {
        assert_eq!(
            CsrGraph::from_parts(vec![1, 1], vec![0]),
            Err(CsrError::NonZeroFirstOffset)
        );
    }

    #[test]
    fn from_parts_rejects_decreasing() {
        assert_eq!(
            CsrGraph::from_parts(vec![0, 2, 1], vec![0, 1]),
            Err(CsrError::DecreasingOffsets(1))
        );
    }

    #[test]
    fn from_parts_rejects_length_mismatch() {
        assert!(matches!(
            CsrGraph::from_parts(vec![0, 3], vec![0]),
            Err(CsrError::OffsetLengthMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_rejects_out_of_range_column() {
        assert!(matches!(
            CsrGraph::from_parts(vec![0, 1], vec![5]),
            Err(CsrError::ColumnOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        // Transposing twice restores edge multiset.
        let tt = t.transpose();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetrize_makes_edges_bidirectional() {
        let g = diamond();
        let s = g.symmetrize();
        assert_eq!(s.num_edges(), 8);
        assert_eq!(s.neighbors(3), &[1, 2]);
        assert_eq!(s.neighbors(0), &[1, 2]);
    }

    #[test]
    fn symmetrize_keeps_self_loop_once() {
        let g = from_edges(2, &[(0, 0), (0, 1)]);
        let s = g.symmetrize();
        assert_eq!(s.neighbors(0), &[0, 1]);
        assert_eq!(s.neighbors(1), &[0]);
    }

    #[test]
    fn topology_bytes_accounts_rows_and_cols() {
        let g = diamond();
        assert_eq!(g.topology_bytes(), 4 * 8 + 4 * 4);
    }

    #[test]
    fn edges_iterator_yields_all_edges() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }
}
