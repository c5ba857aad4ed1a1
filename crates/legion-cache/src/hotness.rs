//! Hotness matrices `H_T` and `H_F` (§4.2.2, Figure 6).
//!
//! "Each matrix's row represents the GPU IDs within an NVLink clique, the
//! column represents the vertex IDs, and the element `H_ij` of either
//! matrix represents the hotness of the j-th vertex in the i-th GPU."
//!
//! A matrix stores only its support: the vertices some GPU's row holds
//! non-zero, each once with its `K_g` values, in the order they were
//! written. Pre-sampling reaches
//! a fraction of the graph (on `train_pa`, `H_T`'s support is about a
//! quarter of `|V|` a clique), so the matrices cost what it touched, not
//! `K_g × |V|` words. [`cslp`](crate::cslp()) walks the support; a
//! reader that wants one GPU's dense row builds it with
//! [`HotnessMatrix::row`].
//!
//! A matrix whose cached rows differ in size carries each support
//! vertex's row bytes ([`HotnessMatrix::with_vertex_bytes`]): pre-sampling
//! gives `H_T` each row's Equation 3 size, so CSLP ranks `Q_T` by hotness
//! per cached byte. Feature rows are all one size, so `H_F` carries none.

use legion_graph::VertexId;

/// A `(gpus-in-clique) x (vertices)` hotness matrix stored over its
/// non-zero columns.
///
/// # Examples
///
/// ```
/// use legion_cache::HotnessMatrix;
///
/// let h = HotnessMatrix::from_rows(&[&[0, 3, 0, 0], &[0, 2, 0, 1]]);
/// assert_eq!(h.support(), &[1, 3]);
/// assert_eq!(h.row(1), vec![0, 2, 0, 1]);
/// assert_eq!(h.column_wise_sum(), vec![0, 5, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotnessMatrix {
    num_gpus: usize,
    num_vertices: usize,
    /// Every vertex with a non-zero entry, once.
    support: Vec<VertexId>,
    /// `num_gpus` values per support vertex: `values[i·K_g + g]` is
    /// `H[g][support[i]]`.
    values: Vec<u64>,
    /// Bytes caching each support vertex's row takes, when rows differ
    /// in size.
    vertex_bytes: Option<Vec<u64>>,
}

impl HotnessMatrix {
    /// The matrix over `num_vertices` columns whose non-zero columns are
    /// `support`, each with the `num_gpus` values `values` holds for it in
    /// turn. The matrix holds exactly what it stores: spare capacity in
    /// `support` or `values` is released.
    ///
    /// # Panics
    ///
    /// Panics unless `num_gpus > 0`, `support` lists distinct vertices
    /// below `num_vertices`, there are `num_gpus` values per support
    /// vertex, and every support column holds a non-zero value.
    pub fn from_support(
        num_gpus: usize,
        num_vertices: usize,
        mut support: Vec<VertexId>,
        mut values: Vec<u64>,
    ) -> Self {
        assert!(num_gpus > 0, "a clique has GPUs");
        assert_eq!(
            values.len(),
            support.len() * num_gpus,
            "K_g values a column"
        );
        let mut listed = vec![false; num_vertices];
        for &v in &support {
            let seen = listed
                .get_mut(v as usize)
                .expect("support vertex out of range");
            assert!(
                !std::mem::replace(seen, true),
                "support vertex {v} listed twice"
            );
        }
        assert!(
            values
                .chunks_exact(num_gpus)
                .all(|c| c.iter().any(|&x| x > 0)),
            "a support column is non-zero"
        );
        support.shrink_to_fit();
        values.shrink_to_fit();
        Self {
            num_gpus,
            num_vertices,
            support,
            values,
            vertex_bytes: None,
        }
    }

    /// The matrix whose GPU rows are `rows`, all of one length.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows differ in length.
    pub fn from_rows(rows: &[&[u64]]) -> Self {
        let n = rows.first().expect("a clique has GPUs").len();
        assert!(rows.iter().all(|r| r.len() == n), "rows of one length");
        let dense = (0..n).flat_map(|v| rows.iter().map(move |r| r[v]));
        Self::from_dense(rows.len(), dense.collect())
    }

    /// The matrix of a dense table holding `num_gpus` values a vertex,
    /// `dense[v·K_g + g] = H[g][v]`, compacted in place to its non-zero
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics unless `num_gpus > 0` and divides `dense.len()`.
    pub fn from_dense(num_gpus: usize, mut dense: Vec<u64>) -> Self {
        assert!(num_gpus > 0, "a clique has GPUs");
        assert_eq!(dense.len() % num_gpus, 0, "K_g values a column");
        let n = dense.len() / num_gpus;
        let held = |column: &[u64]| column.iter().any(|&x| x > 0);
        let columns = dense.chunks_exact(num_gpus).filter(|c| held(c)).count();
        let mut support = Vec::with_capacity(columns);
        for v in 0..n {
            let column = v * num_gpus..(v + 1) * num_gpus;
            if held(&dense[column.clone()]) {
                dense.copy_within(column, support.len() * num_gpus);
                support.push(v as VertexId);
            }
        }
        dense.truncate(columns * num_gpus);
        Self::from_support(num_gpus, n, support, dense)
    }

    /// The matrix with each support vertex's cached row size attached:
    /// `bytes(v)` is what caching `v`'s row takes. [`cslp`](crate::cslp())
    /// then ranks the vertices by hotness per byte instead of by hotness.
    ///
    /// # Panics
    ///
    /// Panics if a support vertex's row takes no bytes.
    pub fn with_vertex_bytes(mut self, bytes: impl Fn(VertexId) -> u64) -> Self {
        let sizes: Vec<u64> = self.support.iter().map(|&v| bytes(v)).collect();
        assert!(sizes.iter().all(|&b| b > 0), "a cached row takes bytes");
        self.vertex_bytes = Some(sizes);
        self
    }

    /// Each support vertex's cached row size, in support order, if the
    /// matrix carries them.
    pub fn vertex_bytes(&self) -> Option<&[u64]> {
        self.vertex_bytes.as_deref()
    }

    /// Capacities of the support, the values and the row sizes.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 3] {
        let bytes = self.vertex_bytes.as_ref().map_or(0, Vec::capacity);
        [self.support.capacity(), self.values.capacity(), bytes]
    }

    /// Number of vertex columns.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The vertices with a non-zero entry, in the order they were written.
    pub fn support(&self) -> &[VertexId] {
        &self.support
    }

    /// Each support vertex with its `K_g` values, in support order.
    pub fn columns(&self) -> impl Iterator<Item = (VertexId, &[u64])> {
        self.support
            .iter()
            .copied()
            .zip(self.values.chunks_exact(self.num_gpus))
    }

    /// One GPU's dense hotness row, built on demand.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn row(&self, gpu: usize) -> Vec<u64> {
        assert!(gpu < self.num_gpus, "gpu row {gpu} out of range");
        let mut row = vec![0; self.num_vertices];
        for (v, column) in self.columns() {
            row[v as usize] = column[gpu];
        }
        row
    }

    /// Column-wise sum — the accumulated clique-level hotness vector
    /// (`A_T` / `A_F`, Algorithm 1 step 1), dense.
    pub fn column_wise_sum(&self) -> Vec<u64> {
        let mut acc = vec![0u64; self.num_vertices];
        for (v, column) in self.columns() {
            acc[v as usize] = column.iter().sum();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_the_support() {
        let rows: [&[u64]; 3] = [&[0, 0, 4, 0, 7], &[0, 0, 0, 0, 1], &[0, 5, 0, 0, 0]];
        let h = HotnessMatrix::from_rows(&rows);
        assert_eq!(h.support(), &[1, 2, 4]);
        for (g, row) in rows.iter().enumerate() {
            assert_eq!(h.row(g), row.to_vec());
        }
        assert_eq!(h.column_wise_sum(), vec![0, 5, 4, 0, 8]);
        let columns: Vec<_> = h.columns().collect();
        assert_eq!(columns[2], (4, &[7, 1, 0][..]));
    }

    #[test]
    fn column_sum_accumulates_all_rows() {
        let h = HotnessMatrix::from_rows(&[&[1, 0, 0], &[2, 0, 5]]);
        assert_eq!(h.column_wise_sum(), vec![3, 0, 5]);
    }

    #[test]
    fn argmax_prefers_highest_then_lowest_index() {
        // CSLP's owner is the argmax GPU of the vertex's column.
        let h = HotnessMatrix::from_rows(&[&[0, 3], &[9, 0], &[4, 3]]);
        // Vertex 0: GPU 1 is hottest. Vertex 1: GPUs 0 and 2 tie, the
        // lower index wins.
        assert_eq!(crate::cslp(&h).owner, vec![1, 0]);
        // An all-zero column goes to the lowest GPU.
        let cold = HotnessMatrix::from_rows(&[&[0, 1], &[0, 0]]);
        assert_eq!(crate::cslp(&cold).owner, vec![0, 0]);
    }

    #[test]
    fn empty_and_all_zero_matrices_have_no_support() {
        let h = HotnessMatrix::from_rows(&[&[0, 0, 0], &[0, 0, 0]]);
        assert!(h.support().is_empty());
        assert_eq!(h.row(1), vec![0, 0, 0]);
        assert!(HotnessMatrix::from_rows(&[&[]])
            .column_wise_sum()
            .is_empty());
    }

    #[test]
    fn vertex_bytes_follow_the_support() {
        let h = HotnessMatrix::from_rows(&[&[0, 2, 0, 9]]).with_vertex_bytes(|v| 8 + 4 * v as u64);
        assert_eq!(h.vertex_bytes(), Some(&[12, 20][..]));
    }

    #[test]
    #[should_panic(expected = "a cached row takes bytes")]
    fn vertex_bytes_reject_a_free_row() {
        let _ = HotnessMatrix::from_rows(&[&[1, 1]]).with_vertex_bytes(|v| u64::from(v) * 8);
    }

    #[test]
    #[should_panic(expected = "a support column is non-zero")]
    fn support_rejects_a_zero_column() {
        let _ = HotnessMatrix::from_support(2, 4, vec![1, 3], vec![1, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn support_rejects_a_repeat() {
        let _ = HotnessMatrix::from_support(1, 4, vec![3, 1, 3], vec![1, 1, 1]);
    }

    #[test]
    fn support_keeps_the_order_it_was_written_in() {
        let h = HotnessMatrix::from_support(2, 4, vec![3, 0], vec![0, 5, 2, 0]);
        assert_eq!(h.support(), &[3, 0]);
        assert_eq!(h.row(1), vec![0, 0, 0, 5]);
        assert_eq!(h.column_wise_sum(), vec![2, 0, 0, 5]);
    }

    /// A matrix holds exactly its length, whatever spare capacity its
    /// inputs carried: pre-sampling hands over a dense `K_g × |V|` table
    /// and supports sized for more columns than they hold.
    #[test]
    fn a_matrix_holds_exactly_its_length() {
        let mut support = Vec::with_capacity(64);
        let mut values = Vec::with_capacity(128);
        support.extend([4, 1]);
        values.extend([3, 0, 0, 2]);
        let h =
            HotnessMatrix::from_support(2, 8, support, values).with_vertex_bytes(|v| 8 + v as u64);
        assert_eq!(h.capacities(), [2, 4, 2]);
        let mut dense = vec![0; 2 * 6];
        dense[2 * 5 + 1] = 9;
        dense[2 * 2] = 1;
        let h = HotnessMatrix::from_dense(2, dense);
        assert_eq!(h.support(), &[2, 5]);
        assert_eq!(h.row(1), vec![0, 0, 0, 0, 0, 9]);
        assert_eq!(h.capacities(), [2, 4, 0]);
    }

    #[test]
    #[should_panic(expected = "K_g values a column")]
    fn dense_rejects_a_partial_column() {
        let _ = HotnessMatrix::from_dense(3, vec![1; 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_rejects_bad_gpu() {
        let _ = HotnessMatrix::from_rows(&[&[1]]).row(1);
    }
}
