//! Hotness matrices `H_T` and `H_F` (§4.2.2, Figure 6).
//!
//! "Each matrix's row represents the GPU IDs within an NVLink clique, the
//! column represents the vertex IDs, and the element `H_ij` of either
//! matrix represents the hotness of the j-th vertex in the i-th GPU."
//!
//! A matrix whose cached rows differ in size carries each vertex's row
//! bytes ([`HotnessMatrix::with_vertex_bytes`]): pre-sampling gives `H_T`
//! each row's Equation 3 size, so CSLP ranks `Q_T` by hotness per cached
//! byte. Feature rows are all one size, so `H_F` carries none.

use legion_graph::VertexId;

/// Row-major `(gpus-in-clique) x (vertices)` hotness counter matrix.
///
/// # Examples
///
/// ```
/// use legion_cache::HotnessMatrix;
///
/// let mut h = HotnessMatrix::new(2, 4);
/// h.add(0, 1, 3);
/// h.add(1, 1, 2);
/// assert_eq!(h.get(0, 1), 3);
/// assert_eq!(h.column_wise_sum()[1], 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotnessMatrix {
    num_gpus: usize,
    num_vertices: usize,
    data: Vec<u64>,
    /// Bytes caching each vertex's row takes, when rows differ in size.
    vertex_bytes: Option<Vec<u64>>,
}

impl HotnessMatrix {
    /// A zeroed matrix for `num_gpus` rows over `num_vertices` columns.
    pub fn new(num_gpus: usize, num_vertices: usize) -> Self {
        Self {
            num_gpus,
            num_vertices,
            data: vec![0; num_gpus * num_vertices],
            vertex_bytes: None,
        }
    }

    /// The matrix with each vertex's cached row size attached: `bytes[v]`
    /// is what caching `v`'s row takes. [`cslp`](crate::cslp()) then ranks
    /// the vertices by hotness per byte instead of by hotness.
    ///
    /// # Panics
    ///
    /// Panics unless there is one positive size per vertex column.
    pub fn with_vertex_bytes(mut self, bytes: Vec<u64>) -> Self {
        assert_eq!(bytes.len(), self.num_vertices, "one size per vertex");
        assert!(bytes.iter().all(|&b| b > 0), "a cached row takes bytes");
        self.vertex_bytes = Some(bytes);
        self
    }

    /// Each vertex's cached row size, if the matrix carries them.
    pub fn vertex_bytes(&self) -> Option<&[u64]> {
        self.vertex_bytes.as_deref()
    }

    /// Number of GPU rows.
    #[inline]
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Number of vertex columns.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Increments `H[gpu][v]` by `amount`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` or `v` is out of range.
    #[inline]
    pub fn add(&mut self, gpu: usize, v: VertexId, amount: u64) {
        assert!(gpu < self.num_gpus, "gpu row {gpu} out of range");
        self.data[gpu * self.num_vertices + v as usize] += amount;
    }

    /// Decrements `H[gpu][v]` by `amount` — the retirement half of a
    /// sliding window: when an epoch bucket ages out, its per-vertex
    /// contributions are subtracted from the aggregate matrix.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` or `v` is out of range, or if `amount` exceeds the
    /// current value (a retired bucket can only remove hotness it added).
    #[inline]
    pub fn sub(&mut self, gpu: usize, v: VertexId, amount: u64) {
        assert!(gpu < self.num_gpus, "gpu row {gpu} out of range");
        let cell = &mut self.data[gpu * self.num_vertices + v as usize];
        *cell = cell
            .checked_sub(amount)
            .expect("hotness underflow: bucket retired more than it added");
    }

    /// Reads `H[gpu][v]`.
    #[inline]
    pub fn get(&self, gpu: usize, v: VertexId) -> u64 {
        self.data[gpu * self.num_vertices + v as usize]
    }

    /// One GPU's full hotness row.
    pub fn row(&self, gpu: usize) -> &[u64] {
        &self.data[gpu * self.num_vertices..(gpu + 1) * self.num_vertices]
    }

    /// One GPU's full hotness row, writable.
    pub fn row_mut(&mut self, gpu: usize) -> &mut [u64] {
        &mut self.data[gpu * self.num_vertices..(gpu + 1) * self.num_vertices]
    }

    /// Column-wise sum — the accumulated clique-level hotness vector
    /// (`A_T` / `A_F`, Algorithm 1 step 1).
    pub fn column_wise_sum(&self) -> Vec<u64> {
        let mut acc = vec![0u64; self.num_vertices];
        for gpu in 0..self.num_gpus {
            for (a, &h) in acc.iter_mut().zip(self.row(gpu)) {
                *a += h;
            }
        }
        acc
    }

    /// Index of the GPU row with the highest hotness for vertex `v`
    /// (Algorithm 1 step 3: "assign each vertex to the GPU with the
    /// highest local hotness"). Ties break toward the lower GPU index.
    pub fn argmax_gpu(&self, v: VertexId) -> usize {
        let mut best = 0usize;
        let mut best_h = self.get(0, v);
        for gpu in 1..self.num_gpus {
            let h = self.get(gpu, v);
            if h > best_h {
                best = gpu;
                best_h = h;
            }
        }
        best
    }

    /// Merges another matrix into this one (element-wise add). Used when
    /// several pre-sampling workers contribute to the same clique. The
    /// row sizes stay this matrix's.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &HotnessMatrix) {
        assert_eq!(self.num_gpus, other.num_gpus, "gpu count mismatch");
        assert_eq!(
            self.num_vertices, other.num_vertices,
            "vertex count mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_roundtrip() {
        let mut h = HotnessMatrix::new(3, 5);
        h.add(2, 4, 7);
        h.add(2, 4, 1);
        assert_eq!(h.get(2, 4), 8);
        assert_eq!(h.get(0, 4), 0);
    }

    #[test]
    fn column_sum_accumulates_all_rows() {
        let mut h = HotnessMatrix::new(2, 3);
        h.add(0, 0, 1);
        h.add(1, 0, 2);
        h.add(1, 2, 5);
        assert_eq!(h.column_wise_sum(), vec![3, 0, 5]);
    }

    #[test]
    fn argmax_prefers_highest_then_lowest_index() {
        let mut h = HotnessMatrix::new(3, 2);
        h.add(1, 0, 9);
        h.add(2, 0, 4);
        assert_eq!(h.argmax_gpu(0), 1);
        // All-zero column: lowest GPU wins.
        assert_eq!(h.argmax_gpu(1), 0);
        // Tie: lower index wins.
        h.add(0, 1, 3);
        h.add(2, 1, 3);
        assert_eq!(h.argmax_gpu(1), 0);
    }

    #[test]
    fn sub_retires_previous_contributions() {
        let mut h = HotnessMatrix::new(2, 3);
        h.add(1, 2, 5);
        h.sub(1, 2, 3);
        assert_eq!(h.get(1, 2), 2);
        h.sub(1, 2, 2);
        assert_eq!(h.get(1, 2), 0);
    }

    #[test]
    #[should_panic(expected = "hotness underflow")]
    fn sub_rejects_underflow() {
        let mut h = HotnessMatrix::new(1, 1);
        h.add(0, 0, 1);
        h.sub(0, 0, 2);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = HotnessMatrix::new(1, 2);
        a.add(0, 0, 1);
        let mut b = HotnessMatrix::new(1, 2);
        b.add(0, 0, 2);
        b.add(0, 1, 3);
        a.merge(&b);
        assert_eq!(a.get(0, 0), 3);
        assert_eq!(a.get(0, 1), 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = HotnessMatrix::new(1, 2);
        let b = HotnessMatrix::new(2, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "a cached row takes bytes")]
    fn vertex_bytes_reject_a_free_row() {
        let _ = HotnessMatrix::new(1, 2).with_vertex_bytes(vec![8, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_rejects_bad_gpu() {
        let mut h = HotnessMatrix::new(1, 1);
        h.add(1, 0, 1);
    }
}
