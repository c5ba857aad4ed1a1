//! Dense vertex feature storage.
//!
//! Legion's feature cache stores "the feature vectors of selected hot
//! vertices in the format of a 2D array, where each row is the feature
//! vector of a selected hot vertex" (§4.2.1). [`FeatureTable`] is that 2-D
//! array, also used for the full CPU-resident feature store.

use rand::Rng;

use crate::{feature_bytes_for_dim, VertexId};

/// Row-major 2-D `f32` array: one row per vertex.
///
/// # Examples
///
/// ```
/// use legion_graph::FeatureTable;
///
/// let mut t = FeatureTable::zeros(3, 4);
/// t.row_mut(1)[2] = 7.5;
/// assert_eq!(t.row(1), &[0.0, 0.0, 7.5, 0.0]);
/// assert_eq!(t.row_bytes(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureTable {
    data: Vec<f32>,
    dim: usize,
}

impl FeatureTable {
    /// All-zero table with `rows` rows of `dim` columns.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            dim,
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` (with `dim > 0`).
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} not a multiple of dim {}",
            data.len(),
            dim
        );
        Self { data, dim }
    }

    /// Random table with entries uniform in `[-0.5, 0.5)`. Used for the
    /// paper datasets that "have no feature" and are "manually generated"
    /// (Table 2: CO, UKS, UKL, CL).
    pub fn random<R: Rng + ?Sized>(rows: usize, dim: usize, rng: &mut R) -> Self {
        let data = (0..rows * dim).map(|_| rng.gen::<f32>() - 0.5).collect();
        Self { data, dim }
    }

    /// Number of rows (vertices).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Feature dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes per feature row (`D * s_float32`, Equation 6).
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        feature_bytes_for_dim(self.dim as u64)
    }

    /// Total bytes of the table.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.num_rows() as u64 * self.row_bytes()
    }

    /// The feature row of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[f32] {
        let v = v as usize;
        &self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// Mutable feature row of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn row_mut(&mut self, v: VertexId) -> &mut [f32] {
        let v = v as usize;
        &mut self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// Gathers the rows of `vertices` into a new dense table (the feature
    /// extraction output for a mini-batch).
    #[cfg(test)]
    pub fn gather(&self, vertices: &[VertexId]) -> FeatureTable {
        let mut out = FeatureTable::zeros(vertices.len(), self.dim);
        for (i, &v) in vertices.iter().enumerate() {
            out.row_mut(i as VertexId).copy_from_slice(self.row(v));
        }
        out
    }

    /// Flat row-major view of the whole table.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let t = FeatureTable::zeros(5, 8);
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.dim(), 8);
        assert_eq!(t.total_bytes(), 5 * 8 * 4);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_flat_roundtrip() {
        let t = FeatureTable::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        let _ = FeatureTable::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn gather_picks_rows_in_order() {
        let t = FeatureTable::from_flat(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 2);
        let g = t.gather(&[2, 0]);
        assert_eq!(g.row(0), &[4.0, 5.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn gather_empty_is_empty() {
        let t = FeatureTable::zeros(3, 2);
        let g = t.gather(&[]);
        assert_eq!(g.num_rows(), 0);
    }

    #[test]
    fn random_fills_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = FeatureTable::random(10, 4, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
        assert!(t.as_slice().iter().any(|&x| x != 0.0));
    }
}
