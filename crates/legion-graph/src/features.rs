//! Vertex feature tables, stored or generated.
//!
//! Legion's feature cache stores "the feature vectors of selected hot
//! vertices in the format of a 2D array, where each row is the feature
//! vector of a selected hot vertex" (§4.2.1). [`FeatureTable`] is that 2-D
//! array, also used for the full CPU-resident feature store.
//!
//! A table is dense (`zeros`, `from_flat`, and PR's SBM features, whose
//! values carry the class signal Fig. 11 learns from) or generated. The
//! paper's featureless datasets get values "manually generated" (Table 2),
//! and no result depends on them: cache plans, PCIe transactions and
//! host-memory gates depend on a row's size, not its values. So
//! [`FeatureTable::random`] keeps only a key drawn from the caller's rng
//! and computes a value when it is read. On PA/500 that is 108 MiB of
//! host memory not held. Both storages answer every read alike.

use rand::Rng;

use crate::{feature_bytes_for_dim, VertexId};

/// A `rows × dim` table of `f32`s: one row per vertex.
///
/// # Examples
///
/// ```
/// use legion_graph::FeatureTable;
///
/// let t = FeatureTable::from_flat(vec![0.0, 1.0, 2.0, 3.0, 7.5, 5.0], 2);
/// let mut row = Vec::new();
/// t.extend_row(2, &mut row);
/// assert_eq!(row, [7.5, 5.0]);
/// assert_eq!(t.row_bytes(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct FeatureTable {
    values: Values,
    rows: usize,
    dim: usize,
}

#[derive(Debug, Clone)]
enum Values {
    /// Row-major, `rows · dim` values.
    Dense(Vec<f32>),
    /// Value `i = v·dim + j` is [`generated`]`(key, i)`.
    Generated { key: u64 },
}

/// SplitMix64's finaliser.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Value `i` of the table keyed `key`: the top 24 bits of a hash, on the
/// grid `rng.gen::<f32>() - 0.5` draws from, so in `[-0.5, 0.5)`.
#[inline]
fn generated(key: u64, i: u64) -> f32 {
    let h = mix(key.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    (h >> 40) as f32 * (1.0 / (1u32 << 24) as f32) - 0.5
}

impl FeatureTable {
    /// All-zero table with `rows` rows of `dim` columns.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            values: Values::Dense(vec![0.0; rows * dim]),
            rows,
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
        let rows = data.len() / dim;
        Self {
            values: Values::Dense(data),
            rows,
            dim,
        }
    }

    /// Generated table with entries uniform in `[-0.5, 0.5)`, for the
    /// paper datasets that "have no feature" and are "manually generated"
    /// (Table 2: CO, UKS, UKL, CL; PA's stand-in here too).
    ///
    /// It holds no rows. `rng` advances by exactly the `rows · dim`
    /// `f32` draws a stored table would take: the first is the key, the
    /// rest are discarded, so every later draw from `rng` is unchanged.
    pub fn random<R: Rng + ?Sized>(rows: usize, dim: usize, rng: &mut R) -> Self {
        let draws = rows * dim;
        let key = if draws == 0 {
            0
        } else {
            u64::from(rng.next_u32())
        };
        for _ in 1..draws {
            rng.next_u32();
        }
        Self {
            values: Values::Generated { key },
            rows,
            dim,
        }
    }

    /// Number of rows (vertices).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows
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

    /// Bytes the table stands for (`rows · row_bytes`), stored or not:
    /// what a host holding the real features would hold.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.num_rows() as u64 * self.row_bytes()
    }

    /// Appends the feature row of `v` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn extend_row(&self, v: VertexId, out: &mut Vec<f32>) {
        let v = v as usize;
        assert!(v < self.rows, "vertex {v} out of range");
        let start = v * self.dim;
        match &self.values {
            Values::Dense(data) => out.extend_from_slice(&data[start..start + self.dim]),
            Values::Generated { key } => {
                out.extend((start..start + self.dim).map(|i| generated(*key, i as u64)))
            }
        }
    }

    /// Gathers the rows of `vertices` into a new dense table (the feature
    /// extraction output for a mini-batch).
    #[cfg(test)]
    pub fn gather(&self, vertices: &[VertexId]) -> FeatureTable {
        let mut out = Vec::with_capacity(vertices.len() * self.dim);
        for &v in vertices {
            self.extend_row(v, &mut out);
        }
        FeatureTable {
            values: Values::Dense(out),
            rows: vertices.len(),
            dim: self.dim,
        }
    }

    /// The whole table, row-major.
    pub fn to_vec(&self) -> Vec<f32> {
        match &self.values {
            Values::Dense(data) => data.clone(),
            Values::Generated { key } => (0..self.rows * self.dim)
                .map(|i| generated(*key, i as u64))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn row_of(t: &FeatureTable, v: VertexId) -> Vec<f32> {
        let mut out = Vec::new();
        t.extend_row(v, &mut out);
        out
    }

    #[test]
    fn zeros_shape() {
        let t = FeatureTable::zeros(5, 8);
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.dim(), 8);
        assert_eq!(t.total_bytes(), 5 * 8 * 4);
        assert!(t.to_vec().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_flat_roundtrip() {
        let t = FeatureTable::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(row_of(&t, 0), [1.0, 2.0]);
        assert_eq!(row_of(&t, 1), [3.0, 4.0]);
        assert_eq!(t.to_vec(), [1.0, 2.0, 3.0, 4.0]);
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
        assert_eq!(g.to_vec(), [4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn gather_empty_is_empty() {
        let t = FeatureTable::zeros(3, 2);
        let g = t.gather(&[]);
        assert_eq!(g.num_rows(), 0);
    }

    #[test]
    fn random_fills_range() {
        let t = FeatureTable::random(2000, 64, &mut StdRng::seed_from_u64(9));
        let values = t.to_vec();
        assert!(values.iter().all(|&x| (-0.5..0.5).contains(&x)));
        // On the grid `rng.gen::<f32>() - 0.5` draws from, centred.
        assert!(values
            .iter()
            .all(|&x| ((x + 0.5) * (1 << 24) as f32).fract() == 0.0));
        let mean = values.iter().map(|&x| x as f64).sum::<f64>() / values.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn a_generated_row_depends_only_on_the_table_and_the_vertex() {
        let t = FeatureTable::random(300, 16, &mut StdRng::seed_from_u64(5));
        let whole = t.to_vec();
        let mut out = Vec::new();
        for v in (0..300u32).rev().step_by(7) {
            out.clear();
            t.extend_row(v, &mut out);
            let start = v as usize * 16;
            assert_eq!(out, whole[start..start + 16], "row {v}");
        }
        // A clone reads the same, interleaved with the original.
        let c = t.clone();
        for v in [3, 299, 0, 3] {
            assert_eq!(row_of(&c, v), row_of(&t, v));
        }
        assert_eq!(
            t.gather(&[9, 1]).to_vec(),
            [row_of(&t, 9), row_of(&t, 1)].concat()
        );
    }

    #[test]
    fn generated_values_differ_across_seeds() {
        let a = FeatureTable::random(50, 8, &mut StdRng::seed_from_u64(1)).to_vec();
        let b = FeatureTable::random(50, 8, &mut StdRng::seed_from_u64(2)).to_vec();
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 4, "{same} of 400 values equal across seeds");
    }

    #[test]
    fn random_takes_one_draw_per_value() {
        for (rows, dim) in [(0, 8), (1, 1), (37, 5), (1000, 128)] {
            let mut rng = StdRng::seed_from_u64(11);
            let _ = FeatureTable::random(rows, dim, &mut rng);
            let mut stored = StdRng::seed_from_u64(11);
            for _ in 0..rows * dim {
                let _: f32 = stored.gen();
            }
            assert_eq!(rng.gen::<u64>(), stored.gen::<u64>(), "{rows} x {dim}");
        }
    }

    #[test]
    fn a_generated_table_holds_no_rows() {
        let t = FeatureTable::random(1000, 128, &mut StdRng::seed_from_u64(3));
        assert!(matches!(t.values, Values::Generated { .. }));
        assert_eq!(t.total_bytes(), 1000 * 128 * 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_generated_row_past_the_end_panics_as_a_dense_one_does() {
        let t = FeatureTable::random(4, 2, &mut StdRng::seed_from_u64(3));
        t.extend_row(4, &mut Vec::new());
    }
}
