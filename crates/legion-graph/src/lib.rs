//! Graph storage and synthetic dataset substrate for the Legion reproduction.
//!
//! The Legion paper ("Legion: Automatically Pushing the Envelope of Multi-GPU
//! System for Billion-Scale GNN Training", USENIX ATC 2023) evaluates on
//! billion-scale graphs stored in compressed sparse row (CSR) format with
//! `u64` row offsets and `u32` column indices (see the paper's Equation 3).
//! This crate provides:
//!
//! * [`csr::CsrGraph`] — the CSR topology structure used everywhere else,
//! * [`builder::GraphBuilder`] — edge-list ingestion with sorting and
//!   de-duplication,
//! * [`generate`] — R-MAT, Chung-Lu, Erdős–Rényi and stochastic-block-model
//!   generators used to synthesize scaled-down stand-ins for the paper's
//!   datasets (Products, Paper100M, Com-Friendster, UK-Union, UK-2014,
//!   Clue-web),
//! * [`features::FeatureTable`] — the dense 2-D feature array cached by the
//!   unified cache,
//! * [`dataset`] — a registry of the paper's Table 2 datasets at laptop
//!   scale, and
//! * [`stats`] / [`traversal`] — the edge-cut metric and traversals used
//!   by the partitioners and experiment drivers.

pub mod builder;
pub mod csr;
pub mod dataset;
pub mod features;
pub mod generate;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dataset::{Dataset, DatasetSpec};
pub use features::FeatureTable;

/// Vertex identifier. The paper stores CSR column indices as `Uint32`.
pub type VertexId = u32;

/// Edge index into the CSR column array. The paper stores row offsets as
/// `Uint64`; at our simulation scale `u64` is also what the cost model's
/// Equation 3 assumes (`s_uint64` bytes per row pointer).
pub type EdgeIndex = u64;

/// Number of bytes used to store one CSR row offset (`s_uint64` in Eq. 3).
pub const ROW_OFFSET_BYTES: u64 = 8;

/// Number of bytes used to store one CSR column index (`s_uint32` in Eq. 3).
pub const COL_INDEX_BYTES: u64 = 4;

/// Number of bytes used to store one feature scalar (`s_float32` in Eq. 6).
pub const FEATURE_SCALAR_BYTES: u64 = 4;

/// Bytes of topology cache occupied by one vertex with `degree` out-edges,
/// per the paper's Equation 3: `nc(v) * s_uint32 + s_uint64`.
#[inline]
pub fn topology_bytes_for_degree(degree: u64) -> u64 {
    degree * COL_INDEX_BYTES + ROW_OFFSET_BYTES
}

/// Bytes of feature cache occupied by one vertex with `dim`-dimensional
/// features, per the paper's Equation 6: `D * s_float32`.
#[inline]
pub fn feature_bytes_for_dim(dim: u64) -> u64 {
    dim * FEATURE_SCALAR_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_bytes_matches_equation_3() {
        // A vertex with 10 neighbors costs 10 * 4 + 8 bytes.
        assert_eq!(topology_bytes_for_degree(10), 48);
        // An isolated vertex still costs one row offset.
        assert_eq!(topology_bytes_for_degree(0), 8);
    }

    #[test]
    fn feature_bytes_matches_equation_6() {
        assert_eq!(feature_bytes_for_dim(128), 512);
        assert_eq!(feature_bytes_for_dim(0), 0);
    }
}
