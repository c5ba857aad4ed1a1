//! NVLink topology matrix and clique structure.
//!
//! Hierarchical partitioning (§4.1) takes "an NVLink topology matrix `M_T`
//! of the underlying multi-GPU server" as input and runs MaxCliqueDyn over
//! it to find NVLink cliques. This module holds the matrix; the clique
//! *detection* algorithm lives in `legion-partition::clique` (it is part of
//! the paper's contribution pipeline, not of the hardware).

use crate::GpuId;

/// Symmetric boolean adjacency matrix over GPUs: `true` when the two GPUs
/// are directly connected by NVLink.
///
/// # Examples
///
/// ```
/// use legion_hw::NvLinkTopology;
///
/// // Siton: 8 GPUs in 4 NVLink pairs.
/// let m = NvLinkTopology::disjoint_cliques(8, 2).matrix();
/// assert!(m[1]); // GPU 0 row, GPU 1 column
/// assert!(!m[8 + 2]); // GPU 1 row, GPU 2 column
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NvLinkTopology {
    n: usize,
    adj: Vec<bool>,
    /// Per-direction NVLink bandwidth between connected peers, bytes/s.
    link_bandwidth: f64,
}

/// Default per-direction NVLink bandwidth (NVLink 2.0-class, ~150 GB/s
/// aggregate between clique peers). The paper treats NVLink as "much higher
/// bandwidth than PCIe" and neglects its traffic in the cost model
/// (§4.3.1 footnote); the constant only matters for pipeline timing.
pub const DEFAULT_NVLINK_BANDWIDTH: f64 = 150.0e9;

impl NvLinkTopology {
    /// A topology with no NVLinks at all (every GPU is its own clique).
    pub fn none(n: usize) -> Self {
        Self {
            n,
            adj: vec![false; n * n],
            link_bandwidth: DEFAULT_NVLINK_BANDWIDTH,
        }
    }

    /// All GPUs pairwise connected (one big clique; DGX-A100 NVSwitch).
    pub fn fully_connected(n: usize) -> Self {
        let mut t = Self::none(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    t.set_connected(a, b);
                }
            }
        }
        t
    }

    /// `n / clique_size` disjoint cliques of `clique_size` consecutive
    /// GPUs. `disjoint_cliques(8, 2)` is Siton (`K_c = 4, K_g = 2`);
    /// `disjoint_cliques(8, 4)` is DGX-V100 (`K_c = 2, K_g = 4`).
    ///
    /// # Panics
    ///
    /// Panics if `clique_size == 0` or does not divide `n`.
    pub fn disjoint_cliques(n: usize, clique_size: usize) -> Self {
        assert!(clique_size > 0, "clique size must be positive");
        assert!(
            n.is_multiple_of(clique_size),
            "{n} GPUs cannot be split into cliques of {clique_size}"
        );
        let mut t = Self::none(n);
        for base in (0..n).step_by(clique_size) {
            for a in base..base + clique_size {
                for b in base..base + clique_size {
                    if a != b {
                        t.set_connected(a, b);
                    }
                }
            }
        }
        t
    }

    /// Builds from an explicit adjacency matrix (row-major, `n * n`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n * n`, not symmetric, or has a true
    /// diagonal entry.
    pub fn from_matrix(n: usize, adj: Vec<bool>) -> Self {
        assert_eq!(adj.len(), n * n, "adjacency matrix must be n*n");
        for a in 0..n {
            assert!(!adj[a * n + a], "GPU {a} cannot NVLink to itself");
            for b in 0..n {
                assert_eq!(adj[a * n + b], adj[b * n + a], "matrix must be symmetric");
            }
        }
        Self {
            n,
            adj,
            link_bandwidth: DEFAULT_NVLINK_BANDWIDTH,
        }
    }

    /// Overrides the per-link bandwidth.
    pub fn with_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.link_bandwidth = bytes_per_sec;
        self
    }

    /// Number of GPUs.
    #[inline]
    pub fn num_gpus(&self) -> usize {
        self.n
    }

    /// Whether `a` and `b` are NVLink-connected.
    #[cfg(test)]
    pub fn connected(&self, a: GpuId, b: GpuId) -> bool {
        a != b && self.adj[a * self.n + b]
    }

    /// Per-direction NVLink bandwidth in bytes/s.
    #[inline]
    pub fn link_bandwidth(&self) -> f64 {
        self.link_bandwidth
    }

    fn set_connected(&mut self, a: GpuId, b: GpuId) {
        self.adj[a * self.n + b] = true;
        self.adj[b * self.n + a] = true;
    }

    /// Row-major copy of the adjacency matrix (the `M_T` handed to clique
    /// detection).
    pub fn matrix(&self) -> Vec<bool> {
        self.adj.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_has_no_links() {
        let t = NvLinkTopology::none(4);
        for a in 0..4 {
            for b in 0..4 {
                assert!(!t.connected(a, b));
            }
        }
    }

    #[test]
    fn fully_connected_links_all_pairs() {
        let t = NvLinkTopology::fully_connected(8);
        for a in 0..8 {
            assert_eq!((0..8).filter(|&b| t.connected(a, b)).count(), 7);
            assert!(!t.connected(a, a));
        }
    }

    #[test]
    fn disjoint_cliques_of_two() {
        let t = NvLinkTopology::disjoint_cliques(8, 2);
        assert!(t.connected(4, 5));
        assert!(!t.connected(3, 4));
        assert_eq!(
            (0..8).filter(|&b| t.connected(6, b)).collect::<Vec<_>>(),
            vec![7]
        );
    }

    #[test]
    fn disjoint_cliques_of_four() {
        let t = NvLinkTopology::disjoint_cliques(8, 4);
        assert!(t.connected(0, 3));
        assert!(!t.connected(3, 4));
        let peers: Vec<GpuId> = (0..8).filter(|&b| t.connected(1, b)).collect();
        assert_eq!(peers, vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot be split")]
    fn uneven_cliques_panic() {
        let _ = NvLinkTopology::disjoint_cliques(8, 3);
    }

    #[test]
    fn from_matrix_roundtrip() {
        let t = NvLinkTopology::disjoint_cliques(4, 2);
        let rebuilt = NvLinkTopology::from_matrix(4, t.matrix());
        assert_eq!(t, rebuilt);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_matrix_rejects_asymmetric() {
        let mut adj = vec![false; 4];
        adj[1] = true; // 0 -> 1 but not 1 -> 0.
        let _ = NvLinkTopology::from_matrix(2, adj);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn from_matrix_rejects_self_loop() {
        let mut adj = vec![false; 4];
        adj[0] = true;
        let _ = NvLinkTopology::from_matrix(2, adj);
    }
}
