//! Simulated multi-GPU server hardware for the Legion reproduction.
//!
//! The paper's evaluation platforms (Table 1) are DGX-V100, Siton and
//! DGX-A100 servers. This crate models the pieces of those machines that
//! Legion's design actually depends on:
//!
//! * [`device::GpuDevice`] — per-GPU memory capacity with byte-accurate
//!   allocation accounting (so out-of-memory — the "x" marks in Figures 8
//!   and 12 — is a first-class, reproducible outcome),
//! * [`nvlink::NvLinkTopology`] — the NVLink adjacency matrix `M_T` that
//!   hierarchical partitioning consumes (§4.1 S1),
//! * [`pcie::PcieModel`] — payload-size-dependent effective throughput
//!   (Figure 4a) and cache-line-granular transaction counting (`CLS`, used
//!   by the cost model's Equation 8),
//! * [`pcm::PcmCounters`] — the Intel PCM stand-in that tallies CPU→GPU
//!   PCIe transactions per socket (`N_TSUM` in §4.2.2),
//! * [`net::NetModel`] — the cluster-interconnect extension of the same
//!   analytic shape (per-message overhead + bandwidth + round-trip
//!   waves) that prices cross-server feature reads in the fleet tier,
//! * [`traffic::TrafficMatrix`] — GPU↔GPU / CPU→GPU byte matrices
//!   (Figure 10),
//! * [`time_model::TimeModel`] — §5 stage durations from transactions,
//!   NVLink bytes and FLOPs, and
//! * [`server::MultiGpuServer`] — Table 1 presets tying it all together.

pub mod device;
pub mod net;
pub mod nvlink;
pub mod pcie;
pub mod pcm;
pub mod server;
pub mod time_model;
pub mod traffic;

pub use device::{GpuDevice, HwError};
pub use net::{NetModel, RemoteWave, UplinkConfig};
pub use nvlink::NvLinkTopology;
pub use pcie::{PcieGeneration, PcieModel};
pub use pcm::PcmCounters;
pub use server::{MultiGpuServer, ServerSpec};
pub use time_model::TimeModel;
pub use traffic::TrafficMatrix;

/// Index of a GPU within a server (0-based).
pub type GpuId = usize;

/// One gibibyte, for readable capacity constants.
pub const GIB: u64 = 1024 * 1024 * 1024;
