//! Simulated NVMe-backed out-of-core tier for features and topology.
//!
//! Legion's envelope stops at host DRAM: every feature row must fit in
//! memory. This crate breaks that wall the way LSM-GNN and data-tiering
//! systems do — a hotness-ranked HBM → DRAM → SSD hierarchy — while
//! keeping the repo's simulation discipline: every device behavior is
//! an analytic, deterministic model, and the serving engine charges it
//! into batch service time exactly like the PCIe and NVLink models.
//!
//! Three pieces:
//!
//! * [`NvmeModel`] — the device. Mirrors `legion_hw::PcieModel`'s
//!   payload-dependent bandwidth curve, adds block-granular (4 KiB)
//!   transaction counting, a bounded queue depth, and a per-wave flash
//!   read latency.
//! * [`TierMap`] — where each vertex's feature row lives
//!   ([`Tier::Hbm`] / [`Tier::Dram`] / [`Tier::Ssd`]), as decided by
//!   the three-tier cost-model sweep in `legion-cache`.
//! * [`VertexStore`] — the runtime: a bounded DRAM staging window with
//!   FIFO eviction and in-flight dedup (kept in ready-time order, so
//!   "how many reads are in flight" is a binary search), an async
//!   prefetch path that hides flash latency behind the batch queue's
//!   lookahead, and batch-boundary DRAM↔SSD migration for the online
//!   re-planner.
//!
//! The default configuration — no SSD tier — is the degenerate
//! two-tier system: [`VertexStore::all_resident`] short-circuits every
//! call, so existing runs stay byte-identical.

mod nvme;
mod staging;
mod store;
mod tier;

pub use nvme::{
    NvmeGeneration, NvmeModel, DEFAULT_BLOCK_BYTES, DEFAULT_COMMAND_OVERHEAD_BYTES,
    DEFAULT_MAX_QUEUE_DEPTH, DEFAULT_READ_LATENCY_S,
};
pub use store::{MigrateOutcome, PrefetchOutcome, ReadOutcome, VertexStore};
pub use tier::{Tier, TierMap};
