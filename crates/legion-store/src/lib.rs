//! Simulated NVMe-backed out-of-core tier for features and topology.
//!
//! Legion's envelope stops at host DRAM: every feature row must fit in
//! memory. This crate breaks that wall the way LSM-GNN and data-tiering
//! systems do — a hotness-ranked HBM → DRAM → SSD hierarchy — while
//! keeping the repo's simulation discipline: every device behavior is
//! an analytic, deterministic model, and the serving engine charges it
//! into batch service time exactly like the PCIe and NVLink models.
//!
//! Two pieces:
//!
//! * [`NvmeModel`] — the device. Mirrors `legion_hw::PcieModel`'s
//!   payload-dependent bandwidth curve, adds block-granular (4 KiB)
//!   transaction counting, a bounded queue depth, and a per-wave flash
//!   read latency.
//! * [`VertexStore`] — the runtime: which rows live on the SSD
//!   ([`Tier::Ssd`]) and which in DRAM ([`Tier::Dram`]), a bounded DRAM
//!   staging window with FIFO eviction and in-flight dedup (kept in
//!   ready-time order, so "how many reads are in flight" is a binary
//!   search), an async prefetch path that hides flash latency behind the
//!   batch queue's lookahead, and batch-boundary DRAM↔SSD migration for
//!   the online re-planner. A placement builds it from one
//!   hotness-ordered SSD row list ([`VertexStore::with_ssd_rows`]); the
//!   store keeps that placement, so it owns the re-plan rule
//!   ([`VertexStore::migrate_plan`]) and a batch's claimed misses
//!   ([`VertexStore::claim`], then [`VertexStore::charge`]).
//!
//! HBM residency lives only in the cache layouts (`legion-cache`); the
//! store sees the rows that missed them. A store with no SSD row is the
//! degenerate two-tier system: reads and prefetches return at once.

mod nvme;
mod staging;
mod store;
mod tier;

pub use nvme::{NvmeGeneration, NvmeModel};
pub use store::{MigrateOutcome, PrefetchOutcome, ReadOutcome, VertexStore};
pub use tier::Tier;
