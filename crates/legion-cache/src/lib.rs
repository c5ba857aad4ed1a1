//! Legion's hotness-aware unified cache (C2) and automatic cache
//! management (C3).
//!
//! The unified cache (§4.2) keeps both graph topology (CSR adjacency of hot
//! vertices) and feature rows of hot vertices in GPU memory, spread across
//! an NVLink clique without replication. Construction follows the paper's
//! three steps: pre-sampling produces hotness matrices (in
//! `legion-sampling`), [`cslp()`] (Algorithm 1) orders cache candidates
//! and names each one's owner GPU, and [`fill`] materializes the caches
//! under a plan chosen by the [`cost_model`] + [`planner`] (§4.3,
//! Equations 2–8).
//!
//! Module map:
//!
//! * [`hotness`] — the `H_T` / `H_F` matrices (rows = GPUs of a clique,
//!   columns = vertices),
//! * [`cslp()`] — Complete Sharing with Local Preference,
//! * [`unified`] — per-GPU topology+feature residency and byte accounting,
//!   and clique-level lookup,
//! * [`cost_model`] — PCIe-traffic prediction for a cache plan `(B, α)`,
//! * [`planner`] — the parallel α sweep that picks the optimal plan, and
//! * [`fill`] — cache initialization and fill-up against the simulated
//!   server's memory budgets, for every cache design.
//!
//! # Examples
//!
//! Running Algorithm 1 and pricing cache plans with the cost model:
//!
//! ```
//! use legion_cache::{cslp, CostModel, HotnessMatrix};
//! use legion_graph::builder::from_edges;
//!
//! let g = from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
//! // Two GPUs; vertex 0 is hot on GPU 0, vertex 2 on GPU 1.
//! let h = HotnessMatrix::from_rows(&[&[10, 1, 0], &[0, 0, 6]]);
//! let order = cslp(&h);
//! assert_eq!(order.clique_order[0], 0); // Hottest vertex first.
//! assert_eq!(order.owner[0], 0);        // ...owned by its hottest GPU.
//!
//! let model = CostModel::new(
//!     &g,
//!     &order.clique_order, &order.accumulated,
//!     &order.clique_order, &order.accumulated,
//!     1000, 4, 64,
//! );
//! // More budget never increases predicted PCIe traffic.
//! assert!(model.evaluate(1024, 0.5).n_total() <= model.evaluate(0, 0.5).n_total());
//! ```

#![forbid(unsafe_code)]

pub mod cost_model;
pub mod cslp;
pub mod dynamic;
pub mod fill;
pub mod hotness;
pub mod planner;
pub mod unified;

pub use cost_model::{CostModel, PlanEvaluation, TieredPlanEvaluation};
pub use cslp::{cslp, hotness_order, sort_by_hotness, CslpOutput};
pub use dynamic::{CacheStats, FifoCache, LruCache};
pub use fill::{book_cache, build_clique_cache, place_prefix};
pub use hotness::HotnessMatrix;
pub use planner::{CachePlan, PlannerConfig};
pub use unified::{CliqueCache, GpuUnifiedCache};
