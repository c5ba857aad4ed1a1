//! Legion — automatically pushing the envelope of a (simulated) multi-GPU
//! system for billion-scale GNN training.
//!
//! This crate assembles the paper's three contributions into the full
//! system and provides the experiment drivers that regenerate every table
//! and figure of the evaluation:
//!
//! 1. **NVLink-aware hierarchical partitioning** (C1, `legion-partition`),
//! 2. **Hotness-aware unified cache** (C2, `legion-cache`),
//! 3. **Automatic cache management** (C3, `legion-cache::planner`),
//!
//! over the simulated hardware of `legion-hw` and the metered
//! sampling/extraction of `legion-sampling`.
//!
//! # Quick start
//!
//! ```
//! use legion_core::{LegionConfig, legion_setup};
//! use legion_core::runner::run_epoch;
//! use legion_baselines::BuildContext;
//! use legion_graph::dataset::spec_by_name;
//! use legion_hw::ServerSpec;
//!
//! // A laptop-scale stand-in for OGB Products on a Siton-like server.
//! let dataset = spec_by_name("PR").unwrap().instantiate(2000, 42);
//! let server = ServerSpec::custom(4, 8 << 20, 2).build();
//! let config = LegionConfig::small();
//! let ctx = config.build_context(&dataset, &server);
//!
//! let setup = legion_setup(&ctx, &config).unwrap();
//! let report = run_epoch(&setup, &ctx, &config);
//! assert!(report.epoch_seconds > 0.0);
//! assert!(report.feature_hit_rate() > 0.0);
//! ```

pub mod config;
pub mod experiments;
pub mod runner;
pub mod system;

pub use config::{LegionConfig, PartitionerKind};
pub use experiments::scaled_server;
pub use runner::{run_epoch, EpochReport};
pub use system::{legion_feature_cache_setup, legion_setup, legion_setup_with_plans};
