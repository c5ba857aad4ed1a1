//! The scenario catalogue: the golden-scale serving fixture, named once.
//!
//! Golden digests, the config lattice, the cross-crate serving tests and
//! `servectl` build their configs from these functions instead of
//! re-typing them, so a digest row, a lattice corner and a test fixture
//! that share a name share a config. Each function returns an existing
//! config type; the scenario-shaped ones take a config and return it
//! with one feature turned on, so a row is a composition:
//! `router_qos(oversub_drift(golden(PolicyKind::Replan)))`.
//!
//! One [`clique_machine`] serves ≈ 4 M req/s of [`golden`] on
//! [`golden_dataset`], so the default 2,000 req/s offer is light load.

use legion_graph::dataset::{spec_by_name, Dataset};
use legion_hw::ServerSpec;
use legion_serve::{
    ChurnConfig, ClassConfig, PolicyKind, ReplanConfig, RouterPolicy, ServeConfig, StoreConfig,
};

use crate::FleetConfig;

/// Products (PR) at 1/500 scale, seed 42.
pub fn golden_dataset() -> Dataset {
    spec_by_name("PR")
        .expect("PR is registered")
        .instantiate(500, 42)
}

/// Four GPUs in two NVLink cliques of two, 1 GiB each: the smallest
/// machine where clique residency differs from per-GPU or global state.
pub fn clique_machine() -> ServerSpec {
    ServerSpec::custom(4, 1 << 30, 2)
}

/// The golden serving run: 800 requests at the default 2,000 req/s,
/// 16-request batches with a 100 µs age trigger, 256 cache rows per
/// GPU and `[5, 3]` fan-outs.
pub fn golden(policy: PolicyKind) -> ServeConfig {
    ServeConfig {
        num_requests: 800,
        max_batch: 16,
        max_wait: 1e-4,
        queue_capacity: 256,
        cache_rows_per_gpu: 256,
        warmup_requests: 128,
        fanouts: vec![5, 3],
        policy,
        ..ServeConfig::default()
    }
}

/// `cfg` with residency routing and a QoS-ordered 20 / 50 / 30
/// Interactive / Standard / Batch mix.
pub fn router_qos(mut cfg: ServeConfig) -> ServeConfig {
    cfg.router.policy = RouterPolicy::Residency;
    cfg.classes = ClassConfig {
        mix: [0.2, 0.5, 0.3],
        qos: true,
        ..ClassConfig::default()
    };
    cfg
}

/// `cfg` under rotation drift (every 300 requests, by 1,024 ranks) with
/// a re-planner that can commit every other 16-request bucket, over a
/// 64 KiB DRAM budget far below the feature table: plans commit mid-run
/// and their rows migrate across the DRAM / SSD boundary.
pub fn oversub_drift(cfg: ServeConfig) -> ServeConfig {
    ServeConfig {
        drift_period: 300,
        drift_stride: 1024,
        replan: ReplanConfig {
            bucket_requests: 16,
            window_buckets: 2,
            cooldown_buckets: 0,
            ..ReplanConfig::default()
        },
        store: StoreConfig {
            dram_budget_bytes: Some(64 << 10),
            staging_rows: 64,
            prefetch_budget: 64,
            ..StoreConfig::default()
        },
        ..cfg
    }
}

/// 100 K mutations per simulated second, compacted past 64 pending
/// delta edges, so compaction fires within a golden-length stream.
pub fn churn() -> ChurnConfig {
    ChurnConfig {
        ops_per_sec: 100_000.0,
        compact_threshold: 64,
    }
}

/// A residency-routed fleet of `servers` whose projected load drains at
/// a pinned 100 K req/s per server, so no run depends on the capacity
/// probe.
pub fn fleet(servers: usize) -> FleetConfig {
    FleetConfig {
        num_servers: servers,
        drain_rps: Some(100_000.0),
        ..FleetConfig::default()
    }
}
