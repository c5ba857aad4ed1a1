//! Table 3 — partitioning cost.
//!
//! Wall-clock inter-clique partitioning time vs. the per-epoch training
//! times it amortizes over. The paper partitions PA on DGX-V100 and UKL
//! on Siton with XtraPulp, sampling 25% of UKL's edges to fit in memory;
//! node-classification uses a 10% training set, link prediction 80% of
//! the edges. Only the NC epoch runs; the LP epoch is the NC epoch
//! scaled by that seed-count ratio.

use std::time::Instant;

use serde::Serialize;

use legion_hw::ServerSpec;
use legion_partition::{EdgeSampledPartitioner, MultilevelPartitioner, Partitioner};

use crate::config::LegionConfig;
use crate::experiments::scaled_server;
use crate::runner::run_epoch;
use crate::system::legion_setup;

/// One dataset's Table 3 column.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Column {
    /// Dataset short name.
    pub dataset: String,
    /// Server name.
    pub server: String,
    /// Wall-clock graph-partitioning seconds (measured on this machine).
    pub partition_seconds: f64,
    /// Wall-clock dataset materialization seconds (the "loading" analog —
    /// our graphs are generated rather than read from disk).
    pub loading_seconds: f64,
    /// Modeled node-classification epoch seconds.
    pub nc_epoch_seconds: f64,
    /// Link-prediction epoch seconds: the modeled NC epoch scaled by the
    /// seed-count ratio (80% of edges over the NC training set). No LP
    /// epoch runs.
    pub lp_epoch_seconds: f64,
    /// Edge fraction used for partitioning (1.0 = full graph; the paper
    /// samples 25% for UKL).
    pub partition_edge_fraction: f64,
}

/// Runs one Table 3 column.
pub fn run_for_dataset(
    base: &ServerSpec,
    divisor: u64,
    dataset_name: &str,
    config: &LegionConfig,
    partition_edge_fraction: f64,
) -> Table3Column {
    let spec = legion_graph::dataset::spec_by_name(dataset_name).expect("registered dataset");
    let t_load = Instant::now();
    let dataset = spec.instantiate(divisor, config.seed);
    let loading_seconds = t_load.elapsed().as_secs_f64();

    // Partitioning cost: the inter-clique K_c-way edge-cut partition.
    let cliques = legion_partition::detect_cliques(&base.nvlink);
    let kc = cliques.len().max(2);
    let t_part = Instant::now();
    if partition_edge_fraction < 1.0 {
        let p = EdgeSampledPartitioner::new(
            MultilevelPartitioner::default(),
            partition_edge_fraction,
            config.seed,
        );
        let _ = p.partition(&dataset.graph, kc);
    } else {
        let _ = MultilevelPartitioner::default().partition(&dataset.graph, kc);
    }
    let partition_seconds = t_part.elapsed().as_secs_f64();

    // Epoch costs from the full Legion system.
    let server = base.build();
    let ctx = config.build_context(&dataset, &server);
    let nc_epoch_seconds = match legion_setup(&ctx, config) {
        Ok(setup) => run_epoch(&setup, &ctx, config).epoch_seconds,
        Err(_) => f64::NAN,
    };
    // Link prediction trains on 80% of edges instead of 10% of vertices;
    // per-epoch work scales with the number of training seeds.
    let nc_seeds = dataset.train_vertices.len().max(1) as f64;
    let lp_seeds = 0.8 * dataset.graph.num_edges() as f64;
    let lp_epoch_seconds = nc_epoch_seconds * lp_seeds / nc_seeds;

    Table3Column {
        dataset: dataset_name.to_string(),
        server: base.name.to_string(),
        partition_seconds,
        loading_seconds,
        nc_epoch_seconds,
        lp_epoch_seconds,
        partition_edge_fraction,
    }
}

/// Full Table 3: PA on DGX-V100 (full graph) and UKL on Siton (25% edge
/// sample), at the given divisors.
pub fn run(small_divisor: u64, large_divisor: u64, config: &LegionConfig) -> Vec<Table3Column> {
    vec![
        run_for_dataset(
            &scaled_server(&ServerSpec::dgx_v100(), small_divisor),
            small_divisor,
            "PA",
            config,
            1.0,
        ),
        run_for_dataset(
            &scaled_server(&ServerSpec::siton(), large_divisor),
            large_divisor,
            "UKL",
            config,
            0.25,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_columns_are_sane() {
        let config = LegionConfig::small();
        let col = run_for_dataset(
            &scaled_server(&ServerSpec::dgx_v100(), 2000),
            2000,
            "PA",
            &config,
            1.0,
        );
        assert!(col.partition_seconds > 0.0);
        assert!(col.loading_seconds > 0.0);
        assert!(col.nc_epoch_seconds > 0.0);
        // LP trains on vastly more seeds than NC, as in the paper (49.8
        // minutes vs 1.98 seconds for PA).
        assert!(col.lp_epoch_seconds > 10.0 * col.nc_epoch_seconds);
    }

    /// UKL/40000 (16 K vertices, 0.7 M edges), not the /4000 the other
    /// experiments pin: multilevel partitioning grows about E^1.6 on this
    /// power-law graph, so the full-graph call at /4000 (13.2 M edges) was
    /// 55 s of this crate's 63 s of unit tests. The ordering under test
    /// is the same at both scales — the 25 % sample partitions about 3.4x
    /// faster (0.12 s against 0.41 s here).
    #[test]
    fn edge_sampling_speeds_up_partitioning() {
        const DIVISOR: u64 = 40_000;
        let config = LegionConfig::small();
        let column = |edge_fraction| {
            run_for_dataset(
                &scaled_server(&ServerSpec::siton(), DIVISOR),
                DIVISOR,
                "UKL",
                &config,
                edge_fraction,
            )
        };
        let (full, sampled) = (column(1.0), column(0.25));
        assert!(
            sampled.partition_seconds < full.partition_seconds,
            "sampled {} full {}",
            sampled.partition_seconds,
            full.partition_seconds
        );
    }
}
