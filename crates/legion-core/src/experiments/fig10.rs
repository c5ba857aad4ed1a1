//! Figure 10 — data-transfer traffic matrices of feature extraction.
//!
//! PA on DGX-V100 (NV4), feature cache ratio 2.5% |V| per GPU. Each
//! system's matrix has destination GPUs as rows; the green columns are
//! GPU→GPU (NVLink) sources, the red right-most column is CPU→GPU over
//! PCIe. Values are normalized by GNNLab's total CPU→GPU volume.

use serde::Serialize;

use crate::config::LegionConfig;
use crate::experiments::policies::{build_policy, CachePolicy};
use crate::experiments::{rows_for_ratio, scaled_server};
use crate::runner::run_epoch;
use legion_hw::ServerSpec;

/// One system's normalized traffic matrix.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Matrix {
    /// System name.
    pub system: String,
    /// `rows[dst] = [gpu0, ..., gpu7, cpu]`, normalized.
    pub rows: Vec<Vec<f64>>,
    /// Largest normalized CPU→GPU entry (dominates performance, §6.3.2).
    pub max_cpu_column: f64,
    /// Total normalized CPU→GPU volume.
    pub total_cpu: f64,
}

/// Runs all four systems and returns their matrices, plus each system's
/// full metric snapshot so the raw counters can be exported alongside
/// the normalized matrices.
pub fn run(
    divisor: u64,
    config: &LegionConfig,
) -> (Vec<Fig10Matrix>, Vec<(String, legion_telemetry::Snapshot)>) {
    let dataset = legion_graph::dataset::spec_by_name("PA")
        .expect("PA registered")
        .instantiate(divisor, config.seed);
    let rows_per_gpu = rows_for_ratio(&dataset, 0.025);
    let spec = scaled_server(&ServerSpec::dgx_v100(), divisor);
    let mut cfg = config.clone();
    cfg.batch_size = crate::experiments::policy_batch_size(&dataset, 8, config);
    let config = &cfg;
    let mut out = Vec::new();
    let mut snapshots = Vec::new();
    let mut gnnlab_total: Option<f64> = None;
    for policy in CachePolicy::fig3_set() {
        let server = spec.build();
        let ctx = config.build_context(&dataset, &server);
        let setup = match build_policy(policy, &ctx, config, rows_per_gpu) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let report = run_epoch(&setup, &ctx, config);
        snapshots.push((policy.name().to_string(), report.metrics));
        let raw = report.traffic;
        let cpu_total: u64 = raw.iter().map(|r| r[r.len() - 1]).sum();
        let norm = *gnnlab_total.get_or_insert(cpu_total.max(1) as f64);
        let rows: Vec<Vec<f64>> = raw
            .iter()
            .map(|r| r.iter().map(|&b| b as f64 / norm).collect())
            .collect();
        let max_cpu = rows.iter().map(|r| r[r.len() - 1]).fold(0.0f64, f64::max);
        out.push(Fig10Matrix {
            system: policy.name().to_string(),
            max_cpu_column: max_cpu,
            total_cpu: cpu_total as f64 / norm,
            rows,
        });
    }
    (out, snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legion_has_smallest_cpu_volume() {
        let config = LegionConfig::small();
        let mats = run(4000, &config).0;
        let get = |s: &str| mats.iter().find(|m| m.system == s).unwrap();
        let legion = get("Legion");
        let gnnlab = get("GNNLab");
        let quiver = get("Quiver-plus");
        // GNNLab is the normalization base.
        assert!((gnnlab.total_cpu - 1.0).abs() < 1e-9);
        // Legion moves the least data from the CPU.
        assert!(legion.total_cpu < gnnlab.total_cpu);
        assert!(legion.total_cpu < quiver.total_cpu + 1e-9);
        // GNNLab's replicated cache never uses NVLink; Legion does.
        let gnnlab_peer: f64 = gnnlab
            .rows
            .iter()
            .map(|r| r[..r.len() - 1].iter().sum::<f64>())
            .sum();
        let legion_peer: f64 = legion
            .rows
            .iter()
            .map(|r| r[..r.len() - 1].iter().sum::<f64>())
            .sum();
        assert_eq!(gnnlab_peer, 0.0);
        assert!(legion_peer > 0.0);
    }

    #[test]
    fn legion_max_cpu_column_beats_pagraph_plus() {
        // "Although Legion's CPU-GPU volumes on some GPUs are higher than
        // PaGraph-plus, Legion can still outperform PaGraph-plus because
        // its largest CPU-GPU volume is lower" (§6.3.2).
        let config = LegionConfig::small();
        let mats = run(4000, &config).0;
        let legion = mats.iter().find(|m| m.system == "Legion").unwrap();
        let pplus = mats.iter().find(|m| m.system == "PaGraph-plus").unwrap();
        assert!(
            legion.max_cpu_column <= pplus.max_cpu_column + 0.05,
            "legion max {} pagraph-plus max {}",
            legion.max_cpu_column,
            pplus.max_cpu_column
        );
    }
}
