//! Figure 13 — evaluating the cost model.
//!
//! Sweep the topology-cache share `α` under a fixed cache budget and plot
//! (left axis) the cost model's predicted PCIe transactions against
//! (right axis) the measured per-epoch sampling + feature-extraction
//! time. "Our cost model can precisely predict the trend of per-epoch
//! execution time" — the predicted minimum should land where the measured
//! time bottoms out.

use serde::Serialize;

use legion_hw::ServerSpec;
use legion_sampling::HOTNESS_UNIT;

use crate::config::LegionConfig;
use crate::experiments::scaled_server;
use crate::runner::run_epoch;
use crate::system::legion_setup_forced_alpha;

/// One α point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Row {
    /// Dataset short name.
    pub dataset: String,
    /// Forced topology share of the cache budget.
    pub alpha: f64,
    /// Cost-model prediction: sampling transactions `N_T` per epoch.
    pub predicted_n_t: f64,
    /// Cost-model prediction: feature transactions `N_F` per epoch.
    pub predicted_n_f: f64,
    /// `N_total`.
    pub predicted_total: f64,
    /// Measured per-epoch sampling seconds.
    pub measured_sample_seconds: f64,
    /// Measured per-epoch extraction seconds.
    pub measured_extract_seconds: f64,
}

/// Sweeps α for one dataset with a fixed per-GPU cache budget; returns
/// the rows and the metric snapshot of each α point (labelled
/// `<dataset>_alpha<percent>`), the raw counters behind the measured
/// stage times.
fn sweep_alphas(
    base: &ServerSpec,
    dataset: &legion_graph::Dataset,
    dataset_name: &str,
    config: &LegionConfig,
    per_gpu_budget: u64,
    alphas: &[f64],
) -> (Vec<Fig13Row>, Vec<(String, legion_telemetry::Snapshot)>) {
    let mut out = Vec::new();
    let mut snapshots = Vec::new();
    for &alpha in alphas {
        let server = base.build();
        let mut cfg = config.clone();
        cfg.cache_budget_override = Some(per_gpu_budget);
        let ctx = cfg.build_context(dataset, &server);
        let Ok((setup, plans)) = legion_setup_forced_alpha(&ctx, &cfg, alpha) else {
            continue;
        };
        // The model counts in pre-sampling's fixed-point unit.
        let unit = HOTNESS_UNIT as f64;
        let n_t: f64 = plans.iter().map(|p| p.evaluation.n_t / unit).sum();
        let n_f: f64 = plans.iter().map(|p| p.evaluation.n_f / unit).sum();
        let report = run_epoch(&setup, &ctx, &cfg);
        snapshots.push((
            format!("{dataset_name}_alpha{:03}", (alpha * 100.0).round() as u64),
            report.metrics,
        ));
        out.push(Fig13Row {
            dataset: dataset_name.to_string(),
            alpha,
            predicted_n_t: n_t,
            predicted_n_f: n_f,
            predicted_total: n_t + n_f,
            measured_sample_seconds: report.sample_seconds,
            measured_extract_seconds: report.extract_seconds,
        });
    }
    (out, snapshots)
}

/// Full Figure 13: PA with a 10 GB cache and UKS with an 8 GB cache
/// (scaled), α from 0 to 0.9, with the per-α metric snapshots.
/// `divisor_for` maps dataset names to scale divisors.
pub fn run(
    divisor_for: &dyn Fn(&str) -> u64,
    config: &LegionConfig,
) -> (Vec<Fig13Row>, Vec<(String, legion_telemetry::Snapshot)>) {
    let alphas: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
    let gib = legion_hw::GIB;
    let mut out = Vec::new();
    let mut snapshots = Vec::new();
    for (name, cache_gib) in [("PA", 10u64), ("UKS", 8u64)] {
        let divisor = divisor_for(name);
        let dataset = legion_graph::dataset::spec_by_name(name)
            .expect("registered dataset")
            .instantiate(divisor, config.seed);
        let base = scaled_server(&ServerSpec::dgx_v100(), divisor);
        // The paper's budget is for the whole cache; spread per GPU.
        let per_gpu = (cache_gib * gib / divisor) / base.num_gpus as u64;
        let (rows, snaps) = sweep_alphas(&base, &dataset, name, config, per_gpu, &alphas);
        out.extend(rows);
        snapshots.extend(snaps);
    }
    (out, snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::dataset::spec_by_name;

    fn sweep() -> Vec<Fig13Row> {
        let divisor = 2000;
        let ds = spec_by_name("PA").unwrap().instantiate(divisor, 41);
        let base = scaled_server(&ServerSpec::dgx_v100(), divisor);
        let config = LegionConfig::small();
        let budget = (ds.feature_bytes() / 8).max(1);
        sweep_alphas(
            &base,
            &ds,
            "PA",
            &config,
            budget,
            &[0.0, 0.2, 0.4, 0.6, 0.8],
        )
        .0
    }

    #[test]
    fn predictions_track_measurements() {
        let rows = sweep();
        assert_eq!(rows.len(), 5);
        // N_T falls and N_F rises as alpha grows.
        for w in rows.windows(2) {
            assert!(w[1].predicted_n_t <= w[0].predicted_n_t + 1e-6);
            assert!(w[1].predicted_n_f + 1e-6 >= w[0].predicted_n_f);
            // Measured stage times move the same directions.
            assert!(w[1].measured_sample_seconds <= w[0].measured_sample_seconds * 1.1 + 1e-9);
        }
        // The predicted minimum is at (or adjacent to) the measured one.
        let pred_min = rows
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.predicted_total
                    .partial_cmp(&b.1.predicted_total)
                    .unwrap()
            })
            .unwrap()
            .0;
        let meas_min = rows
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let measured =
                    |r: &Fig13Row| r.measured_sample_seconds + r.measured_extract_seconds;
                measured(a.1).partial_cmp(&measured(b.1)).unwrap()
            })
            .unwrap()
            .0;
        assert!(
            (pred_min as i64 - meas_min as i64).abs() <= 1,
            "prediction argmin {pred_min} vs measured {meas_min}"
        );
    }
}
