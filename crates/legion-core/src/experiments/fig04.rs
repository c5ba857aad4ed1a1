//! Figure 4 — the two §3.2 observations.
//!
//! (a) PCIe 3.0 throughput under different payload sizes: sampling's tiny
//! payloads waste the link, extraction's row-sized payloads approach
//! peak.
//!
//! (b) PCIe traffic reduction rate vs. cache capacity on Paper100M (cache
//! on a single GPU, hotness from pre-sampling): feature-cache gains
//! flatten past a threshold while even a small topology cache removes a
//! large share of sampling transactions.

use serde::Serialize;

use legion_cache::{cslp, CostModel};
use legion_hw::{PcieGeneration, PcieModel, ServerSpec};

use crate::config::LegionConfig;

/// One point of the throughput-vs-payload curve (Figure 4a).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4aRow {
    /// Request payload in bytes.
    pub payload_bytes: u64,
    /// Effective throughput in GB/s.
    pub throughput_gbps: f64,
    /// Fraction of peak.
    pub utilization: f64,
}

/// Sweeps payload sizes on a PCIe 3.0 x16 link.
pub fn run_4a() -> Vec<Fig4aRow> {
    let pcie = PcieModel::new(PcieGeneration::Gen3x16);
    let payloads = [4u64, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];
    payloads
        .iter()
        .map(|&p| {
            let bw = pcie.effective_bandwidth(p as f64);
            Fig4aRow {
                payload_bytes: p,
                throughput_gbps: bw / 1e9,
                utilization: bw / pcie.peak_bandwidth(),
            }
        })
        .collect()
}

/// One point of the traffic-reduction curve (Figure 4b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4bRow {
    /// Cache capacity as a fraction of total feature bytes.
    pub capacity_fraction: f64,
    /// Fraction of sampling PCIe transactions removed by a topology cache
    /// of this capacity.
    pub topology_reduction: f64,
    /// Fraction of feature PCIe transactions removed by a feature cache
    /// of this capacity.
    pub feature_reduction: f64,
}

/// Runs the Figure 4b sweep on a (scaled) Paper100M single-GPU setup.
pub fn run_4b(divisor: u64, config: &LegionConfig) -> Vec<Fig4bRow> {
    let dataset = legion_graph::dataset::spec_by_name("PA")
        .expect("PA registered")
        .instantiate(divisor, config.seed);
    let server = ServerSpec::custom(1, 1 << 40, 1).build();
    let pres = config
        .build_context(&dataset, &server)
        .presample(&[0], std::slice::from_ref(&dataset.train_vertices));
    let t = cslp(&pres.h_t);
    let f = cslp(&pres.h_f);
    let model = CostModel::new(
        &dataset.graph,
        &t.clique_order,
        &t.accumulated,
        &f.clique_order,
        &f.accumulated,
        pres.n_tsum,
        dataset.features.dim(),
        64,
    );
    let full = dataset.feature_bytes();
    let n_t0 = model.evaluate(0, 0.0).n_t;
    let n_f0 = model.evaluate(0, 0.0).n_f;
    let mut out = Vec::new();
    for pct in [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5] {
        let budget = (full as f64 * pct) as u64;
        // All-topology and all-feature plans isolate each curve.
        let topo = model.evaluate(budget, 1.0);
        let feat = model.evaluate(budget, 0.0);
        out.push(Fig4bRow {
            capacity_fraction: pct,
            topology_reduction: if n_t0 == 0.0 {
                0.0
            } else {
                1.0 - topo.n_t / n_t0
            },
            feature_reduction: if n_f0 == 0.0 {
                0.0
            } else {
                1.0 - feat.n_f / n_f0
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_sampling_vs_extraction_gap() {
        let rows = run_4a();
        let tiny = rows.iter().find(|r| r.payload_bytes == 4).unwrap();
        let row512 = rows.iter().find(|r| r.payload_bytes == 1024).unwrap();
        let big = rows.iter().find(|r| r.payload_bytes == 1048576).unwrap();
        assert!(tiny.utilization < 0.02);
        assert!(row512.utilization > 0.5);
        assert!(big.utilization > 0.99);
        // Monotone.
        for w in rows.windows(2) {
            assert!(w[1].throughput_gbps > w[0].throughput_gbps);
        }
    }

    #[test]
    fn fig4b_reductions_monotone_with_diminishing_feature_returns() {
        let config = LegionConfig::small();
        let rows = run_4b(4000, &config);
        for w in rows.windows(2) {
            assert!(w[1].topology_reduction >= w[0].topology_reduction - 1e-9);
            assert!(w[1].feature_reduction >= w[0].feature_reduction - 1e-9);
        }
        // A small (5%) topology cache already removes a large share of
        // sampling traffic on a skewed graph.
        let at5 = rows.iter().find(|r| r.capacity_fraction == 0.05).unwrap();
        assert!(
            at5.topology_reduction > 0.3,
            "topology reduction at 5%: {}",
            at5.topology_reduction
        );
        // Diminishing returns for features: the second half of capacity
        // adds less than the first half.
        let at10 = rows.iter().find(|r| r.capacity_fraction == 0.1).unwrap();
        let at50 = rows.iter().find(|r| r.capacity_fraction == 0.5).unwrap();
        let first = at10.feature_reduction;
        let rest = at50.feature_reduction - at10.feature_reduction;
        assert!(
            first > rest,
            "first 10% gains {first} should beat next 40% gains {rest}"
        );
    }
}
