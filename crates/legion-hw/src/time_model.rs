//! Stage-duration model: traffic and FLOPs to seconds.
//!
//! PCIe time is charged per PCM *transaction* (one transferred cache line
//! of `CLS` bytes): a fine-grained 4-byte sampling read occupies a full
//! line just like a chunk of a feature row does, so bus time is
//! proportional to the transaction count. This is exactly why the paper
//! can use the transaction count `N_total` as the proxy for execution
//! time (§4.3.1) — and why sampling over UVA is so expensive: it moves
//! one line per 4 useful bytes, a 16x inflation that reproduces the
//! throughput gap of Figure 4a.
//!
//! PCIe host links are shared per switch, so concurrent GPUs divide the
//! link; NVLink transfers and GPU kernels are charged separately.

use crate::{PcieModel, ServerSpec};

/// Converts per-batch resource usage into stage durations.
#[derive(Debug, Clone)]
pub struct TimeModel {
    pcie: PcieModel,
    /// GPUs sharing one PCIe host link.
    gpus_per_switch: f64,
    /// Fraction of peak bandwidth achievable for random line-granular
    /// reads (request/completion overheads).
    random_read_efficiency: f64,
    /// NVLink per-direction bandwidth, bytes/s.
    nvlink_bandwidth: f64,
    /// Per-GPU fp32 throughput, FLOP/s.
    gpu_flops: f64,
    /// GPU-side sampling throughput, edges/s (kernel cost when data is
    /// already resident).
    gpu_sample_edges_per_sec: f64,
    /// CPU-side sampling throughput, edges/s across the worker pool
    /// (PaGraph's CPU sampling path).
    cpu_sample_edges_per_sec: f64,
}

impl TimeModel {
    /// Builds the model from a server spec.
    pub fn new(spec: &ServerSpec) -> Self {
        Self {
            pcie: PcieModel::new(spec.pcie),
            gpus_per_switch: (spec.num_gpus as f64 / spec.pcie_switches as f64).max(1.0),
            random_read_efficiency: 0.6,
            nvlink_bandwidth: spec.nvlink.link_bandwidth(),
            gpu_flops: spec.gpu_flops,
            gpu_sample_edges_per_sec: 2.0e9,
            cpu_sample_edges_per_sec: 2.0e7,
        }
    }

    /// The underlying PCIe model.
    pub fn pcie(&self) -> &PcieModel {
        &self.pcie
    }

    /// Seconds consumed on the (shared) PCIe link by one PCM transaction.
    pub fn seconds_per_transaction(&self) -> f64 {
        let effective =
            self.pcie.peak_bandwidth() * self.random_read_efficiency / self.gpus_per_switch;
        self.pcie.cls() as f64 / effective
    }

    /// Seconds for the neighbor-sampling stage of one batch on one GPU.
    ///
    /// * `cpu_transactions` — PCM transactions issued for topology over
    ///   UVA (0 when the topology is GPU-resident or cached),
    /// * `edges_sampled` — total edges traversed (GPU kernel work).
    pub fn sample_seconds(&self, cpu_transactions: u64, edges_sampled: u64) -> f64 {
        cpu_transactions as f64 * self.seconds_per_transaction()
            + edges_sampled as f64 / self.gpu_sample_edges_per_sec
    }

    /// Seconds for CPU-based sampling of `edges_sampled` edges (PaGraph).
    pub fn cpu_sample_seconds(&self, edges_sampled: u64) -> f64 {
        edges_sampled as f64 / self.cpu_sample_edges_per_sec
    }

    /// Seconds for the feature-extraction stage.
    ///
    /// * `cpu_transactions` — PCM transactions for feature rows over PCIe,
    /// * `peer_bytes` — feature bytes served by NVLink peers.
    pub fn extract_seconds(&self, cpu_transactions: u64, peer_bytes: u64) -> f64 {
        cpu_transactions as f64 * self.seconds_per_transaction()
            + peer_bytes as f64 / self.nvlink_bandwidth
    }

    /// Seconds for the model-training stage of one batch.
    pub fn train_seconds(&self, flops: f64) -> f64 {
        flops / self.gpu_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimeModel {
        TimeModel::new(&ServerSpec::dgx_v100())
    }

    #[test]
    fn sampling_wastes_lines_vs_extraction() {
        let m = model();
        // Moving 1 MB of useful edge data as 4-byte reads costs one line
        // per edge: 262144 transactions. The same MB as feature rows
        // costs 16384 transactions — 16x less bus time.
        let sample_t = m.sample_seconds(262_144, 0);
        let extract_t = m.extract_seconds(16_384, 0);
        assert!((sample_t / extract_t - 16.0).abs() < 1e-6);
    }

    #[test]
    fn time_is_proportional_to_transactions() {
        // This proportionality is what makes the paper's N_total a valid
        // proxy for execution time (§4.3.1, Figure 13).
        let m = model();
        let t1 = m.extract_seconds(1000, 0);
        let t2 = m.extract_seconds(3000, 0);
        assert!((t2 / t1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_costs_only_kernel_time() {
        let m = model();
        assert_eq!(m.sample_seconds(0, 0), 0.0);
        assert!(m.sample_seconds(0, 1_000_000) > 0.0);
        assert_eq!(m.extract_seconds(0, 0), 0.0);
    }

    #[test]
    fn nvlink_is_much_faster_than_pcie() {
        let m = model();
        // 16 MiB over PCIe lines vs. the same bytes over NVLink.
        let over_pcie = m.extract_seconds((16 << 20) / 64, 0);
        let over_nvlink = m.extract_seconds(0, 16 << 20);
        assert!(over_nvlink < over_pcie / 5.0);
    }

    #[test]
    fn cpu_sampling_is_slower_than_gpu_sampling() {
        let m = model();
        assert!(m.cpu_sample_seconds(1_000_000) > 10.0 * m.sample_seconds(0, 1_000_000));
    }

    #[test]
    fn train_time_scales_with_flops() {
        let m = model();
        assert!((m.train_seconds(2.0e12) / m.train_seconds(1.0e12) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn contention_divides_bandwidth() {
        // DGX-V100 has 2 GPUs per switch; a hypothetical 1-GPU-per-switch
        // server sees faster per-transaction time.
        let shared = TimeModel::new(&ServerSpec::dgx_v100());
        let mut solo_spec = ServerSpec::dgx_v100();
        solo_spec.pcie_switches = 8;
        let solo = TimeModel::new(&solo_spec);
        assert!(solo.seconds_per_transaction() < shared.seconds_per_transaction());
    }
}
