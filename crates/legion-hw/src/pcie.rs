//! PCIe bandwidth and transaction model.
//!
//! Two paper observations drive this module:
//!
//! * Figure 4a: effective PCIe throughput collapses for small payloads —
//!   "a large number of sampling PCIe transactions with small payload sizes
//!   will increase the CPU-GPU PCIe contention and lead to low bandwidth
//!   utilization" (§3.2). We model this with a latency/overhead term per
//!   request: `throughput(p) = peak * p / (p + overhead)`.
//! * Equation 8: PCM counts one transaction per transferred cache line
//!   (`CLS`, 64 bytes on the paper's machines), so moving one `D`-dim
//!   feature row costs `ceil(D * 4 / CLS)` transactions.

/// PCIe generation of the host links (Table 1: 3.0x16 or 4.0x16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieGeneration {
    /// PCIe 3.0 x16 — ~16 GB/s raw, ~13 GB/s achievable.
    Gen3x16,
    /// PCIe 4.0 x16 — ~32 GB/s raw, ~26 GB/s achievable.
    Gen4x16,
}

impl PcieGeneration {
    /// Achievable peak bandwidth in bytes/s for large sequential payloads.
    pub fn peak_bandwidth(self) -> f64 {
        match self {
            PcieGeneration::Gen3x16 => 13.0e9,
            PcieGeneration::Gen4x16 => 26.0e9,
        }
    }
}

/// Transferred cache-line size used by PCM transaction counting; "CLS
/// equals 64 in our machine settings" (§4.3.2).
const CLS: u64 = 64;

/// Per-request overhead in equivalent bytes: header + completion latency.
/// Chosen so that 64 B random reads achieve well under 10% of peak and
/// ~64 KiB payloads exceed 99% — matching the shape of Figure 4a.
const REQUEST_OVERHEAD_BYTES: f64 = 512.0;

/// Analytic PCIe link model.
///
/// # Examples
///
/// ```
/// use legion_hw::{PcieGeneration, PcieModel};
///
/// let pcie = PcieModel::new(PcieGeneration::Gen3x16);
/// // A 128-dim f32 feature row costs ceil(512 / 64) = 8 transactions.
/// assert_eq!(pcie.transactions_for_payload(512), 8);
/// // Small payloads waste most of the link.
/// assert!(pcie.effective_bandwidth(64.0) < 0.2 * pcie.peak_bandwidth());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    generation: PcieGeneration,
}

impl PcieModel {
    /// The link of `generation`, at the paper's CLS and request overhead.
    pub fn new(generation: PcieGeneration) -> Self {
        Self { generation }
    }

    /// Cache-line size (`CLS`).
    #[inline]
    pub fn cls(&self) -> u64 {
        CLS
    }

    /// Peak achievable bandwidth in bytes/s.
    #[inline]
    pub fn peak_bandwidth(&self) -> f64 {
        self.generation.peak_bandwidth()
    }

    /// Effective throughput in bytes/s when every request carries
    /// `payload_bytes` of useful data (Figure 4a's x-axis).
    pub fn effective_bandwidth(&self, payload_bytes: f64) -> f64 {
        if payload_bytes <= 0.0 {
            return 0.0;
        }
        self.peak_bandwidth() * payload_bytes / (payload_bytes + REQUEST_OVERHEAD_BYTES)
    }

    /// PCM transactions for a single request of `payload_bytes`
    /// (`ceil(payload / CLS)`, minimum 1 for a non-empty payload).
    #[inline]
    pub fn transactions_for_payload(&self, payload_bytes: u64) -> u64 {
        payload_bytes.div_ceil(CLS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bandwidths_ordered_by_generation() {
        assert!(
            PcieGeneration::Gen4x16.peak_bandwidth() > PcieGeneration::Gen3x16.peak_bandwidth()
        );
    }

    #[test]
    fn effective_bandwidth_monotone_in_payload() {
        let m = PcieModel::new(PcieGeneration::Gen3x16);
        let mut prev = 0.0;
        for p in [4.0, 64.0, 512.0, 4096.0, 65536.0, 1048576.0] {
            let bw = m.effective_bandwidth(p);
            assert!(bw > prev, "bandwidth must grow with payload");
            prev = bw;
        }
        assert!(prev <= m.peak_bandwidth());
    }

    #[test]
    fn large_payload_approaches_peak() {
        let m = PcieModel::new(PcieGeneration::Gen4x16);
        assert!(m.effective_bandwidth((1u64 << 20) as f64) > 0.99 * m.peak_bandwidth());
    }

    #[test]
    fn tiny_payload_is_terrible() {
        // This is the sampling-vs-extraction gap of Figure 4a.
        let m = PcieModel::new(PcieGeneration::Gen3x16);
        assert!(m.effective_bandwidth(4.0) < 0.02 * m.peak_bandwidth());
    }

    #[test]
    fn transactions_round_up_to_cache_lines() {
        let m = PcieModel::new(PcieGeneration::Gen3x16);
        assert_eq!(m.transactions_for_payload(0), 0);
        assert_eq!(m.transactions_for_payload(1), 1);
        assert_eq!(m.transactions_for_payload(64), 1);
        assert_eq!(m.transactions_for_payload(65), 2);
        // 128-dim f32 feature: Equation 8 with D=128.
        assert_eq!(m.transactions_for_payload(128 * 4), 8);
    }

    #[test]
    fn zero_payload_bandwidth_is_zero() {
        let m = PcieModel::new(PcieGeneration::Gen3x16);
        assert_eq!(m.effective_bandwidth(0.0), 0.0);
    }
}
