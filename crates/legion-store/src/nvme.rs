//! Analytic NVMe read model.
//!
//! Mirrors `legion_hw::PcieModel` in shape — a payload-dependent
//! effective-bandwidth curve plus block-granular transaction counting —
//! and adds the two properties that make SSDs behave unlike a PCIe
//! link: a *bounded queue depth* (reads complete in waves of at most
//! 32 commands) and a per-wave *read latency* that
//! dominates small random reads. Both are deterministic functions of
//! the request stream, so a simulated run reproduces the same device
//! timeline byte-for-byte; the "latency distribution" a real device
//! shows up in telemetry comes from the payload/queue-depth mix of the
//! workload, not from sampled noise.

/// NVMe device class; peak sequential read bandwidth per Table-1-style
/// datacenter drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeGeneration {
    /// PCIe 3.0 x4 datacenter drive — ~3.2 GB/s sequential read.
    Gen3x4,
}

impl NvmeGeneration {
    /// Achievable peak read bandwidth in bytes/s for deep sequential
    /// queues.
    pub fn peak_bandwidth(self) -> f64 {
        match self {
            NvmeGeneration::Gen3x4 => 3.2e9,
        }
    }
}

/// Native flash page / LBA granularity: every read moves whole blocks.
const BLOCK_BYTES: u64 = 4096;

/// Per-command overhead in equivalent bytes. Much larger than the PCIe
/// link's 512 B: an NVMe command traverses the submission queue, the
/// FTL, and the flash channel. Chosen so a single 4 KiB random read
/// lands near 25% of peak and >=128 KiB payloads exceed 90%.
const COMMAND_OVERHEAD_BYTES: f64 = 12288.0;

/// Base flash read latency per command wave, seconds (~80 us — a TLC
/// page read through the controller).
const READ_LATENCY_S: f64 = 80e-6;

/// Commands the device retires concurrently; reads beyond this wait for
/// the next wave.
const MAX_QUEUE_DEPTH: u64 = 32;

/// Analytic NVMe read model.
///
/// # Examples
///
/// ```
/// use legion_store::{NvmeGeneration, NvmeModel};
///
/// let nvme = NvmeModel::new(NvmeGeneration::Gen3x4);
/// // A 128-dim f32 feature row still costs one whole 4 KiB block.
/// assert_eq!(nvme.blocks_for_payload(512), 1);
/// assert_eq!(nvme.blocks_for_payload(4097), 2);
/// // One random 4 KiB read is latency-bound, far below peak.
/// assert!(nvme.effective_bandwidth(4096.0) < 0.3 * nvme.peak_bandwidth());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmeModel {
    generation: NvmeGeneration,
}

impl NvmeModel {
    /// A drive of `generation`, with 4 KiB blocks, a 12 KiB-equivalent
    /// command overhead, an 80 us flash read and 32 queued commands.
    pub fn new(generation: NvmeGeneration) -> Self {
        Self { generation }
    }

    /// Block (LBA) size in bytes.
    #[inline]
    pub fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }

    /// Peak sequential read bandwidth in bytes/s.
    #[inline]
    pub fn peak_bandwidth(&self) -> f64 {
        self.generation.peak_bandwidth()
    }

    /// Effective throughput in bytes/s when every command carries
    /// `payload_bytes` of useful data — the same saturation curve as
    /// the PCIe model, with a heavier per-command overhead.
    pub fn effective_bandwidth(&self, payload_bytes: f64) -> f64 {
        if payload_bytes <= 0.0 {
            return 0.0;
        }
        self.peak_bandwidth() * payload_bytes / (payload_bytes + COMMAND_OVERHEAD_BYTES)
    }

    /// Blocks a single read of `payload_bytes` touches
    /// (`ceil(payload / block)`, zero for an empty payload) — the SSD
    /// analogue of PCM's cache-line transactions, and the quantity the
    /// cost model's second transfer term counts.
    #[inline]
    pub fn blocks_for_payload(&self, payload_bytes: u64) -> u64 {
        payload_bytes.div_ceil(BLOCK_BYTES)
    }

    /// Bytes actually moved for a read of `payload_bytes`: whole blocks.
    #[inline]
    pub fn bytes_for_payload(&self, payload_bytes: u64) -> u64 {
        self.blocks_for_payload(payload_bytes) * BLOCK_BYTES
    }

    /// Seconds for a batch of `num_reads` commands of `payload_bytes`
    /// each: the commands complete in `ceil(num_reads / queue_depth)`
    /// waves, each paying the flash read latency, and the payload moves
    /// at the payload-dependent effective bandwidth.
    pub fn read_seconds(&self, num_reads: u64, payload_bytes: u64) -> f64 {
        if num_reads == 0 {
            return 0.0;
        }
        let waves = num_reads.div_ceil(MAX_QUEUE_DEPTH);
        let bytes = num_reads * self.bytes_for_payload(payload_bytes);
        waves as f64 * READ_LATENCY_S
            + bytes as f64 / self.effective_bandwidth(self.bytes_for_payload(payload_bytes) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidth_monotone_in_payload() {
        let m = NvmeModel::new(NvmeGeneration::Gen3x4);
        let mut prev = 0.0;
        for p in [512.0, 4096.0, 32768.0, 131072.0, 1048576.0] {
            let bw = m.effective_bandwidth(p);
            assert!(bw > prev, "bandwidth must grow with payload");
            prev = bw;
        }
        assert!(prev <= m.peak_bandwidth());
    }

    #[test]
    fn nvme_is_slower_than_the_pcie_link_it_sits_behind() {
        // The store tier only makes sense if it is the slow tier.
        let m = NvmeModel::new(NvmeGeneration::Gen3x4);
        assert!(m.peak_bandwidth() < 13.0e9);
    }

    #[test]
    fn reads_round_up_to_whole_blocks() {
        let m = NvmeModel::new(NvmeGeneration::Gen3x4);
        assert_eq!(m.blocks_for_payload(0), 0);
        assert_eq!(m.blocks_for_payload(1), 1);
        assert_eq!(m.blocks_for_payload(4096), 1);
        assert_eq!(m.blocks_for_payload(4097), 2);
        assert_eq!(m.bytes_for_payload(512), 4096);
    }

    #[test]
    fn queue_depth_bounds_concurrency() {
        let m = NvmeModel::new(NvmeGeneration::Gen3x4);
        let one_wave = m.read_seconds(MAX_QUEUE_DEPTH, 512);
        let two_waves = m.read_seconds(MAX_QUEUE_DEPTH + 1, 512);
        assert!(two_waves > one_wave + 0.9 * READ_LATENCY_S);
        // Within one wave, latency is paid once.
        let partial = m.read_seconds(MAX_QUEUE_DEPTH - 4, 512);
        assert!(one_wave - partial < READ_LATENCY_S);
    }

    #[test]
    fn single_read_pays_the_flash_latency() {
        let m = NvmeModel::new(NvmeGeneration::Gen3x4);
        assert!(m.read_seconds(1, 512) >= READ_LATENCY_S);
        assert_eq!(m.read_seconds(0, 512), 0.0);
    }

    #[test]
    fn batched_reads_amortize_latency() {
        let m = NvmeModel::new(NvmeGeneration::Gen3x4);
        let solo = m.read_seconds(1, 4096);
        let batch = m.read_seconds(32, 4096);
        // 32 reads in one queue wave cost far less than 32 solo reads.
        assert!(batch < 0.5 * (32.0 * solo));
    }
}
