//! Multi-GPU server presets (Table 1) and the assembled simulated machine.

use std::cell::RefCell;

use legion_telemetry::Registry;

use crate::device::{GpuDevice, HwError};
use crate::nvlink::NvLinkTopology;
use crate::pcie::{PcieGeneration, PcieModel};
use crate::pcm::PcmCounters;
use crate::traffic::TrafficMatrix;
use crate::{GpuId, GIB};

/// Static description of a server, mirroring one column of Table 1.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Server name as used in the paper.
    pub name: &'static str,
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Per-GPU memory in bytes.
    pub gpu_memory: u64,
    /// NVLink topology (`M_T`).
    pub nvlink: NvLinkTopology,
    /// Host link generation.
    pub pcie: PcieGeneration,
    /// Number of PCIe switches; GPUs are spread evenly across them.
    pub pcie_switches: usize,
    /// Host (CPU) memory in bytes.
    pub cpu_memory: u64,
    /// Number of CPU sockets (PCM reports per-socket maxima).
    pub sockets: usize,
    /// Per-GPU fp32 throughput in FLOP/s, for pipeline timing.
    pub gpu_flops: f64,
}

impl ServerSpec {
    /// DGX-V100: 8× 16 GB V100, two NVLink cliques of four
    /// (`K_c = 2, K_g = 4`), PCIe 3.0 x16, 384 GB host memory.
    pub fn dgx_v100() -> Self {
        Self {
            name: "DGX-V100",
            num_gpus: 8,
            gpu_memory: 16 * GIB,
            nvlink: NvLinkTopology::disjoint_cliques(8, 4),
            pcie: PcieGeneration::Gen3x16,
            pcie_switches: 4,
            cpu_memory: 384 * GIB,
            sockets: 2,
            gpu_flops: 14.0e12,
        }
    }

    /// Siton: 8× 40 GB A100, four NVLink cliques of two
    /// (`K_c = 4, K_g = 2`), PCIe 4.0 x16, 1 TB host memory.
    pub fn siton() -> Self {
        Self {
            name: "Siton",
            num_gpus: 8,
            gpu_memory: 40 * GIB,
            nvlink: NvLinkTopology::disjoint_cliques(8, 2),
            pcie: PcieGeneration::Gen4x16,
            pcie_switches: 2,
            cpu_memory: 1024 * GIB,
            sockets: 2,
            gpu_flops: 19.5e12,
        }
    }

    /// DGX-A100: 8× A100 (capped at 40 GB as in §6.1), one NVSwitch clique
    /// of eight (`K_c = 1, K_g = 8`), PCIe 4.0 x16, 1 TB host memory.
    pub fn dgx_a100() -> Self {
        Self {
            name: "DGX-A100",
            num_gpus: 8,
            gpu_memory: 40 * GIB,
            nvlink: NvLinkTopology::fully_connected(8),
            pcie: PcieGeneration::Gen4x16,
            pcie_switches: 4,
            cpu_memory: 1024 * GIB,
            sockets: 2,
            gpu_flops: 19.5e12,
        }
    }

    /// A down-scaled custom server, handy for tests: `num_gpus` devices of
    /// `gpu_memory` bytes in NVLink cliques of `clique_size`.
    pub fn custom(num_gpus: usize, gpu_memory: u64, clique_size: usize) -> Self {
        Self {
            name: "custom",
            num_gpus,
            gpu_memory,
            nvlink: NvLinkTopology::disjoint_cliques(num_gpus, clique_size),
            pcie: PcieGeneration::Gen3x16,
            pcie_switches: num_gpus.max(1),
            cpu_memory: 64 * GIB,
            sockets: 1,
            gpu_flops: 14.0e12,
        }
    }

    /// The CPU socket a GPU's PCIe link hangs off: GPUs are split evenly
    /// across sockets in id order (as on the Table 1 machines). The paper
    /// reports "the maximum PCIe counter value across different sockets"
    /// (§6.2).
    pub fn socket_of(&self, gpu: crate::GpuId) -> usize {
        if self.sockets <= 1 || self.num_gpus == 0 {
            return 0;
        }
        let per_socket = self.num_gpus.div_ceil(self.sockets);
        (gpu / per_socket).min(self.sockets - 1)
    }

    /// Restricts the spec to its first `n` GPUs, preserving the clique
    /// structure where possible (used by the Figure 2 GPU-count sweep).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `num_gpus`.
    pub fn truncated(&self, n: usize) -> Self {
        assert!(n > 0 && n <= self.num_gpus, "invalid GPU count {n}");
        let full = self.nvlink.matrix();
        let mut adj = vec![false; n * n];
        for a in 0..n {
            for b in 0..n {
                adj[a * n + b] = full[a * self.num_gpus + b];
            }
        }
        Self {
            num_gpus: n,
            nvlink: NvLinkTopology::from_matrix(n, adj)
                .with_bandwidth(self.nvlink.link_bandwidth()),
            ..self.clone()
        }
    }

    /// Builds the runnable simulated machine.
    pub fn build(&self) -> MultiGpuServer {
        MultiGpuServer::new(self.clone())
    }
}

/// The assembled simulated machine: devices + interconnect + counters.
///
/// Device memory sits in a [`RefCell`], so allocation works through a
/// shared reference like every meter does. All counters
/// ([`PcmCounters`], [`TrafficMatrix`]) are registered in the server's
/// own [`legion_telemetry::Registry`] (see [`MultiGpuServer::telemetry`]), so
/// a [`legion_telemetry::Snapshot`] of the server captures PCM and
/// traffic-matrix state along with any pipeline metrics other components
/// registered on the same registry.
#[derive(Debug)]
pub struct MultiGpuServer {
    spec: ServerSpec,
    devices: RefCell<Vec<GpuDevice>>,
    pcie_model: PcieModel,
    pcm: PcmCounters,
    traffic: TrafficMatrix,
    telemetry: Registry,
}

impl MultiGpuServer {
    /// Builds a fresh machine from a spec.
    pub fn new(spec: ServerSpec) -> Self {
        let telemetry = Registry::new();
        let devices = (0..spec.num_gpus)
            .map(|id| GpuDevice::new(id, spec.gpu_memory))
            .collect();
        let pcie_model = PcieModel::new(spec.pcie);
        let pcm = PcmCounters::with_registry(spec.num_gpus, &telemetry);
        let traffic = TrafficMatrix::with_registry(spec.num_gpus, &telemetry);
        Self {
            spec,
            devices: RefCell::new(devices),
            pcie_model,
            pcm,
            traffic,
            telemetry,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.spec.num_gpus
    }

    /// NVLink topology matrix.
    pub fn nvlink(&self) -> &NvLinkTopology {
        &self.spec.nvlink
    }

    /// PCIe link model.
    pub fn pcie(&self) -> &PcieModel {
        &self.pcie_model
    }

    /// PCM transaction counters.
    pub fn pcm(&self) -> &PcmCounters {
        &self.pcm
    }

    /// Feature/topology traffic matrix.
    pub fn traffic(&self) -> &TrafficMatrix {
        &self.traffic
    }

    /// The metric registry backing this server's counters. Pipeline
    /// components register their own metrics here so one snapshot covers
    /// the whole machine.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Allocates `bytes` on `gpu`.
    pub fn alloc(&self, gpu: GpuId, bytes: u64) -> Result<(), HwError> {
        let mut devs = self.devices.borrow_mut();
        devs.get_mut(gpu)
            .ok_or(HwError::NoSuchGpu(gpu))?
            .alloc(bytes)
    }

    /// Frees `bytes` on `gpu`.
    pub fn free(&self, gpu: GpuId, bytes: u64) -> Result<(), HwError> {
        let mut devs = self.devices.borrow_mut();
        devs.get_mut(gpu)
            .ok_or(HwError::NoSuchGpu(gpu))?
            .free(bytes)
    }

    /// Allocated bytes on `gpu`.
    pub fn allocated_bytes(&self, gpu: GpuId) -> u64 {
        self.devices.borrow()[gpu].allocated_bytes()
    }

    /// Releases all device memory and clears all counters — including any
    /// metrics other components registered on [`Self::telemetry`].
    pub fn reset(&self) {
        for d in self.devices.borrow_mut().iter_mut() {
            d.reset();
        }
        // PCM and traffic counters live in the registry, so this clears
        // them along with every other registered metric.
        self.telemetry.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        let v = ServerSpec::dgx_v100();
        assert_eq!(v.num_gpus, 8);
        assert_eq!(v.gpu_memory, 16 * GIB);
        assert!(v.nvlink.connected(0, 3));
        assert!(!v.nvlink.connected(3, 4));

        let s = ServerSpec::siton();
        assert!(s.nvlink.connected(0, 1));
        assert!(!s.nvlink.connected(1, 2));
        assert_eq!(s.pcie, PcieGeneration::Gen4x16);

        let a = ServerSpec::dgx_a100();
        assert!(a.nvlink.connected(0, 7));
        assert_eq!(a.gpu_memory, 40 * GIB);
    }

    #[test]
    fn truncated_preserves_prefix_cliques() {
        let s = ServerSpec::dgx_v100().truncated(4);
        assert_eq!(s.num_gpus, 4);
        // First DGX-V100 clique is GPUs 0..4, still fully connected.
        assert!(s.nvlink.connected(0, 3));
        let s2 = ServerSpec::siton().truncated(3);
        assert!(s2.nvlink.connected(0, 1));
        assert!(!s2.nvlink.connected(1, 2));
    }

    #[test]
    #[should_panic(expected = "invalid GPU count")]
    fn truncated_rejects_zero() {
        let _ = ServerSpec::dgx_v100().truncated(0);
    }

    #[test]
    fn server_allocation_and_oom() {
        let srv = ServerSpec::custom(2, 100, 1).build();
        srv.alloc(0, 60).unwrap();
        assert_eq!(srv.allocated_bytes(0), 60);
        assert!(matches!(
            srv.alloc(0, 41),
            Err(HwError::OutOfMemory { gpu: 0, .. })
        ));
        // GPU 1 untouched.
        assert_eq!(srv.allocated_bytes(1), 0);
        srv.free(0, 60).unwrap();
        assert_eq!(srv.allocated_bytes(0), 0);
    }

    #[test]
    fn socket_mapping_splits_gpus_evenly() {
        let s = ServerSpec::dgx_v100();
        assert_eq!(s.sockets, 2);
        assert_eq!(s.socket_of(0), 0);
        assert_eq!(s.socket_of(3), 0);
        assert_eq!(s.socket_of(4), 1);
        assert_eq!(s.socket_of(7), 1);
        let single = ServerSpec::custom(4, 1, 1);
        assert_eq!(single.socket_of(3), 0);
    }

    #[test]
    fn alloc_on_missing_gpu_fails() {
        let srv = ServerSpec::custom(1, 10, 1).build();
        assert_eq!(srv.alloc(5, 1), Err(HwError::NoSuchGpu(5)));
    }

    #[test]
    fn reset_clears_memory_and_counters() {
        use crate::pcm::TrafficKind;
        use crate::traffic::Source;
        let srv = ServerSpec::custom(2, 100, 2).build();
        srv.alloc(1, 50).unwrap();
        srv.pcm().add(0, TrafficKind::Feature, 3);
        srv.traffic().add(0, Source::Cpu, 64);
        srv.reset();
        assert_eq!(srv.allocated_bytes(1), 0);
        assert_eq!(srv.telemetry().snapshot().counter_sum("pcm."), 0);
        assert_eq!(srv.telemetry().snapshot().counter_sum("traffic."), 0);
    }
}
