//! Source→destination byte traffic matrix.
//!
//! Figure 10 of the paper records "the data transferring volumes of feature
//! extraction on each GPU in the format of a traffic matrix. The rows and
//! columns of each matrix denote the destination and source of data
//! transferring"; the extra right-most column is CPU→GPU volume over PCIe.
//! [`TrafficMatrix`] is exactly that structure.

use legion_telemetry::{Counter, Registry};

use crate::GpuId;

/// Where a transfer originated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Another GPU's memory (over NVLink or PCIe P2P).
    Gpu(GpuId),
    /// Host (CPU) memory over PCIe.
    Cpu,
}

/// Byte counts per `(destination GPU, source)` pair.
///
/// Each cell is a [`legion_telemetry::Counter`] registered as
/// `traffic.dst{d}.src{s}_bytes` (GPU→GPU) or `traffic.dst{d}.cpu_bytes`
/// (CPU→GPU), so the Figure 10 matrices appear in metric snapshots.
///
/// # Examples
///
/// ```
/// use legion_hw::traffic::{Source, TrafficMatrix};
/// use legion_telemetry::Registry;
///
/// let registry = Registry::new();
/// let m = TrafficMatrix::with_registry(2, &registry);
/// m.add(0, Source::Cpu, 100);
/// m.add(0, Source::Gpu(1), 40);
/// assert_eq!(m.gpu_to_gpu(1, 0), 40);
/// assert_eq!(registry.snapshot().counter("traffic.dst0.cpu_bytes"), 100);
/// ```
#[derive(Debug)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `(dst, src)` GPU→GPU bytes.
    gpu: Vec<Counter>,
    /// CPU→GPU bytes per destination.
    cpu: Vec<Counter>,
}

/// The registry name of one traffic-matrix cell.
pub fn traffic_counter_name(dst: GpuId, src: Source) -> String {
    match src {
        Source::Gpu(s) => format!("traffic.dst{dst}.src{s}_bytes"),
        Source::Cpu => format!("traffic.dst{dst}.cpu_bytes"),
    }
}

impl TrafficMatrix {
    /// A matrix bound into `registry` under the `traffic.dst{d}.*` names.
    pub fn with_registry(num_gpus: usize, registry: &Registry) -> Self {
        Self {
            n: num_gpus,
            gpu: (0..num_gpus * num_gpus)
                .map(|i| {
                    let (dst, src) = (i / num_gpus, i % num_gpus);
                    registry.counter(&traffic_counter_name(dst, Source::Gpu(src)))
                })
                .collect(),
            cpu: (0..num_gpus)
                .map(|dst| registry.counter(&traffic_counter_name(dst, Source::Cpu)))
                .collect(),
        }
    }

    /// Records `bytes` arriving at `dst` from `src`.
    ///
    /// # Panics
    ///
    /// Panics if any GPU index is out of range.
    pub fn add(&self, dst: GpuId, src: Source, bytes: u64) {
        match src {
            Source::Cpu => self.cpu[dst].add(bytes),
            Source::Gpu(s) => self.gpu[dst * self.n + s].add(bytes),
        };
    }

    /// Bytes moved from `src` GPU into `dst` GPU.
    pub fn gpu_to_gpu(&self, src: GpuId, dst: GpuId) -> u64 {
        self.gpu[dst * self.n + src].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_destination_and_source() {
        let m = TrafficMatrix::with_registry(3, &Registry::new());
        m.add(2, Source::Gpu(0), 11);
        m.add(2, Source::Gpu(0), 9);
        m.add(1, Source::Cpu, 5);
        assert_eq!(m.gpu_to_gpu(0, 2), 20);
        assert_eq!(m.gpu_to_gpu(2, 0), 0);
        assert_eq!(m.cpu[1].get(), 5);
    }

    /// Figure 10 reads its matrices from the registry: one counter per
    /// GPU→GPU cell and one per CPU column entry.
    #[test]
    fn snapshot_layout_matches_figure10() {
        let registry = Registry::new();
        let m = TrafficMatrix::with_registry(2, &registry);
        m.add(0, Source::Gpu(1), 8);
        m.add(0, Source::Cpu, 2);
        let snap = registry.snapshot();
        let cells: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        assert_eq!(cells.len(), 6);
        assert!(cells.contains(&("traffic.dst0.src1_bytes", 8)));
        assert!(cells.contains(&("traffic.dst0.cpu_bytes", 2)));
        assert_eq!(snap.counter_sum("traffic."), 10);
    }

    #[test]
    fn reset_zeroes_everything() {
        let registry = Registry::new();
        let m = TrafficMatrix::with_registry(2, &registry);
        m.add(0, Source::Cpu, 1);
        m.add(1, Source::Gpu(0), 1);
        registry.reset();
        assert_eq!((m.cpu[0].get(), m.gpu_to_gpu(0, 1)), (0, 0));
    }

    #[test]
    fn zero_gpu_matrix_is_empty() {
        let registry = Registry::new();
        let _ = TrafficMatrix::with_registry(0, &registry);
        assert!(registry.snapshot().counters.is_empty());
    }
}
