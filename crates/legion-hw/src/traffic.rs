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
///
/// let m = TrafficMatrix::new(2);
/// m.add(0, Source::Cpu, 100);
/// m.add(0, Source::Gpu(1), 40);
/// assert_eq!(m.cpu_to_gpu(0), 100);
/// assert_eq!(m.gpu_to_gpu(1, 0), 40);
/// assert_eq!(m.max_cpu_column(), 100);
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
    /// A standalone zeroed matrix for `num_gpus` GPUs, backed by a
    /// private registry.
    pub fn new(num_gpus: usize) -> Self {
        Self::with_registry(num_gpus, &Registry::new())
    }

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

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.n
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

    /// Bytes moved from CPU memory into `dst` (the red column of Fig. 10).
    pub fn cpu_to_gpu(&self, dst: GpuId) -> u64 {
        self.cpu[dst].get()
    }

    /// The largest per-GPU CPU→GPU volume. The paper notes "it is the GPU
    /// with the largest CPU-GPU data transferring volume that dominates the
    /// overall performance" (§6.3.2).
    pub fn max_cpu_column(&self) -> u64 {
        self.cpu.iter().map(|c| c.get()).max().unwrap_or(0)
    }

    /// Clears all counters.
    pub fn reset(&self) {
        for c in self.gpu.iter().chain(self.cpu.iter()) {
            c.reset();
        }
    }

    /// Dense snapshot: `rows[dst] = [src0, src1, ..., cpu]`, matching the
    /// Figure 10 layout (green GPU columns then the red CPU column).
    pub fn snapshot(&self) -> Vec<Vec<u64>> {
        (0..self.n)
            .map(|dst| {
                let mut row: Vec<u64> = (0..self.n).map(|src| self.gpu_to_gpu(src, dst)).collect();
                row.push(self.cpu_to_gpu(dst));
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_destination_and_source() {
        let m = TrafficMatrix::new(3);
        m.add(2, Source::Gpu(0), 11);
        m.add(2, Source::Gpu(0), 9);
        m.add(1, Source::Cpu, 5);
        assert_eq!(m.gpu_to_gpu(0, 2), 20);
        assert_eq!(m.gpu_to_gpu(2, 0), 0);
        assert_eq!(m.cpu_to_gpu(1), 5);
    }

    #[test]
    fn totals_and_max() {
        let m = TrafficMatrix::new(2);
        m.add(0, Source::Cpu, 7);
        m.add(1, Source::Cpu, 3);
        m.add(0, Source::Gpu(1), 9);
        let s = m.snapshot();
        let cpu: u64 = s.iter().map(|row| row[2]).sum();
        let peer: u64 = s.iter().flat_map(|row| &row[..2]).sum();
        assert_eq!((cpu, peer), (10, 9));
        // Peer bytes never count towards the CPU maximum.
        assert_eq!(m.max_cpu_column(), 7);
    }

    #[test]
    fn snapshot_layout_matches_figure10() {
        let m = TrafficMatrix::new(2);
        m.add(0, Source::Gpu(1), 8);
        m.add(0, Source::Cpu, 2);
        let s = m.snapshot();
        assert_eq!(s, vec![vec![0, 8, 2], vec![0, 0, 0]]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = TrafficMatrix::new(2);
        m.add(0, Source::Cpu, 1);
        m.add(1, Source::Gpu(0), 1);
        m.reset();
        assert_eq!(m.snapshot(), vec![vec![0, 0, 0]; 2]);
    }

    #[test]
    fn zero_gpu_matrix_is_empty() {
        let m = TrafficMatrix::new(0);
        assert_eq!(m.max_cpu_column(), 0);
        assert!(m.snapshot().is_empty());
    }
}
