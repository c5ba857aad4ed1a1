//! Simulated GPU device with byte-accurate memory accounting.
//!
//! The paper's systems differ mainly in *what they put where*: replicated
//! feature caches, whole-topology-in-one-GPU (which "sets a hard limit on
//! the scale of the graph", §3.2), reserved training buffers. A device that
//! tracks every allocation lets those placement decisions succeed or OOM
//! exactly as on real hardware.

use crate::GpuId;

/// Errors raised by the simulated hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwError {
    /// An allocation did not fit into the remaining device memory.
    OutOfMemory {
        /// Device that rejected the allocation.
        gpu: GpuId,
        /// Bytes requested.
        requested: u64,
        /// Bytes still free at the time of the request.
        available: u64,
    },
    /// An operation referenced a GPU index outside the server.
    NoSuchGpu(GpuId),
    /// A free exceeded the currently allocated amount (double free).
    FreeUnderflow {
        /// Device on which the bogus free happened.
        gpu: GpuId,
        /// Bytes the caller attempted to free.
        freed: u64,
        /// Bytes actually allocated.
        allocated: u64,
    },
}

impl std::fmt::Display for HwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwError::OutOfMemory {
                gpu,
                requested,
                available,
            } => write!(
                f,
                "GPU {gpu} out of memory: requested {requested} bytes, {available} available"
            ),
            HwError::NoSuchGpu(g) => write!(f, "no such GPU: {g}"),
            HwError::FreeUnderflow {
                gpu,
                freed,
                allocated,
            } => write!(
                f,
                "GPU {gpu} free underflow: freeing {freed} bytes with only {allocated} allocated"
            ),
        }
    }
}

impl std::error::Error for HwError {}

/// A single simulated GPU.
///
/// # Examples
///
/// ```
/// use legion_hw::{GpuDevice, GIB};
///
/// let mut gpu = GpuDevice::new(0, 16 * GIB);
/// gpu.alloc(4 * GIB).unwrap();
/// assert_eq!(gpu.free_bytes(), 12 * GIB);
/// assert!(gpu.alloc(13 * GIB).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuDevice {
    id: GpuId,
    capacity: u64,
    allocated: u64,
}

impl GpuDevice {
    /// A device with the given memory capacity in bytes.
    pub fn new(id: GpuId, capacity: u64) -> Self {
        Self {
            id,
            capacity,
            allocated: 0,
        }
    }

    /// Total memory capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Bytes still free.
    #[inline]
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.allocated
    }

    /// Reserves `bytes` of device memory.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), HwError> {
        if bytes > self.free_bytes() {
            return Err(HwError::OutOfMemory {
                gpu: self.id,
                requested: bytes,
                available: self.free_bytes(),
            });
        }
        self.allocated += bytes;
        Ok(())
    }

    /// Releases `bytes` of device memory.
    pub fn free(&mut self, bytes: u64) -> Result<(), HwError> {
        if bytes > self.allocated {
            return Err(HwError::FreeUnderflow {
                gpu: self.id,
                freed: bytes,
                allocated: self.allocated,
            });
        }
        self.allocated -= bytes;
        Ok(())
    }

    /// Releases everything.
    pub fn reset(&mut self) {
        self.allocated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GIB;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut g = GpuDevice::new(3, 100);
        g.alloc(60).unwrap();
        g.alloc(40).unwrap();
        assert_eq!(g.free_bytes(), 0);
        g.free(50).unwrap();
        assert_eq!(g.allocated_bytes(), 50);
        g.reset();
        assert_eq!(g.allocated_bytes(), 0);
    }

    #[test]
    fn oom_reports_request_and_available() {
        let mut g = GpuDevice::new(1, 10);
        g.alloc(7).unwrap();
        let err = g.alloc(4).unwrap_err();
        assert_eq!(
            err,
            HwError::OutOfMemory {
                gpu: 1,
                requested: 4,
                available: 3
            }
        );
    }

    #[test]
    fn free_underflow_detected() {
        let mut g = GpuDevice::new(0, 10);
        g.alloc(2).unwrap();
        assert!(matches!(g.free(3), Err(HwError::FreeUnderflow { .. })));
    }

    #[test]
    fn zero_byte_alloc_always_succeeds() {
        let mut g = GpuDevice::new(0, 0);
        g.alloc(0).unwrap();
        assert_eq!(g.free_bytes(), 0);
    }

    #[test]
    fn presets_have_table1_capacities() {
        let v100 = crate::ServerSpec::dgx_v100();
        assert_eq!(GpuDevice::new(0, v100.gpu_memory).capacity(), 16 * GIB);
    }

    #[test]
    fn errors_display() {
        let e = HwError::OutOfMemory {
            gpu: 2,
            requested: 5,
            available: 1,
        };
        assert!(e.to_string().contains("GPU 2 out of memory"));
        assert!(HwError::NoSuchGpu(9).to_string().contains('9'));
    }
}
