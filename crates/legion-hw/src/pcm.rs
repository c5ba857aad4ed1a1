//! Simulated Intel Performance Counter Monitor (PCM).
//!
//! Legion "uses Intel PCM to collect the summation of PCIe transaction
//! numbers, `N_TSUM`, generated by all GPUs in an NVLink clique during
//! pre-sampling" (§4.2.2), and the evaluation reports "the maximum PCIe
//! counter value across different sockets" (§6.2). This module provides
//! the same counter semantics: per-GPU transaction tallies that can be
//! summed per clique or per socket.

use legion_telemetry::{Counter, Registry};

use crate::GpuId;

/// Kind of data moving over PCIe, so sampling and extraction traffic can be
/// reported separately (Figure 13 plots them individually).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Graph-topology reads issued by the neighbor sampler.
    Topology,
    /// Feature-row reads issued by the feature extractor.
    Feature,
}

/// Per-GPU PCIe transaction counters.
///
/// Each per-GPU tally is a [`legion_telemetry::Counter`] registered as
/// `pcm.gpu{g}.topology_tx` / `pcm.gpu{g}.feature_tx`, so PCM readings
/// appear in metric snapshots under the same names this struct reads.
///
/// # Examples
///
/// ```
/// use legion_hw::pcm::{PcmCounters, TrafficKind};
/// use legion_telemetry::Registry;
///
/// let registry = Registry::new();
/// let pcm = PcmCounters::with_registry(2, &registry);
/// pcm.add(0, TrafficKind::Feature, 8);
/// pcm.add(1, TrafficKind::Topology, 3);
/// assert_eq!(registry.snapshot().counter_sum("pcm."), 11);
/// assert_eq!(pcm.gpu_kind(0, TrafficKind::Feature), 8);
/// ```
#[derive(Debug)]
pub struct PcmCounters {
    topology: Vec<Counter>,
    feature: Vec<Counter>,
}

/// The registry name of one PCM counter.
pub fn pcm_counter_name(gpu: GpuId, kind: TrafficKind) -> String {
    match kind {
        TrafficKind::Topology => format!("pcm.gpu{gpu}.topology_tx"),
        TrafficKind::Feature => format!("pcm.gpu{gpu}.feature_tx"),
    }
}

impl PcmCounters {
    /// Counters bound into `registry` under the `pcm.gpu{g}.*` names.
    pub fn with_registry(num_gpus: usize, registry: &Registry) -> Self {
        Self {
            topology: (0..num_gpus)
                .map(|g| registry.counter(&pcm_counter_name(g, TrafficKind::Topology)))
                .collect(),
            feature: (0..num_gpus)
                .map(|g| registry.counter(&pcm_counter_name(g, TrafficKind::Feature)))
                .collect(),
        }
    }

    /// Records `transactions` CPU→GPU PCIe transactions for `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn add(&self, gpu: GpuId, kind: TrafficKind, transactions: u64) {
        let ctr = match kind {
            TrafficKind::Topology => &self.topology[gpu],
            TrafficKind::Feature => &self.feature[gpu],
        };
        ctr.add(transactions);
    }

    /// Transactions of one kind recorded for one GPU.
    pub fn gpu_kind(&self, gpu: GpuId, kind: TrafficKind) -> u64 {
        match kind {
            TrafficKind::Topology => self.topology[gpu].get(),
            TrafficKind::Feature => self.feature[gpu].get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_kinds() {
        let registry = Registry::new();
        let pcm = PcmCounters::with_registry(1, &registry);
        pcm.add(0, TrafficKind::Topology, 5);
        pcm.add(0, TrafficKind::Feature, 7);
        assert_eq!(pcm.gpu_kind(0, TrafficKind::Topology), 5);
        assert_eq!(pcm.gpu_kind(0, TrafficKind::Feature), 7);
        assert_eq!(registry.snapshot().counter_sum("pcm.gpu0."), 12);
    }

    #[test]
    fn reset_clears_every_counter() {
        let registry = Registry::new();
        let pcm = PcmCounters::with_registry(3, &registry);
        pcm.add(2, TrafficKind::Topology, 100);
        pcm.add(0, TrafficKind::Feature, 1);
        assert_eq!(registry.snapshot().counter_sum("pcm."), 101);
        registry.reset();
        assert_eq!(registry.snapshot().counter_sum("pcm."), 0);
    }

    #[test]
    fn empty_server_total_is_zero() {
        let registry = Registry::new();
        let _pcm = PcmCounters::with_registry(0, &registry);
        assert_eq!(registry.snapshot().counter_sum("pcm."), 0);
    }
}
