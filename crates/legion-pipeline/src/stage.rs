//! Per-GPU stage-time telemetry.
//!
//! The pipeline operates on simulated stage durations (seconds from
//! [`crate::TimeModel`]), so stage accounting is recorded explicitly
//! rather than with wall-clock timers: [`StageRecorder`] accumulates each
//! stage's simulated time into integer-nanosecond counters
//! (`stage.gpu{g}.sample_ns`, `stage.gpu{g}.extract_ns`,
//! `stage.gpu{g}.train_ns`). Integer sums are exact, so per-GPU totals
//! do not depend on the order the batches are recorded in.

use legion_hw::GpuId;
use legion_telemetry::{Counter, Histogram, Registry};

/// Accumulates one GPU's simulated stage times into registry counters.
#[derive(Debug, Clone)]
pub struct StageRecorder {
    sample_ns: Counter,
    extract_ns: Counter,
    train_ns: Counter,
}

impl StageRecorder {
    /// Binds the `stage.gpu{gpu}.*_ns` counters in `registry`.
    pub fn for_gpu(registry: &Registry, gpu: GpuId) -> Self {
        Self {
            sample_ns: registry.counter(&format!("stage.gpu{gpu}.sample_ns")),
            extract_ns: registry.counter(&format!("stage.gpu{gpu}.extract_ns")),
            train_ns: registry.counter(&format!("stage.gpu{gpu}.train_ns")),
        }
    }

    /// Records one batch's stage durations (simulated seconds).
    pub fn record(&self, sample_secs: f64, extract_secs: f64, train_secs: f64) {
        self.sample_ns.add_secs(sample_secs);
        self.extract_ns.add_secs(extract_secs);
        self.train_ns.add_secs(train_secs);
    }
}

/// Samples one GPU's admission-queue depth at each batch launch into a
/// power-of-two-bucketed histogram (`pipeline.gpu{g}.queue_depth`).
///
/// Queue depth at launch is the pipeline's backpressure signal: a depth
/// stuck near the queue capacity means the serving front end is routing
/// more work to this GPU than its sample→extract→infer pipeline drains.
#[derive(Debug, Clone)]
pub struct QueueDepthMeter {
    depth: Histogram,
}

impl QueueDepthMeter {
    /// Bucket upper bounds 1, 2, 4, … 4096 (depths beyond the last
    /// bound land in the implicit overflow bucket).
    fn bounds() -> Vec<u64> {
        (0..13).map(|i| 1u64 << i).collect()
    }

    /// Binds the `pipeline.gpu{gpu}.queue_depth` histogram in
    /// `registry`.
    pub fn for_gpu(registry: &Registry, gpu: GpuId) -> Self {
        Self {
            depth: registry.histogram(&format!("pipeline.gpu{gpu}.queue_depth"), &Self::bounds()),
        }
    }

    /// Records the queue depth observed at one batch launch.
    pub fn observe(&self, depth: usize) {
        self.depth.observe(depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_stage() {
        let reg = Registry::new();
        let rec = StageRecorder::for_gpu(&reg, 3);
        rec.record(0.5, 0.25, 1.0);
        rec.record(0.5, 0.25, 1.0);
        for (stage, ns) in [("sample", 1_000_000_000), ("extract", 500_000_000)] {
            assert_eq!(reg.counter_value(&format!("stage.gpu3.{stage}_ns")), ns);
        }
        assert_eq!(reg.counter_value("stage.gpu3.train_ns"), 2_000_000_000);
    }

    #[test]
    fn same_registry_shares_counters() {
        let reg = Registry::new();
        let a = StageRecorder::for_gpu(&reg, 0);
        let b = StageRecorder::for_gpu(&reg, 0);
        a.record(1.0, 0.0, 0.0);
        b.record(1.0, 0.0, 0.0);
        assert_eq!(reg.counter_value("stage.gpu0.sample_ns"), 2_000_000_000);
    }

    #[test]
    fn queue_depth_meter_buckets_observations() {
        let reg = Registry::new();
        let m = QueueDepthMeter::for_gpu(&reg, 1);
        m.observe(0);
        m.observe(3);
        m.observe(5000);
        let snap = reg.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "pipeline.gpu1.queue_depth")
            .expect("histogram registered");
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
    }
}
