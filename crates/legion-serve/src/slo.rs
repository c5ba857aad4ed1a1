//! Per-request latency accounting and SLO attainment.
//!
//! Every completed request's end-to-end latency (completion minus
//! arrival, in integer microseconds) lands in one shared log-bucketed
//! histogram, from which the run reports p50/p95/p99 and the fraction of
//! requests that met the latency SLO. Integer counters and histogram
//! buckets commute, so the numbers are independent of the order GPUs are
//! simulated in.
//!
//! The steady-state path records through [`SloBatch`], a batch-local
//! tally flushed once per micro-batch — three shared-atomic adds per
//! *batch* instead of three per *request*. Commutativity makes the
//! flushed totals bit-identical to per-request [`SloTracker::record`]
//! calls.

use std::sync::Arc;

use legion_telemetry::{Counter, Histogram, Registry};

/// Log-spaced latency bucket bounds in microseconds, ~1.3x apart from
/// 50 us to ~60 s. Strictly increasing by construction.
pub fn latency_buckets() -> Vec<u64> {
    let mut bounds = Vec::new();
    let mut b = 50u64;
    while b < 60_000_000 {
        bounds.push(b);
        b = ((b as f64) * 1.3).ceil() as u64;
    }
    bounds.push(60_000_000);
    bounds
}

/// Records completed-request latencies against a target SLO.
#[derive(Debug, Clone)]
pub struct SloTracker {
    latency: Histogram,
    completed: Counter,
    slo_ok: Counter,
    slo_us: u64,
}

impl SloTracker {
    /// Registers `serve.latency_us`, `serve.completed` and `serve.slo_ok`
    /// on `registry`, targeting a latency SLO of `slo_us` microseconds.
    pub fn new(registry: &Arc<Registry>, slo_us: u64) -> Self {
        Self::named(registry, "serve", slo_us)
    }

    /// Registers `{prefix}.latency_us`, `{prefix}.completed` and
    /// `{prefix}.slo_ok` — the per-class trackers use prefixes like
    /// `serve.class0` next to the aggregate `serve` tracker.
    pub fn named(registry: &Arc<Registry>, prefix: &str, slo_us: u64) -> Self {
        Self {
            latency: registry.histogram(&format!("{prefix}.latency_us"), &latency_buckets()),
            completed: registry.counter(&format!("{prefix}.completed")),
            slo_ok: registry.counter(&format!("{prefix}.slo_ok")),
            slo_us,
        }
    }

    /// The SLO target in microseconds.
    pub fn slo_us(&self) -> u64 {
        self.slo_us
    }

    /// Records one completed request.
    pub fn record(&self, latency_us: u64) {
        self.latency.observe(latency_us);
        self.completed.inc();
        if latency_us <= self.slo_us {
            self.slo_ok.inc();
        }
    }

    /// A fresh batch-local accumulator sized for this tracker's
    /// histogram.
    pub fn batch(&self) -> SloBatch {
        SloBatch {
            counts: vec![0; self.latency.num_buckets()],
            sum: 0,
            completed: 0,
            slo_ok: 0,
        }
    }

    /// Tallies one completed request into `batch` without touching the
    /// shared atomics. Flush with [`flush`](Self::flush).
    #[inline]
    pub fn record_batched(&self, batch: &mut SloBatch, latency_us: u64) {
        batch.counts[self.latency.bucket_index(latency_us)] += 1;
        batch.sum += latency_us;
        batch.completed += 1;
        if latency_us <= self.slo_us {
            batch.slo_ok += 1;
        }
    }

    /// Merges a batch tally into the shared counters (one atomic add
    /// per non-zero bucket plus three scalars) and clears it for reuse.
    /// The result is bit-identical to the equivalent sequence of
    /// [`record`](Self::record) calls.
    pub fn flush(&self, batch: &mut SloBatch) {
        if batch.completed == 0 {
            return;
        }
        self.latency.merge_counts(&batch.counts, batch.sum);
        self.completed.add(batch.completed);
        self.slo_ok.add(batch.slo_ok);
        batch.counts.fill(0);
        batch.sum = 0;
        batch.completed = 0;
        batch.slo_ok = 0;
    }

    /// Completed requests so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// The `q`-quantile of recorded latencies, in microseconds.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }

    /// Fraction of completed requests within the SLO (1.0 when nothing
    /// completed — an idle system violates no SLO).
    pub fn attainment(&self) -> f64 {
        let done = self.completed.get();
        if done == 0 {
            1.0
        } else {
            self.slo_ok.get() as f64 / done as f64
        }
    }
}

/// Batch-local latency tally for one [`SloTracker`]: per-bucket counts
/// plus the completed / SLO-ok scalars, owned by a single worker and
/// flushed at batch boundaries.
#[derive(Debug, Clone)]
pub struct SloBatch {
    counts: Vec<u64>,
    sum: u64,
    completed: u64,
    slo_ok: u64,
}

impl SloBatch {
    /// Requests tallied since the last flush.
    pub fn pending(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_strictly_increasing() {
        let b = latency_buckets();
        assert!(b.len() > 20, "need real resolution, got {}", b.len());
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*b.first().unwrap(), 50);
        assert_eq!(*b.last().unwrap(), 60_000_000);
    }

    #[test]
    fn attainment_counts_only_within_slo() {
        let registry = Arc::new(Registry::new());
        let t = SloTracker::new(&registry, 1000);
        assert_eq!(t.attainment(), 1.0);
        t.record(100);
        t.record(1000);
        t.record(5000);
        t.record(50_000);
        assert_eq!(t.completed(), 4);
        assert!((t.attainment() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn named_trackers_use_their_own_counters() {
        let registry = Arc::new(Registry::new());
        let agg = SloTracker::new(&registry, 1000);
        let class0 = SloTracker::named(&registry, "serve.class0", 500);
        agg.record(100);
        class0.record(100);
        class0.record(900);
        assert_eq!(agg.completed(), 1);
        assert_eq!(class0.completed(), 2);
        assert!((class0.attainment() - 0.5).abs() < 1e-12);
        let snap = registry.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|c| c.name == "serve.class0.slo_ok"));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "serve.class0.latency_us"));
    }

    #[test]
    fn batched_recording_is_bit_identical_to_per_request() {
        let registry = Arc::new(Registry::new());
        let scalar = SloTracker::named(&registry, "serve.scalar", 1000);
        let batched = SloTracker::named(&registry, "serve.batched", 1000);
        let latencies = [100u64, 999, 1000, 1001, 40_000, 70_000_000, 3, 250];
        for &l in &latencies {
            scalar.record(l);
        }
        let mut batch = batched.batch();
        for chunk in latencies.chunks(3) {
            for &l in chunk {
                batched.record_batched(&mut batch, l);
            }
            batched.flush(&mut batch);
        }
        assert_eq!(batch.pending(), 0, "flush must clear the tally");
        assert_eq!(scalar.completed(), batched.completed());
        assert_eq!(
            scalar.attainment().to_bits(),
            batched.attainment().to_bits()
        );
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(scalar.quantile_us(q), batched.quantile_us(q));
        }
        let snap = registry.snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .expect("registered")
                .clone()
        };
        assert_eq!(
            hist("serve.scalar.latency_us").counts,
            hist("serve.batched.latency_us").counts
        );
    }

    #[test]
    fn quantiles_track_the_recorded_distribution() {
        let registry = Arc::new(Registry::new());
        let t = SloTracker::new(&registry, 1000);
        for _ in 0..99 {
            t.record(200);
        }
        t.record(2_000_000);
        assert!(t.quantile_us(0.5) < 400);
        assert!(t.quantile_us(0.999) > 100_000);
    }
}
