//! Per-request latency accounting and SLO attainment.
//!
//! Every completed request's end-to-end latency (completion minus
//! arrival, in integer microseconds) lands in one log-bucketed
//! histogram as it completes, from which the run reports p50/p95/p99 and
//! the fraction of requests that met the latency SLO.

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
    pub fn new(registry: &Registry, slo_us: u64) -> Self {
        Self::named(registry, "serve", slo_us)
    }

    /// Registers `{prefix}.latency_us`, `{prefix}.completed` and
    /// `{prefix}.slo_ok` — the per-class trackers use prefixes like
    /// `serve.class0` next to the aggregate `serve` tracker.
    pub fn named(registry: &Registry, prefix: &str, slo_us: u64) -> Self {
        Self {
            latency: registry.histogram(&format!("{prefix}.latency_us"), &latency_buckets()),
            completed: registry.counter(&format!("{prefix}.completed")),
            slo_ok: registry.counter(&format!("{prefix}.slo_ok")),
            slo_us,
        }
    }

    /// Records one completed request.
    pub fn record(&self, latency_us: u64) {
        self.latency.observe(latency_us);
        self.completed.inc();
        if latency_us <= self.slo_us {
            self.slo_ok.inc();
        }
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
        let registry = Registry::new();
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
        let registry = Registry::new();
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
    fn quantiles_track_the_recorded_distribution() {
        let registry = Registry::new();
        let t = SloTracker::new(&registry, 1000);
        for _ in 0..99 {
            t.record(200);
        }
        t.record(2_000_000);
        assert!(t.quantile_us(0.5) < 400);
        assert!(t.quantile_us(0.999) > 100_000);
    }
}
