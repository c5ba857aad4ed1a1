//! Telemetry for the Legion simulator: a metric registry with counters,
//! gauges and fixed-bucket histograms.
//!
//! # Design
//!
//! The simulator is one thread and one event loop, so a metric is a
//! plain [`Cell`] shared through an [`Rc`]. Registration (name → handle)
//! happens once per metric — typically at construction of the server /
//! engines. The hot paths (PCIe transaction metering, cache hit
//! accounting, per-stage time accumulation) clone a [`Counter`] handle
//! and add to its cell: no lookup, no allocation.
//!
//! # Determinism
//!
//! Counters and histograms hold integers. Simulated stage durations are
//! stored as integer **nanoseconds** ([`Counter::add_secs`]) rather than
//! accumulated floats for exactness: an integer sum has no rounding, so
//! two same-seed runs produce byte-identical [`Snapshot`] JSON and a
//! refactor that reorders the additions cannot move a total. Gauges
//! store `f64` bits and are meant for values written once (epoch totals,
//! model outputs). Nothing in the registry reads the wall clock.
//!
//! Metric names follow a dotted scheme with zero-based device indices,
//! e.g. `pcm.gpu0.topology_tx`, `traffic.dst1.src0_bytes`,
//! `stage.gpu2.sample_ns`, `cache.gpu0.feature_hits`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

pub mod snapshot;

pub use snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};

/// Nanoseconds per second, the resolution of stage-time counters.
pub const NANOS_PER_SEC: f64 = 1e9;

/// Adds `delta` to a metric cell.
#[inline]
fn bump(cell: &Cell<u64>, delta: u64) {
    cell.set(cell.get() + delta);
}

/// A monotonically increasing integer metric.
///
/// Cloning is cheap and shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            cell: Rc::new(Cell::new(0)),
        }
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        bump(&self.cell, delta);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds a simulated duration in seconds, stored as integer
    /// nanoseconds so accumulation order cannot affect the total.
    #[inline]
    pub fn add_secs(&self, secs: f64) {
        debug_assert!(secs >= 0.0, "negative stage duration");
        self.add((secs * NANOS_PER_SEC).round() as u64);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.cell.set(0);
    }
}

/// A last-write-wins `f64` metric, stored as its bits so a value
/// round-trips bit-exactly.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Rc<Cell<u64>>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cell: Rc::new(Cell::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.cell.set(value.to_bits());
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.get())
    }

    /// Resets the gauge to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive) of each bucket; an implicit overflow
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    counts: Vec<Cell<u64>>,
    sum: Cell<u64>,
}

/// A fixed-bucket histogram of `u64` observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Rc<HistogramInner>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            inner: Rc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: vec![Cell::new(0); bounds.len() + 1],
                sum: Cell::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.inner.bounds.partition_point(|&bound| bound < value);
        bump(&self.inner.counts[idx], 1);
        bump(&self.inner.sum, value);
    }

    /// Merges a tally into the histogram: `counts[i]` observations in
    /// bucket `i` (the order [`counts`](Self::counts) reports, overflow
    /// last) summing to `sum` — the bulk equivalent of `counts[i]` calls
    /// to [`observe`](Self::observe). For folding one snapshot's
    /// histogram into another registry.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len()` differs from the histogram's bucket
    /// count (its bounds plus the overflow bucket).
    pub fn merge_counts(&self, counts: &[u64], sum: u64) {
        assert_eq!(
            counts.len(),
            self.inner.counts.len(),
            "bucket tally length must match the histogram"
        );
        for (slot, &c) in self.inner.counts.iter().zip(counts) {
            bump(slot, c);
        }
        bump(&self.inner.sum, sum);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.counts.iter().map(Cell::get).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.get()
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Per-bucket counts (the final entry is the overflow bucket).
    pub fn counts(&self) -> Vec<u64> {
        self.inner.counts.iter().map(Cell::get).collect()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) of the observed
    /// distribution by linear interpolation within the winning bucket.
    ///
    /// The bucket holding the target rank is located by cumulative count;
    /// the returned value interpolates between the bucket's lower and
    /// upper bounds proportionally to the rank's position inside it.
    /// Ranks landing in the overflow bucket saturate at the last finite
    /// bound — the histogram cannot resolve beyond it. An empty histogram
    /// reports 0.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, in [1, total].
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let bounds = self.bounds();
        let mut below = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if below + c >= rank {
                if i == bounds.len() {
                    // Overflow bucket: saturate at the last finite bound.
                    return bounds.last().copied().unwrap_or(u64::MAX);
                }
                let lower = if i == 0 { 0 } else { bounds[i - 1] };
                let upper = bounds[i];
                let into = (rank - below) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * into).round() as u64;
            }
            below += c;
        }
        unreachable!("rank {rank} exceeds total {total}")
    }

    /// Clears all buckets.
    pub fn reset(&self) {
        for c in &self.inner.counts {
            c.set(0);
        }
        self.inner.sum.set(0);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

impl RegistryInner {
    fn find<T: Clone>(entries: &[(String, T)], name: &str) -> Option<T> {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    }
}

/// The metric registry: name → handle, get-or-register semantics.
#[derive(Default)]
pub struct Registry {
    inner: RefCell<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. Every handle to one name shares one cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        if let Some(c) = RegistryInner::find(&inner.counters, name) {
            return c;
        }
        let c = Counter::new();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        if let Some(g) = RegistryInner::find(&inner.gauges, name) {
            return g;
        }
        let g = Gauge::new();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Returns the histogram registered under `name`, creating it with
    /// the given bucket bounds on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name exists with different bounds — that is a
    /// naming-scheme bug, not a runtime condition.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.borrow_mut();
        if let Some(h) = RegistryInner::find(&inner.histograms, name) {
            assert_eq!(
                h.bounds(),
                bounds,
                "histogram `{name}` re-registered with different bounds"
            );
            return h;
        }
        let h = Histogram::new(bounds);
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// The value of a counter, or 0 if it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        RegistryInner::find(&self.inner.borrow().counters, name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Sums every counter whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Resets every registered metric to zero, keeping registrations
    /// (and therefore handle bindings) intact.
    pub fn reset(&self) {
        let inner = self.inner.borrow();
        for (_, c) in &inner.counters {
            c.reset();
        }
        for (_, g) in &inner.gauges {
            g.reset();
        }
        for (_, h) in &inner.histograms {
            h.reset();
        }
    }

    /// A point-in-time copy of every metric, sorted by name so equal
    /// registries serialize to identical JSON regardless of
    /// registration order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        let mut counters: Vec<CounterSample> = inner
            .counters
            .iter()
            .map(|(name, c)| CounterSample {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSample> = inner
            .gauges
            .iter()
            .map(|(name, g)| GaugeSample {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSample> = inner
            .histograms
            .iter()
            .map(|(name, h)| HistogramSample {
                name: name.clone(),
                bounds: h.bounds().to_vec(),
                counts: h.counts(),
                sum: h.sum(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_get_or_register_shares_the_cell() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter_value("x"), 4);
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn histogram_reregistration_with_same_bounds_shares_the_cells() {
        let reg = Registry::new();
        let a = reg.histogram("lat", &[10, 100]);
        let b = reg.histogram("lat", &[10, 100]);
        a.observe(5);
        b.observe(50);
        assert_eq!(a.counts(), vec![1, 1, 0]);
        assert_eq!(b.sum(), 55);
        assert_eq!(reg.snapshot().histograms.len(), 1);
    }

    #[test]
    #[should_panic(expected = "re-registered with different bounds")]
    fn histogram_reregistration_with_other_bounds_panics() {
        let reg = Registry::new();
        reg.histogram("lat", &[10, 100]);
        reg.histogram("lat", &[10, 1000]);
    }

    #[test]
    fn seconds_roundtrip_through_nanos() {
        let reg = Registry::new();
        let c = reg.counter("stage.gpu0.sample_ns");
        c.add_secs(1.25);
        c.add_secs(0.75);
        assert_eq!(c.get(), 2_000_000_000);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = Registry::new();
        let g = reg.gauge("alpha");
        g.set(0.35);
        g.set(0.5);
        assert_eq!(reg.gauge("alpha").get(), 0.5);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), vec![2, 2, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5126);
    }

    #[test]
    fn merge_counts_is_bit_identical_to_per_observation_recording() {
        let reg = Registry::new();
        let bounds = [10, 100, 1000];
        let scalar = reg.histogram("lat.scalar", &bounds);
        let bulk = reg.histogram("lat.bulk", &bounds);
        let values = [5u64, 10, 11, 100, 101, 5000, 7, 999];
        for &v in &values {
            scalar.observe(v);
        }
        // Two tallies, each a scalar histogram over half the values.
        for (i, half) in values.chunks(4).enumerate() {
            let part = reg.histogram(&format!("lat.part{i}"), &bounds);
            for &v in half {
                part.observe(v);
            }
            bulk.merge_counts(&part.counts(), part.sum());
        }
        assert_eq!(scalar.counts(), bulk.counts());
        assert_eq!(scalar.sum(), bulk.sum());
        assert_eq!(scalar.quantile(0.99), bulk.quantile(0.99));
    }

    #[test]
    #[should_panic(expected = "bucket tally length")]
    fn merge_counts_rejects_mismatched_tallies() {
        let reg = Registry::new();
        let h = reg.histogram("lat.bad", &[10, 100]);
        h.merge_counts(&[1, 2], 3);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("q", &[100, 200]);
        // Ten observations in the (100, 200] bucket.
        for _ in 0..10 {
            h.observe(150);
        }
        // Rank 5 of 10 sits halfway through the bucket: 100 + 100 * 5/10.
        assert_eq!(h.quantile(0.5), 150);
        assert_eq!(h.quantile(1.0), 200);
        // Rank 1 of 10: 100 + 100 * 1/10.
        assert_eq!(h.quantile(0.0), 110);
    }

    #[test]
    fn quantile_crosses_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("q2", &[10, 20, 40]);
        for v in [5, 5, 5, 5, 15, 15, 15, 30, 30, 30] {
            h.observe(v);
        }
        // p40 = rank 4: last of the 4 in [0, 10] -> 10.
        assert_eq!(h.quantile(0.4), 10);
        // p50 = rank 5: first of 3 in (10, 20] -> 10 + 10/3 ~ 13.
        assert_eq!(h.quantile(0.5), 13);
        // p99 = rank 10: last of 3 in (20, 40] -> 40.
        assert_eq!(h.quantile(0.99), 40);
    }

    #[test]
    fn quantile_saturates_in_overflow_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("q3", &[10, 100]);
        h.observe(5);
        h.observe(1_000_000);
        h.observe(2_000_000);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), 100);
        // The low observation still resolves normally.
        assert!(h.quantile(0.1) <= 10);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let reg = Registry::new();
        let h = reg.histogram("q4", &[1, 2]);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let reg = Registry::new();
        let h = reg.histogram("q5", &[1, 2, 4, 8, 16, 32, 64]);
        for v in 0..100u64 {
            h.observe(v % 50);
        }
        let mut prev = 0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_bad_q() {
        let reg = Registry::new();
        let h = reg.histogram("q6", &[1]);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn counter_sum_by_prefix() {
        let reg = Registry::new();
        reg.counter("pcm.gpu0.topology_tx").add(7);
        reg.counter("pcm.gpu1.topology_tx").add(5);
        reg.counter("pcm.gpu0.feature_tx").add(100);
        assert_eq!(reg.counter_sum("pcm.gpu0."), 107);
        assert_eq!(reg.counter_sum("pcm."), 112);
    }

    #[test]
    fn reset_keeps_bindings() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.counter_value("x"), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_independent_of_registration_order() {
        let a = Registry::new();
        a.counter("b").add(2);
        a.counter("a").add(1);
        a.gauge("z").set(3.0);
        let b = Registry::new();
        b.gauge("z").set(3.0);
        b.counter("a").add(1);
        b.counter("b").add(2);
        assert_eq!(a.snapshot(), b.snapshot());
        let snap = a.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let reg = Registry::new();
        reg.counter("pcm.gpu0.topology_tx").add(42);
        reg.gauge("epoch.seconds").set(1.5);
        reg.histogram("deg", &[1, 8]).observe(3);
        let snap = reg.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
