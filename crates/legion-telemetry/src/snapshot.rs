//! Serializable point-in-time metric snapshots, their canonical text
//! form and a by-name diff of two texts.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One counter's name and value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Dotted metric name, e.g. `pcm.gpu0.topology_tx`.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge's name and value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Dotted metric name, e.g. `epoch.seconds`.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One histogram's name, bucket layout, and contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Dotted metric name.
    pub name: String,
    /// Inclusive upper bounds of each bucket.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the final entry is the overflow bucket, so
    /// `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
}

/// A sorted, serializable copy of every metric in a registry.
///
/// Two registries holding the same metric values produce equal
/// snapshots — and, because entries are sorted by name and all numbers
/// are integers or single `f64` gauges, byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// The value of the named counter, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// The value of the named gauge, or 0.0 if absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
            .unwrap_or(0.0)
    }

    /// Sums every counter whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.value)
            .sum()
    }

    /// The named histogram sample, or `None` if absent — the accessor
    /// cross-registry aggregation uses to merge per-server latency
    /// histograms (via [`Histogram::merge_counts`](crate::Histogram::merge_counts))
    /// into a fleet-level one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The canonical text form, one `name value` line per metric:
    /// counters, then gauges as round-trip `{:?}` floats (so `-0.0` and
    /// `0.0` differ), then each histogram's `count`, `sum`, `p50`, `p99`
    /// and non-empty buckets by bound (`le{bound}`, `over` for the
    /// overflow bucket) as `key=value` fields. The bounds of empty
    /// buckets are all it leaves out. [`diff`] compares two texts.
    pub fn to_text(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|c| format!("{} {}\n", c.name, c.value));
        let gauges = self
            .gauges
            .iter()
            .map(|g| format!("{} {:?}\n", g.name, g.value));
        let histograms = self.histograms.iter().map(|h| {
            let live = crate::Histogram::new(&h.bounds);
            live.merge_counts(&h.counts, h.sum);
            let mut line = format!("{} count={} sum={}", h.name, live.count(), h.sum);
            line += &format!(" p50={} p99={}", live.quantile(0.5), live.quantile(0.99));
            for (i, &n) in h.counts.iter().enumerate().filter(|&(_, &n)| n > 0) {
                line += &match h.bounds.get(i) {
                    Some(bound) => format!(" le{bound}={n}"),
                    None => format!(" over={n}"),
                };
            }
            line + "\n"
        });
        counters.chain(gauges).chain(histograms).collect()
    }
}

/// The metrics that differ between two canonical texts
/// ([`Snapshot::to_text`]), one line each in name order: `added name
/// value`, `removed name value` or `changed name old → new`, with the
/// relative change when both values are numbers (`41 → 43 (+4.9 %)`).
/// Equal texts give no line.
pub fn diff(old: &str, new: &str) -> Vec<String> {
    fn by_name(text: &str) -> BTreeMap<&str, &str> {
        text.lines()
            .map(|line| line.split_once(' ').unwrap_or((line, "")))
            .collect()
    }
    let (old, new) = (by_name(old), by_name(new));
    let names: BTreeSet<&str> = old.keys().chain(new.keys()).copied().collect();
    let mover = |name: &str| match (old.get(name), new.get(name)) {
        (Some(a), Some(b)) if a == b => None,
        (Some(a), Some(b)) => {
            let relative = match (a.parse::<f64>(), b.parse::<f64>()) {
                (Ok(a), Ok(b)) if a != 0.0 => format!(" ({:+.1} %)", (b / a - 1.0) * 100.0),
                _ => String::new(),
            };
            Some(format!("changed {name} {a} → {b}{relative}"))
        }
        (None, Some(b)) => Some(format!("added {name} {b}")),
        (Some(a), None) => Some(format!("removed {name} {a}")),
        (None, None) => None,
    };
    names.into_iter().filter_map(mover).collect()
}

#[cfg(test)]
mod tests {
    use super::diff;
    use crate::Registry;

    /// The canonical text of a registry holding a counter at 41, a gauge
    /// at 0.0 and a `[10, 100]` histogram that saw a 5, after `edit`.
    fn text(edit: impl Fn(&Registry)) -> String {
        let reg = Registry::new();
        reg.counter("serve.completed").add(41);
        reg.gauge("serve.hit_rate").set(0.0);
        reg.histogram("serve.latency_us", &[10, 100]).observe(5);
        edit(&reg);
        reg.snapshot().to_text()
    }

    #[test]
    fn diff_lists_each_mover_once() {
        let base = text(|_| {});
        assert_eq!(
            base,
            "serve.completed 41\nserve.hit_rate 0.0\n\
             serve.latency_us count=1 sum=5 p50=10 p99=10 le10=1\n"
        );
        let shed = text(|reg| reg.counter("serve.shed").inc());
        let seen =
            |v| move |reg: &Registry| reg.histogram("serve.latency_us", &[10, 100]).observe(v);
        let cases = [
            // Equal snapshots give no line.
            (&base, &base, ""),
            (
                &base,
                &text(|reg| reg.counter("serve.completed").inc()),
                "changed serve.completed 41 → 42 (+2.4 %)",
            ),
            (&base, &shed, "added serve.shed 1"),
            (&shed, &base, "removed serve.shed 1"),
            // One observation in another bucket is one line.
            (
                &text(seen(50)),
                &text(seen(500)),
                "changed serve.latency_us count=2 sum=55 p50=10 p99=100 le10=1 le100=1 \
                 → count=2 sum=505 p50=10 p99=100 le10=1 over=1",
            ),
            // The text keeps a gauge's sign of zero, as the JSON did.
            (
                &base,
                &text(|reg| reg.gauge("serve.hit_rate").set(-0.0)),
                "changed serve.hit_rate 0.0 → -0.0",
            ),
        ];
        for (old, new, movers) in cases {
            assert_eq!(diff(old, new).join("\n"), movers);
        }
    }
}
