//! The benchmark's contract in one place: workloads, metric names with
//! unit and direction, regression bounds — and the result a run prints.
//!
//! `BENCHMARK.json` is generated from these tables (`legion-perfbench
//! manifest`); a unit test keeps the committed file equal to them.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::Quartiles;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Workloads in the order `run.sh` runs them, with why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_pa",
        "closed-loop Legion training epochs on PA/500: partition, pre-sampling, CSLP, cost model, cache fill, sampler and extraction; no serving code runs",
    ),
    (
        "serve_steady",
        "open-loop Poisson serving at 0.8x capacity, frozen graph, DRAM-resident: event loop, batcher, router and QoS queue; the cache is only read; store, fleet and dyn are bypassed",
    ),
    (
        "serve_oversub_drift",
        "10x DRAM-oversubscribed serving under a rotating hot set with re-planning: legion-store and the re-planner; cache and tier map are written as well as read",
    ),
    (
        "fleet_churn",
        "4-server fleet on a contended uplink with coalescing and a mutation stream: legion-fleet, NetModel and the legion-dyn overlay (graph writes beside sampler reads); SSD tier off",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the simulator sees, on both clocks. One bound per
/// metric covers all four workloads, so each is about three times the
/// widest spread ten differently-seeded runs of any workload showed on
/// this host, capped at the contract's 0.25 (README.md has the
/// measurements): `serve_oversub_drift` sets `host_seeds_per_s` (6.3 %,
/// its re-plan count moves with the seed) and `model_wait_us` (6.0 %),
/// `serve_steady` sets `host_peak_rss_mib` (5.1 %, two allocator modes).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_seeds_per_s", "seeds/s", Better::Higher, 0.25),
    e2e("host_peak_rss_mib", "MiB", Better::Lower, 0.15),
    e2e("model_seeds_per_s", "seeds/s", Better::Higher, 0.1),
    e2e("model_wait_us", "us", Better::Lower, 0.25),
    e2e("model_pcie_tx_per_kseed", "tx/kseed", Better::Lower, 0.1),
];

/// Per-layer metrics; the layer is the name up to the first dot.
pub const PER_LAYER: [MetricDef; 77] = [
    lo("graph.instantiate_s", "s"),
    lo("partition.hier_s", "s"),
    lo("sampling.presample_s", "s"),
    lo("sampling.khop_ns_per_seed", "ns"),
    lo("sampling.extract_ns_per_row", "ns"),
    lo("sampling.edges_per_seed", "count"),
    lo("sampling.rows_per_seed", "count"),
    lo("cache.cslp_s", "s"),
    lo("cache.plan_s", "s"),
    lo("cache.fill_s", "s"),
    lo("cache.lookup_ns_per_probe", "ns"),
    hi("cache.feature_hit_rate", "share"),
    hi("cache.topology_hit_rate", "share"),
    hi("cache.alpha", "share"),
    lo("hw.pcie_topology_tx_per_kseed", "tx/kseed"),
    lo("hw.pcie_feature_tx_per_kseed", "tx/kseed"),
    lo("hw.pcie_max_socket_tx", "count"),
    lo("hw.cpu_bytes_per_seed", "B"),
    lo("hw.nvlink_bytes_per_seed", "B"),
    lo("hw.net_charge_ns_per_wave", "ns"),
    lo("pipeline.sample_share", "share"),
    lo("pipeline.extract_share", "share"),
    hi("pipeline.train_share", "share"),
    lo("pipeline.queue_depth_p99", "count"),
    lo("gnn.flops_per_seed", "flop"),
    lo("gnn.flops_ns_per_batch", "ns"),
    lo("core.epoch_overhead_share", "share"),
    lo("serve.workload_gen_ns_per_req", "ns"),
    lo("serve.capacity_probe_s", "s"),
    lo("serve.plan_s", "s"),
    lo("serve.loop_ns_per_req", "ns"),
    hi("serve.batch_size_mean", "count"),
    lo("serve.busy_share", "share"),
    lo("serve.p50_us", "us"),
    lo("serve.p95_us", "us"),
    lo("serve.p99_us", "us"),
    hi("serve.slo_attainment", "share"),
    lo("serve.shed_share", "share"),
    lo("serve.replan_count", "count"),
    lo("serve.replan_swap_bytes_per_kreq", "B/kreq"),
    lo("serve.replan_plan_s", "s"),
    lo("router.route_ns", "ns"),
    lo("router.qos_ns", "ns"),
    hi("router.locality", "share"),
    lo("router.spill_share", "share"),
    lo("store.read_ns_per_row", "ns"),
    lo("store.prefetch_ns_per_row", "ns"),
    hi("store.prefetch_hit_share", "share"),
    lo("store.late_stall_share", "share"),
    lo("store.cold_read_share", "share"),
    lo("store.nvme_bytes_per_req", "B"),
    lo("store.nvme_read_us_p99", "us"),
    lo("store.migrated_bytes_per_kreq", "B/kreq"),
    lo("fleet.plan_s", "s"),
    hi("fleet.locality", "share"),
    lo("fleet.replicated_rows", "count"),
    lo("fleet.remote_reads_per_kreq", "count"),
    lo("fleet.remote_bytes_per_req", "B"),
    lo("fleet.msgs_per_kreq", "count"),
    hi("fleet.dedup_share", "share"),
    lo("fleet.notify_bytes_per_kmut", "B/kmut"),
    lo("dyn.apply_ns_per_op", "ns"),
    lo("dyn.merge_ns_per_row", "ns"),
    lo("dyn.compact_s", "s"),
    lo("dyn.mutations_per_kreq", "count"),
    lo("dyn.compactions", "count"),
    lo("dyn.overlay_rows", "count"),
    lo("dyn.invalidated_topo_rows", "count"),
    lo("dyn.invalidated_residency_bits", "count"),
    lo("telemetry.snapshot_ns", "ns"),
    lo("telemetry.metric_names", "count"),
    hi("host.raw_seeds_per_s", "seeds/s"),
    lo("host.ref_ms_median", "ms"),
    lo("host.ref_iqr_share", "share"),
    lo("host.pass_ratio_iqr_share", "share"),
    lo("host.trace_overhead_share", "share"),
    lo("model.failed_share", "share"),
];

/// Finds a metric of either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Which clock a metric reads: `host` times are reference-normalised
/// and carry noise; `model` values and counts repeat exactly.
pub fn clock(name: &str) -> &'static str {
    let host_time = name.starts_with("host")
        || name.ends_with("_s")
        || name.contains("_ns")
        || name.ends_with("overhead_share");
    if host_time && !name.starts_with("model") {
        "host"
    } else {
        "model"
    }
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Value {
    let s = |v: &str| Value::Str(v.into());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Value::Object(vec![("name".into(), s(name)), ("why".into(), s(why))]))
        .collect();
    let row = |m: &MetricDef, bounded: bool| {
        let mut o = vec![
            ("name".into(), s(m.name)),
            ("unit".into(), s(m.unit)),
            ("better".into(), s(m.better.as_str())),
        ];
        if bounded {
            o.push(("bound".into(), Value::F64(m.bound)));
        }
        Value::Object(o)
    };
    Value::Object(vec![
        (
            "command".into(),
            Value::Array(vec![s("bash"), s("bench/run.sh")]),
        ),
        ("paths".into(), Value::Array(vec![s("bench")])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        ("workloads".into(), Value::Array(workloads)),
        (
            "end_to_end".into(),
            Value::Array(END_TO_END.iter().map(|m| row(m, true)).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(PER_LAYER.iter().map(|m| row(m, false)).collect()),
        ),
    ])
}

/// One metric as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// Quartiles and count of the sections behind a host-clock median.
    pub spread: Option<Quartiles>,
    /// The same statistic without reference normalisation.
    pub raw: Option<f64>,
}

impl Reading {
    /// An exact value (a count or a model-clock number).
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            spread: None,
            raw: None,
        }
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Seeds or requests offered, plus one per output check.
    pub attempted: u64,
    /// Requests shed, set-ups that failed, checks that did not hold.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub readings: BTreeMap<&'static str, Reading>,
    /// Raw per-section times, kept in the result file so a surprising
    /// median can be traced back to its samples.
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// Records an output check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail,
        });
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in the contract.
    pub fn set(&mut self, name: &str, reading: Reading) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the contract"));
        self.readings.insert(d.name, reading);
    }

    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Reading::exact(value));
    }

    pub fn value(&self, name: &str) -> f64 {
        self.readings.get(name).map_or(0.0, |r| r.value)
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Whether every recorded metric of `layer` (the name up to the first
    /// dot) reads 0 — a row of the bypass matrix.
    pub fn layer_is_zero(&self, layer: &str) -> bool {
        self.readings
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .all(|(_, r)| r.value == 0.0)
    }

    /// The metrics of `table`, in table order; a metric the workload
    /// never touched reads 0 (its layer was bypassed).
    fn metrics_of(&self, table: &[MetricDef]) -> Vec<(String, Value)> {
        table
            .iter()
            .map(|m| {
                let value = self.value(m.name);
                let o = vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ];
                (m.name.to_string(), Value::Object(o))
            })
            .collect()
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and the metrics of the phases that ran.
    pub fn result_line(&self, measured: bool, traced: bool) -> Value {
        let mut metrics = Vec::new();
        if measured {
            metrics.extend(self.metrics_of(&END_TO_END));
        }
        if traced {
            metrics.extend(self.metrics_of(&PER_LAYER));
        }
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// The result file: the result line plus, per metric, clock, spread
    /// and raw value, and every check with its detail.
    pub fn result_file(&self, header: Vec<(String, Value)>, measured: bool, traced: bool) -> Value {
        let mut tables: Vec<&MetricDef> = Vec::new();
        if measured {
            tables.extend(&END_TO_END);
        }
        if traced {
            tables.extend(&PER_LAYER);
        }
        let metrics = tables
            .into_iter()
            .map(|m| {
                let r = self
                    .readings
                    .get(m.name)
                    .cloned()
                    .unwrap_or(Reading::exact(0.0));
                let mut o = vec![
                    ("value".into(), Value::F64(r.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("better".into(), Value::Str(m.better.as_str().into())),
                    ("clock".into(), Value::Str(clock(m.name).into())),
                ];
                if let Some(q) = r.spread {
                    o.push(("q1".into(), Value::F64(q.q1)));
                    o.push(("q3".into(), Value::F64(q.q3)));
                    o.push(("n".into(), Value::U64(q.n as u64)));
                }
                if let Some(raw) = r.raw {
                    o.push(("raw_value".into(), Value::F64(raw)));
                }
                (m.name.to_string(), Value::Object(o))
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("name".into(), Value::Str(c.name.clone())),
                    ("ok".into(), Value::Bool(c.ok)),
                    ("detail".into(), Value::Str(c.detail.clone())),
                ])
            })
            .collect();
        let series = self
            .series
            .iter()
            .map(|(name, values)| {
                let values = values.iter().map(|v| Value::F64(*v)).collect();
                (name.to_string(), Value::Array(values))
            })
            .collect();
        let mut o = header;
        o.push(("correct".into(), Value::Bool(self.correct())));
        o.push(("attempted".into(), Value::U64(self.attempted.max(1))));
        o.push(("failed".into(), Value::U64(self.failed)));
        o.push(("checks".into(), Value::Array(checks)));
        o.push(("metrics".into(), Value::Object(metrics)));
        o.push(("series".into(), Value::Object(series)));
        Value::Object(o)
    }
}

/// Reads a number out of a parsed JSON value, whatever its integer or
/// float representation.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(m.unit.chars().all(ok), "{}", m.unit);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        }
        for (name, why) in WORKLOADS {
            assert!(name.len() <= 64 && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&text).expect("valid JSON");
        let generated: Value =
            serde_json::from_str(&serde_json::to_string(&manifest()).unwrap()).unwrap();
        assert_eq!(committed, generated, "run `bench/run.sh --manifest`");
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        o.check("conservation", true, String::new());
        o.set_exact("model_seeds_per_s", 123.5);
        o.set(
            "setup_s",
            Reading {
                value: 0.8127,
                spread: Some(crate::stats::quartiles(&[0.8, 0.8127, 0.83])),
                raw: Some(0.9),
            },
        );
        let line = serde_json::to_string(&o.result_line(true, false)).unwrap();
        assert!(!line.contains('\n'));
        let back: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(as_f64(back.get("attempted").unwrap()), Some(1001.0));
        let metrics = back.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = back.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(as_f64(setup.get("value").unwrap()), Some(0.8127));
        assert_eq!(setup.get("unit"), Some(&Value::Str("s".into())));
        assert_eq!(setup.as_object().unwrap().len(), 2);

        let file = o.result_file(
            vec![("workload".into(), Value::Str("w".into()))],
            true,
            true,
        );
        let back: Value = serde_json::from_str(&serde_json::to_string(&file).unwrap()).unwrap();
        let setup = back.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(as_f64(setup.get("raw_value").unwrap()), Some(0.9));
        assert_eq!(as_f64(setup.get("n").unwrap()), Some(3.0));
        assert_eq!(setup.get("clock"), Some(&Value::Str("host".into())));
        let metrics = back.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_is_a_failed_operation() {
        let mut o = Outcome::default();
        o.check("a", true, String::new());
        o.check("b", false, "3 != 4".into());
        assert_eq!((o.attempted, o.failed, o.correct()), (2, 1, false));
    }

    #[test]
    fn clocks() {
        assert_eq!(clock("setup_s"), "host");
        assert_eq!(clock("host_peak_rss_mib"), "host");
        assert_eq!(clock("sampling.khop_ns_per_seed"), "host");
        assert_eq!(clock("cache.fill_s"), "host");
        assert_eq!(clock("model_wait_us"), "model");
        assert_eq!(clock("model_seeds_per_s"), "model");
        assert_eq!(clock("host_seeds_per_s"), "host");
        assert_eq!(clock("cache.feature_hit_rate"), "model");
        assert_eq!(clock("serve.p95_us"), "model");
    }
}
