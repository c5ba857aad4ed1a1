//! The measurement protocol shared by the four workloads: repeated
//! bracketed set-ups, identical bracketed passes, peak RSS.

use std::time::Instant;

use crate::metrics::{Outcome, Reading};
use crate::refk::{Bracket, Sample};
use crate::stats::{quartiles, Quartiles};

/// Set-up repetitions of a measured run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Set-up repetitions of a traced run (each one is traced).
pub const TRACED_SETUP_REPS: usize = 3;
/// Passes run and thrown away before measuring.
pub const WARM_PASSES: usize = 2;
/// Fewest traced passes, however short `--seconds` is.
pub const MIN_TRACED_PASSES: usize = 5;
/// Passes (and set-ups) of a `--quick` smoke run.
pub const QUICK_PASSES: usize = 5;
/// Repetitions of each layer probe; its metric is their median.
pub const PROBE_REPS: usize = 5;

/// Seed of the synthetic datasets. PA/500 and PR/50 are fixed stand-ins
/// for the paper's graphs, the same on every run, as a dataset file would
/// be; `--seed` drives every random choice made on top of them (batch
/// shuffles, neighbour sampling, partitioner tie-breaks, arrivals,
/// targets, classes, warm-up profiles, mutations). Re-drawing the graph
/// per seed moves the model clock by +-12 % (partition balance), which
/// would force bounds too wide to catch anything.
pub const DATASET_SEED: u64 = 42;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Smoke mode: a handful of passes, numbers not comparable.
    pub quick: bool,
    /// Run the measured phase (end-to-end metrics).
    pub measured: bool,
    /// Run the traced phase (per-layer metrics).
    pub traced: bool,
}

impl Opts {
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            3
        } else {
            SETUP_REPS
        }
    }
}

/// A host-clock statistic: the median of per-section normalised times,
/// with quartiles, count and the raw median.
pub fn host_reading(samples: &[Sample]) -> Reading {
    let norm: Vec<f64> = samples.iter().map(|s| s.norm_s).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.raw_s).collect();
    let q = quartiles(&norm);
    Reading {
        value: q.median,
        spread: Some(q),
        raw: Some(quartiles(&raw).median),
    }
}

/// `reading` (seconds per `per`) turned into a rate or a per-item time:
/// every field goes through `f`, quartiles swapped when `f` decreases.
pub fn map_reading(r: &Reading, f: impl Fn(f64) -> f64) -> Reading {
    let spread = r.spread.map(|q| {
        let (a, b) = (f(q.q1), f(q.q3));
        Quartiles {
            q1: a.min(b),
            median: f(q.median),
            q3: a.max(b),
            n: q.n,
        }
    });
    Reading {
        value: f(r.value),
        spread,
        raw: r.raw.map(&f),
    }
}

/// Repeats the set-up sequence, each repetition bracketed. Returns the
/// last successful result and the samples; an `Err` counts as a failed
/// operation.
pub fn measure_setups<T>(
    bracket: &mut Bracket,
    reps: usize,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
) -> (Option<T>, Vec<Sample>) {
    let mut last = None;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        // The previous repetition's result is freed first, so peak RSS
        // holds one set-up, as a run of the program would.
        drop(last.take());
        let (result, sample) = bracket.section(&mut setup);
        out.attempted += 1;
        match result {
            Ok(v) => {
                last = Some(v);
                samples.push(sample);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("set-up failed: {e}");
            }
        }
    }
    (last, samples)
}

/// A pass's telemetry as the text two passes are compared by.
pub fn snapshot_digest(snapshot: &legion_telemetry::Snapshot) -> String {
    serde_json::to_string(snapshot).expect("a snapshot serializes")
}

/// The measured passes of one run.
pub struct Passes<T> {
    /// The last pass's result (every pass is identical).
    pub last: T,
    pub samples: Vec<Sample>,
    /// Whether every pass's digest equalled the first one's.
    pub identical: bool,
}

/// Runs warm passes, then identical bracketed passes for
/// `opts.seconds` (brackets included), comparing each pass's digest —
/// its serialized telemetry — with the first.
pub fn measure_passes<T>(
    bracket: &mut Bracket,
    opts: &Opts,
    mut pass: impl FnMut() -> T,
    digest: impl Fn(&T) -> String,
) -> Passes<T> {
    for _ in 0..WARM_PASSES {
        pass();
    }
    let started = Instant::now();
    let (first, sample) = bracket.section(&mut pass);
    let reference = digest(&first);
    let mut last = first;
    let mut samples = vec![sample];
    let mut identical = true;
    loop {
        let done = if opts.quick {
            samples.len() >= QUICK_PASSES
        } else {
            started.elapsed().as_secs_f64() >= opts.seconds
        };
        if done {
            break;
        }
        let (result, sample) = bracket.section(&mut pass);
        identical &= digest(&result) == reference;
        last = result;
        samples.push(sample);
    }
    Passes {
        last,
        samples,
        identical,
    }
}

/// `VmHWM` of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Records what every measured phase shares: the end-to-end host metrics,
/// the operations offered and the pass-identity check.
pub fn record_measured<T>(
    out: &mut Outcome,
    setups: &[Sample],
    passes: &Passes<T>,
    seeds_per_pass: u64,
) {
    out.attempted += seeds_per_pass * passes.samples.len() as u64;
    out.check(
        "passes_identical",
        passes.identical,
        format!("{} passes", passes.samples.len()),
    );
    let passes = &passes.samples[..];
    if !setups.is_empty() {
        out.set("setup_s", host_reading(setups));
    }
    let series = |f: fn(&Sample) -> f64, samples: &[Sample]| samples.iter().map(f).collect();
    out.series
        .insert("setup_raw_s", series(|s| s.raw_s, setups));
    out.series
        .insert("setup_norm_s", series(|s| s.norm_s, setups));
    out.series.insert("pass_raw_s", series(|s| s.raw_s, passes));
    out.series
        .insert("pass_norm_s", series(|s| s.norm_s, passes));
    let pass_s = host_reading(passes);
    let seeds = seeds_per_pass as f64;
    out.set("host_seeds_per_s", map_reading(&pass_s, |s| seeds / s));
    match peak_rss_mib() {
        Some(mib) => out.set_exact("host_peak_rss_mib", mib),
        None => out.check("host.vm_hwm_readable", false, "no VmHWM".into()),
    }
}

/// Records the harness's own health from a run's passes.
pub fn record_harness_health(
    out: &mut Outcome,
    bracket: &Bracket,
    passes: &[Sample],
    seeds_per_pass: u64,
) {
    let refs = quartiles(&bracket.ref_samples);
    out.set_exact("host.ref_ms_median", refs.median * 1e3);
    out.set_exact("host.ref_iqr_share", refs.iqr_share());
    let pass_s = host_reading(passes);
    let spread = pass_s.spread.map_or(0.0, |q| q.iqr_share());
    out.set_exact("host.pass_ratio_iqr_share", spread);
    let raw = pass_s.raw.unwrap_or(0.0);
    if raw > 0.0 {
        out.set_exact("host.raw_seeds_per_s", seeds_per_pass as f64 / raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn rate_reading_swaps_quartiles() {
        let s = |norm_s: f64| Sample {
            raw_s: 2.0 * norm_s,
            norm_s,
        };
        let r = host_reading(&[s(1.0), s(2.0), s(4.0)]);
        assert_eq!((r.value, r.raw), (2.0, Some(4.0)));
        let rate = map_reading(&r, |t| 8.0 / t);
        let q = rate.spread.unwrap();
        assert_eq!((rate.value, q.q1, q.q3, q.n), (4.0, 2.0, 8.0, 3));
        assert_eq!(rate.raw, Some(2.0));
    }
}
