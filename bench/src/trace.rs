//! Spans recorded by the harness around each call into a layer's public
//! function. Kept in memory; written out once at exit.
//!
//! A span's name is `layer.operation`; the layer is the text before the
//! first dot and names the crate the call goes into (`sampling` for
//! `legion-sampling`, and so on). A layer's self time is its spans'
//! durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::harness::{host_reading, map_reading, Opts, MIN_TRACED_PASSES, QUICK_PASSES};
use crate::metrics::Reading;
use crate::refk::{Bracket, Sample};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced pass (or set-up repetition) the span belongs to.
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Starts the next pass; spans opened from now on carry its id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span that has no child spans.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self nanoseconds of pass `pass`, summed per span name.
pub fn self_ns_by_name(spans: &[Span], pass: u32) -> BTreeMap<&'static str, u64> {
    let own = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if s.pass == pass {
            *out.entry(s.name).or_insert(0) += ns;
        }
    }
    out
}

/// The trace file: every span with the factor that turns its pass's
/// raw nanoseconds into reference-speed time.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], factors: &BTreeMap<u32, f64>) -> Value {
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("layer".into(), Value::Str(s.layer().into())),
                ("pass".into(), Value::U64(u64::from(s.pass))),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("self_ns".into(), Value::U64(self_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
            ])
        })
        .collect();
    let factors = factors
        .iter()
        .map(|(pass, f)| (pass.to_string(), Value::F64(*f)))
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(seed)),
        (
            "ref_nominal_s".into(),
            Value::F64(crate::refk::REF_NOMINAL_S),
        ),
        ("norm_factor_by_pass".into(), Value::Object(factors)),
        ("spans".into(), Value::Array(rows)),
    ])
}

/// The spans of a traced run, the factor that normalises each pass, and
/// the passes of the group being summarised (set-up repetitions, then
/// traced passes).
pub struct TraceBook {
    workload: &'static str,
    seed: u64,
    pub tracer: Tracer,
    factors: BTreeMap<u32, f64>,
    group: Vec<u32>,
}

impl TraceBook {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            tracer: Tracer::new(),
            factors: BTreeMap::new(),
            group: Vec::new(),
        }
    }

    /// Records that `pass` ran inside the bracketed section `sample`.
    pub fn close_pass(&mut self, pass: u32, sample: &Sample) {
        self.factors.insert(pass, sample.factor());
        self.group.push(pass);
    }

    /// Ends the current group; later statistics cover later passes only.
    pub fn end_group(&mut self) {
        self.group.clear();
    }

    /// Self seconds per pass of the spans named `name`: the median over
    /// the group's passes, normalised by each pass's bracket. A span
    /// that never ran reads 0.
    pub fn span_seconds(&self, name: &str) -> Reading {
        let samples: Vec<Sample> = self
            .group
            .iter()
            .map(|&pass| {
                let ns = self_ns_by_name(self.tracer.spans(), pass)
                    .get(name)
                    .copied()
                    .unwrap_or(0);
                let raw_s = ns as f64 / 1e9;
                Sample {
                    raw_s,
                    norm_s: raw_s * self.factors[&pass],
                }
            })
            .collect();
        host_reading(&samples)
    }

    /// [`Self::span_seconds`] as nanoseconds per item.
    pub fn span_ns_per(&self, name: &str, items: f64) -> Reading {
        map_reading(&self.span_seconds(name), |s| s * 1e9 / items.max(1.0))
    }

    /// Writes the trace file.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = to_json(self.workload, self.seed, self.tracer.spans(), &self.factors);
        let text = serde_json::to_string(&json).expect("trace serializes");
        std::fs::write(path, text + "\n")
    }
}

/// What the alternating passes of a traced run left behind.
pub struct Pairs<P, T> {
    /// Un-traced passes: the program's own call, bracketed.
    pub plain: Vec<Sample>,
    /// Traced passes.
    pub traced: Vec<Sample>,
    pub last_plain: P,
    pub last_traced: T,
}

impl<P, T> Pairs<P, T> {
    pub fn passes(&self) -> u64 {
        (self.plain.len() + self.traced.len()) as u64
    }
}

/// Alternates an un-traced pass with a traced one for half of
/// `opts.seconds` (at least `MIN_TRACED_PASSES` pairs), after one warm
/// pass. Tracing is measured against passes that ran beside it, under
/// the same neighbour.
pub fn traced_pairs<P, T>(
    bracket: &mut Bracket,
    opts: &Opts,
    book: &mut TraceBook,
    mut plain: impl FnMut() -> P,
    mut traced: impl FnMut(&mut Tracer) -> T,
) -> Pairs<P, T> {
    plain();
    let started = Instant::now();
    let (mut plain_samples, mut traced_samples) = (Vec::new(), Vec::new());
    loop {
        let (last_plain, sample) = bracket.section(&mut plain);
        plain_samples.push(sample);
        let pass = book.tracer.next_pass();
        let (last_traced, sample) = bracket.section(|| traced(&mut book.tracer));
        book.close_pass(pass, &sample);
        traced_samples.push(sample);
        let pairs = plain_samples.len();
        let done = if opts.quick {
            pairs >= QUICK_PASSES
        } else {
            pairs >= MIN_TRACED_PASSES && started.elapsed().as_secs_f64() >= opts.seconds / 2.0
        };
        if done {
            return Pairs {
                plain: plain_samples,
                traced: traced_samples,
                last_plain,
                last_traced,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, pass: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // core.pass [0,100) holds sampling.khop [10,40) and cache.fill
        // [50,90); cache.fill holds hw.alloc [60,70).
        let spans = vec![
            span("core.pass", 0, 100, None, 1),
            span("sampling.khop", 10, 40, Some(0), 1),
            span("cache.fill", 50, 90, Some(0), 1),
            span("hw.alloc", 60, 70, Some(2), 1),
            span("sampling.khop", 0, 5, None, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10, 5]);
        let by = self_ns_by_name(&spans, 1);
        assert_eq!(by["core.pass"], 30);
        assert_eq!(by["sampling.khop"], 30);
        assert_eq!(by["cache.fill"], 30);
        assert_eq!(by["hw.alloc"], 10);
        assert_eq!(self_ns_by_name(&spans, 2)["sampling.khop"], 5);
        // Self times of a pass add up to its root span.
        assert_eq!(by.values().sum::<u64>(), 100);
        assert_eq!(spans[2].layer(), "cache");
    }

    #[test]
    fn tracer_nests_and_tags_passes() {
        let mut t = Tracer::new();
        assert_eq!(t.next_pass(), 1);
        let root = t.enter("core.pass");
        let v = t.leaf("gnn.flops", || 3);
        t.exit(root);
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].pass, s[1].pass), (1, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
