//! `legion-perfbench`: the repo's two-clock benchmark.
//!
//! ```text
//! legion-perfbench run --workload NAME [--seed N] [--seconds S]
//!                      [--trace 0|1] [--out FILE] [--quick] [--hog]
//! legion-perfbench compare A.json B.json [...]   # see selfcheck.sh
//! legion-perfbench manifest                      # prints BENCHMARK.json
//! ```
//!
//! `run` drives one workload in this process on one thread, prints
//! `workload/metric value unit` for every metric it measured, and ends
//! with one JSON object on the last line of standard output. With
//! `--trace 0` that object holds the end-to-end metrics, with `--trace
//! 1` the per-layer metrics, and without `--trace` both phases run.

mod compare;
mod counts;
mod fleet;
mod harness;
mod metrics;
mod probes;
mod refk;
mod serve;
mod stats;
mod trace;
mod train_pa;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use serde_json::Value;

use harness::Opts;
use metrics::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Where result and trace files go unless `--out` says otherwise.
const OUT_DIR: &str = "bench/out";

struct RunArgs {
    workload: String,
    opts: Opts,
    out: Option<PathBuf>,
    hog: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace: Option<u8> = None;
    let mut out = None;
    let (mut quick, mut hog) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} takes a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = Some(value()?.parse().map_err(|e| format!("--trace: {e}"))?),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            "--hog" => hog = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("unknown workload {workload}; one of {names:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600]: {seconds}"));
    }
    let (measured, traced) = match trace {
        None => (true, true),
        Some(0) => (true, false),
        Some(1) => (false, true),
        Some(t) => return Err(format!("--trace is 0 or 1, not {t}")),
    };
    Ok(RunArgs {
        workload,
        opts: Opts {
            seed,
            seconds,
            quick,
            measured,
            traced,
        },
        out,
        hog,
    })
}

/// A known neighbour for `selfcheck.sh --hog`: a second thread that
/// gathers from its own table on the other core until told to stop.
fn with_hog<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    if !enabled {
        return f();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let hog = scope.spawn(|| {
            let kernel = refk::RefKernel::new();
            let mut runs = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(kernel.run());
                runs += 1;
            }
            runs
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let runs = hog.join().expect("the hog thread does not panic");
        eprintln!("hog: {runs} reference runs on the other core");
        out
    })
}

fn run(args: RunArgs) -> Result<bool, String> {
    let RunArgs {
        workload,
        opts,
        out,
        hog,
    } = args;
    let (outcome, book): (Outcome, _) = with_hog(hog, || {
        let mut bracket = refk::Bracket::new();
        match workload.as_str() {
            "train_pa" => train_pa::run(&mut bracket, &opts),
            "serve_steady" => serve::run(serve::Kind::Steady, &mut bracket, &opts),
            "serve_oversub_drift" => serve::run(serve::Kind::OversubDrift, &mut bracket, &opts),
            "fleet_churn" => fleet::run(&mut bracket, &opts),
            other => unreachable!("{other} passed the argument check"),
        }
    });

    let tables = [
        (opts.measured, &END_TO_END[..]),
        (opts.traced, &PER_LAYER[..]),
    ];
    for (_, table) in tables.iter().filter(|(ran, _)| *ran) {
        for m in table.iter() {
            println!("{workload}/{} {} {}", m.name, outcome.value(m.name), m.unit);
        }
    }
    for c in outcome.checks.iter().filter(|c| !c.ok) {
        println!("{workload}: check {} FAILED: {}", c.name, c.detail);
    }

    let out_path =
        out.unwrap_or_else(|| PathBuf::from(format!("{OUT_DIR}/{workload}.result.json")));
    let dir = out_path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    if let Some(book) = &book {
        let trace_path = dir
            .map(PathBuf::from)
            .unwrap_or_default()
            .join(format!("{workload}.trace.json"));
        book.write(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    }
    let header = vec![
        ("workload".to_string(), Value::Str(workload.clone())),
        ("seed".to_string(), Value::U64(opts.seed)),
        ("seconds".to_string(), Value::F64(opts.seconds)),
        ("comparable".to_string(), Value::Bool(!opts.quick && !hog)),
        ("hog".to_string(), Value::Bool(hog)),
    ];
    let file = outcome.result_file(header, opts.measured, opts.traced);
    let text = serde_json::to_string_pretty(&file).expect("result serializes");
    std::fs::write(&out_path, text + "\n").map_err(|e| format!("{}: {e}", out_path.display()))?;

    let line = outcome.result_line(opts.measured, opts.traced);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(run),
        Some("compare") => compare::run(&args[1..]),
        Some("manifest") => {
            let text = serde_json::to_string_pretty(&metrics::manifest()).expect("serializes");
            println!("{text}");
            Ok(true)
        }
        _ => Err("usage: legion-perfbench run|compare|manifest … (see bench/README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("legion-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
