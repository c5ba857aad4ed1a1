//! `legion-perfbench compare A.json B.json [...]`: the arithmetic behind
//! `selfcheck.sh`. Arguments are result files in pairs — the same
//! workload from two sets of runs of the same build. For every metric it
//! prints both values and the relative difference beside the bound:
//! model-clock metrics must be bit-equal, host-clock end-to-end metrics
//! within their bound. From the same files it prints how far the raw and
//! the normalised host numbers each moved, so the value of the reference
//! kernel is on record.

use serde_json::Value;

use crate::metrics::{as_f64, clock, END_TO_END};

struct ResultFile {
    path: String,
    workload: String,
    comparable: bool,
    correct: bool,
    metrics: Vec<(String, Value)>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |name: &str| v.get(name).ok_or_else(|| format!("{path}: no `{name}`"));
    let workload = match field("workload")? {
        Value::Str(s) => s.clone(),
        _ => return Err(format!("{path}: `workload` is not a string")),
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or_else(|| format!("{path}: `metrics` is not an object"))?
        .to_vec();
    Ok(ResultFile {
        path: path.into(),
        workload,
        comparable: field("comparable")? == &Value::Bool(true),
        correct: field("correct")? == &Value::Bool(true),
        metrics,
    })
}

fn number(metric: &Value, key: &str) -> Option<f64> {
    metric.get(key).and_then(as_f64)
}

/// Relative difference of `b` against `a` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// Compares one workload's two result files; returns whether the pair
/// agrees within the benchmark's own bounds.
fn compare_pair(a: &ResultFile, b: &ResultFile) -> Result<bool, String> {
    if a.workload != b.workload {
        return Err(format!(
            "{} is {} but {} is {}",
            a.path, a.workload, b.path, b.workload
        ));
    }
    let w = &a.workload;
    let mut ok = true;
    for f in [a, b] {
        if !f.correct {
            println!("{w}: {} reports failed output checks", f.path);
            ok = false;
        }
    }
    let known_noise = !(a.comparable && b.comparable);
    if known_noise {
        println!(
            "{w}: a set ran with --quick or --hog; host-clock differences are reported, not judged"
        );
    }
    println!(
        "{:<22} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (name, ma) in &a.metrics {
        let Some(mb) = b.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v) else {
            return Err(format!("{}: no metric {name}", b.path));
        };
        let (va, vb) = (
            number(ma, "value").ok_or_else(|| format!("{}: {name} has no value", a.path))?,
            number(mb, "value").ok_or_else(|| format!("{}: {name} has no value", b.path))?,
        );
        let diff = rel_diff(va, vb);
        let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
        let host = clock(name) == "host";
        let (verdict, pass) = match (host, bound) {
            (false, _) if va.to_bits() == vb.to_bits() => ("equal", true),
            (false, _) => ("MODEL CLOCK MOVED", false),
            (true, Some(bound)) if diff <= bound => ("within bound", true),
            (true, Some(_)) => ("OUTSIDE BOUND", known_noise),
            (true, None) => ("host, no bound", true),
        };
        ok &= pass;
        println!(
            "{w:<22} {name:<34} {va:>16.6} {vb:>16.6} {:>8.2}% {:>7}  {verdict}",
            diff * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    // How far the two host-clock headline numbers moved with and without
    // the reference kernel.
    for name in ["host_seeds_per_s", "setup_s"] {
        let find = |f: &ResultFile| {
            f.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        let (Some(ma), Some(mb)) = (find(a), find(b)) else {
            continue;
        };
        let norm = (number(&ma, "value"), number(&mb, "value"));
        let raw = (number(&ma, "raw_value"), number(&mb, "raw_value"));
        if let ((Some(na), Some(nb)), (Some(ra), Some(rb))) = (norm, raw) {
            let (dn, dr) = (rel_diff(na, nb), rel_diff(ra, rb));
            println!(
                "{w}: {name} moved {:.2}% normalised, {:.2}% raw{}",
                dn * 100.0,
                dr * 100.0,
                if dn <= dr {
                    ""
                } else {
                    "  (normalised moved more)"
                }
            );
        }
    }
    Ok(ok)
}

/// Entry point of the `compare` subcommand.
pub fn run(paths: &[String]) -> Result<bool, String> {
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        return Err("compare takes result files in pairs: first-set second-set …".into());
    }
    let mut ok = true;
    for pair in paths.chunks(2) {
        ok &= compare_pair(&load(&pair[0])?, &load(&pair[1])?)?;
    }
    println!(
        "selfcheck: {}",
        if ok {
            "the two sets agree within the benchmark's bounds"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference() {
        assert_eq!(rel_diff(2.0, 2.0), 0.0);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(100.0, 90.0), 0.1);
    }
}
