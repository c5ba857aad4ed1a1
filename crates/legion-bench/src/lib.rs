//! Shared output helpers for the `figures`, `servectl` and `simctl`
//! binaries.
//!
//! Every table is printed from serialized rows by [`print_rows`] and,
//! when `LEGION_RESULTS_DIR` is set, the same rows are written as JSON
//! for post-processing.

use std::path::Path;

use serde::{Serialize, Value};

/// Reads a divisor from the environment with a default.
fn divisor_from_env(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&d| d > 0)
        .unwrap_or(default)
}

/// The scale divisor for a dataset short name: `LEGION_PR_DIVISOR`
/// (default 50) for Products, `LEGION_LARGE_DIVISOR` (4000) for the
/// billion-scale UKL/CL, and `LEGION_SMALL_DIVISOR` (500) for the rest.
/// PR is the smallest Table 2 graph, so it gets the gentlest divisor —
/// keeping the per-batch sampling footprint well below |V| preserves the
/// access skew that cache policies exploit.
pub fn dataset_divisor(name: &str) -> u64 {
    let (var, default) = match name.to_ascii_uppercase().as_str() {
        "PR" => ("LEGION_PR_DIVISOR", 50),
        "UKL" | "CL" => ("LEGION_LARGE_DIVISOR", 4000),
        _ => ("LEGION_SMALL_DIVISOR", 500),
    };
    divisor_from_env(var, default)
}

/// Writes `rows` as JSON under `$LEGION_RESULTS_DIR/<name>.json` when the
/// environment variable is set; silently skips otherwise.
pub fn save_json<T: Serialize>(name: &str, rows: &T) {
    let Ok(dir) = std::env::var("LEGION_RESULTS_DIR") else {
        return;
    };
    let path = Path::new(&dir).join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(rows).expect("serializable rows");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Writes a metric snapshot as `$LEGION_RESULTS_DIR/<name>.metrics.json`
/// when the environment variable is set; silently skips otherwise.
pub fn save_snapshot(name: &str, snapshot: &legion_telemetry::Snapshot) {
    save_json(&format!("{name}.metrics"), snapshot);
}

/// `x` to four significant digits (`0.0007480`, `12.35`), so a table of
/// millisecond epochs in seconds still tells its rows apart.
fn significant(x: f64) -> String {
    let decimals = if x == 0.0 {
        3
    } else {
        (3 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.decimals$}")
}

/// Prints `rows` as a table: a header of field names, then one line per
/// row with each serialized field as a cell, in field order. Text
/// columns align left, numbers right, a fraction to four significant
/// digits; an array cell is its items joined by `/`, and an absent value
/// prints as `-`.
pub fn print_rows<T: Serialize>(rows: &[T]) {
    fn cell(value: &Value) -> String {
        match value {
            Value::Str(s) => s.clone(),
            Value::F64(x) if x.abs() < 1e3 => significant(*x),
            Value::F64(x) => format!("{x:.0}"),
            Value::Array(items) => items.iter().map(cell).collect::<Vec<_>>().join("/"),
            Value::Null => "-".to_string(),
            other => serde_json::to_string(other).expect("scalar cell"),
        }
    }
    let table: Vec<Vec<(String, Value)>> = rows
        .iter()
        .map(|row| match row.serialize() {
            Value::Object(fields) => fields,
            other => panic!("a table row serializes to an object, not {other:?}"),
        })
        .collect();
    let Some(first) = table.first() else { return };
    let header: Vec<String> = first.iter().map(|(name, _)| name.clone()).collect();
    let left: Vec<bool> = first
        .iter()
        .map(|(_, v)| matches!(v, Value::Str(_)))
        .collect();
    let cells: Vec<Vec<String>> = table
        .iter()
        .map(|row| row.iter().map(|(_, v)| cell(v)).collect())
        .collect();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &cells {
        for (width, text) in widths.iter_mut().zip(row) {
            *width = (*width).max(text.len());
        }
    }
    for row in std::iter::once(&header).chain(&cells) {
        let padded: Vec<String> = row
            .iter()
            .zip(widths.iter().zip(&left))
            .map(|(text, (&w, &left))| {
                if left {
                    format!("{text:<w$}")
                } else {
                    format!("{text:>w$}")
                }
            })
            .collect();
        println!("  {}", padded.join("  "));
    }
}

/// Prints a banner line for a figure.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_keep_four_significant_digits() {
        let cells: Vec<String> = [0.000748, 0.00084, 0.5, 12.345, 999.9, 0.0, -0.0261]
            .into_iter()
            .map(significant)
            .collect();
        let expected = [
            "0.0007480",
            "0.0008400",
            "0.5000",
            "12.35",
            "999.9",
            "0.000",
            "-0.02610",
        ];
        assert_eq!(cells, expected);
    }

    #[test]
    fn divisor_env_parsing() {
        assert_eq!(divisor_from_env("LEGION_NO_SUCH_VAR", 7), 7);
    }
}
