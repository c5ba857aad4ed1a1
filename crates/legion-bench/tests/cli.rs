//! The command lines of `servectl`, `simctl` and `figures`: an argument
//! a binary does not know, a flag missing its value, or a flag that
//! could not take effect is an error — never a silently different run,
//! and never a panic.

use std::process::Command;

/// Runs `exe` with each of `rejected` and asserts it exits 2 with empty
/// stdout and one stderr line naming `usage`.
fn assert_rejected(exe: &str, usage: &str, rejected: &[&[&str]]) {
    for args in rejected {
        let out = Command::new(exe)
            .args(*args)
            .output()
            .expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        // The first stdout line precedes any work, so an empty stdout
        // means the run stopped at argument parsing.
        assert!(out.stdout.is_empty(), "{args:?} got past argument parsing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
    }
}

#[test]
fn servectl_rejects_unknown_and_valueless_arguments() {
    assert_rejected(
        env!("CARGO_BIN_EXE_servectl"),
        "usage: servectl",
        &[
            &["--shards", "2"],
            &["--sequential"],
            &["--bogus"],
            &["--fleet"],
            &["--fleet", "0"],
            &["--router", "--churn", "--bogus"],
            &["--smoke"],
            &["--drift-only"],
        ],
    );
}

#[test]
fn simctl_rejects_bad_and_unreadable_configs() {
    assert_rejected(
        env!("CARGO_BIN_EXE_simctl"),
        "usage: simctl [JSON | @FILE]",
        &[
            &["--smoke"],
            &["{\"divisor\": "],
            &["{\"bogus\": 1}"],
            &["@no/such/config.json"],
            &["{}", "{}"],
            &["{\"server\": \"tpu\"}"],
            &["{\"dataset\": \"XX\"}"],
        ],
    );
}

#[test]
fn figures_rejects_unknown_names() {
    assert_rejected(
        env!("CARGO_BIN_EXE_figures"),
        "usage: figures",
        &[&["fig05"], &["fig02", "all_figures"], &["--smoke"]],
    );
}
