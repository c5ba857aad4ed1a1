//! `servectl`'s command line: an argument it does not know, a flag
//! missing its value, or a flag that could not take effect is an error —
//! never a silently different run.

use std::process::Command;

#[test]
fn servectl_rejects_unknown_and_valueless_arguments() {
    let rejected: [&[&str]; 7] = [
        &["--shards", "2"],
        &["--sequential"],
        &["--bogus"],
        &["--fleet"],
        &["--fleet", "0"],
        &["--router", "--churn", "--bogus"],
        &["--drift-only", "--router"],
    ];
    for args in rejected {
        let out = Command::new(env!("CARGO_BIN_EXE_servectl"))
            .args(args)
            .output()
            .expect("servectl starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        // The banner precedes dataset generation, so an empty stdout
        // means the run stopped before doing any work.
        assert!(out.stdout.is_empty(), "{args:?} got past argument parsing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("usage: servectl"), "{args:?}: {stderr}");
    }
}
