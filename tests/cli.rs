//! Command-line parsing of `isdc-cli`: every malformed command line exits 2
//! with a message naming the problem, and a well-formed one runs.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_isdc-cli")).args(args).output().expect("isdc-cli runs")
}

/// Asserts a usage failure: exit code 2 and `message` on standard error.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: want `{message}` in: {stderr}");
}

#[test]
fn missing_flag_value_exits_2() {
    assert_usage_error(&["sweep", "--bench", "rrot", "--deadline"], "--deadline needs a value");
    // A following flag is not a value either.
    assert_usage_error(
        &["sweep", "--bench", "rrot", "--deadline", "--points", "1"],
        "--deadline needs a value",
    );
}

#[test]
fn unknown_flag_exits_2() {
    assert_usage_error(&["sweep", "--bench", "rrot", "--deadlin", "5"], "unknown flag `--deadlin`");
    // A flag of another subcommand is unknown here too.
    assert_usage_error(&["bench", "--threads", "2"], "unknown flag `--threads`");
}

#[test]
fn repeated_flag_exits_2() {
    assert_usage_error(
        &["sweep", "--bench", "rrot", "--points", "1", "--points", "2"],
        "--points given twice",
    );
}

#[test]
fn stray_argument_exits_2() {
    assert_usage_error(&["schedule", "a.ir", "b.ir"], "unexpected argument `b.ir`");
    assert_usage_error(&["sweep", "a.ir", "--bench", "rrot"], "not both");
}

#[test]
fn unparsable_value_exits_2() {
    assert_usage_error(&["sweep", "--bench", "rrot", "--points", "many"], "bad --points `many`");
}

#[test]
fn well_formed_sweep_runs() {
    let out = cli(&["sweep", "--bench", "rrot", "--points", "1", "--iterations", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("rrot: "), "{stdout}");
    assert!(stdout.contains("|      yes |"), "the one point must be feasible: {stdout}");
}
