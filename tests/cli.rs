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
fn non_positive_or_non_finite_period_exits_2() {
    let want = "(want a finite number of ps above 0)";
    for clock in ["nan", "inf", "0", "-5"] {
        assert_usage_error(
            &["schedule", "x.ir", "--clock", clock],
            &format!("bad --clock `{clock}` {want}"),
        );
    }
    for (flag, value) in [("--from", "nan"), ("--from", "-1"), ("--to", "inf"), ("--to", "0")] {
        assert_usage_error(
            &["sweep", "--bench", "rrot", flag, value],
            &format!("bad {flag} `{value}`"),
        );
        assert_usage_error(
            &["report", "--bench", "rrot", flag, value],
            &format!("bad {flag} `{value}`"),
        );
    }
    for tol in ["0", "nan", "-inf"] {
        assert_usage_error(
            &["sweep", "--bench", "rrot", "--min-period", "--tol", tol],
            &format!("bad --tol `{tol}` {want}"),
        );
    }
}

#[test]
fn well_formed_sweep_runs() {
    let out = cli(&["sweep", "--bench", "rrot", "--points", "1", "--iterations", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("rrot: "), "{stdout}");
    assert!(stdout.contains("|      yes |"), "the one point must be feasible: {stdout}");
}

#[test]
fn sub_picosecond_min_period_search_finds_no_period() {
    // Both grids end below 1 ps, the search's usual lower end.
    for range in [&["--from", "0.4", "--points", "2"][..], &["--from", "0.9", "--to", "0.95"]] {
        let mut args = vec!["sweep", "--bench", "rrot", "--iterations", "1", "--min-period"];
        args.extend(range);
        let out = cli(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("no feasible period at or below"), "{args:?}: {stdout}");
    }
}

#[test]
fn batch_spec_with_non_positive_periods_exits_2() {
    let spec = std::env::temp_dir()
        .join(format!("isdc-cli-nonpositive-periods-{}.json", std::process::id()));
    std::fs::write(&spec, r#"{"jobs":[{"design":"rrot","periods":[-2500,0]}]}"#).unwrap();
    let path = spec.to_str().expect("utf-8 temp path");
    assert_usage_error(
        &["batch", "--jobs", path, "--threads", "1", "--iterations", "1"],
        "job `rrot`: bad periods `-2500` (want a finite number of ps above 0)",
    );
    let _ = std::fs::remove_file(&spec);
}
