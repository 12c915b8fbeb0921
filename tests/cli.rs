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
    // There is no cold-solver mode: every solve goes through one engine.
    assert_usage_error(&["schedule", "x.ir", "--cold-solver"], "unknown flag `--cold-solver`");
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
fn min_period_search_with_a_tiny_tol_ends() {
    // A tolerance finer than the spacing of doubles near the answer ends the
    // search once the interval stops shrinking.
    let out = cli(&[
        "sweep",
        "--bench",
        "rrot",
        "--points",
        "1",
        "--iterations",
        "1",
        "--min-period",
        "--tol",
        "1e-20",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("minimum feasible period: "), "{stdout}");
}

#[test]
fn grid_size_outside_the_cap_exits_2() {
    // No size outside 1..=10000 reaches the grid allocation: usize::MAX
    // would overflow it, and one past the cap is the smallest size refused.
    let want = "(want 1 to 10000)";
    for points in ["18446744073709551615", "10001", "0"] {
        for command in [
            &["sweep", "--bench", "rrot"][..],
            &["report", "--bench", "rrot"],
            &["batch", "--all-designs"],
        ] {
            let mut args = command.to_vec();
            args.extend(["--points", points, "--iterations", "1"]);
            assert_usage_error(&args, &format!("bad --points `{points}` {want}"));
        }
    }
    let spec =
        std::env::temp_dir().join(format!("isdc-cli-oversized-grid-{}.json", std::process::id()));
    std::fs::write(&spec, r#"{"jobs":[{"design":"rrot","from":2500,"points":1e300}]}"#).unwrap();
    let path = spec.to_str().expect("utf-8 temp path");
    assert_usage_error(
        &["batch", "--jobs", path, "--threads", "1", "--iterations", "1"],
        "job `rrot`: bad points `1e300` (want an integer from 1 to 10000)",
    );
    let _ = std::fs::remove_file(&spec);
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

#[test]
fn batch_spec_with_a_fractional_or_oversized_deadline_exits_2() {
    // `--deadline` takes whole milliseconds that fit in a u64, and so
    // does a spec's `deadline_ms`: 0.5 is not a 0 ms budget, nor 1e300 an
    // unbounded one.
    let spec =
        std::env::temp_dir().join(format!("isdc-cli-bad-deadline-{}.json", std::process::id()));
    let path = spec.to_str().expect("utf-8 temp path");
    for ms in ["0.5", "2.5", "1e300"] {
        std::fs::write(
            &spec,
            format!(
                r#"{{"jobs":[{{"design":"rrot","from":2500,"points":1,"deadline_ms":{ms}}}]}}"#
            ),
        )
        .unwrap();
        assert_usage_error(
            &["batch", "--jobs", path, "--threads", "1", "--iterations", "1"],
            &format!("job `rrot`: bad deadline_ms `{ms}`"),
        );
    }
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn cache_file_rerun_is_served_from_the_snapshot() {
    let dir = std::env::temp_dir();
    let ir = dir.join(format!("isdc-cli-cache-summary-{}.ir", std::process::id()));
    let snapshot = dir.join(format!("isdc-cli-cache-summary-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let (ir_path, snapshot_path) = (ir.to_str().unwrap(), snapshot.to_str().unwrap());
    let out = cli(&["bench", "--emit", "rrot", "-o", ir_path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let run = || {
        let out = cli(&[
            "schedule",
            ir_path,
            "--feedback",
            "--iterations",
            "3",
            "--cache-file",
            snapshot_path,
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (first, second) = (run(), run());
    let _ = std::fs::remove_file(&ir);
    let _ = std::fs::remove_file(&snapshot);

    // `cache: H hits / L lookups (R% hit rate), N entries inserted`
    let summary = |stdout: &str| -> String {
        stdout.lines().find(|l| l.starts_with("cache: ")).expect("a cache summary line").into()
    };
    let lookups = |line: &str| -> String {
        line.split_once(" / ").and_then(|(_, rest)| rest.split_once(" lookups")).unwrap().0.into()
    };
    let (cold, warm) = (summary(&first), summary(&second));
    assert!(!cold.ends_with(" 0 entries inserted"), "the first run fills the snapshot: {cold}");
    assert!(warm.ends_with("(100% hit rate), 0 entries inserted"), "{warm}");
    assert_eq!(lookups(&cold), lookups(&warm), "{cold} vs {warm}");
    // The schedule itself does not depend on where its delays came from.
    let schedule = |stdout: &str| -> String { stdout.split_once("scheduler:").unwrap().1.into() };
    assert_eq!(schedule(&first), schedule(&second));
}

/// Writes `contents` to a per-process temp file named after `tag`.
fn temp_file(tag: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("isdc-cli-{tag}-{}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn batch_spec_with_trailing_content_or_a_malformed_unknown_value_exits_2() {
    // A spec is one document, and an unknown key it skips must still hold
    // well-formed JSON.
    for (tag, spec, message) in [
        (
            "spec-trailing.json",
            r#"{"jobs":[{"design":"rrot","from":2500,"points":1}]} trailing"#,
            "trailing content at byte 52",
        ),
        (
            "spec-note-array.json",
            r#"{"jobs":[{"design":"rrot","from":2500,"points":1,"note":[1,}]}]}"#,
            "bad number at byte 59",
        ),
        (
            "spec-note-object.json",
            r#"{"jobs":[{"design":"rrot","from":2500,"points":1,"note":{"a":[}}]}"#,
            "bad number at byte 62",
        ),
    ] {
        let spec = temp_file(tag, spec);
        let path = spec.to_str().expect("utf-8 temp path");
        // The error names the spec file, as `report --baseline` does.
        assert_usage_error(
            &["batch", "--jobs", path, "--threads", "1", "--iterations", "1"],
            &format!("{path}: {message}"),
        );
        let _ = std::fs::remove_file(&spec);
    }
}

#[test]
fn batch_spec_strings_take_every_json_escape() {
    // Python's `json.dumps` writes non-BMP characters as surrogate pairs.
    let spec = temp_file(
        "spec-escapes.json",
        r#"{"jobs":[{"design":"rrot","from":2500,"points":1,"note":"\ud83d\ude00\f\b"}]}"#,
    );
    let out =
        cli(&["batch", "--jobs", spec.to_str().unwrap(), "--threads", "1", "--iterations", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn trace_check_reads_the_flight_dump_of_a_chaos_batch() {
    // The fault fires at the top of crc32's fourth iteration, after the
    // 64-event ring has dropped the Begins of the spans it sits in.
    let spec =
        temp_file("chaos-spec.json", r#"{"jobs":[{"design":"crc32","from":2500,"points":1}]}"#);
    let report = std::env::temp_dir().join(format!("isdc-cli-chaos-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_isdc-cli"))
        .args(["batch", "--jobs", spec.to_str().unwrap(), "--threads", "1"])
        .args(["--iterations", "6", "--keep-going", "--out", report.to_str().unwrap()])
        .env("ISDC_FAULT_PLAN", "pipeline/iteration:3:panic")
        .output()
        .expect("isdc-cli runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let dump = format!("{}.flight.jsonl", report.display());
    let text = std::fs::read_to_string(&dump).expect("a flight dump");
    let tails = isdc::telemetry::parse_flight_dump(&text).expect("the dump parses");
    assert_eq!(tails.len(), 1);
    let edges = tails[0].events.iter().map(|e| (e.track, e.kind, e.name.as_str(), e.t_ns));
    assert!(isdc::telemetry::validate_events(edges).is_err(), "the tail starts inside spans");

    let out = cli(&["trace", "check", &dump]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stdout.lines().count(), 1, "one line per job: {stdout}");
    assert!(stdout.starts_with(&format!("{dump}: job 0 (crc32): ok — 64 events")), "{stdout}");
    for file in [spec, report, dump.into()] {
        let _ = std::fs::remove_file(file);
    }
}

/// A hand-written `isdc report` document: `stages` rows in the given
/// order, and the counters they are a view of.
fn report_doc(stages: &[(&str, u64)]) -> String {
    let rows: Vec<String> = stages
        .iter()
        .map(|(name, ns)| format!(r#"{{"name": "{name}", "ns": {ns}, "calls": 1}}"#))
        .collect();
    let counters: Vec<String> =
        stages.iter().map(|(name, ns)| format!(r#""stage/{name}/ns": {ns}"#)).collect();
    let total: u64 = stages.iter().map(|(_, ns)| ns).sum();
    format!(
        r#"{{"kind": "isdc_report", "total_ns": {total}, "stages": [{}],
            "counters": {{"run/total_ns": {total}, {}}}, "quantiles": []}}"#,
        rows.join(", "),
        counters.join(", ")
    )
}

#[test]
fn report_baseline_diffs_the_counters_of_two_reports() {
    let old = temp_file("baseline-old.json", &report_doc(&[("solve", 2000), ("extract", 1000)]));
    let new = temp_file("baseline-new.json", &report_doc(&[("extract", 1000), ("solve", 5000)]));
    let out = cli(&["report", "--baseline", old.to_str().unwrap(), new.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("attribution: total wall-clock delta +3.0 us"), "{stdout}");
    assert!(stdout.lines().any(|l| l.trim_start().starts_with("stage/solve/ns")), "{stdout}");
    assert!(!stdout.contains("stages/") && !stdout.contains("counters/"), "{stdout}");
    let _ = std::fs::remove_file(&old);
    let _ = std::fs::remove_file(&new);
}

#[test]
fn report_baseline_with_trailing_content_exits_2() {
    // Two concatenated documents are not one artifact: the second must not
    // be silently ignored.
    let old = temp_file("trailing-old.json", r#"{"total_ns": 10}"#);
    let new = temp_file("trailing-new.json", r#"{"total_ns": 10}{"total_ns": 20}"#);
    let new_path = new.to_str().unwrap();
    assert_usage_error(
        &["report", "--baseline", old.to_str().unwrap(), new_path],
        &format!("{new_path}: trailing content at byte 16"),
    );
    let _ = std::fs::remove_file(&old);
    let _ = std::fs::remove_file(&new);
}

#[test]
fn trace_check_rejects_track_ids_beyond_u32() {
    // Track ids are the `u32` of a trace event: a larger one is an error
    // naming its line, not a panic or a silent truncation to track 0.
    let event = |kind: &str, seq: u64, track: u64| {
        format!(r#"{{"kind":"{kind}","seq":{seq},"track":{track},"name":"run","t_ns":{seq}}}"#)
    };
    for (tag, trace, message) in [
        (
            "trace-track-line.jsonl",
            r#"{"kind":"track","track":18446744073709551615,"name":"x"}"#.to_string(),
            "line 1: track id 18446744073709551615 does not fit a u32",
        ),
        (
            "trace-event-track.jsonl",
            format!(
                "{{\"kind\":\"track\",\"track\":0,\"name\":\"main\"}}\n{}\n{}\n",
                event("B", 0, 1 << 32),
                event("E", 1, 0)
            ),
            "line 2: track id 4294967296 does not fit a u32",
        ),
    ] {
        let file = temp_file(tag, &trace);
        assert_usage_error(&["trace", "check", file.to_str().unwrap()], message);
        let _ = std::fs::remove_file(&file);
    }
}
