//! perfbench — the repository benchmark for the isdc scheduler.
//!
//! ```text
//! perfbench --workload <table1|sweep|batch|scale> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run builds the workload's inputs from the seed (several times, to
//! time set-up), runs one reference pass whose outputs are checked and
//! scored, then issues untraced passes back to back for `--seconds`
//! seconds. With `--trace 1` every untraced pass is followed by a traced
//! one, with the timing wrappers installed, and the run reports per-layer
//! numbers instead of end-to-end ones. Every metric is printed with its unit; the last line
//! of standard output is one JSON object. Any correctness failure makes
//! the exit code 1; bad arguments make it 2. See `README.md` for the
//! workloads and what each metric is expected to move.

mod layers;
mod stats;
mod workloads;

use stats::{median, peak_rss_mb, process_cpu_s, tail};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Kind;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 7;
/// Set-up repetitions before the first pass, and after every timed pass;
/// `setup_s` is the median of all of them. A set-up takes 0.5–8 ms, short
/// enough for one burst of load from other tenants of the host to shift a
/// whole window of samples, so the samples are spread across the run.
const SETUP_REPS: usize = 11;
const SETUP_REPS_PER_PASS: usize = 5;
/// A tail sample must have at least this many passes beyond it.
const TAIL_BEYOND: usize = 10;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("reg_bits_ratio", "ratio"),
    ("success_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 42] = [
    ("synth.calls", "count"),
    ("synth.busy_s", "s"),
    ("synth.and_nodes", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.entries", "count"),
    ("cache.self_s", "s"),
    ("run_sdc.busy_s", "s"),
    ("extract.busy_s", "s"),
    ("extract.subgraphs", "count"),
    ("dedupe.busy_s", "s"),
    ("dedupe.dropped", "count"),
    ("evaluate.busy_s", "s"),
    ("feedback.busy_s", "s"),
    ("feedback.dirty_pairs", "count"),
    ("reformulate.busy_s", "s"),
    ("reformulate.dirty_pairs", "count"),
    ("solve.busy_s", "s"),
    ("solve.calls", "count"),
    ("solve.warm_frac", "frac"),
    ("oracle_metrics.busy_s", "s"),
    ("iterations", "count"),
    ("drain.dijkstras", "count"),
    ("drain.paths", "count"),
    ("drain.nodes_settled", "count"),
    ("lp.pairs_scanned", "count"),
    ("lp.constraints_emitted", "count"),
    ("session.run_s", "s"),
    ("session.warm_start_frac", "frac"),
    ("batch.makespan_s", "s"),
    ("batch.busy_s", "s"),
    ("batch.job_s_max", "s"),
    ("batch.utilization", "frac"),
    ("batch.bound_ratio", "ratio"),
    ("batch.shards", "count"),
    ("traced_wall_s", "s"),
    ("attributed_frac", "frac"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "frac"),
    ("timing_violations", "count"),
    ("error_rate", "frac"),
    ("passes", "count"),
];

const USAGE: &str =
    "usage: perfbench --workload <table1|sweep|batch|scale> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args { workload: Kind::Table1, seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A metric ready to print.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one run measured and found.
struct Outcome {
    attempted: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let kind = args.workload;
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let built = workloads::setup(kind, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        built
    };
    let mut inputs = timed_setup();
    for _ in 1..SETUP_REPS {
        inputs = timed_setup();
    }
    let mut notes = vec![format!(
        "workload {} seed {}: {} designs, {} nodes, {} jobs",
        kind.name(),
        args.seed,
        inputs.designs.len(),
        inputs.designs.iter().map(|d| d.graph.len()).sum::<usize>(),
        inputs.jobs.len()
    )];

    // The reference pass warms the process up, and its outputs are the
    // ones checked and scored; every later pass must reproduce them.
    let reference = workloads::pass(&inputs, true);
    let mut attempted = reference.attempted();
    let mut problems = reference.failures.clone();
    problems.extend(workloads::check_points(&inputs, &reference));

    let budget = Duration::from_secs_f64(args.seconds);
    let (mut walls, mut cpus, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < budget {
        let cpu = process_cpu_s();
        let t = Instant::now();
        let pass = workloads::pass(&inputs, false);
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(process_cpu_s() - cpu);
        attempted += pass.attempted();
        problems.extend(pass.failures.iter().cloned());
        problems.extend(workloads::compare(&reference, &pass, "pass-to-pass"));
        if args.trace {
            // Traced passes alternate with untraced ones, so the two sides
            // of the overhead ratio see the same host conditions.
            let (pass, wall, layers) = workloads::traced_pass(&inputs);
            attempted += pass.attempted();
            problems.extend(pass.failures.iter().cloned());
            problems.extend(workloads::compare(&reference, &pass, "traced vs untraced"));
            traced.push((wall, pass.workers, layers));
        }
        for _ in 0..SETUP_REPS_PER_PASS {
            drop(timed_setup());
        }
    }
    let rss = peak_rss_mb()?;

    problems.extend(workloads::check_serial_reference(&inputs, &reference));
    let quality = workloads::quality(&inputs, &reference)?;
    notes.extend(quality.violations.iter().map(|v| format!("timing violation: {v}")));

    let error_rate = problems.len() as f64 / attempted as f64;
    let metrics: Vec<Metric> = if args.trace {
        // Per-layer numbers come from the traced pass of median wall time.
        let traced_walls: Vec<f64> = traced.iter().map(|t| t.0).collect();
        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (traced_wall, workers, mut layers) = traced.swap_remove(traced.len() / 2);
        if matches!(kind, Kind::Sweep | Kind::Batch) {
            // These passes run no baseline; its time over the same points
            // comes from the quality phase.
            layers.set("run_sdc.busy_s", quality.run_sdc_s);
        }
        let attributed: f64 =
            workloads::attributed_layers(kind).iter().map(|name| layers.get(name)).sum();
        // Batch layers are summed over workers, so they partition worker
        // time rather than wall time.
        let denominator =
            if kind == Kind::Batch { workers as f64 * traced_wall } else { traced_wall };
        layers.set("traced_wall_s", traced_wall);
        layers.set("unattributed_s", denominator - attributed);
        layers.set("attributed_frac", attributed / denominator);
        layers.set("trace_overhead_frac", median(&traced_walls) / median(&walls) - 1.0);
        layers.set("timing_violations", quality.timing_violations as f64);
        layers.set("error_rate", error_rate);
        layers.set("passes", walls.len() as f64);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric { name, value: layers.get(name), unit })
            .collect()
    } else {
        // Below 2 * TAIL_BEYOND + 2 passes the tail is the median: at 20 s
        // a run takes that many passes on `table1` only.
        let tail = tail(&walls, TAIL_BEYOND);
        notes.push(format!(
            "wall_tail_s is p{:.1} of {} passes; timing_violations {} of {} points; error_rate {error_rate}",
            tail.percentile, tail.samples, quality.timing_violations, quality.points,
        ));
        let values = [
            median(&setup_s),
            median(&walls),
            tail.value,
            median(&cpus),
            rss,
            quality.reg_bits_ratio,
            1.0 - error_rate,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(Outcome { attempted, problems, metrics, notes })
}

fn render_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.problems.len()
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# FAILED: {problem}");
    }
    for m in &outcome.metrics {
        println!("{:<26} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", render_json(&outcome));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&["--workload", "sweep", "--seed", "3", "--seconds", "2", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Kind::Sweep, 3, 2.0, true));
        assert_eq!(parse(&["--workload", "scale"]).unwrap().seed, DEFAULT_SEED);
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "table1", "--trace", "2"],
            &["--workload", "table1", "--seconds"],
            &["--workload", "table1", "--seconds", "0"],
            &["--workload", "table1", "--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let outcome = Outcome {
            attempted: 3,
            problems: vec!["x".into()],
            metrics: vec![Metric { name: "wall_s", value: 1.25, unit: "s" }],
            notes: Vec::new(),
        };
        assert_eq!(
            render_json(&outcome),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(doc.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
        for kind in Kind::ALL {
            assert!(doc.contains(&format!("{{\"name\": \"{}\", \"why\"", kind.name())));
        }
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
