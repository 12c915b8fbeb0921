//! `isdc-cli` — command-line driver for the ISDC scheduler.
//!
//! ```text
//! isdc-cli show      <design.ir>                    graph statistics
//! isdc-cli schedule  <design.ir> [options]          schedule (baseline or ISDC)
//! isdc-cli sweep     <design.ir> [options]          clock-period sweep via IsdcSession
//! isdc-cli batch     [options]                      parallel multi-design batch (isdc-batch)
//! isdc-cli report    <design.ir> [sweep opts]       sweep + structured run report (text/JSON)
//! isdc-cli report    --baseline <old.json> <new.json>   rank metric deltas by wall-clock impact
//! isdc-cli aiger     <design.ir> [-o out.aag]       lower to gates, export AIGER
//! isdc-cli bench     [--emit <name> [-o out.ir]]    list / export bundled benchmarks
//! isdc-cli trace check <trace.jsonl>                validate an exported JSONL trace
//!
//! schedule options:
//!   --clock <ps>          target clock period (default 2500)
//!   --feedback            run the full ISDC loop (default: baseline SDC only)
//!   --iterations <n>      max feedback iterations (default 15)
//!   --subgraphs <m>       subgraphs per iteration (default 16)
//!   --scoring dd|fd       delay- or fanout-driven extraction (default fd)
//!   --shape path|cone|window   expansion strategy (default window)
//!   --cache               memoize downstream evaluations by structural fingerprint
//!   --cache-file <file>   persist the cache snapshot across runs (implies --cache)
//!   --cold-solver         rebuild and cold-solve the LP every iteration
//!                         (default: incremental warm-started re-solves)
//!   --deadline <ms>       wall-clock budget; an exceeded run exits 4
//!   --cache-capacity <n>  bound the delay cache to n entries (LRU eviction)
//!   --dot <file>          write the staged pipeline as Graphviz DOT
//!
//! sweep options (in addition to --iterations/--subgraphs/--scoring/--shape):
//!   --bench <name>        sweep a bundled benchmark instead of a .ir file
//!   --from <ps>           lowest clock period (default: the design clock)
//!   --to <ps>             highest clock period (default: 2x --from)
//!   --points <n>          grid points, ascending (default 10)
//!   --min-period          also binary-search the minimum feasible period
//!   --tol <ps>            search resolution for --min-period (default 10)
//!   --cache-file <file>   load/save the session snapshot (delays + potentials)
//!   --deadline <ms>       wall-clock budget; a cut-short sweep still prints
//!                         and saves its completed prefix, then exits 4
//!   --cache-capacity <n>  bound the session delay cache to n entries
//!   --out <file>          write the sweep records as BENCH_sweep-style JSON
//!
//! batch options (in addition to --iterations/--subgraphs/--scoring/--shape):
//!   --jobs <spec.json>    job spec (see isdc-batch docs: sweep / min_period
//!                         jobs over bundled benchmark names)
//!   --all-designs         one ascending sweep job per bundled benchmark
//!   --points <n>          grid points for --all-designs (default 10)
//!   --threads <n>         worker threads (default: available parallelism)
//!   --shard-points <n>    max sweep points per shard (default: auto)
//!   --keep-going          don't abort the queue on a job failure; finish
//!                         every other job and report per-job status
//!   --max-retries <n>     retry transient shard failures up to n times
//!                         (deterministic backoff; default 0)
//!   --deadline <ms>       per-job wall-clock budget for every job (jobs in
//!                         the spec may also set "deadline_ms" individually)
//!   --fleet-deadline <ms> wall-clock budget for the whole batch
//!   --stall-timeout <ms>  cancel a worker whose heartbeat goes silent
//!   --cache-capacity <n>  bound the fleet cache to n entries (LRU eviction)
//!   --cache-file <file>   load/save the fleet-wide cache snapshot
//!   --out <file>          write the batch report as BENCH_batch-style JSON;
//!                         failed jobs also dump their workers' flight tails
//!                         to <out>.flight.jsonl
//!
//! report options: the sweep design/grid flags (--bench/--from/--to/--points,
//!   --iterations/--subgraphs/--scoring/--shape) plus --out <file> for the
//!   JSON artifact, or --baseline <old.json> <new.json> to diff two artifacts
//!
//! telemetry options (schedule / sweep / batch):
//!   --trace <file>        capture a hierarchical span trace and write it on exit
//!   --trace-format <fmt>  jsonl (default) or chrome (Perfetto / about:tracing)
//!   --profile             print a per-stage profile table after the run
//! ```
//!
//! Sweeps run every period through one persistent `IsdcSession`, so later
//! points reuse the earlier points' oracle evaluations and LP state.
//! Batches fan a job queue (design x period shard) out over a worker pool
//! whose sessions share one delay cache. Schedules are bit-identical to
//! independent runs in both cases; only the time changes.
//!
//! Chaos reproduction: set `ISDC_FAULT_PLAN=site:hit:kind` (kind `panic`,
//! `error`, `truncate`, or `stall`; sites in `isdc::faults::SITES`) to arm
//! one deterministic fault before the command runs — e.g.
//! `ISDC_FAULT_PLAN=batch/shard:0:panic isdc-cli batch --keep-going ...`.
//!
//! Every subcommand declares its flags: an unknown flag, a flag given twice,
//! a missing flag value or a stray argument is a usage error.
//!
//! Exit codes: 0 success; 2 usage, spec, or I/O errors; 3 one or more
//! batch jobs failed (the report still prints, and `--out`/`--cache-file`
//! artifacts are still written — see README § Robustness); 4 a deadline
//! cut the run short (`--deadline`/`--fleet-deadline`/`--stall-timeout` or
//! per-job `deadline_ms` — artifacts are still written and completed
//! results are bit-identical to an unbounded run's prefix). A corrupt
//! cache snapshot never fails a run: it is quarantined to `<file>.corrupt`
//! and the run cold-starts with a warning.

use isdc::core::metrics::post_synthesis_slack;
use isdc::core::{
    linear_grid, min_feasible_period, render_sweep_json, run_isdc, run_sdc, sweep_clock_period,
    IsdcConfig, IsdcSession, ScoringStrategy, ShapeStrategy,
};
use isdc::ir::{dot, text, transform, Graph};
use isdc::netlist::{aiger, lower_graph};
use isdc::synth::{OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use std::process::ExitCode;

/// Exit code for usage, spec, and I/O errors (every plain-`String`
/// failure in the command handlers).
const EXIT_SPEC: u8 = 2;
/// Exit code when batch jobs failed but the run itself completed.
const EXIT_JOBS_FAILED: u8 = 3;
/// Exit code when a deadline (`--deadline`, `--fleet-deadline`, per-job
/// `deadline_ms`, or the stall watchdog) cut the run short. Takes
/// precedence over [`EXIT_JOBS_FAILED`]: a timeout means the budget was
/// too small, not that the work was bad.
const EXIT_DEADLINE: u8 = 4;

/// A CLI failure: the message to print and the exit code to die with.
/// `From<String>` classifies plain errors as spec/IO ([`EXIT_SPEC`]), so
/// `?` keeps working in the handlers; job failures construct their code
/// explicitly.
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: EXIT_SPEC, message }
    }
}

/// Installs a fault plan from `ISDC_FAULT_PLAN=site:hit:kind` (kind one
/// of `panic`, `error`, `truncate`), so chaos runs are reproducible from
/// the command line — e.g. `ISDC_FAULT_PLAN=batch/shard:0:panic`.
fn install_fault_plan_from_env() -> Result<(), String> {
    let Ok(spec) = std::env::var("ISDC_FAULT_PLAN") else { return Ok(()) };
    let parts: Vec<&str> = spec.split(':').collect();
    let [site, hit, kind] = parts[..] else {
        return Err(format!("ISDC_FAULT_PLAN `{spec}`: want site:hit:kind"));
    };
    if !isdc::faults::SITES.contains(&site) {
        return Err(format!(
            "ISDC_FAULT_PLAN site `{site}`: known sites are {:?}",
            isdc::faults::SITES
        ));
    }
    let hit: u64 = hit.parse().map_err(|e| format!("ISDC_FAULT_PLAN hit `{hit}`: {e}"))?;
    let kind = match kind {
        "panic" => isdc::faults::FaultKind::Panic,
        "error" => isdc::faults::FaultKind::Error,
        "truncate" => isdc::faults::FaultKind::TruncateWrite,
        "stall" => isdc::faults::FaultKind::Stall,
        other => {
            return Err(format!("ISDC_FAULT_PLAN kind `{other}`: want panic|error|truncate|stall"))
        }
    };
    isdc::faults::install(isdc::faults::FaultPlan::new().with(site, hit, kind));
    eprintln!("fault injection armed: {site} hit {hit} -> {kind:?}");
    Ok(())
}

fn main() -> ExitCode {
    if let Err(message) = install_fault_plan_from_env() {
        eprintln!("error: {message}");
        return ExitCode::from(EXIT_SPEC);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("show") => cmd_show(&args[1..]).map_err(CliError::from),
        Some("schedule") => cmd_schedule(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("report") => cmd_report(&args[1..]).map_err(CliError::from),
        Some("aiger") => cmd_aiger(&args[1..]).map_err(CliError::from),
        Some("bench") => cmd_bench(&args[1..]).map_err(CliError::from),
        Some("trace") => cmd_trace(&args[1..]).map_err(CliError::from),
        Some("--help") | Some("-h") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {}", error.message);
            ExitCode::from(error.code)
        }
    }
}

const USAGE: &str = "usage: isdc-cli <show|schedule|sweep|batch|report|aiger|bench|trace> [args]  \
     (see --help in source header)";

fn load_graph(path: &str) -> Result<Graph, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text::parse(&src).map_err(|e| format!("parsing {path}: {e}"))
}

// Flag tables: each subcommand declares its flags as space-separated
// names, where a trailing `=` marks a flag that takes a value.
/// The extraction/iteration flags of every command that runs the loop.
const LOOP_FLAGS: &str = "--iterations= --subgraphs= --scoring= --shape=";
/// The telemetry flags of `schedule`, `sweep` and `batch`.
const TRACE_FLAGS: &str = "--trace= --trace-format= --profile";
/// The design, grid and output flags of the sweep-shaped commands.
const SWEEP_FLAGS: &str = "--bench= --from= --to= --points= --out=";

/// One subcommand's command line, checked against the flag tables the
/// subcommand declares and how many positional arguments it takes.
struct Args {
    positional: Vec<String>,
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `args` for `command`. An unknown flag, a flag given twice, a
    /// value flag followed by nothing or by another `--` flag, and a
    /// positional argument past `max_positional` are all errors.
    fn parse(
        command: &str,
        args: &[String],
        tables: &[&str],
        max_positional: usize,
    ) -> Result<Self, String> {
        let takes_value = |arg: &str| {
            tables.iter().flat_map(|t| t.split_whitespace()).find_map(|f| {
                match f.strip_suffix('=') {
                    Some(name) => (name == arg).then_some(true),
                    None => (f == arg).then_some(false),
                }
            })
        };
        let mut parsed = Args { positional: Vec::new(), flags: Vec::new() };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') {
                if parsed.positional.len() == max_positional {
                    return Err(format!("{command}: unexpected argument `{arg}`"));
                }
                parsed.positional.push(arg.clone());
                continue;
            }
            if parsed.has(arg) {
                return Err(format!("{command}: {arg} given twice"));
            }
            let value = match takes_value(arg) {
                None => return Err(format!("{command}: unknown flag `{arg}`")),
                Some(false) => None,
                Some(true) => match rest.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => return Err(format!("{command}: {arg} needs a value")),
                },
            };
            parsed.flags.push((arg.clone(), value));
        }
        Ok(parsed)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// A value flag parsed as `T`; a value that does not parse is an error.
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag).map(|v| v.parse().map_err(|_| format!("bad {flag} `{v}`"))).transpose()
    }

    /// A picosecond flag (`--clock`, `--from`, `--to`, `--tol`); a value
    /// that is not a finite number above zero is an error.
    fn picos(&self, flag: &str) -> Result<Option<f64>, String> {
        match self.parsed::<f64>(flag)? {
            Some(ps) if !(ps.is_finite() && ps > 0.0) => Err(format!(
                "bad {flag} `{}` (want a finite number of ps above 0)",
                self.value(flag).unwrap_or_default()
            )),
            ps => Ok(ps),
        }
    }

    /// A millisecond-duration flag (`--deadline`, `--fleet-deadline`,
    /// `--stall-timeout`).
    fn millis(&self, flag: &str) -> Result<Option<std::time::Duration>, String> {
        Ok(self.parsed(flag)?.map(std::time::Duration::from_millis))
    }

    /// `--cache-capacity <entries>` (0 = unbounded, the default).
    fn cache_capacity(&self) -> Result<usize, String> {
        Ok(self.parsed("--cache-capacity")?.unwrap_or(0))
    }
}

/// Classifies a scheduling failure for the exit code: a tripped deadline
/// is [`EXIT_DEADLINE`], everything else is a spec/run error.
fn schedule_error(e: isdc::core::ScheduleError) -> CliError {
    let code = match e {
        isdc::core::ScheduleError::DeadlineExceeded => EXIT_DEADLINE,
        _ => EXIT_SPEC,
    };
    CliError { code, message: e.to_string() }
}

/// On-disk trace encodings (`--trace-format`).
#[derive(Clone, Copy)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

/// The `--trace`/`--trace-format`/`--profile` knobs shared by `schedule`,
/// `sweep`, and `batch`. Parsing the options *enables* span collection
/// when `--trace` is present, so construct this before the run starts.
struct TelemetryOpts {
    trace: Option<(std::path::PathBuf, TraceFormat)>,
    profile: bool,
}

impl TelemetryOpts {
    fn parse(args: &Args) -> Result<Self, String> {
        let path = args.value("--trace").map(std::path::PathBuf::from);
        let format = match args.value("--trace-format") {
            None => TraceFormat::Jsonl,
            Some(_) if path.is_none() => {
                return Err("--trace-format requires --trace <file>".to_string());
            }
            Some("jsonl") => TraceFormat::Jsonl,
            Some("chrome") => TraceFormat::Chrome,
            Some(other) => return Err(format!("bad --trace-format `{other}` (jsonl|chrome)")),
        };
        let opts = Self { trace: path.map(|p| (p, format)), profile: args.has("--profile") };
        if opts.trace.is_some() {
            isdc::telemetry::set_thread_track("main");
            isdc::telemetry::set_enabled(true);
        }
        Ok(opts)
    }

    /// Stops collection, validates the captured trace (a malformed trace is
    /// an error, not a warning), and writes it in the selected format.
    fn finish(&self) -> Result<(), String> {
        let Some((path, format)) = &self.trace else { return Ok(()) };
        isdc::telemetry::set_enabled(false);
        let trace = isdc::telemetry::take_trace();
        let summary = trace.validate().map_err(|e| format!("malformed trace: {e}"))?;
        let rendered = match format {
            TraceFormat::Jsonl => isdc::telemetry::render_jsonl(&trace),
            TraceFormat::Chrome => isdc::telemetry::render_chrome_trace(&trace),
        };
        std::fs::write(path, rendered).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace: {} events ({} spans, {} tracks, {:.1}ms) -> {}",
            summary.events,
            summary.spans,
            summary.tracks,
            summary.duration_ns as f64 / 1e6,
            path.display()
        );
        Ok(())
    }
}

/// The `--profile` table, shared with `isdc-cli report`: per-stage wall
/// clock, drain, LP-sparsification, cache, and quantile lines, all
/// rendered by [`isdc::telemetry::RunReport`].
fn print_profile(frames: &[&isdc::telemetry::MetricsFrame]) {
    let report = isdc::telemetry::RunReport::from_frames(frames.iter().copied());
    print!("{}", report.render_text());
}

/// `trace check <file.jsonl>` — parse an exported JSONL trace and run the
/// well-formedness validator over it.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let args = Args::parse("trace", args, &[], 2)?;
    match args.positional.first().map(String::as_str) {
        Some("check") => {
            let path = args.positional.get(1).ok_or("trace check requires a .jsonl trace file")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let (events, tracks) = isdc::telemetry::parse_jsonl(&text)?;
            let summary = isdc::telemetry::validate_events(
                events.iter().map(|e| (e.track, e.kind, e.name.as_str(), e.t_ns)),
            )
            .map_err(|e| format!("{path}: malformed trace: {e}"))?;
            println!(
                "{path}: ok — {} events, {} spans, {} instants, {} tracks (max depth {}), {:.1}ms",
                summary.events,
                summary.spans,
                summary.instants,
                summary.tracks,
                summary.max_depth,
                summary.duration_ns as f64 / 1e6
            );
            for (i, name) in tracks.iter().enumerate() {
                println!("  track {i}: {name}");
            }
            Ok(())
        }
        _ => Err("usage: isdc-cli trace check <trace.jsonl>".to_string()),
    }
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    let args = Args::parse("show", args, &[], 1)?;
    let path = args.positional.first().ok_or("show requires a .ir file")?;
    let g = load_graph(path)?;
    g.validate().map_err(|e| e.to_string())?;
    println!("name:    {}", g.name());
    println!("nodes:   {}", g.len());
    println!("params:  {}", g.params().len());
    println!("outputs: {}", g.outputs().len());
    println!("bits:    {}", g.total_bits());
    let mut histogram: Vec<(&str, usize)> = g.op_histogram().into_iter().collect();
    histogram.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("ops:");
    for (op, n) in histogram {
        println!("  {op:<12} {n}");
    }
    let (optimized, stats) = transform::optimize(&g);
    if stats.removed() > 0 {
        println!(
            "note: transform::optimize would remove {} nodes ({} -> {})",
            stats.removed(),
            stats.nodes_before,
            optimized.len()
        );
    }
    Ok(())
}

/// The extraction/iteration knobs shared by `schedule` and `sweep`.
fn parse_loop_opts(args: &Args) -> Result<(usize, usize, ScoringStrategy, ShapeStrategy), String> {
    let iterations = args.parsed("--iterations")?.unwrap_or(15);
    let subgraphs = args.parsed("--subgraphs")?.unwrap_or(16);
    let scoring = match args.value("--scoring").unwrap_or("fd") {
        "dd" => ScoringStrategy::DelayDriven,
        "fd" => ScoringStrategy::FanoutDriven,
        other => return Err(format!("bad --scoring `{other}` (dd|fd)")),
    };
    let shape = match args.value("--shape").unwrap_or("window") {
        "path" => ShapeStrategy::Path,
        "cone" => ShapeStrategy::Cone,
        "window" => ShapeStrategy::Window,
        other => return Err(format!("bad --shape `{other}` (path|cone|window)")),
    };
    Ok((iterations, subgraphs, scoring, shape))
}

fn cmd_schedule(args: &[String]) -> Result<(), CliError> {
    let own = "--clock= --cache-file= --deadline= --cache-capacity= --dot= \
               --feedback --cache --cold-solver";
    let args = &Args::parse("schedule", args, &[LOOP_FLAGS, TRACE_FLAGS, own], 1)?;
    let path = args.positional.first().ok_or_else(|| "schedule requires a .ir file".to_string())?;
    let clock = args.picos("--clock")?.unwrap_or(2500.0);
    let g = load_graph(path)?;
    let feedback = args.has("--feedback");
    let (iterations, subgraphs, scoring, shape) = parse_loop_opts(args)?;
    let telemetry = TelemetryOpts::parse(args)?;
    // Arm the wall-clock budget before any scheduling work: every
    // checkpoint underneath (stage entry, iteration top, oracle loop,
    // solver drain) polls it; without the flag checks stay one disarmed
    // atomic load.
    let deadline_scope =
        args.millis("--deadline")?.map(|d| isdc::cancel::CancelToken::with_deadline(d).install());
    let session_span = isdc::telemetry::span_str("session", "design", path);

    let cache_file = args.value("--cache-file").map(std::path::PathBuf::from);
    let cache = args.has("--cache") || cache_file.is_some();
    let cache_capacity = args.cache_capacity()?;
    if cache && !feedback {
        eprintln!("note: --cache/--cache-file only apply with --feedback; ignoring");
    }
    let incremental = !args.has("--cold-solver");

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let (schedule, label) = if feedback {
        let config = IsdcConfig {
            clock_period_ps: clock,
            subgraphs_per_iteration: subgraphs,
            max_iterations: iterations,
            scoring,
            shape,
            threads: 4,
            convergence_patience: 2,
            cache,
            cache_file,
            cache_capacity,
            incremental,
            iteration_metrics: true,
        };
        let result = run_isdc(&g, &model, &oracle, &config).map_err(schedule_error)?;
        if telemetry.profile {
            print_profile(&[&result.metrics]);
        }
        println!("iterations: {}", result.iterations());
        for rec in &result.history {
            // Drain counters ride on the verbose per-iteration display when
            // the incremental engine produced any (the cold path's one-shot
            // solver is consumed before its counters can be read).
            let drain = if rec.drain.paths > 0 {
                format!(", {} dijkstras/{} paths", rec.drain.dijkstras, rec.drain.paths)
            } else {
                String::new()
            };
            let solver = format!(
                "{:?} ({}{drain})",
                rec.solver_time,
                if rec.solver_warm { "warm" } else { "cold" }
            );
            if cache {
                println!(
                    "  iter {:2}: {:6} register bits, {:3} stages, est.err {:5.1}%, \
                     solve {solver}, cache {:3}/{:3} hits ({:4.0}%)",
                    rec.iteration,
                    rec.register_bits,
                    rec.num_stages,
                    rec.estimation_error_pct,
                    rec.cache_hits,
                    rec.cache_hits + rec.cache_misses,
                    rec.cache_hit_rate() * 100.0
                );
            } else {
                println!(
                    "  iter {:2}: {:6} register bits, {:3} stages, est.err {:5.1}%, \
                     solve {solver}",
                    rec.iteration, rec.register_bits, rec.num_stages, rec.estimation_error_pct
                );
            }
        }
        if let Some(stats) = result.cache_stats {
            println!(
                "cache: {} hits / {} lookups ({:.0}% hit rate), {} entries inserted",
                stats.hits,
                stats.hits + stats.misses,
                stats.hit_rate() * 100.0,
                stats.inserts
            );
        }
        (result.schedule, "isdc")
    } else {
        if telemetry.profile {
            eprintln!("note: --profile reports the ISDC pipeline; pass --feedback to profile");
        }
        let (schedule, _) = run_sdc(&g, &model, clock).map_err(schedule_error)?;
        (schedule, "sdc")
    };
    drop(session_span);
    drop(deadline_scope);
    telemetry.finish()?;

    println!("scheduler:     {label}");
    println!("clock:         {clock}ps");
    println!("stages:        {}", schedule.num_stages());
    println!("register bits: {}", schedule.register_bits(&g));
    println!("slack:         {:.0}ps", post_synthesis_slack(&g, &schedule, &oracle, clock));
    if let Some(dot_path) = args.value("--dot") {
        let rendered = dot::to_dot_with_stages(&g, schedule.cycles());
        std::fs::write(dot_path, rendered).map_err(|e| format!("writing {dot_path}: {e}"))?;
        println!("dot:           {dot_path}");
    }
    Ok(())
}

/// Resolves the design a sweep-shaped command (`sweep`, `report`) runs
/// over: a `.ir` file, or a bundled benchmark via `--bench`.
fn load_sweep_design(args: &Args, command: &str) -> Result<(Graph, f64, String), String> {
    match args.value("--bench") {
        Some(_) if !args.positional.is_empty() => {
            Err(format!("{command} takes a .ir file or --bench <name>, not both"))
        }
        Some(bench_name) => {
            let suite = isdc::benchsuite::suite();
            let b = suite
                .into_iter()
                .find(|b| b.name == bench_name)
                .ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
            Ok((b.graph, b.clock_period_ps, b.name.to_string()))
        }
        None => {
            let path = args
                .positional
                .first()
                .ok_or(format!("{command} requires a .ir file or --bench <name>"))?;
            let g = load_graph(path)?;
            Ok((g, 2500.0, path.clone()))
        }
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let own = "--tol= --cache-file= --deadline= --cache-capacity= --min-period";
    let args = &Args::parse("sweep", args, &[SWEEP_FLAGS, LOOP_FLAGS, TRACE_FLAGS, own], 1)?;
    let (g, default_clock, name) = load_sweep_design(args, "sweep")?;
    let from = args.picos("--from")?.unwrap_or(default_clock);
    let to = args.picos("--to")?.unwrap_or(from * 2.0);
    let points: usize = args.parsed("--points")?.unwrap_or(10);
    if points == 0 || to < from {
        return Err("sweep needs --points >= 1 and --to >= --from".to_string().into());
    }
    let (iterations, subgraphs, scoring, shape) = parse_loop_opts(args)?;
    let tol = args.picos("--tol")?.unwrap_or(10.0);
    let telemetry = TelemetryOpts::parse(args)?;
    // Armed before the session starts; a cut-short sweep keeps its
    // completed prefix (bit-identical to an unbounded run's first points),
    // saves artifacts, and exits with EXIT_DEADLINE.
    let deadline_scope =
        args.millis("--deadline")?.map(|d| isdc::cancel::CancelToken::with_deadline(d).install());
    let session_span = isdc::telemetry::span_str("session", "design", &name);

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let base = IsdcConfig {
        subgraphs_per_iteration: subgraphs,
        max_iterations: iterations,
        scoring,
        shape,
        ..IsdcConfig::paper_defaults(from)
    };
    let cache = std::sync::Arc::new(isdc::cache::DelayCache::with_capacity(args.cache_capacity()?));
    let mut session = IsdcSession::with_cache(&g, &model, &oracle, cache);
    let snapshot = args.value("--cache-file").map(std::path::PathBuf::from);
    if let Some(path) = &snapshot {
        report_snapshot_load(session.load_snapshot_resilient(path), path);
    }

    let periods = linear_grid(from, to, points);
    let sweep = sweep_clock_period(&mut session, &base, &periods).map_err(schedule_error)?;
    let mut timed_out = sweep.len() < periods.len();
    if telemetry.profile {
        let frames: Vec<&isdc::telemetry::MetricsFrame> =
            sweep.iter().map(|p| &p.metrics).collect();
        print_profile(&frames);
    }
    println!("{name}: {} nodes, {} points, {from}ps..{to}ps", g.len(), points);
    println!("clock_ps | feasible | reg bits | stages | iters | warm | hit rate | elapsed");
    for p in &sweep {
        println!(
            "{:>8.0} | {:>8} | {:>8} | {:>6} | {:>5} | {:>4} | {:>7.1}% | {:.1?}",
            p.clock_period_ps,
            if p.feasible { "yes" } else { "no" },
            p.register_bits,
            p.num_stages,
            p.iterations,
            if p.warm_start { "yes" } else { "no" },
            p.cache_hit_rate() * 100.0,
            p.elapsed,
        );
    }

    if args.has("--min-period") && !timed_out {
        // The search starts at 1 ps, or at `to` itself when that is lower.
        match min_feasible_period(&mut session, &base, to.min(1.0), to, tol) {
            Ok(search) => match search.min_period_ps {
                Some(p) => println!(
                    "minimum feasible period: {p:.0}ps (+-{tol}ps, {} probes)",
                    search.probes.len()
                ),
                None => println!("no feasible period at or below {to}ps"),
            },
            Err(isdc::core::ScheduleError::DeadlineExceeded) => timed_out = true,
            Err(e) => return Err(e.to_string().into()),
        }
    }
    drop(session_span);
    drop(deadline_scope);
    telemetry.finish()?;

    // Artifacts are written even when the deadline cut the sweep short:
    // the session and cache are still consistent (clean-cut cancellation),
    // and the snapshot only carries completed work.
    if let Some(path) = &snapshot {
        session.save_snapshot(path).map_err(|e| e.to_string())?;
        println!("saved session snapshot (delays + potentials) to {}", path.display());
    }
    if let Some(out) = args.value("--out") {
        let json = render_sweep_json(&name, g.len(), "cli", &sweep, &[]);
        std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    if timed_out {
        return Err(CliError {
            code: EXIT_DEADLINE,
            message: format!(
                "deadline exceeded: {}/{} sweep points completed (completed prefix printed \
                 and saved)",
                sweep.len(),
                periods.len()
            ),
        });
    }
    Ok(())
}

/// A JSON value flattened for attribution: objects and arrays become
/// `path/to/key -> number` entries; non-numeric leaves are dropped. An
/// object's `"name"` string is surfaced to the enclosing array so rows
/// like the report's `stages` entries keep a stable path
/// (`stages/solve/ns`) even when their order changes between runs.
#[derive(Default)]
struct FlatValue {
    number: Option<f64>,
    name: Option<String>,
    entries: Vec<(String, f64)>,
}

fn flatten_value(p: &mut isdc::cache::json::Parser) -> Result<FlatValue, String> {
    let mut flat = FlatValue::default();
    match p.peek() {
        Some(b'{') => {
            p.expect(b'{')?;
            if p.peek_close(b'}') {
                return Ok(flat);
            }
            loop {
                let key = p.string()?;
                p.expect(b':')?;
                if key == "name" && p.peek() == Some(b'"') {
                    flat.name = Some(p.string()?);
                } else {
                    let child = flatten_value(p)?;
                    if let Some(v) = child.number {
                        flat.entries.push((key.clone(), v));
                    }
                    for (sub, v) in child.entries {
                        flat.entries.push((format!("{key}/{sub}"), v));
                    }
                }
                if !p.comma_or_close(b'}')? {
                    break;
                }
            }
        }
        Some(b'[') => {
            p.expect(b'[')?;
            if p.peek_close(b']') {
                return Ok(flat);
            }
            let mut index = 0usize;
            loop {
                let child = flatten_value(p)?;
                let segment = child.name.unwrap_or_else(|| index.to_string());
                if let Some(v) = child.number {
                    flat.entries.push((segment.clone(), v));
                }
                for (sub, v) in child.entries {
                    flat.entries.push((format!("{segment}/{sub}"), v));
                }
                index += 1;
                if !p.comma_or_close(b']')? {
                    break;
                }
            }
        }
        Some(b'"') => {
            p.string()?;
        }
        Some(b't') | Some(b'f') => {
            p.boolean()?;
        }
        Some(b'n') => p.null()?,
        Some(_) => flat.number = Some(p.number()?),
        None => return Err("unexpected end of input".to_string()),
    }
    Ok(flat)
}

/// Reads a report / BENCH JSON artifact into the flat `key -> number`
/// map [`isdc::telemetry::attribute`] diffs.
fn flatten_json_file(path: &str) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut parser = isdc::cache::json::Parser::new(&text);
    let flat = flatten_value(&mut parser).map_err(|e| format!("{path}: {e}"))?;
    if flat.entries.is_empty() {
        return Err(format!("{path}: no numeric metrics found"));
    }
    // `isdc report` artifacts carry the full metric set under "counters";
    // everything else in them ("stages", "quantiles", "total_ns") is a
    // derived view that would only duplicate attribution rows.
    if flat.entries.iter().any(|(k, _)| k.starts_with("counters/")) {
        return Ok(flat
            .entries
            .into_iter()
            .filter_map(|(k, v)| k.strip_prefix("counters/").map(|k| (k.to_string(), v)))
            .collect());
    }
    Ok(flat.entries.into_iter().collect())
}

/// `report --baseline <old.json> <new.json>` diffs two report/BENCH
/// artifacts and ranks the deltas by contribution to the wall-clock
/// delta. `report (<design.ir>|--bench <name>) [sweep opts] [--out f]`
/// runs a sweep and emits the structured run report (text; JSON with
/// `--out`).
fn cmd_report(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--baseline") {
        let args = Args::parse("report --baseline", args, &["--baseline"], 2)?;
        let [old_path, new_path] = &args.positional[..] else {
            return Err("usage: isdc-cli report --baseline <old.json> <new.json>".to_string());
        };
        let old = flatten_json_file(old_path)?;
        let new = flatten_json_file(new_path)?;
        let (total, rows) = isdc::telemetry::attribute(&old, &new);
        println!("baseline: {old_path}");
        println!("current:  {new_path}");
        print!("{}", isdc::telemetry::render_attribution(total, &rows, 20));
        return Ok(());
    }

    let args = &Args::parse("report", args, &[SWEEP_FLAGS, LOOP_FLAGS], 1)?;
    let (g, default_clock, name) = load_sweep_design(args, "report")?;
    let from = args.picos("--from")?.unwrap_or(default_clock);
    let to = args.picos("--to")?.unwrap_or(from * 2.0);
    let points: usize = args.parsed("--points")?.unwrap_or(10);
    if points == 0 || to < from {
        return Err("report needs --points >= 1 and --to >= --from".to_string());
    }
    let (iterations, subgraphs, scoring, shape) = parse_loop_opts(args)?;

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let base = IsdcConfig {
        subgraphs_per_iteration: subgraphs,
        max_iterations: iterations,
        scoring,
        shape,
        ..IsdcConfig::paper_defaults(from)
    };
    let mut session = IsdcSession::new(&g, &model, &oracle);
    let periods = linear_grid(from, to, points);
    let sweep = sweep_clock_period(&mut session, &base, &periods).map_err(|e| e.to_string())?;

    let report = isdc::telemetry::RunReport::from_frames(sweep.iter().map(|p| &p.metrics));
    println!("{name}: {} nodes, {} points, {from}ps..{to}ps", g.len(), points);
    print!("{}", report.render_text());
    if let Some(out) = args.value("--out") {
        std::fs::write(out, report.render_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Prints the outcome of a resilient snapshot load. Corruption is a
/// warning plus a quarantine pointer, never a failure — the run proceeds
/// cold and rewrites the snapshot on save.
fn report_snapshot_load(load: isdc::cache::SnapshotLoad, path: &std::path::Path) {
    use isdc::cache::SnapshotLoad;
    match load {
        SnapshotLoad::Loaded { entries } => {
            println!("loaded {entries} cached delays from {}", path.display());
        }
        SnapshotLoad::Missing => {}
        SnapshotLoad::ColdStart { reason, quarantined } => {
            eprintln!("warning: ignoring snapshot {}: {reason}", path.display());
            if let Some(q) = quarantined {
                eprintln!("warning: quarantined the damaged snapshot to {}", q.display());
            }
            eprintln!("warning: starting with a cold cache");
        }
    }
}

fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    use isdc::batch::{
        parse_jobs, render_batch_json, run_batch, BatchBenchDoc, BatchDesign, BatchOptions,
        FailPolicy, Job, JobKind, JobStatus, ScalingRow,
    };
    use isdc::cache::DelayCache;
    use std::sync::Arc;

    let own = "--jobs= --points= --threads= --shard-points= --max-retries= --deadline= \
               --fleet-deadline= --stall-timeout= --cache-capacity= --cache-file= --out= \
               --all-designs --keep-going";
    let args = &Args::parse("batch", args, &[LOOP_FLAGS, TRACE_FLAGS, own], 0)?;
    let (iterations, subgraphs, scoring, shape) = parse_loop_opts(args)?;
    let suite = isdc::benchsuite::suite();
    let designs: Vec<BatchDesign> = suite
        .iter()
        .map(|b| BatchDesign {
            name: b.name.to_string(),
            graph: b.graph.clone(),
            base: IsdcConfig {
                subgraphs_per_iteration: subgraphs,
                max_iterations: iterations,
                scoring,
                shape,
                threads: 1,
                ..IsdcConfig::paper_defaults(b.clock_period_ps)
            },
        })
        .collect();

    let jobs: Vec<Job> = match args.value("--jobs") {
        Some(path) => {
            let spec = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            parse_jobs(&spec)?
        }
        None if args.has("--all-designs") => {
            let points: usize = args.parsed("--points")?.unwrap_or(10);
            if points == 0 {
                return Err("batch needs --points >= 1".to_string().into());
            }
            suite
                .iter()
                .map(|b| {
                    Job::sweep(
                        b.name,
                        linear_grid(b.clock_period_ps, b.clock_period_ps * 2.0, points),
                    )
                })
                .collect()
        }
        None => {
            return Err("batch requires --jobs <spec.json> or --all-designs".to_string().into())
        }
    };
    if jobs.is_empty() {
        return Err("the job spec contains no jobs".to_string().into());
    }

    let threads: usize = args.parsed("--threads")?.unwrap_or(0);
    let shard_points: usize = args.parsed("--shard-points")?.unwrap_or(0);
    let fail_policy =
        if args.has("--keep-going") { FailPolicy::KeepGoing } else { FailPolicy::Abort };
    let max_retries: u32 = args.parsed("--max-retries")?.unwrap_or(0);
    let fleet_deadline = args.millis("--fleet-deadline")?;
    let stall_timeout = args.millis("--stall-timeout")?;
    // `--deadline` is the per-job budget applied to every job; jobs whose
    // spec carries its own `deadline_ms` keep the tighter of the two.
    let job_deadline_ms = args.millis("--deadline")?.map(|d| d.as_millis() as u64);
    let jobs: Vec<Job> = match job_deadline_ms {
        Some(ms) => jobs
            .into_iter()
            .map(|j| {
                let ms = j.deadline_ms.map_or(ms, |own| own.min(ms));
                j.with_deadline_ms(ms)
            })
            .collect(),
        None => jobs,
    };
    let telemetry = TelemetryOpts::parse(args)?;
    let session_span = isdc::telemetry::span_u64("session", "jobs", jobs.len() as u64);

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let cache = Arc::new(DelayCache::with_capacity(args.cache_capacity()?));
    let snapshot = args.value("--cache-file").map(std::path::PathBuf::from);
    if let Some(path) = &snapshot {
        use isdc::synth::DelayOracle as _;
        report_snapshot_load(cache.load_resilient(path, oracle.name()), path);
    }

    let options = BatchOptions {
        threads,
        shard_points,
        fail_policy,
        max_retries,
        fleet_deadline,
        stall_timeout,
    };
    let report =
        run_batch(&designs, &jobs, &options, &model, &oracle, &cache).map_err(|e| e.to_string())?;
    drop(session_span);
    telemetry.finish()?;
    if telemetry.profile {
        let frames: Vec<&isdc::telemetry::MetricsFrame> =
            report.jobs.iter().flat_map(|j| j.points.iter().map(|p| &p.metrics)).collect();
        print_profile(&frames);
    }
    println!(
        "{} jobs over {} shards on {} threads in {:.2?} ({} runs, fleet hit rate {:.1}%)",
        report.jobs.len(),
        report.shards,
        report.threads,
        report.elapsed,
        report.total_points(),
        report.cache_hit_rate() * 100.0,
    );
    println!(
        "design                       |     type |  status | shards | points | hit rate | elapsed"
    );
    for job in &report.jobs {
        let kind = match &job.job.kind {
            JobKind::Sweep { .. } => "sweep",
            JobKind::MinPeriod { .. } => "min_prd",
        };
        let status = match &job.status {
            JobStatus::Ok => "ok",
            JobStatus::Failed(_) => "FAILED",
            JobStatus::TimedOut { .. } => "TIMEOUT",
            JobStatus::Skipped => "skipped",
        };
        println!(
            "{:<28} | {:>8} | {:>7} | {:>6} | {:>6} | {:>7.1}% | {:.1?}",
            job.job.design,
            kind,
            status,
            job.shards,
            job.points.len(),
            job.cache_hit_rate() * 100.0,
            job.elapsed,
        );
        if let Some(min) = job.min_period_ps {
            println!("{:<28} |   -> minimum feasible period {min:.0}ps", "");
        }
        if let JobStatus::Failed(error) = &job.status {
            println!("{:<28} |   -> {error}", "");
            // The failing worker's flight tail: the last few
            // events before death, recorded even with tracing off.
            let skip = error.flight.len().saturating_sub(6);
            for event in error.flight.iter().skip(skip) {
                println!("{:<28} |      flight: {event}", "");
            }
        }
        if let JobStatus::TimedOut { elapsed_ms, points_completed, flight } = &job.status {
            println!(
                "{:<28} |   -> deadline exceeded after {elapsed_ms}ms \
                 ({points_completed} point(s) completed, withheld)",
                ""
            );
            let skip = flight.len().saturating_sub(6);
            for event in flight.iter().skip(skip) {
                println!("{:<28} |      flight: {event}", "");
            }
        }
    }

    if let Some(path) = &snapshot {
        use isdc::synth::DelayOracle as _;
        cache.save(path, oracle.name()).map_err(|e| e.to_string())?;
        println!("saved fleet cache snapshot to {}", path.display());
    }
    if let Some(out) = args.value("--out") {
        let doc = BatchBenchDoc {
            mode: "cli",
            designs: designs.len(),
            report: &report,
            hardware_threads: std::thread::available_parallelism().map_or(1, usize::from),
            repeats: 1,
            serial_total: None,
            cold_total: None,
            scaling: &[ScalingRow { threads: report.threads, total: report.elapsed }],
            bit_identical: false,
        };
        std::fs::write(out, render_batch_json(&doc)).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
        // Post-mortem artifact: every failed or timed-out job's flight
        // tail, one JSONL header line per job followed by its worker's
        // event lines.
        let mut dump = String::new();
        let mut tails = 0usize;
        for (ji, job) in report.jobs.iter().enumerate() {
            let (header, flight) = match &job.status {
                JobStatus::Failed(error) => (
                    format!(
                        "{{\"kind\":\"job\",\"job\":{},\"shard\":{},\"design\":\"{}\",\
                         \"error\":\"{}\"}}\n",
                        error.job,
                        error.shard,
                        isdc::telemetry::escape_json(&error.design),
                        isdc::telemetry::escape_json(&error.message),
                    ),
                    &error.flight,
                ),
                JobStatus::TimedOut { elapsed_ms, points_completed, flight } => (
                    format!(
                        "{{\"kind\":\"job\",\"job\":{ji},\"design\":\"{}\",\
                         \"timed_out_after_ms\":{elapsed_ms},\
                         \"points_completed\":{points_completed}}}\n",
                        isdc::telemetry::escape_json(&job.job.design),
                    ),
                    flight,
                ),
                JobStatus::Ok | JobStatus::Skipped => continue,
            };
            tails += 1;
            dump.push_str(&header);
            for event in flight {
                event.render_jsonl_line(&mut dump);
                dump.push('\n');
            }
        }
        if tails > 0 {
            let flight_path = format!("{out}.flight.jsonl");
            std::fs::write(&flight_path, dump)
                .map_err(|e| format!("writing {flight_path}: {e}"))?;
            println!("wrote {flight_path} ({tails} failed/timed-out job tail(s))");
        }
    }
    // Artifacts above are written even on failure — a partial keep-going
    // report is still useful — but the exit code says what happened. A
    // deadline cut takes precedence: exit 4 means "the budget ran out",
    // which callers handle differently from "the work was bad" (exit 3).
    let timed_out = report.jobs_timed_out();
    if timed_out > 0 {
        let completed = report.jobs.iter().filter(|j| j.status.is_ok()).count();
        return Err(CliError {
            code: EXIT_DEADLINE,
            message: format!(
                "{timed_out} job(s) timed out, {completed} completed (status table above; \
                 artifacts written)"
            ),
        });
    }
    if !report.all_ok() {
        let failed = report.jobs_failed();
        let skipped = report.jobs.iter().filter(|j| matches!(j.status, JobStatus::Skipped)).count();
        let first =
            report.first_error().map(|e| format!(": first failure: {e}")).unwrap_or_default();
        return Err(CliError {
            code: EXIT_JOBS_FAILED,
            message: format!(
                "{failed} job(s) failed, {skipped} skipped, {} completed{first}",
                report.jobs.len() - failed - skipped
            ),
        });
    }
    Ok(())
}

fn cmd_aiger(args: &[String]) -> Result<(), String> {
    let args = Args::parse("aiger", args, &["-o="], 1)?;
    let path = args.positional.first().ok_or("aiger requires a .ir file")?;
    let g = load_graph(path)?;
    let lowered = lower_graph(&g);
    let aag = aiger::write_aag(&lowered.aig);
    match args.value("-o") {
        Some(out) => {
            std::fs::write(out, aag).map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "wrote {out}: {} inputs, {} ANDs, depth {}",
                lowered.aig.num_inputs(),
                lowered.aig.num_ands(),
                lowered.aig.depth()
            );
        }
        None => print!("{aag}"),
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let args = Args::parse("bench", args, &["--emit= -o="], 0)?;
    let suite = isdc::benchsuite::suite();
    match args.value("--emit") {
        Some(name) => {
            let b = suite
                .iter()
                .find(|b| b.name == name)
                .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            let rendered = text::print(&b.graph);
            match args.value("-o") {
                Some(out) => {
                    std::fs::write(out, rendered).map_err(|e| format!("writing {out}: {e}"))?;
                    println!("wrote {out}");
                }
                None => print!("{rendered}"),
            }
        }
        None => {
            println!("{:<28} {:>6} {:>8}", "benchmark", "nodes", "clock");
            for b in &suite {
                println!("{:<28} {:>6} {:>7.0}ps", b.name, b.graph.len(), b.clock_period_ps);
            }
        }
    }
    Ok(())
}
