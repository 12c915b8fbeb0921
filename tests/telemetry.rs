//! Telemetry acceptance: traces captured over real pipeline runs are
//! well-formed, batch workers land on distinct per-worker tracks, fleet
//! metric totals are bit-identical across thread counts, and enabling
//! span collection never perturbs the schedules themselves.

use isdc::batch::{run_batch, serial_reference, BatchDesign, BatchOptions, Job};
use isdc::cache::DelayCache;
use isdc::core::{run_isdc, sweep_clock_period, IsdcConfig, IsdcSession};
use isdc::synth::{OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use isdc::telemetry::{self, EventKind, MetricsFrame};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The span collector is process-global; tests that enable it must not
/// interleave with each other.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn smallest_graph() -> (isdc::ir::Graph, f64) {
    let mut suite = isdc::benchsuite::suite();
    suite.sort_by_key(|b| b.graph.len());
    let b = suite.into_iter().next().expect("non-empty suite");
    (b.graph, b.clock_period_ps)
}

fn tiny_config(clock: f64) -> IsdcConfig {
    let mut config = IsdcConfig::paper_defaults(clock);
    config.max_iterations = 3;
    config.subgraphs_per_iteration = 8;
    config.threads = 1;
    config
}

fn small_batch(max_designs: usize) -> (Vec<BatchDesign>, Vec<Job>) {
    let mut suite = isdc::benchsuite::suite();
    suite.sort_by_key(|b| b.graph.len());
    let designs: Vec<BatchDesign> = suite
        .into_iter()
        .take(max_designs)
        .map(|b| {
            let mut base = tiny_config(b.clock_period_ps);
            base.subgraphs_per_iteration = 4;
            BatchDesign { name: b.name.to_string(), graph: b.graph, base }
        })
        .collect();
    let jobs = designs
        .iter()
        .map(|d| {
            let c = d.base.clock_period_ps;
            Job::sweep(&d.name, vec![c, c * 2.0])
        })
        .collect();
    (designs, jobs)
}

#[test]
fn sweep_trace_is_well_formed_even_with_quality_metrics_skipped() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    telemetry::set_enabled(true);

    let (graph, clock) = smallest_graph();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut base = tiny_config(clock);
    // The satellite guarantee: iterations whose *quality metrics* are
    // skipped still get full span coverage.
    base.iteration_metrics = false;
    let mut session = IsdcSession::new(&graph, &model, &oracle);
    let sweep = sweep_clock_period(&mut session, &base, &[clock, clock * 2.0]).expect("sweep");

    telemetry::set_enabled(false);
    let trace = telemetry::take_trace();
    let summary = trace.validate().expect("well-formed trace");
    assert!(summary.spans > 0 && summary.events > 0);

    let begins = |name: &str| {
        trace.events.iter().filter(|e| e.kind == EventKind::Begin && e.name == name).count()
    };
    assert_eq!(begins("sweep"), 1);
    assert_eq!(begins("run"), 2, "one run span per sweep point");
    assert_eq!(begins("initial_solve"), 2);
    let iterations: usize = sweep.iter().map(|p| p.iterations).sum();
    assert!(
        begins("iteration") >= iterations,
        "every recorded iteration must have a span: {} < {iterations}",
        begins("iteration")
    );
    // No oracle_metrics span may exist: quality metrics were skipped.
    assert_eq!(begins("oracle_metrics"), 0);
    for stage in ["stage:extract", "stage:solve"] {
        assert!(begins(stage) > 0, "missing {stage} spans");
    }
}

/// Spans are the one timer: on a traced crc32 run, the span lengths on
/// the run's own track add up to its frame to the nanosecond.
#[test]
fn span_durations_sum_exactly_to_the_run_frame() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let crc32 = isdc::benchsuite::suite().into_iter().find(|b| b.name == "crc32").unwrap();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut config = IsdcConfig::paper_defaults(crc32.clock_period_ps);
    config.threads = 1;
    telemetry::reset();
    telemetry::set_enabled(true);
    let result = run_isdc(&crc32.graph, &model, &oracle, &config).expect("crc32 run");
    telemetry::set_enabled(false);
    let trace = telemetry::take_trace();
    trace.validate().expect("well-formed trace");

    let run = trace.events.iter().find(|e| e.kind == EventKind::Begin && e.name == "run");
    let track = run.expect("a run span").track;
    let mut open = Vec::new();
    let mut span_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for event in trace.events.iter().filter(|e| e.track == track) {
        match event.kind {
            EventKind::Begin => open.push(event.t_ns),
            EventKind::End => {
                *span_ns.entry(event.name).or_default() += event.t_ns - open.pop().unwrap()
            }
            EventKind::Instant => {}
        }
    }
    let frame = |key: &str| result.metrics.counter(key).unwrap_or_else(|| panic!("no {key}"));
    assert!(result.iterations() > 0, "crc32 iterates");
    for stage in ["extract", "dedupe", "evaluate", "feedback", "reformulate"] {
        assert_eq!(span_ns[&*format!("stage:{stage}")], frame(&format!("stage/{stage}/ns")));
    }
    assert_eq!(span_ns["stage:solve"] + span_ns["initial_solve"], frame("stage/solve/ns"));
    assert_eq!(span_ns["oracle_metrics"], frame("stage/oracle_metrics/ns"));
    assert_eq!(span_ns["run"], frame("run/total_ns"));
    assert_eq!(u128::from(span_ns["run"]), result.total_time.as_nanos());
}

/// Eq. 2 re-emission has its own row inside Solve: on a traced crc32 run,
/// the initial solve and every `stage:solve` hold exactly one
/// `solve:emit`, and no `solve:emit` lies outside them.
#[test]
fn every_solve_span_holds_one_emit_span() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let crc32 = isdc::benchsuite::suite().into_iter().find(|b| b.name == "crc32").unwrap();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut config = IsdcConfig::paper_defaults(crc32.clock_period_ps);
    config.threads = 1;
    telemetry::reset();
    telemetry::set_enabled(true);
    let result = run_isdc(&crc32.graph, &model, &oracle, &config).expect("crc32 run");
    telemetry::set_enabled(false);
    let trace = telemetry::take_trace();
    trace.validate().expect("well-formed trace");

    let run = trace.events.iter().find(|e| e.kind == EventKind::Begin && e.name == "run");
    let track = run.expect("a run span").track;
    let is_solve = |name: &str| matches!(name, "stage:solve" | "initial_solve");
    let mut open: Vec<(&str, usize)> = Vec::new();
    let mut solves = Vec::new();
    for event in trace.events.iter().filter(|e| e.track == track) {
        match event.kind {
            EventKind::Begin => {
                if event.name == "solve:emit" {
                    let holder = open.iter_mut().rev().find(|(name, _)| is_solve(name));
                    holder.expect("solve:emit outside a solve span").1 += 1;
                }
                open.push((event.name, 0));
            }
            EventKind::End => {
                let (name, emits) = open.pop().expect("balanced trace");
                if is_solve(name) {
                    solves.push((name, emits));
                }
            }
            EventKind::Instant => {}
        }
    }
    let count = |want: &str| solves.iter().filter(|(name, _)| *name == want).count();
    assert_eq!(count("initial_solve"), 1);
    assert_eq!(count("stage:solve"), result.iterations());
    assert!(solves.iter().all(|&(_, emits)| emits == 1), "{solves:?}");
}

#[test]
fn batch_workers_trace_onto_distinct_tracks() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    telemetry::set_enabled(true);

    let (designs, jobs) = small_batch(4);
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let cache = Arc::new(DelayCache::new());
    let options = BatchOptions { threads: 3, shard_points: 1, ..Default::default() };
    let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache).expect("batch");
    assert_eq!(report.threads, 3);

    telemetry::set_enabled(false);
    let trace = telemetry::take_trace();
    trace.validate().expect("well-formed batch trace");
    let mut worker_tracks: Vec<String> = trace
        .events
        .iter()
        .filter(|e| e.name == "shard")
        .map(|e| trace.track_name(e.track))
        .collect();
    worker_tracks.sort();
    worker_tracks.dedup();
    assert!(
        worker_tracks.len() >= 2,
        "3 workers over 8 shards should trace on >=2 distinct tracks: {worker_tracks:?}"
    );
    for track in &worker_tracks {
        assert!(track.starts_with("batch-worker-"), "shard span on foreign track {track}");
    }
}

/// Regression test for stale thread-track caches: `take_trace()` clears
/// the registered track table, so a second traced run must re-register
/// its workers from scratch — each `batch-worker-*` name appears exactly
/// once in the new table, and no event lands on a track id left over
/// from the first run.
#[test]
fn take_trace_clears_worker_tracks_between_runs() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (designs, jobs) = small_batch(2);
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);

    let traced_batch = || {
        telemetry::set_enabled(true);
        let cache = Arc::new(DelayCache::new());
        let options = BatchOptions { threads: 2, shard_points: 1, ..Default::default() };
        run_batch(&designs, &jobs, &options, &model, &oracle, &cache).expect("batch");
        telemetry::set_enabled(false);
        telemetry::take_trace()
    };

    telemetry::reset();
    let first = traced_batch();
    let second = traced_batch();
    for (which, trace) in [("first", &first), ("second", &second)] {
        trace.validate().unwrap_or_else(|e| panic!("{which} trace must be well-formed: {e:?}"));
        let mut workers: Vec<&String> =
            trace.tracks.iter().filter(|t| t.starts_with("batch-worker-")).collect();
        assert!(!workers.is_empty(), "{which}: batch workers must register tracks");
        let registered = workers.len();
        workers.sort();
        workers.dedup();
        assert_eq!(
            workers.len(),
            registered,
            "{which}: each worker name registers exactly once — a duplicate means a \
             worker kept a stale cached track id across take_trace: {:?}",
            trace.tracks
        );
        // Every event's track id resolves inside this trace's own table.
        let max_track = trace.events.iter().map(|e| e.track).max().expect("events");
        assert!(
            (max_track as usize) < trace.tracks.len(),
            "{which}: event on unregistered track {max_track} of {:?}",
            trace.tracks
        );
    }
}

#[test]
fn fleet_totals_are_bit_identical_across_thread_counts() {
    // Deterministic leaves only: iteration counts, stage invocations and
    // the subgraphs Evaluate handled replay bit-identically however the
    // batch is sharded or interleaved; drain/cache/timing leaves
    // legitimately vary. The quality snapshots
    // (`stage/oracle_metrics/calls`) are counted apart: a sweep takes them
    // at its last point only, so they follow the shard plan, and only runs
    // under one plan must agree on them. So must the subgraphs' split into
    // those sent to the oracle and those answered from the run's memo,
    // which a snapshot's stages fill too.
    let deterministic = |frame: &MetricsFrame| -> ([u64; 3], [u64; 3]) {
        let totals = frame.totals();
        let leaf = |l: &str| totals.get(l).copied().unwrap_or(0);
        let snapshots = frame.total_of("oracle_metrics/calls");
        let (evaluated, reused) = (leaf("subgraphs_evaluated"), leaf("subgraphs_reused"));
        (
            [leaf("iterations"), evaluated + reused, leaf("calls") - snapshots],
            [snapshots, evaluated, reused],
        )
    };

    // Not a tracing test, but its worker threads would write onto the
    // traced tests' tracks if it overlapped one of them.
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (designs, jobs) = small_batch(3);
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);

    let reference = serial_reference(&designs, &jobs, &model, &oracle).expect("serial");
    let (expected, _) = deterministic(&reference.metrics);
    assert!(expected.iter().all(|&v| v > 0), "reference totals must be non-trivial: {expected:?}");

    let mut sharded_plan = None;
    for threads in [1usize, 2, 4] {
        let cache = Arc::new(DelayCache::new());
        let options = BatchOptions { threads, shard_points: 1, ..Default::default() };
        let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache).expect("batch");
        let (got, plan) = deterministic(&report.metrics);
        assert_eq!(got, expected, "fleet totals diverged at {threads} threads");
        assert_eq!(
            *sharded_plan.get_or_insert(plan),
            plan,
            "snapshot and oracle counts diverged at {threads} threads"
        );
    }
}

#[test]
fn enabling_telemetry_does_not_perturb_schedules() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (graph, clock) = smallest_graph();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let base = tiny_config(clock);
    let periods = [clock, clock * 1.5];

    let quiet = {
        let mut session = IsdcSession::new(&graph, &model, &oracle);
        sweep_clock_period(&mut session, &base, &periods).expect("quiet sweep")
    };
    let traced = {
        telemetry::reset();
        telemetry::set_enabled(true);
        let mut session = IsdcSession::new(&graph, &model, &oracle);
        let sweep = sweep_clock_period(&mut session, &base, &periods).expect("traced sweep");
        telemetry::set_enabled(false);
        telemetry::take_trace().validate().expect("well-formed trace");
        sweep
    };
    for (q, t) in quiet.iter().zip(&traced) {
        assert_eq!(q.feasible, t.feasible);
        assert_eq!(q.register_bits, t.register_bits);
        assert_eq!(q.num_stages, t.num_stages);
        assert_eq!(q.schedule, t.schedule, "telemetry must not perturb the optimum");
    }
}
