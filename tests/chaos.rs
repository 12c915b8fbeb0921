//! Chaos suite: the fleet's fault-tolerance contract under deterministic
//! fault injection (`isdc::faults`). For any single injected fault the
//! batch engine must (a) never deadlock — every test returning is half the
//! proof, the worker pool has no blocking handoff to wedge — (b) report
//! the failed job precisely (job index, shard, design, cause), and
//! (c) leave every unaffected job **bit-identical** to a fault-free run.
//!
//! The installed fault plan is process-global, so every test serializes on
//! one lock, and a quiet panic hook keeps expected injected panics out of
//! the log. CI sweeps `ISDC_FAULT_SEEDS=0..8` over this binary (see
//! `.github/workflows/ci.yml`); locally a short default range keeps the
//! suite quick.

use isdc::batch::{
    run_batch, BatchDesign, BatchOptions, BatchReport, FailPolicy, Job, JobErrorKind, JobStatus,
};
use isdc::cache::{CachedDelay, DelayCache, Fingerprint, SnapshotLoad};
use isdc::core::{
    linear_grid, run_isdc, run_sdc, sweep_clock_period, IsdcConfig, IsdcSession, ScheduleError,
};
use isdc::faults::{self, FaultKind, FaultPlan};
use isdc::synth::{DelayOracle, DelayReport, OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::time::Duration;

/// The sites a batch run actually exercises (`snapshot/write` is covered
/// separately — batches only touch it through explicit save calls;
/// `batch/shard-stall` only fires the dedicated `Stall` kind, exercised by
/// the deadline tests below).
const BATCH_SITES: &[&str] =
    &["oracle/eval", "cache/insert", "solver/drain", "pipeline/iteration", "batch/shard"];

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes fault-plan installs across this binary's test threads and
/// silences panic output while a plan is armed (injected panics are the
/// point, not noise). Real panics with no plan installed still print.
fn chaos_guard() -> MutexGuard<'static, ()> {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !faults::enabled() {
                default(info);
            }
        }));
    });
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Seed sweep width: `ISDC_FAULT_SEEDS=lo..hi` (CI sets `0..8`).
fn seed_range() -> std::ops::Range<u64> {
    match std::env::var("ISDC_FAULT_SEEDS") {
        Ok(s) => {
            let (lo, hi) = s.split_once("..").expect("ISDC_FAULT_SEEDS must be `lo..hi`");
            lo.trim().parse().expect("bad lo seed")..hi.trim().parse().expect("bad hi seed")
        }
        Err(_) => 0..2,
    }
}

/// A small fixed job mix over the three smallest suite designs. With
/// `shard_points: 1` it plans 6+ shards, so every batch site reaches the
/// seeded plans' maximum hit index (3) even single-threaded.
fn fixture() -> (Vec<BatchDesign>, Vec<Job>) {
    let mut suite = isdc::benchsuite::suite();
    suite.sort_by_key(|b| b.graph.len());
    let designs: Vec<BatchDesign> = suite
        .into_iter()
        .take(3)
        .map(|b| {
            let mut base = IsdcConfig::paper_defaults(b.clock_period_ps);
            base.max_iterations = 2;
            base.subgraphs_per_iteration = 4;
            base.threads = 1;
            BatchDesign { name: b.name.to_string(), graph: b.graph, base }
        })
        .collect();
    let clocks: Vec<f64> = designs.iter().map(|d| d.base.clock_period_ps).collect();
    let jobs = vec![
        Job::sweep(&designs[0].name, linear_grid(clocks[0], clocks[0] * 1.5, 2)),
        Job::sweep(&designs[1].name, linear_grid(clocks[1], clocks[1] * 1.5, 2)),
        Job::sweep(&designs[2].name, vec![clocks[2]]),
        Job::min_period(&designs[0].name, clocks[0] * 0.6, clocks[0] * 1.2, 100.0),
    ];
    (designs, jobs)
}

fn run(
    designs: &[BatchDesign],
    jobs: &[Job],
    threads: usize,
    fail_policy: FailPolicy,
    max_retries: u32,
) -> BatchReport {
    let options = BatchOptions {
        threads,
        shard_points: 1,
        fail_policy,
        max_retries,
        ..BatchOptions::default()
    };
    run_opts(designs, jobs, &options)
}

fn run_opts(designs: &[BatchDesign], jobs: &[Job], options: &BatchOptions) -> BatchReport {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let cache = Arc::new(DelayCache::new());
    run_batch(designs, jobs, options, &model, &oracle, &cache)
        .expect("only planning errors fail the call, and the fixture plans cleanly")
}

/// The batch counter helper: a named `MetricValue::Counter` in the fleet
/// frame, or 0.
fn counter(report: &BatchReport, name: &str) -> u64 {
    report.metrics.metrics.get(name).and_then(|v| v.as_counter()).unwrap_or(0)
}

fn assert_job_identical(
    result: &isdc::batch::JobResult,
    reference: &isdc::batch::JobResult,
    context: &str,
) {
    assert_eq!(result.points.len(), reference.points.len(), "{context}: point count");
    for (a, b) in result.points.iter().zip(&reference.points) {
        assert_eq!(a.clock_period_ps, b.clock_period_ps, "{context}");
        assert_eq!(a.feasible, b.feasible, "{context} at {}ps", a.clock_period_ps);
        assert_eq!(
            a.schedule, b.schedule,
            "{context} at {}ps: unaffected job diverged from the fault-free run",
            a.clock_period_ps
        );
    }
    assert_eq!(result.min_period_ps, reference.min_period_ps, "{context}");
}

/// The tentpole invariant: sites x seeds x thread counts, one injected
/// fault each, keep-going, no retries. Exactly the fired fault's job
/// fails (with a precise structured error); everything else matches the
/// fault-free baseline bit for bit.
#[test]
fn any_single_fault_fails_at_most_one_job_and_nothing_else() {
    let _g = chaos_guard();
    let (designs, jobs) = fixture();
    faults::clear();
    let baseline = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 0);
    assert!(baseline.all_ok(), "the baseline must be fault-free");
    for threads in [1usize, 2, 4] {
        for site in BATCH_SITES {
            for seed in seed_range() {
                faults::install(FaultPlan::seeded(seed, &[site]));
                let report = run(&designs, &jobs, threads, FailPolicy::KeepGoing, 0);
                let fired = faults::injected_count();
                faults::clear();
                let context = format!("site {site} seed {seed} threads {threads}");
                assert!(fired <= 1, "{context}: a single-arm plan fires at most once");
                assert_eq!(
                    report.jobs_failed() as u64,
                    fired,
                    "{context}: each fired fault must fail exactly one job, and an \
                     unfired plan must fail none"
                );
                assert_eq!(counter(&report, "fault/injected"), fired, "{context}");
                for (ji, (result, reference)) in report.jobs.iter().zip(&baseline.jobs).enumerate()
                {
                    match &result.status {
                        JobStatus::Ok => assert_job_identical(result, reference, &context),
                        JobStatus::Failed(error) => {
                            assert_eq!(error.job, ji, "{context}: error names its job");
                            assert_eq!(error.design, result.job.design, "{context}");
                            assert!(!error.message.is_empty(), "{context}");
                            assert!(
                                result.points.is_empty() && result.min_period_ps.is_none(),
                                "{context}: failed jobs withhold their points"
                            );
                        }
                        JobStatus::TimedOut { .. } => {
                            panic!("{context}: no deadlines are armed, nothing may time out")
                        }
                        JobStatus::Skipped => {
                            panic!("{context}: keep-going must never skip a job")
                        }
                    }
                }
            }
        }
    }
}

/// Abort (the default policy), single-threaded, fault on the very first
/// shard: the queue stops, the report pinpoints job 0 shard 0, and every
/// other job is Skipped with its points withheld.
#[test]
fn abort_policy_reports_the_failure_and_skips_the_rest() {
    let _g = chaos_guard();
    let (designs, jobs) = fixture();
    faults::install(FaultPlan::new().with("batch/shard", 0, FaultKind::Panic));
    let report = run(&designs, &jobs, 1, FailPolicy::Abort, 0);
    let fired = faults::injected_count();
    faults::clear();
    assert_eq!(fired, 1);
    assert_eq!(report.jobs_failed(), 1);
    let error = report.first_error().expect("one failure");
    assert_eq!((error.job, error.shard), (0, 0), "the report pinpoints the failed shard");
    assert!(matches!(error.kind, JobErrorKind::Panic));
    assert!(error.message.contains("batch/shard"), "panic payload survives: {}", error.message);
    assert!(matches!(report.jobs[0].status, JobStatus::Failed(_)));
    for job in &report.jobs[1..] {
        assert_eq!(job.status, JobStatus::Skipped);
        assert!(job.points.is_empty() && job.min_period_ps.is_none());
    }
}

/// Bounded retries absorb transient faults — an injected panic and an
/// injected solver error both recover on re-execution (the arm fires
/// once), the report stays strict-`Ok`, the retry is visible in the
/// counters, and the recovered output is bit-identical to fault-free.
#[test]
fn transient_faults_retry_and_recover_bit_identically() {
    let _g = chaos_guard();
    let (designs, jobs) = fixture();
    faults::clear();
    let baseline = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 0);
    for (site, kind) in [("oracle/eval", FaultKind::Panic), ("solver/drain", FaultKind::Error)] {
        faults::install(FaultPlan::new().with(site, 1, kind));
        let report = run(&designs, &jobs, 2, FailPolicy::Abort, 3);
        let fired = faults::injected_count();
        faults::clear();
        assert_eq!(fired, 1, "{site}: the arm must fire");
        assert!(report.all_ok(), "{site}: one retry must absorb a single injected {kind}");
        assert_eq!(report.jobs_retried(), 1, "{site}");
        assert_eq!(report.total_retries(), 1, "{site}");
        assert_eq!(counter(&report, "job/retries"), 1, "{site}");
        assert_eq!(counter(&report, "fault/injected"), 1, "{site}");
        assert_eq!(counter(&report, "job/failed"), 0, "{site}");
        for (result, reference) in report.jobs.iter().zip(&baseline.jobs) {
            assert_job_identical(result, reference, site);
        }
    }
}

/// Real solver errors are deterministic: retrying them is a waste, so the
/// retry budget must not apply. An injected-fault failure past its budget
/// still reports the retries it spent.
#[test]
fn retry_budget_is_spent_then_reported() {
    let _g = chaos_guard();
    let (designs, jobs) = fixture();
    // The arm fires at hit 0; each retry re-executes the shard, but the
    // once-only arm cannot re-fire, so budget 0 is what makes it terminal.
    faults::install(FaultPlan::new().with("solver/drain", 0, FaultKind::Error));
    let report = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 0);
    faults::clear();
    assert_eq!(report.jobs_failed(), 1);
    let error = report.first_error().expect("one failure");
    assert_eq!(error.retries, 0);
    assert!(
        matches!(
            error.kind,
            JobErrorKind::Schedule(ScheduleError::Injected { site: "solver/drain" })
        ),
        "the injected error is classified, not stringly-typed: {:?}",
        error.kind
    );
}

/// A failing job's error carries its worker's flight tail, and the tail
/// names the fault site — the post-mortem the CLI prints and dumps to
/// `<out>.flight.jsonl`. The event log keeps a tail with tracing off, so
/// this holds with tracing disabled (the default here).
#[test]
fn failed_jobs_carry_a_flight_tail_naming_the_fault_site() {
    let _g = chaos_guard();
    let (designs, jobs) = fixture();
    for (site, kind) in [("oracle/eval", FaultKind::Panic), ("solver/drain", FaultKind::Error)] {
        faults::install(FaultPlan::new().with(site, 0, kind));
        let report = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 0);
        faults::clear();
        let error = report.first_error().expect("the hit-0 arm must fire and fail a job");
        assert!(!error.flight.is_empty(), "{site}: the error must carry a flight tail");
        let fault_mark = error
            .flight
            .iter()
            .find(|e| e.name == "fault")
            .unwrap_or_else(|| panic!("{site}: no fault mark in the tail: {:?}", error.flight));
        assert_eq!(
            fault_mark.args(),
            &[("site", isdc::telemetry::ArgValue::Str(site))],
            "{site}: the fault mark names its site"
        );
        // The surrounding events are the worker's real recent history:
        // they come from the worker's own track, in sequence order.
        let track = fault_mark.track;
        assert!(error.flight.iter().all(|e| e.track == track), "{site}: one track per tail");
        assert!(
            error.flight.windows(2).all(|w| w[0].seq < w[1].seq),
            "{site}: tail is in sequence order"
        );
    }
}

/// Fault-free runs attest zero across every robustness counter — the same
/// invariant the bench gate enforces on `BENCH_batch.json`.
#[test]
fn clean_runs_report_zero_fault_counters() {
    let _g = chaos_guard();
    faults::clear();
    let (designs, jobs) = fixture();
    let report = run(&designs, &jobs, 2, FailPolicy::Abort, 3);
    assert!(report.all_ok());
    assert_eq!(report.jobs_failed(), 0);
    assert_eq!(report.jobs_retried(), 0);
    assert_eq!(counter(&report, "fault/injected"), 0);
    assert_eq!(counter(&report, "job/retries"), 0);
    assert_eq!(counter(&report, "job/failed"), 0);
}

/// Seed-swept `snapshot/write` chaos: whatever the injected fault does to
/// the save — panic mid-write, reported error, torn file on disk — the
/// loader never panics, never half-merges, and quarantines anything
/// damaged so the next save starts clean.
#[test]
fn snapshot_write_faults_quarantine_and_cold_start() {
    let _g = chaos_guard();
    for seed in seed_range() {
        let path = std::env::temp_dir()
            .join(format!("isdc-chaos-snap-{}-{seed}.json", std::process::id()));
        let corrupt = {
            let mut os = path.clone().into_os_string();
            os.push(".corrupt");
            std::path::PathBuf::from(os)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&corrupt);

        let cache = DelayCache::new();
        cache.insert(
            Fingerprint(0x1000 + u128::from(seed)),
            CachedDelay { delay_ps: 10.5, aig_depth: 2, and_count: 3, arrivals: vec![] },
        );
        faults::install(FaultPlan::seeded(seed, &["snapshot/write"]));
        let saved = catch_unwind(AssertUnwindSafe(|| cache.save(&path, "chaos")));
        let fired = faults::injected_count();
        faults::clear();

        let cold = DelayCache::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| cold.load_resilient(&path, "chaos")))
            .expect("the resilient loader must never panic");
        match outcome {
            SnapshotLoad::Loaded { entries } => {
                assert_eq!(entries, 1, "seed {seed}: a loadable snapshot holds the entry");
            }
            SnapshotLoad::Missing => {
                assert!(
                    fired > 0 && !matches!(saved, Ok(Ok(()))),
                    "seed {seed}: only a failed save leaves nothing behind"
                );
            }
            SnapshotLoad::ColdStart { ref reason, ref quarantined } => {
                assert!(fired > 0, "seed {seed}: a clean save must load, got: {reason}");
                assert!(cold.is_empty(), "seed {seed}: a rejected snapshot merges nothing");
                if let Some(q) = quarantined {
                    assert!(q.exists(), "seed {seed}: quarantine file present");
                }
                // The slate is clean: the same path saves and loads again.
                cache.save(&path, "chaos").expect("post-quarantine save");
                assert!(matches!(
                    cold.load_resilient(&path, "chaos"),
                    SnapshotLoad::Loaded { entries: 1 }
                ));
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&corrupt);
    }
}

/// Deadline chaos: a `stall` fault wedges job 0's first shard far past its
/// per-job `deadline_ms`. The deadline token cuts the stall short, the job
/// reports terminal `TimedOut` (the retry budget must not re-run it) with
/// a flight tail naming the stall site, and every sibling job stays
/// bit-identical to the fault-free baseline under keep-going.
#[test]
fn stalled_job_times_out_and_siblings_stay_bit_identical() {
    let _g = chaos_guard();
    let (designs, mut jobs) = fixture();
    faults::clear();
    let baseline = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 0);
    jobs[0].deadline_ms = Some(250);
    let saved_stall = faults::stall_ms();
    faults::set_stall_ms(60_000);
    faults::install(FaultPlan::new().with("batch/shard-stall", 0, FaultKind::Stall));
    let report = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 3);
    faults::clear();
    faults::set_stall_ms(saved_stall);
    let JobStatus::TimedOut { elapsed_ms, points_completed, flight } = &report.jobs[0].status
    else {
        panic!("the stalled job must time out, got {:?}", report.jobs[0].status);
    };
    assert!(*elapsed_ms >= 100, "the 250ms deadline cut the stall, got {elapsed_ms}ms");
    assert_eq!(*points_completed, 0, "the stall hit the job's first shard");
    assert!(report.jobs[0].points.is_empty(), "timed-out jobs withhold partial points");
    assert_eq!(report.jobs[0].retries, 0, "a timeout is terminal — the budget was 3");
    let mark = flight
        .iter()
        .find(|e| e.name == "fault")
        .unwrap_or_else(|| panic!("no stall mark in the tail: {flight:?}"));
    assert_eq!(
        mark.args(),
        &[("site", isdc::telemetry::ArgValue::Str("batch/shard-stall"))],
        "the flight tail names the stall site"
    );
    assert_eq!(report.jobs_timed_out(), 1);
    assert_eq!(counter(&report, "job/timed_out"), 1);
    assert!(counter(&report, "cancel/deadline") >= 1, "the cut shard is counted");
    assert_eq!(counter(&report, "job/failed"), 0, "a timeout is not a failure");
    for (result, reference) in report.jobs.iter().zip(&baseline.jobs).skip(1) {
        assert_job_identical(result, reference, "sibling of the stalled job");
    }
}

/// The same stalled job under `FailPolicy::Abort`: the timeout stops the
/// queue and every later job is Skipped with its points withheld, exactly
/// like a failure would under abort.
#[test]
fn abort_policy_stops_the_queue_on_a_timeout() {
    let _g = chaos_guard();
    let (designs, mut jobs) = fixture();
    jobs[0].deadline_ms = Some(250);
    let saved_stall = faults::stall_ms();
    faults::set_stall_ms(60_000);
    faults::install(FaultPlan::new().with("batch/shard-stall", 0, FaultKind::Stall));
    let report = run(&designs, &jobs, 1, FailPolicy::Abort, 0);
    faults::clear();
    faults::set_stall_ms(saved_stall);
    assert!(
        matches!(report.jobs[0].status, JobStatus::TimedOut { .. }),
        "the stalled job must time out, got {:?}",
        report.jobs[0].status
    );
    assert_eq!(report.jobs_timed_out(), 1, "abort stops the queue — the rest are Skipped");
    for job in &report.jobs[1..] {
        assert_eq!(job.status, JobStatus::Skipped);
        assert!(job.points.is_empty() && job.min_period_ps.is_none());
    }
}

/// The stall watchdog: no deadline is armed, but the stalled worker stops
/// heartbeating, so the watchdog cancels its token after `stall_timeout`
/// of event-log silence. The stalled job lands as TimedOut and the
/// siblings stay bit-identical.
#[test]
fn stall_watchdog_cancels_a_silent_worker() {
    let _g = chaos_guard();
    let (designs, jobs) = fixture();
    faults::clear();
    let baseline = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 0);
    let saved_stall = faults::stall_ms();
    faults::set_stall_ms(60_000);
    faults::install(FaultPlan::new().with("batch/shard-stall", 0, FaultKind::Stall));
    let options = BatchOptions {
        threads: 1,
        shard_points: 1,
        fail_policy: FailPolicy::KeepGoing,
        max_retries: 0,
        fleet_deadline: None,
        stall_timeout: Some(Duration::from_millis(300)),
    };
    let report = run_opts(&designs, &jobs, &options);
    faults::clear();
    faults::set_stall_ms(saved_stall);
    assert!(
        matches!(report.jobs[0].status, JobStatus::TimedOut { .. }),
        "the watchdog must cut the stalled job, got {:?}",
        report.jobs[0].status
    );
    assert_eq!(counter(&report, "cancel/watchdog"), 1, "one token cancelled, counted once");
    for (result, reference) in report.jobs.iter().zip(&baseline.jobs).skip(1) {
        assert_job_identical(result, reference, "sibling of the watchdogged job");
    }
}

/// A delegating oracle whose `evaluate` does not return before `budget`
/// has passed since the call began. A shard claimed inside a fleet budget
/// of that length therefore reaches its next checkpoint only after the
/// budget expired, however fast the host runs the rest of the shard.
struct OutlastBudget<'a> {
    inner: &'a SynthesisOracle,
    budget: Duration,
}

impl DelayOracle for OutlastBudget<'_> {
    fn evaluate(&self, graph: &isdc::ir::Graph, members: &[isdc::ir::NodeId]) -> DelayReport {
        std::thread::sleep(self.budget);
        self.inner.evaluate(graph, members)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A 1ms fleet budget: every job lands as TimedOut — claimed shards are
/// cut at their first checkpoint, unclaimed ones are abandoned with the
/// budget named as the reason — and no job is misreported as Skipped.
/// The oracle outlasts the budget, so no claimed shard can finish inside
/// it on a fast host.
#[test]
fn fleet_budget_times_out_the_whole_queue() {
    let _g = chaos_guard();
    faults::clear();
    let (designs, jobs) = fixture();
    let budget = Duration::from_millis(1);
    let options = BatchOptions {
        threads: 2,
        shard_points: 1,
        fail_policy: FailPolicy::KeepGoing,
        max_retries: 0,
        fleet_deadline: Some(budget),
        stall_timeout: None,
    };
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let inner = SynthesisOracle::new(lib);
    let oracle = OutlastBudget { inner: &inner, budget };
    let cache = Arc::new(DelayCache::new());
    let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache)
        .expect("only planning errors fail the call, and the fixture plans cleanly");
    assert_eq!(
        report.jobs_timed_out(),
        report.jobs.len(),
        "{:?}",
        report.jobs.iter().map(|j| &j.status).collect::<Vec<_>>()
    );
    assert_eq!(counter(&report, "job/timed_out"), report.jobs.len() as u64);
    assert!(report.jobs.iter().all(|j| j.points.is_empty()), "partial points are withheld");
}

/// A delegating oracle that cancels `token` on its `after`-th evaluation,
/// turning wall-clock cancellation into a deterministic event.
struct CancelAfter<'a> {
    inner: &'a SynthesisOracle,
    calls: AtomicU64,
    after: u64,
    token: isdc::cancel::CancelToken,
}

impl DelayOracle for CancelAfter<'_> {
    fn evaluate(&self, graph: &isdc::ir::Graph, members: &[isdc::ir::NodeId]) -> DelayReport {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
            self.token.cancel();
        }
        self.inner.evaluate(graph, members)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Clean-cut cancellation end to end: a sweep cancelled mid-flight returns
/// a bit-identical prefix of the uncancelled run, the cancelled session's
/// warm state is not poisoned (rerunning on it reproduces the full sweep),
/// its snapshot is safe to save, and a fresh session over that snapshot
/// file completes the same sweep bit-identically.
#[test]
fn cancelled_sweep_reruns_over_the_same_snapshot_bit_identically() {
    let _g = chaos_guard();
    faults::clear();
    let (designs, _) = fixture();
    let design = &designs[0];
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let clock = design.base.clock_period_ps;
    let periods = linear_grid(clock, clock * 1.6, 3);
    // iteration_metrics is last-point-only in a sweep, which would make the
    // one-point probe below see more oracle calls than the full run's first
    // point; turn it off so call counts line up exactly.
    let mut base = design.base.clone();
    base.iteration_metrics = false;

    // The reference: an uncancelled sweep on a fresh session.
    let mut reference_session = IsdcSession::new(&design.graph, &model, &oracle);
    let reference =
        sweep_clock_period(&mut reference_session, &base, &periods).expect("the fixture sweeps");
    assert_eq!(reference.len(), periods.len());

    // How many oracle misses the first point costs — the cancelled run
    // cancels on the next one, i.e. somewhere inside point 2.
    let probe = CancelAfter {
        inner: &oracle,
        calls: AtomicU64::new(0),
        after: u64::MAX,
        token: isdc::cancel::CancelToken::new(),
    };
    let mut probe_session = IsdcSession::new(&design.graph, &model, &probe);
    sweep_clock_period(&mut probe_session, &base, &periods[..1])
        .expect("the probe point sweeps cleanly");
    let first_point_calls = probe.calls.load(Ordering::Relaxed);
    sweep_clock_period(&mut probe_session, &base, &periods[1..2])
        .expect("the probe tail sweeps cleanly");
    assert!(first_point_calls > 0, "the first point must consult the oracle");
    assert!(
        probe.calls.load(Ordering::Relaxed) > first_point_calls,
        "fixture sanity: point 2 must miss the session cache at least once"
    );

    // The cancelled run: the token trips inside point 2; the sweep returns
    // the completed prefix (point 1 only), bit-identical to the reference.
    let token = isdc::cancel::CancelToken::new();
    let wrapper = CancelAfter {
        inner: &oracle,
        calls: AtomicU64::new(0),
        after: first_point_calls + 1,
        token: token.clone(),
    };
    let mut session = IsdcSession::new(&design.graph, &model, &wrapper);
    let scope = token.install();
    let cancelled = sweep_clock_period(&mut session, &base, &periods)
        .expect("cancellation is clean-cut, not an error");
    drop(scope);
    assert_eq!(cancelled.len(), 1, "the sweep returns exactly the completed prefix");
    assert_eq!(cancelled[0].schedule, reference[0].schedule, "prefix is bit-identical");
    assert_eq!(cancelled[0].register_bits, reference[0].register_bits);

    // Warm state is not poisoned: the same session (token disarmed)
    // completes the full sweep bit-identically.
    let resumed = sweep_clock_period(&mut session, &base, &periods)
        .expect("the cancelled session must still sweep");
    assert_eq!(resumed.len(), periods.len());
    for (a, b) in resumed.iter().zip(&reference) {
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.schedule, b.schedule, "rerun on the cancelled session diverged");
        assert_eq!(a.register_bits, b.register_bits);
    }

    // Snapshot-safety: the cancelled-then-resumed session's snapshot cold
    // starts a fresh session that completes the sweep bit-identically.
    let path =
        std::env::temp_dir().join(format!("isdc-chaos-cancel-rerun-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    session.save_snapshot(&path).expect("snapshot after cancellation");
    let cold_session = IsdcSession::new(&design.graph, &model, &oracle);
    assert!(
        matches!(cold_session.load_snapshot_resilient(&path), SnapshotLoad::Loaded { .. }),
        "the snapshot written after a cancelled sweep must load"
    );
    let mut cold_session = cold_session;
    let rerun = sweep_clock_period(&mut cold_session, &base, &periods)
        .expect("the snapshot-warmed session must sweep");
    assert_eq!(rerun.len(), periods.len());
    for (a, b) in rerun.iter().zip(&reference) {
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.schedule, b.schedule, "snapshot-warmed rerun diverged");
        assert_eq!(a.register_bits, b.register_bits);
    }
    let _ = std::fs::remove_file(&path);
}

/// A deadline cuts the oracle quality snapshot short: the token trips
/// inside the initial schedule's first stage synthesis, and the poll before
/// the next stage returns `DeadlineExceeded` instead of timing the rest.
#[test]
fn deadline_cuts_the_quality_snapshot_short() {
    let _g = chaos_guard();
    faults::clear();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let design = isdc::benchsuite::suite()
        .into_iter()
        .find(|b| {
            let (schedule, _) = run_sdc(&b.graph, &model, b.clock_period_ps).unwrap();
            schedule.stages().iter().filter(|members| !members.is_empty()).count() >= 2
        })
        .expect("some suite design pipelines into two non-empty stages");
    let token = isdc::cancel::CancelToken::new();
    let wrapper =
        CancelAfter { inner: &oracle, calls: AtomicU64::new(0), after: 1, token: token.clone() };
    let config = IsdcConfig {
        threads: 1,
        iteration_metrics: true,
        ..IsdcConfig::paper_defaults(design.clock_period_ps)
    };
    let scope = token.install();
    let result = run_isdc(&design.graph, &model, &wrapper, &config);
    drop(scope);
    assert!(
        matches!(result, Err(ScheduleError::DeadlineExceeded)),
        "{}: {:?}",
        design.name,
        result.map(|r| r.history.len())
    );
    assert_eq!(wrapper.calls.load(Ordering::Relaxed), 1, "{}: one stage timed", design.name);
}

/// Capacity safety: a batch over a tightly bounded shared cache evicts —
/// the counter proves it — yet every job stays bit-identical to the
/// unbounded run. Eviction may only change hit rates, never delays.
#[test]
fn bounded_cache_evicts_without_changing_results() {
    let _g = chaos_guard();
    faults::clear();
    let (designs, jobs) = fixture();
    let baseline = run(&designs, &jobs, 2, FailPolicy::KeepGoing, 0);
    assert!(baseline.all_ok());

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let cache = Arc::new(DelayCache::with_capacity(16));
    let options = BatchOptions {
        threads: 2,
        shard_points: 1,
        fail_policy: FailPolicy::KeepGoing,
        max_retries: 0,
        ..BatchOptions::default()
    };
    let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache)
        .expect("the fixture plans cleanly");
    assert!(report.all_ok());
    assert!(report.cache.evictions > 0, "capacity 16 must evict on this fixture");
    assert_eq!(
        counter(&report, "cache/evictions"),
        report.cache.evictions,
        "evictions reach the metrics frame"
    );
    for (result, reference) in report.jobs.iter().zip(&baseline.jobs) {
        assert_job_identical(result, reference, "bounded-cache job");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized single faults (site, seed, thread count drawn by
    /// proptest) preserve the bit-identity of every unaffected job — the
    /// property-test form of the tentpole invariant.
    #[test]
    fn prop_single_faults_preserve_unaffected_jobs(
        seed in any::<u64>(),
        threads in 1usize..5,
        site_idx in 0usize..5,
    ) {
        let _g = chaos_guard();
        let (designs, jobs) = fixture();
        faults::clear();
        let baseline = run(&designs, &jobs, 1, FailPolicy::KeepGoing, 0);
        faults::install(FaultPlan::seeded(seed, &[BATCH_SITES[site_idx]]));
        let report = run(&designs, &jobs, threads, FailPolicy::KeepGoing, 0);
        let fired = faults::injected_count();
        faults::clear();
        prop_assert!(fired <= 1);
        prop_assert_eq!(report.jobs_failed() as u64, fired);
        for (result, reference) in report.jobs.iter().zip(&baseline.jobs) {
            if result.status.is_ok() {
                prop_assert_eq!(result.points.len(), reference.points.len());
                for (a, b) in result.points.iter().zip(&reference.points) {
                    prop_assert_eq!(a.feasible, b.feasible);
                    prop_assert_eq!(&a.schedule, &b.schedule,
                        "unaffected job diverged (seed {}, threads {})", seed, threads);
                }
            } else {
                prop_assert!(result.points.is_empty());
            }
        }
    }
}
