//! The worker pool: shard planning, the shared-index queue, execution and
//! deterministic aggregation.
//!
//! # Execution model
//!
//! [`run_batch`] plans a shard list ([`plan_shards`]), spawns
//! `min(threads, shards)` scoped worker threads, and lets them
//! **self-schedule**: a single shared atomic index hands out shards in plan
//! order, so a worker that drew a cheap shard immediately pulls the next
//! one while a worker chewing on a big design keeps chewing (the classic
//! chunked self-scheduling queue — contention is one `fetch_add` per shard,
//! which at scheduling granularity is noise). Every worker session shares
//! one [`DelayCache`], so a subgraph evaluated by any worker is a hit for
//! the whole fleet, and the LP potentials each run publishes (keyed by
//! design fingerprint and clock) warm-start whichever worker next touches
//! that design — including a sharded sibling of the same sweep.
//!
//! # Determinism
//!
//! Schedules are **bit-identical to the serial session sweep** for every
//! job, regardless of thread count, shard boundaries, or execution
//! interleaving: both shared assets are pure accelerators (cached delay
//! reports replay bit-identically; imported potentials and retargeted
//! engines are validated and canonicalized, so the LP optimum never depends
//! on the solve path). Results are slotted by shard index and stitched back
//! in plan order, so the aggregate is deterministic too — only the timing
//! and cache-counter fields vary run to run. [`serial_reference`] runs the
//! exact single-threaded baseline the guarantee is stated against;
//! `tests/batch.rs` enforces it across randomized job mixes.
//!
//! # Fault tolerance
//!
//! Every shard executes inside `catch_unwind`, so a panicking worker —
//! whether a real bug or an injected `isdc_faults` chaos fault — is
//! **isolated**: the panic becomes a structured [`JobError`] and every
//! shared asset stays usable (slot access recovers from lock poisoning;
//! the shared cache's inserts are single-call atomic, so a panic can lose
//! at most its own insert). Failures classified as *transient* — panics
//! and injected faults — retry up to [`BatchOptions::max_retries`] times
//! with a deterministic exponential backoff (no wall-clock randomness;
//! each retry is a `shard:retry` telemetry span). Real solver errors are
//! deterministic and never retried; infeasible periods are not failures
//! at all (they record as infeasible points — see
//! [`isdc_core::sweep_clock_period`]).
//!
//! What happens to the *rest* of the queue is the [`FailPolicy`]:
//! [`FailPolicy::Abort`] (the default) stops handing out shards, so later
//! jobs report [`JobStatus::Skipped`]; [`FailPolicy::KeepGoing`] finishes
//! every other job, skipping only the failed job's own remaining shards.
//! Either way [`run_batch`] returns a [`BatchReport`] whose per-job
//! [`JobStatus`] pinpoints each failure; only *planning* errors (an
//! unknown design name) fail the call itself. A non-`Ok` job's points are
//! withheld — a partial sweep's contents would depend on thread timing —
//! so the report stays deterministic, and unaffected jobs remain
//! bit-identical to the serial reference because the shared assets are
//! pure accelerators.
//!
//! # Deadlines and stalls
//!
//! Three budgets bound a batch's wall clock, all built on `isdc_cancel`
//! cooperative tokens (one relaxed atomic load per checkpoint when no
//! budget is armed):
//!
//! - **per-job** [`Job::deadline_ms`], clocked from the job's first shard
//!   claim;
//! - **fleet** [`BatchOptions::fleet_deadline`], clocked from the
//!   [`run_batch`] call — expiry cancels in-flight shards and abandons the
//!   queue;
//! - the **stall watchdog** [`BatchOptions::stall_timeout`], which cancels
//!   a worker whose event-log heartbeat goes silent mid-shard (e.g.
//!   a `stall` chaos fault or a hung oracle).
//!
//! A tripped budget is **terminal, never retried** — the affected job
//! reports [`JobStatus::TimedOut`] with its elapsed time, completed-point
//! count, and the cancelled worker's flight tail. Cancellation is
//! clean-cut: every point completed before the cut is bit-identical to the
//! uncancelled run's prefix, the shared cache and session state stay
//! consistent (warm state is never poisoned), and sibling jobs are
//! unaffected.

use crate::spec::{Job, JobKind};
use isdc_cache::{CacheStats, DelayCache};
use isdc_cancel::CancelToken;
use isdc_core::{
    min_feasible_period, sweep_clock_period, IsdcConfig, IsdcSession, ScheduleError, SweepPoint,
};
use isdc_ir::Graph;
use isdc_synth::{DelayOracle, OpDelayModel};
use isdc_techlib::Picos;
use isdc_telemetry::{ArgValue, MetricValue, MetricsFrame};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One schedulable design in the engine's table: jobs name it, workers
/// build sessions over it.
#[derive(Clone, Debug)]
pub struct BatchDesign {
    /// The name jobs refer to.
    pub name: String,
    /// The dataflow graph.
    pub graph: Graph,
    /// The run configuration (its `clock_period_ps` is overridden per
    /// point; its `cache`/`cache_file` are ignored — sessions always
    /// memoize through the batch cache).
    pub base: IsdcConfig,
}

/// What the queue does once a shard has failed terminally (i.e. after its
/// retry budget is spent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailPolicy {
    /// Stop handing out new shards: running shards finish, queued ones are
    /// abandoned, and every job the abort cut short reports
    /// [`JobStatus::Skipped`]. The strict default — one bad job means the
    /// batch needs attention, so don't burn time on the rest.
    #[default]
    Abort,
    /// Keep scheduling every job that can still make progress: only the
    /// failed job's own remaining shards are skipped, every other job
    /// completes normally. The CLI's `--keep-going`.
    KeepGoing,
}

/// Batch execution knobs. The default resolves thread count and shard size
/// automatically, aborts on first failure, and never retries.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads (each owns one [`IsdcSession`] at a time). 0 means
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Maximum sweep points per shard; 0 picks automatically — no
    /// splitting at 1 thread, otherwise `ceil(total / (2 * threads))`, so
    /// a batch with fewer jobs than threads still fills the pool while a
    /// wide batch keeps whole sweeps (and their in-shard ascending warm
    /// starts) together.
    pub shard_points: usize,
    /// What the queue does after a terminal shard failure.
    pub fail_policy: FailPolicy,
    /// Retry budget per shard for *transient* failures — panics and
    /// injected faults. Real solver errors are deterministic and never
    /// retried. Retries back off exponentially (1ms · 2^attempt, capped at
    /// 64ms) with no wall-clock randomness, so chaos runs replay
    /// identically.
    pub max_retries: u32,
    /// Fleet-level wall-clock budget for the whole batch, measured from
    /// the [`run_batch`] call. When it expires, in-flight shards are
    /// cancelled at their next checkpoint and queued shards are abandoned;
    /// every job the budget cut short reports [`JobStatus::TimedOut`].
    /// `None` = unbounded.
    pub fleet_deadline: Option<Duration>,
    /// Stall watchdog: a worker whose event-log heartbeat goes
    /// silent on an in-flight shard for longer than this is cancelled, and
    /// its shard times out. Polled at `stall_timeout / 4` (min 2ms), so
    /// detection lands within ~1.25× the timeout. `None` disables the
    /// watchdog.
    pub stall_timeout: Option<Duration>,
}

impl BatchOptions {
    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        }
    }
}

/// Batch-level failures.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchError {
    /// A job named a design absent from the design table.
    UnknownDesign {
        /// Index of the offending job.
        job: usize,
        /// The unresolved name.
        design: String,
    },
    /// A job failed with a real solver error (infeasible periods are
    /// recorded as infeasible points, not errors). Raised by the strict
    /// [`serial_reference`] baseline; [`run_batch`] reports execution
    /// failures per job via [`JobStatus`] instead.
    Schedule {
        /// Index of the owning job.
        job: usize,
        /// The design being scheduled.
        design: String,
        /// The underlying failure.
        error: ScheduleError,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::UnknownDesign { job, design } => {
                write!(f, "job {job}: unknown design `{design}`")
            }
            BatchError::Schedule { job, design, error } => {
                write!(f, "job {job} ({design}): {error}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// How a shard failed.
#[derive(Clone, Debug, PartialEq)]
pub enum JobErrorKind {
    /// The worker panicked; the panic was caught at the shard boundary by
    /// `catch_unwind` and never crossed into the rest of the fleet.
    Panic,
    /// Scheduling returned a real error (including the chaos-only
    /// [`ScheduleError::Injected`]).
    Schedule(ScheduleError),
}

/// A structured per-job failure: exactly which shard of which job failed,
/// how, and after how many retries.
#[derive(Clone, Debug, PartialEq)]
pub struct JobError {
    /// Index of the owning job in the submitted list.
    pub job: usize,
    /// Which of the job's shards failed (stitch order).
    pub shard: usize,
    /// The design being scheduled.
    pub design: String,
    /// Panic or real scheduling error.
    pub kind: JobErrorKind,
    /// Human-readable cause: the panic payload or the error display.
    pub message: String,
    /// Retries this shard spent before giving up.
    pub retries: u32,
    /// The failing worker's flight tail, snapshotted right after
    /// the final attempt: the last events (spans, notes, the `fault`
    /// marker naming an injected site) before death, oldest first.
    pub flight: Vec<isdc_telemetry::Event>,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            JobErrorKind::Panic => "panicked",
            JobErrorKind::Schedule(_) => "failed",
        };
        write!(
            f,
            "job {} ({}) shard {} {what}: {}",
            self.job, self.design, self.shard, self.message
        )?;
        if self.retries > 0 {
            write!(f, " (after {} retries)", self.retries)?;
        }
        Ok(())
    }
}

impl std::error::Error for JobError {}

/// A job's terminal state in a [`BatchReport`].
#[derive(Clone, Debug, PartialEq, Default)]
pub enum JobStatus {
    /// Every shard completed; the job's points are stitched in plan order.
    #[default]
    Ok,
    /// A shard failed terminally. The job's points are withheld — which of
    /// its other shards ran would depend on thread timing — and the error
    /// pinpoints job, shard and cause.
    Failed(JobError),
    /// A deadline tripped — the job's own [`Job::deadline_ms`], the fleet
    /// budget ([`BatchOptions::fleet_deadline`]) or the stall watchdog.
    /// Terminal and **never retried**: a spent budget does not replenish.
    /// Points are withheld like any other non-Ok status; the fields record
    /// what the cut left behind.
    TimedOut {
        /// Wall-clock the job's shards spent before the cut, in
        /// milliseconds.
        elapsed_ms: u64,
        /// Sweep points / probes that completed across the job's shards
        /// before cancellation landed (each one bit-identical to the
        /// uncancelled run's corresponding point — cancellation is
        /// clean-cut).
        points_completed: usize,
        /// The cancelled worker's flight tail (like
        /// [`JobError::flight`]): the last spans and notes before the cut,
        /// e.g. the stall site in a chaos run. Empty when the job never
        /// started (the fleet budget expired first).
        flight: Vec<isdc_telemetry::Event>,
    },
    /// The queue aborted ([`FailPolicy::Abort`]) before the job could
    /// finish; any partial points are withheld.
    Skipped,
}

impl JobStatus {
    /// True for [`JobStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }

    /// The failure, for [`JobStatus::Failed`].
    pub fn error(&self) -> Option<&JobError> {
        match self {
            JobStatus::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// One planned unit of worker work: a contiguous slice of a job.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardJob {
    /// Index of the owning job in the submitted job list.
    pub job: usize,
    /// Index into the design table.
    pub design: usize,
    /// Position among the job's shards (stitch-back order).
    pub shard: usize,
    /// The shard's work — for sweeps, a contiguous subsequence of the
    /// job's periods (in the job's order, so ascending jobs stay ascending
    /// inside every shard).
    pub kind: JobKind,
}

/// Expands jobs into the shard list the worker pool consumes.
///
/// Sweeps split into contiguous period chunks of at most `shard_points`
/// (see [`BatchOptions::shard_points`] for the automatic size); searches
/// are inherently sequential and stay whole. Chunking never reorders
/// periods, so a shard of an ascending sweep still warm-starts each point
/// from its tighter neighbour.
///
/// # Errors
///
/// [`BatchError::UnknownDesign`] when a job names no design in `designs`.
pub fn plan_shards(
    designs: &[BatchDesign],
    jobs: &[Job],
    options: &BatchOptions,
) -> Result<Vec<ShardJob>, BatchError> {
    let threads = options.resolved_threads();
    let shard_points = if options.shard_points > 0 {
        options.shard_points
    } else if threads <= 1 {
        usize::MAX
    } else {
        let total: usize = jobs.iter().map(Job::planned_points).sum();
        total.div_ceil(2 * threads).max(1)
    };
    let mut shards = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        let design = designs
            .iter()
            .position(|d| d.name == job.design)
            .ok_or_else(|| BatchError::UnknownDesign { job: ji, design: job.design.clone() })?;
        match &job.kind {
            JobKind::Sweep { periods } => {
                for (si, chunk) in
                    periods.chunks(shard_points.min(periods.len().max(1))).enumerate()
                {
                    shards.push(ShardJob {
                        job: ji,
                        design,
                        shard: si,
                        kind: JobKind::Sweep { periods: chunk.to_vec() },
                    });
                }
            }
            kind @ JobKind::MinPeriod { .. } => {
                shards.push(ShardJob { job: ji, design, shard: 0, kind: kind.clone() });
            }
        }
    }
    Ok(shards)
}

/// One finished job, stitched back from its shards in plan order.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job as submitted.
    pub job: Job,
    /// Per-run records — sweep points in the job's period order, or a
    /// search's probes in probe order. The same records
    /// [`isdc_core::sweep_clock_period`] produces, schedule included.
    pub points: Vec<SweepPoint>,
    /// The found minimum period, for [`JobKind::MinPeriod`] jobs.
    pub min_period_ps: Option<Picos>,
    /// How many shards the job was split into.
    pub shards: usize,
    /// Summed worker wall-clock across the job's shards.
    pub elapsed: Duration,
    /// Terminal status. `points` and `min_period_ps` are withheld (empty /
    /// `None`) unless this is [`JobStatus::Ok`].
    pub status: JobStatus,
    /// Transient-failure retries spent across the job's shards, including
    /// retries that eventually succeeded.
    pub retries: u32,
}

impl JobResult {
    /// Cache hits over lookups across the job's runs, or 0.0 without
    /// lookups (infeasible-only jobs must render as 0.0, not NaN).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.points.iter().map(|p| p.cache_hits).sum();
        let misses: u64 = self.points.iter().map(|p| p.cache_misses).sum();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The aggregated outcome of one [`run_batch`] call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One result per submitted job, in submission order.
    pub jobs: Vec<JobResult>,
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Shards executed.
    pub shards: usize,
    /// Batch wall-clock time.
    pub elapsed: Duration,
    /// Shared-cache counter deltas over the batch (hits/misses/inserts by
    /// this batch's workers only).
    pub cache: CacheStats,
    /// The fleet metrics frame: every run's telemetry frame scoped under a
    /// deterministic `job{j}/pt{p}/…` key (plan order, so keys are
    /// thread-count-independent) and max-joined into one store.
    /// [`MetricsFrame::totals`] sums it back into fleet counters.
    pub metrics: MetricsFrame,
}

impl BatchReport {
    /// Total per-run records across all jobs.
    pub fn total_points(&self) -> usize {
        self.jobs.iter().map(|j| j.points.len()).sum()
    }

    /// Fleet-wide cache hit rate during the batch, or 0.0 without lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Jobs that failed terminally.
    pub fn jobs_failed(&self) -> usize {
        self.jobs.iter().filter(|j| matches!(j.status, JobStatus::Failed(_))).count()
    }

    /// Jobs cut short by a per-job deadline, the fleet budget, or the
    /// stall watchdog.
    pub fn jobs_timed_out(&self) -> usize {
        self.jobs.iter().filter(|j| matches!(j.status, JobStatus::TimedOut { .. })).count()
    }

    /// Jobs that needed at least one transient-failure retry (including
    /// jobs that then succeeded).
    pub fn jobs_retried(&self) -> usize {
        self.jobs.iter().filter(|j| j.retries > 0).count()
    }

    /// Total shard retries spent across the batch.
    pub fn total_retries(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.retries)).sum()
    }

    /// The first failure in job (= plan) order, if any job failed.
    pub fn first_error(&self) -> Option<&JobError> {
        self.jobs.iter().find_map(|j| j.status.error())
    }

    /// True when every job finished [`JobStatus::Ok`].
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.status.is_ok())
    }
}

/// Folds every point's telemetry frame into one fleet store, scoped by
/// `job{j}/pt{p}` — the point's position in the *job* (plan order), not
/// the shard, so the key set is identical for every thread count and for
/// [`serial_reference`]. Deterministic per-point counters therefore total
/// bit-identically however the batch was sharded.
fn fleet_frame(jobs: &[JobResult]) -> MetricsFrame {
    let mut fleet = MetricsFrame::new();
    for (ji, job) in jobs.iter().enumerate() {
        for (pi, point) in job.points.iter().enumerate() {
            for (name, value) in &point.metrics.metrics {
                fleet.insert(format!("job{ji}/pt{pi}/{name}"), value.clone());
            }
        }
    }
    fleet
}

/// A shard's raw outcome before aggregation.
struct ShardOutput {
    points: Vec<SweepPoint>,
    min_period_ps: Option<Picos>,
    elapsed: Duration,
    /// Transient-failure retries this shard spent before succeeding.
    retries: u32,
}

/// A cancelled shard: a deadline or the watchdog cut it short. The points
/// it completed before the cut are counted but withheld (clean-cut: they
/// were bit-identical to the uncancelled prefix, but a partial job stays
/// partial).
struct ShardTimeout {
    elapsed: Duration,
    points_completed: usize,
    flight: Vec<isdc_telemetry::Event>,
}

/// A slot's terminal state: what the worker that drew the shard left
/// behind for the stitcher.
enum ShardOutcome {
    Ok(ShardOutput),
    Failed(JobError),
    TimedOut(ShardTimeout),
    /// The owning job had already failed terminally, so the shard was
    /// drawn and dropped without running.
    Skipped,
}

/// Renders a caught panic payload. `panic!` with a format string yields a
/// `String`, `panic!("literal")` a `&str`; anything else (a custom
/// `panic_any` payload, or `std::thread::scope`'s generic re-panic when an
/// inner worker died) falls back to a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one shard behind a panic boundary, retrying transient failures
/// (panics and injected faults) up to `max_retries` times with
/// deterministic exponential backoff. Never panics, never poisons.
///
/// When `token` is set it is installed for the shard's whole run, so every
/// cancellation checkpoint underneath — pipeline stages, iteration tops,
/// the oracle loop, the solver drain — polls it. A tripped deadline
/// surfaces as [`ShardOutcome::TimedOut`], **before** the transient check:
/// a spent budget is terminal, never retried.
fn run_shard_isolated<O: DelayOracle + ?Sized>(
    shard: &ShardJob,
    design: &BatchDesign,
    model: &OpDelayModel,
    oracle: &O,
    cache: &Arc<DelayCache>,
    max_retries: u32,
    token: Option<&CancelToken>,
) -> ShardOutcome {
    let _scope = token.map(CancelToken::install);
    let shard_start = Instant::now();
    let timed_out = |points_completed: usize| {
        ShardOutcome::TimedOut(ShardTimeout {
            elapsed: shard_start.elapsed(),
            points_completed,
            // Snapshot this worker's tail now: it still shows the last
            // spans before the cut (for a chaos stall, the stall site).
            flight: isdc_telemetry::flight_tail_current(),
        })
    };
    let mut retries = 0u32;
    loop {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            isdc_faults::fire("batch/shard-stall");
            isdc_faults::fire("batch/shard");
            run_shard(shard, design, model, oracle, Arc::clone(cache))
        }));
        let (kind, message) = match attempt {
            Ok(Ok(mut out)) => {
                // A sweep only comes back short when cancellation cut it
                // (infeasible periods record as infeasible *points*), so a
                // truncated prefix is a deterministic deadline signal.
                if let JobKind::Sweep { periods } = &shard.kind {
                    if out.points.len() < periods.len() {
                        return timed_out(out.points.len());
                    }
                }
                out.retries = retries;
                return ShardOutcome::Ok(out);
            }
            Ok(Err(ScheduleError::DeadlineExceeded)) => return timed_out(0),
            Ok(Err(error)) => {
                let message = error.to_string();
                (JobErrorKind::Schedule(error), message)
            }
            Err(payload) => (JobErrorKind::Panic, panic_message(payload.as_ref())),
        };
        // Panics and injected faults are treated as transient; real solver
        // errors are deterministic, so retrying them only wastes time.
        let transient = matches!(
            kind,
            JobErrorKind::Panic | JobErrorKind::Schedule(ScheduleError::Injected { .. })
        );
        if !transient || retries >= max_retries {
            return ShardOutcome::Failed(JobError {
                job: shard.job,
                shard: shard.shard,
                design: design.name.clone(),
                kind,
                message,
                retries,
                // Snapshot this worker's tail now, while it still shows
                // the failing shard (rings are bounded and shared).
                flight: isdc_telemetry::flight_tail_current(),
            });
        }
        retries += 1;
        let retry_span = isdc_telemetry::span_u64("shard:retry", "attempt", u64::from(retries));
        // Deterministic bounded backoff: 1ms · 2^(attempt-1), capped at
        // 64ms. No jitter — chaos runs must replay identically.
        std::thread::sleep(Duration::from_millis(1u64 << (retries - 1).min(6)));
        drop(retry_span);
    }
}

fn run_shard<O: DelayOracle + ?Sized>(
    shard: &ShardJob,
    design: &BatchDesign,
    model: &OpDelayModel,
    oracle: &O,
    cache: Arc<DelayCache>,
) -> Result<ShardOutput, ScheduleError> {
    let start = Instant::now();
    let mut session = IsdcSession::with_cache(&design.graph, model, oracle, cache);
    match &shard.kind {
        JobKind::Sweep { periods } => {
            let points = sweep_clock_period(&mut session, &design.base, periods)?;
            Ok(ShardOutput { points, min_period_ps: None, elapsed: start.elapsed(), retries: 0 })
        }
        JobKind::MinPeriod { lo, hi, tol_ps } => {
            let search = min_feasible_period(&mut session, &design.base, *lo, *hi, *tol_ps)?;
            Ok(ShardOutput {
                points: search.probes,
                min_period_ps: search.min_period_ps,
                elapsed: start.elapsed(),
                retries: 0,
            })
        }
    }
}

/// Executes `jobs` over `designs` on a pool of worker threads sharing
/// `cache`. See the [crate docs](crate) for the execution model, the
/// determinism guarantee, and the fault-tolerance contract.
///
/// Execution failures do **not** fail the call: each job carries its
/// [`JobStatus`], and [`BatchReport::first_error`] /
/// [`BatchReport::jobs_failed`] / [`BatchReport::jobs_timed_out`]
/// summarize them. The fleet frame gains six batch-level counters —
/// `fault/injected`, `job/retries`, `job/failed`, `job/timed_out`,
/// `cancel/deadline`, `cancel/watchdog` — all zero on a clean run.
///
/// # Errors
///
/// [`BatchError::UnknownDesign`] from planning. (Before the fault-
/// tolerance rework this call also failed on the first shard error;
/// callers that want that strictness check [`BatchReport::all_ok`].)
pub fn run_batch<O: DelayOracle + ?Sized>(
    designs: &[BatchDesign],
    jobs: &[Job],
    options: &BatchOptions,
    model: &OpDelayModel,
    oracle: &O,
    cache: &Arc<DelayCache>,
) -> Result<BatchReport, BatchError> {
    let shards = plan_shards(designs, jobs, options)?;
    let threads = options.resolved_threads().min(shards.len()).max(1);
    let batch_span = isdc_telemetry::span_u64("batch", "shards", shards.len() as u64);
    let stats_before = cache.stats();
    let injected_before = isdc_faults::injected_count();
    let start = Instant::now();
    let fleet_deadline_at = options.fleet_deadline.map(|budget| start + budget);

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Raised when a worker observed the fleet budget expired; distinguishes
    // abandoned shards that should report TimedOut from abort Skips.
    let fleet_expired = AtomicBool::new(false);
    // One flag per job: once a job fails terminally, its queued shards are
    // dropped (drawn and marked Skipped) instead of executed — their
    // points would be withheld anyway.
    let job_failed: Vec<AtomicBool> = jobs.iter().map(|_| AtomicBool::new(false)).collect();
    // A job's deadline clock starts at its *first shard claim*, so queue
    // wait behind other jobs never eats a job's own budget.
    let job_started: Vec<Mutex<Option<Instant>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let slots: Vec<Mutex<Option<ShardOutcome>>> = shards.iter().map(|_| Mutex::new(None)).collect();
    // Per-worker watchdog slots: the in-flight shard's cancel token, the
    // worker's flight track, and the shard-claim timestamp.
    let watch: Vec<Mutex<Option<(CancelToken, u32, u64)>>> =
        (0..threads).map(|_| Mutex::new(None)).collect();
    let workers_done = AtomicUsize::new(0);
    let watchdog_cancels = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for wi in 0..threads {
            let (next, stop, fleet_expired, job_failed, job_started, shards, slots, watch) =
                (&next, &stop, &fleet_expired, &job_failed, &job_started, &shards, &slots, &watch);
            let workers_done = &workers_done;
            scope.spawn(move || {
                // Each worker gets its own named track unconditionally:
                // the Perfetto view shows one lane per pool thread when
                // tracing is on, and the event log keeps a per-worker
                // flight tail (attached to `JobError`s) even when off.
                let track = isdc_telemetry::set_thread_track(format!("batch-worker-{wi}"));
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if fleet_deadline_at.is_some_and(|at| Instant::now() >= at) {
                        fleet_expired.store(true, Ordering::Relaxed);
                        break;
                    }
                    let at = next.fetch_add(1, Ordering::Relaxed);
                    let Some(shard) = shards.get(at) else { break };
                    let outcome = if job_failed[shard.job].load(Ordering::Relaxed) {
                        ShardOutcome::Skipped
                    } else {
                        let shard_span = isdc_telemetry::span_u64("shard", "job", shard.job as u64);
                        let design = isdc_telemetry::intern(&designs[shard.design].name);
                        shard_span.note(
                            "shard_info",
                            &[
                                ("shard", ArgValue::U64(shard.shard as u64)),
                                ("design", ArgValue::Str(design)),
                            ],
                        );
                        // The shard's budget: the job's own deadline
                        // tightened by the fleet budget. A deadline-free
                        // token still exists when only the watchdog is
                        // armed, so a stalled shard can be cancelled.
                        let job_deadline_at = jobs[shard.job].deadline_ms.map(|ms| {
                            let mut started =
                                job_started[shard.job].lock().unwrap_or_else(|e| e.into_inner());
                            *started.get_or_insert_with(Instant::now) + Duration::from_millis(ms)
                        });
                        let deadline_at = match (job_deadline_at, fleet_deadline_at) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        let token = match deadline_at {
                            Some(at) => Some(CancelToken::with_deadline_at(at)),
                            None if options.stall_timeout.is_some() => Some(CancelToken::new()),
                            None => None,
                        };
                        if options.stall_timeout.is_some() {
                            if let Some(token) = &token {
                                *watch[wi].lock().unwrap_or_else(|e| e.into_inner()) =
                                    Some((token.clone(), track, isdc_telemetry::now_ns()));
                            }
                        }
                        let outcome = run_shard_isolated(
                            shard,
                            &designs[shard.design],
                            model,
                            oracle,
                            cache,
                            options.max_retries,
                            token.as_ref(),
                        );
                        *watch[wi].lock().unwrap_or_else(|e| e.into_inner()) = None;
                        outcome
                    };
                    if matches!(outcome, ShardOutcome::Failed(_) | ShardOutcome::TimedOut(_)) {
                        job_failed[shard.job].store(true, Ordering::Relaxed);
                        if options.fail_policy == FailPolicy::Abort {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    // Poison-tolerant: the guarded store is a single
                    // assignment, so a poisoned slot still holds either
                    // `None` or a complete outcome — never a torn value.
                    *slots[at].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                }
                workers_done.fetch_add(1, Ordering::Release);
            });
        }
        // The stall watchdog: scans every in-flight shard's heartbeat (the
        // worker's flight tail — every span begin/end bumps it) and
        // cancels tokens that have gone silent too long. It only ever
        // *cancels*; the worker itself reports the TimedOut outcome, so
        // the watchdog can never tear a slot.
        if let Some(stall) = options.stall_timeout {
            let (watch, workers_done, watchdog_cancels) =
                (&watch, &workers_done, &watchdog_cancels);
            scope.spawn(move || {
                isdc_telemetry::set_thread_track("batch-watchdog");
                let poll = (stall / 4).max(Duration::from_millis(2));
                let stall_ns = stall.as_nanos() as u64;
                while workers_done.load(Ordering::Acquire) < threads {
                    std::thread::sleep(poll);
                    for slot in watch {
                        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
                        let Some((token, track, claimed_ns)) = guard.as_ref() else { continue };
                        let last_beat = isdc_telemetry::flight_tail(*track)
                            .last()
                            .map_or(*claimed_ns, |ev| ev.t_ns.max(*claimed_ns));
                        if isdc_telemetry::now_ns().saturating_sub(last_beat) > stall_ns {
                            token.cancel();
                            watchdog_cancels.fetch_add(1, Ordering::Relaxed);
                            // Clear the slot so each stall is counted (and
                            // cancelled) exactly once.
                            *guard = None;
                        }
                    }
                }
            });
        }
    });

    // Stitch shards back per job, in plan order. The first failed shard in
    // stitch order carries the job's error; abandoned (never-drawn) shards
    // only occur after an abort.
    let mut results: Vec<JobResult> = jobs
        .iter()
        .map(|job| JobResult {
            job: job.clone(),
            points: Vec::new(),
            min_period_ps: None,
            shards: 0,
            elapsed: Duration::ZERO,
            status: JobStatus::Ok,
            retries: 0,
        })
        .collect();
    let mut abandoned = vec![false; jobs.len()];
    let mut shards_cancelled = 0u64;
    for (shard, slot) in shards.iter().zip(slots) {
        let outcome = slot.into_inner().unwrap_or_else(|e| e.into_inner());
        let result = &mut results[shard.job];
        match outcome {
            Some(ShardOutcome::Ok(out)) => {
                result.retries += out.retries;
                result.points.extend(out.points);
                result.min_period_ps = result.min_period_ps.or(out.min_period_ps);
                result.shards += 1;
                result.elapsed += out.elapsed;
            }
            Some(ShardOutcome::Failed(error)) => {
                result.retries += error.retries;
                result.shards += 1;
                if result.status.is_ok() {
                    result.status = JobStatus::Failed(error);
                }
            }
            Some(ShardOutcome::TimedOut(cut)) => {
                result.shards += 1;
                result.elapsed += cut.elapsed;
                shards_cancelled += 1;
                if result.status.is_ok() {
                    // elapsed_ms is filled in below, once every sibling
                    // shard's elapsed has been stitched in.
                    result.status = JobStatus::TimedOut {
                        elapsed_ms: 0,
                        points_completed: cut.points_completed,
                        flight: cut.flight,
                    };
                }
            }
            Some(ShardOutcome::Skipped) => {}
            None => {
                debug_assert!(
                    stop.load(Ordering::Relaxed) || fleet_expired.load(Ordering::Relaxed),
                    "only an abort or the fleet budget abandons shards"
                );
                abandoned[shard.job] = true;
            }
        }
    }
    // A job the abort cut short (some shard never drawn) is Skipped, and
    // any partial points are withheld: which shards did run before the
    // abort landed depends on thread timing. When the fleet budget expired
    // instead, the cut-short job is TimedOut — not Skipped — so the report
    // says *why* it has no points.
    let fleet_expired = fleet_expired.load(Ordering::Relaxed);
    for (result, abandoned) in results.iter_mut().zip(abandoned) {
        if abandoned && result.status.is_ok() {
            result.status = if fleet_expired {
                JobStatus::TimedOut { elapsed_ms: 0, points_completed: 0, flight: Vec::new() }
            } else {
                JobStatus::Skipped
            };
        }
        if let JobStatus::TimedOut { elapsed_ms, points_completed, .. } = &mut result.status {
            // Sibling shards that did complete count toward the job's
            // completed points before the points themselves are withheld.
            *points_completed += result.points.len();
            *elapsed_ms = result.elapsed.as_millis() as u64;
        }
        if !result.status.is_ok() {
            result.points.clear();
            result.min_period_ps = None;
        }
    }
    drop(batch_span);
    let stats_after = cache.stats();
    let executed = results.iter().map(|r| r.shards).sum();
    let mut metrics = fleet_frame(&results);
    // Batch-level robustness counters, all zero on a clean run. The
    // injected count is the process-global hook counter's delta over this
    // batch (concurrent batches may both observe a shared fault — the
    // counter is telemetry, not an oracle).
    let injected = isdc_faults::injected_count().saturating_sub(injected_before);
    metrics.insert("fault/injected", MetricValue::Counter(injected));
    let retries: u64 = results.iter().map(|r| u64::from(r.retries)).sum();
    metrics.insert("job/retries", MetricValue::Counter(retries));
    let failed = results.iter().filter(|r| matches!(r.status, JobStatus::Failed(_))).count();
    metrics.insert("job/failed", MetricValue::Counter(failed as u64));
    let timed_out =
        results.iter().filter(|r| matches!(r.status, JobStatus::TimedOut { .. })).count();
    metrics.insert("job/timed_out", MetricValue::Counter(timed_out as u64));
    // `cancel/deadline` counts shards cut by cancellation (deadline, fleet
    // budget, or watchdog); `cancel/watchdog` counts the subset the stall
    // watchdog cancelled. Both zero on a clean run.
    metrics.insert("cancel/deadline", MetricValue::Counter(shards_cancelled));
    metrics
        .insert("cancel/watchdog", MetricValue::Counter(watchdog_cancels.load(Ordering::Relaxed)));
    // The shared cache keeps its own registry (it outlives any one run's
    // frame), so its eviction count is exported into the fleet frame here.
    metrics.insert(
        "cache/evictions",
        MetricValue::Counter(stats_after.evictions - stats_before.evictions),
    );
    Ok(BatchReport {
        jobs: results,
        threads,
        shards: executed,
        elapsed: start.elapsed(),
        cache: CacheStats {
            hits: stats_after.hits - stats_before.hits,
            misses: stats_after.misses - stats_before.misses,
            inserts: stats_after.inserts - stats_before.inserts,
            evictions: stats_after.evictions - stats_before.evictions,
        },
        metrics,
    })
}

/// The single-threaded reference the batch's determinism guarantee is
/// stated against: every job runs whole (no sharding) in its own fresh
/// session over its own **private** cache — exactly the PR 3 workflow of
/// calling [`isdc_core::sweep_clock_period`] per design. Used by the bench
/// and the bit-identity tests. Deadlines are ignored: the reference
/// defines *what the full results are*, so it always runs to completion.
///
/// # Errors
///
/// Same failures as [`run_batch`].
pub fn serial_reference<O: DelayOracle + ?Sized>(
    designs: &[BatchDesign],
    jobs: &[Job],
    model: &OpDelayModel,
    oracle: &O,
) -> Result<BatchReport, BatchError> {
    let start = Instant::now();
    let mut results = Vec::with_capacity(jobs.len());
    for (ji, job) in jobs.iter().enumerate() {
        let design = designs
            .iter()
            .find(|d| d.name == job.design)
            .ok_or_else(|| BatchError::UnknownDesign { job: ji, design: job.design.clone() })?;
        let shard = ShardJob { job: ji, design: 0, shard: 0, kind: job.kind.clone() };
        let cache = Arc::new(DelayCache::new());
        let out = run_shard(&shard, design, model, oracle, cache).map_err(|error| {
            BatchError::Schedule { job: ji, design: design.name.clone(), error }
        })?;
        results.push(JobResult {
            job: job.clone(),
            points: out.points,
            min_period_ps: out.min_period_ps,
            shards: 1,
            elapsed: out.elapsed,
            status: JobStatus::Ok,
            retries: 0,
        });
    }
    let metrics = fleet_frame(&results);
    Ok(BatchReport {
        jobs: results,
        threads: 1,
        shards: jobs.len(),
        elapsed: start.elapsed(),
        cache: CacheStats::default(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Job;

    fn designs() -> Vec<BatchDesign> {
        use isdc_ir::OpKind;
        let mut g = Graph::new("tiny");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let x = g.binary(OpKind::Add, a, b).unwrap();
        g.set_output(x);
        vec![BatchDesign {
            name: "tiny".into(),
            graph: g,
            base: IsdcConfig::paper_defaults(2500.0),
        }]
    }

    #[test]
    fn planning_chunks_sweeps_and_keeps_searches_whole() {
        let designs = designs();
        let jobs = vec![
            Job::sweep("tiny", (0..10).map(|i| 2500.0 + i as f64 * 100.0).collect()),
            Job::min_period("tiny", 1.0, 2500.0, 10.0),
        ];
        let options = BatchOptions { threads: 4, shard_points: 4, ..Default::default() };
        let shards = plan_shards(&designs, &jobs, &options).unwrap();
        assert_eq!(shards.len(), 3 + 1, "10 points at <=4 each, plus one search shard");
        let sizes: Vec<usize> = shards[..3]
            .iter()
            .map(|s| match &s.kind {
                JobKind::Sweep { periods } => periods.len(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        // Contiguous, order-preserving chunks.
        let JobKind::Sweep { periods } = &shards[1].kind else { unreachable!() };
        assert_eq!(periods[0], 2900.0);
        assert_eq!((shards[3].job, shards[3].shard), (1, 0));
    }

    #[test]
    fn auto_sharding_fills_threads_but_never_splits_at_one() {
        let designs = designs();
        let jobs = vec![Job::sweep("tiny", vec![2500.0; 12])];
        let one = BatchOptions { threads: 1, ..Default::default() };
        assert_eq!(plan_shards(&designs, &jobs, &one).unwrap().len(), 1);
        let eight = BatchOptions { threads: 8, ..Default::default() };
        let shards = plan_shards(&designs, &jobs, &eight).unwrap();
        assert!(shards.len() >= 8, "one job must still fill an 8-thread pool: {}", shards.len());
    }

    #[test]
    fn unknown_design_is_reported_with_its_job() {
        let err = plan_shards(
            &designs(),
            &[Job::sweep("tiny", vec![2500.0]), Job::sweep("nope", vec![2500.0])],
            &BatchOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, BatchError::UnknownDesign { job: 1, design: "nope".into() });
        assert!(err.to_string().contains("nope"));
    }
}
