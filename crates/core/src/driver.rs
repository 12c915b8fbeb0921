//! The ISDC iteration driver (paper Fig. 2 and §III-A).
//!
//! Ties everything together by composing the staged pipeline
//! ([`crate::pipeline`]): the initial SDC solve, then `Extract -> Dedupe ->
//! Evaluate -> Feedback -> Reformulate -> Solve` per iteration until
//! register usage stabilizes. [`run_isdc`] is the one-shot entry point; the
//! cross-run entry point is [`IsdcSession`](crate::IsdcSession), which
//! drives the same pipeline but keeps the delay cache and LP potentials
//! alive between runs.

use crate::delay::DelayMatrix;
use crate::metrics;
use crate::pipeline::{
    run_stage, Dedupe, Evaluate, Extract, Feedback, PipelineState, Reformulate, RunSeed, Solve,
};
use crate::schedule::Schedule;
use crate::scheduler::IncrementalScheduler;
use crate::scheduler::{schedule_with_matrix, ScheduleError};
use crate::subgraph::{ExtractionConfig, ScoringStrategy, ShapeStrategy};
use isdc_cache::{CacheStats, CachingOracle, DelayCache};
use isdc_ir::Graph;
use isdc_sdc::DrainStats;
use isdc_synth::{DelayOracle, OpDelayModel};
use isdc_techlib::Picos;
use isdc_telemetry::{MetricValue, MetricsFrame};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for an ISDC run.
#[derive(Clone, Debug, PartialEq)]
pub struct IsdcConfig {
    /// Target clock period in picoseconds.
    pub clock_period_ps: Picos,
    /// Subgraphs extracted and evaluated per iteration (the paper's `m`;
    /// their main evaluation uses 16).
    pub subgraphs_per_iteration: usize,
    /// Upper bound on feedback iterations (the paper uses 15 in Table I and
    /// 30 in the ablations).
    pub max_iterations: usize,
    /// Path ranking strategy.
    pub scoring: ScoringStrategy,
    /// Path expansion strategy.
    pub shape: ShapeStrategy,
    /// Worker threads for subgraph evaluation.
    pub threads: usize,
    /// Stop after this many consecutive iterations without a register-usage
    /// change ("until a stable scheduling result is achieved").
    pub convergence_patience: usize,
    /// Memoize downstream evaluations by structural fingerprint
    /// ([`isdc_cache::CachingOracle`]). Extracted subgraphs overlap heavily
    /// across iterations, so most lookups hit after the first iteration.
    pub cache: bool,
    /// Optional cache snapshot path: loaded (best-effort) before the run
    /// and saved after it, so delay data survives across runs and sweeps.
    /// Ignored unless [`IsdcConfig::cache`] is set.
    pub cache_file: Option<PathBuf>,
    /// Entry-capacity bound for the delay cache this run creates when
    /// [`IsdcConfig::cache`] is set (segmented-LRU eviction — see
    /// [`isdc_cache::DelayCache::with_capacity`]). `0` = unbounded.
    /// Ignored when the caller supplies its own cache (sessions, batch).
    pub cache_capacity: usize,
    /// Solve each iteration's LP incrementally ([`IncrementalScheduler`]):
    /// the difference system persists across iterations, only dirty timing
    /// pairs are re-emitted, and the min-cost-flow re-solve is warm-started
    /// from the previous optimum (sound because Alg. 1 only ever relaxes
    /// bounds). Schedules are bit-identical either way; this knob only
    /// trades solver time, so it defaults to on.
    pub incremental: bool,
    /// Compute the per-iteration **oracle quality metrics**
    /// ([`IterationRecord::estimation_error_pct`] and its naive twin),
    /// which time every pipeline stage through the downstream oracle after
    /// each iteration. Defaults to on;
    /// [`sweep_clock_period`](crate::sweep_clock_period) turns it off for
    /// non-final sweep points,
    /// where the records are never read — schedules, register bits and
    /// convergence are unaffected either way (the metrics are purely
    /// observational), only the error columns read 0.
    ///
    /// **Not to be confused with telemetry.** This flag gates the paper's
    /// Fig. 7 estimation-error measurement (extra oracle work per
    /// iteration); it has nothing to do with the `isdc-telemetry` span /
    /// metrics-registry layer, which is controlled globally by
    /// [`isdc_telemetry::set_enabled`] (CLI: `--trace`) and records
    /// every iteration — including ones whose quality metrics this flag
    /// skips. With metrics off the `oracle_metrics` span simply never
    /// opens inside the `iteration` span.
    pub iteration_metrics: bool,
}

impl IsdcConfig {
    /// The paper's main-evaluation settings: fanout-driven windows, 16
    /// subgraphs per iteration, at most 15 iterations, no memoization.
    pub fn paper_defaults(clock_period_ps: Picos) -> Self {
        Self {
            clock_period_ps,
            subgraphs_per_iteration: 16,
            max_iterations: 15,
            scoring: ScoringStrategy::FanoutDriven,
            shape: ShapeStrategy::Window,
            threads: 4,
            convergence_patience: 2,
            cache: false,
            cache_file: None,
            cache_capacity: 0,
            incremental: true,
            iteration_metrics: true,
        }
    }

    /// Enables oracle memoization, optionally persisted at `file`.
    pub fn with_cache(mut self, file: Option<PathBuf>) -> Self {
        self.cache = true;
        self.cache_file = file;
        self
    }

    pub(crate) fn extraction(&self) -> ExtractionConfig {
        ExtractionConfig {
            scoring: self.scoring,
            shape: self.shape,
            max_subgraphs: self.subgraphs_per_iteration,
            clock_period_ps: self.clock_period_ps,
        }
    }
}

/// Per-iteration quality snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct IterationRecord {
    /// Iteration index; 0 is the initial (pure SDC) schedule.
    pub iteration: usize,
    /// Total pipeline register bits after this iteration's schedule.
    pub register_bits: u64,
    /// Pipeline depth.
    pub num_stages: u32,
    /// Mean relative delay-estimation error vs. the downstream oracle, in
    /// percent (Fig. 7's metric).
    pub estimation_error_pct: f64,
    /// The same error computed with the *naive* (never-updated) delay matrix
    /// — what the original SDC scheduler would believe about this schedule.
    /// Fig. 7 contrasts the two trajectories.
    pub naive_estimation_error_pct: f64,
    /// Subgraphs evaluated in this iteration (0 for the initial schedule).
    pub subgraphs_evaluated: usize,
    /// Oracle-cache hits recorded during this iteration (0 with caching
    /// off). Counts every memoized lookup, including the metric snapshots.
    pub cache_hits: u64,
    /// Oracle-cache misses recorded during this iteration (0 with caching
    /// off).
    pub cache_misses: u64,
    /// Wall-clock time spent building/updating and solving this iteration's
    /// LP (a subset of [`IterationRecord::elapsed`]). The cold-vs-warm gap
    /// here is what [`IsdcConfig::incremental`] buys.
    pub solver_time: Duration,
    /// Whether this iteration's LP re-solve was warm-started (always false
    /// with [`IsdcConfig::incremental`] off, for the initial schedule, and
    /// after any cold fallback).
    pub solver_warm: bool,
    /// SSP drain counters of this iteration's LP solve: Dijkstra searches,
    /// nodes settled, augmenting paths, flow pushed. The drain runs one
    /// search per path, so `dijkstras == paths`; all zero with
    /// [`IsdcConfig::incremental`] off (the one-shot solver's counters are
    /// not retrievable) and for cached zero-delta re-solves.
    pub drain: DrainStats,
    /// Wall-clock time spent in this iteration.
    pub elapsed: Duration,
}

impl IterationRecord {
    /// Cache hits over lookups for this iteration, or 0.0 without lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The outcome of an ISDC run.
#[derive(Clone, Debug)]
pub struct IsdcResult {
    /// The final (best) schedule.
    pub schedule: Schedule,
    /// The feedback-updated delay matrix at termination.
    pub delays: DelayMatrix,
    /// One record per iteration, starting with the initial SDC schedule.
    pub history: Vec<IterationRecord>,
    /// Final oracle-cache counters, when caching was enabled.
    pub cache_stats: Option<CacheStats>,
    /// Every metric the run recorded, as one mergeable telemetry frame:
    /// per-stage wall-clock and invocations (`stage/{name}/ns`,
    /// `stage/{name}/calls`), solver drain totals (`drain/*`),
    /// iteration/subgraph counts (`run/*`), the LP solve-time histogram
    /// (`solve/ns`) and — when caching was on — this run's share of cache
    /// traffic (`cache/*`).
    pub metrics: MetricsFrame,
    /// Total wall-clock scheduling time.
    pub total_time: Duration,
}

impl IsdcResult {
    /// The last iteration's record.
    ///
    /// # Panics
    ///
    /// Never panics: a successful run records at least the initial schedule.
    pub fn final_record(&self) -> &IterationRecord {
        self.history.last().expect("history is never empty")
    }

    /// Number of feedback iterations executed (excluding the initial
    /// schedule).
    pub fn iterations(&self) -> usize {
        self.history.len().saturating_sub(1)
    }
}

/// Runs plain (baseline) SDC scheduling: one LP solve on the naive delay
/// matrix. Returns the schedule and the matrix for further analysis.
///
/// # Errors
///
/// See [`ScheduleError`].
pub fn run_sdc(
    graph: &Graph,
    model: &OpDelayModel,
    clock_period_ps: Picos,
) -> Result<(Schedule, DelayMatrix), ScheduleError> {
    let delays = DelayMatrix::initialize(graph, &model.all_node_delays(graph));
    let schedule = schedule_with_matrix(graph, &delays, clock_period_ps)?;
    Ok((schedule, delays))
}

/// Runs the full ISDC loop.
///
/// `model` provides the naive per-op delays (the initial matrix); `oracle`
/// is the downstream tool that times extracted subgraphs.
///
/// # Errors
///
/// See [`ScheduleError`]. Feasibility can only improve across iterations
/// (delay updates are monotonically non-increasing, so timing constraints
/// only relax), hence errors after the first solve indicate misuse.
///
/// # Examples
///
/// ```
/// use isdc_core::{run_isdc, IsdcConfig};
/// use isdc_ir::{Graph, OpKind};
/// use isdc_synth::{OpDelayModel, SynthesisOracle};
/// use isdc_techlib::TechLibrary;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new("mac");
/// let a = g.param("a", 16);
/// let b = g.param("b", 16);
/// let c = g.param("c", 16);
/// let p = g.binary(OpKind::Mul, a, b)?;
/// let s = g.binary(OpKind::Add, p, c)?;
/// g.set_output(s);
///
/// let lib = TechLibrary::sky130();
/// let model = OpDelayModel::new(lib.clone());
/// let oracle = SynthesisOracle::new(lib);
/// let mut config = IsdcConfig::paper_defaults(5000.0);
/// config.threads = 1;
/// let result = run_isdc(&g, &model, &oracle, &config)?;
/// assert!(result.final_record().register_bits <= result.history[0].register_bits);
/// # Ok(())
/// # }
/// ```
pub fn run_isdc<O: DelayOracle + ?Sized>(
    graph: &Graph,
    model: &OpDelayModel,
    oracle: &O,
    config: &IsdcConfig,
) -> Result<IsdcResult, ScheduleError> {
    if !config.cache {
        return run_pipeline(graph, model, oracle, config, None, RunSeed::default())
            .map(|o| o.result);
    }
    let cache = Arc::new(DelayCache::with_capacity(config.cache_capacity));
    if let Some(path) = &config.cache_file {
        // Best-effort: a missing, stale or foreign-oracle snapshot only
        // costs misses. The oracle tag check inside `load` prevents
        // replaying delays that a *different* downstream flow measured.
        let _ = cache.load(path, oracle.name());
    }
    let caching = CachingOracle::with_cache(oracle, Arc::clone(&cache));
    let result = run_pipeline(graph, model, &caching, config, Some(&cache), RunSeed::default())
        .map(|o| o.result);
    if result.is_ok() {
        if let Some(path) = &config.cache_file {
            let _ = cache.save(path, oracle.name());
        }
    }
    result
}

/// A completed run plus the cross-run assets [`crate::IsdcSession`] keeps.
pub(crate) struct PipelineOutcome {
    pub(crate) result: IsdcResult,
    /// LP potentials exported after the initial (naive-matrix) solve; a
    /// later run of the same design imports them to skip its cold start.
    pub(crate) initial_potentials: Option<Vec<i64>>,
    /// The engine cloned after the initial solve, when the seed asked for
    /// it — next run's retarget material.
    pub(crate) initial_engine: Option<IncrementalScheduler>,
    /// Whether the initial solve itself was warm-started (only possible
    /// with a seeded engine or imported potentials).
    pub(crate) initial_warm: bool,
}

/// The full ISDC loop over the staged pipeline. `cache` (when present) is
/// only read for per-iteration hit/miss accounting — lookups themselves go
/// through `oracle`, which the caller has already wrapped if it wants
/// memoization. `seed` warm-starts the initial LP solve.
pub(crate) fn run_pipeline<O: DelayOracle + ?Sized>(
    graph: &Graph,
    model: &OpDelayModel,
    oracle: &O,
    config: &IsdcConfig,
    cache: Option<&DelayCache>,
    seed: RunSeed<'_>,
) -> Result<PipelineOutcome, ScheduleError> {
    let _run_span = isdc_telemetry::span_f64("run", "clock_ps", config.clock_period_ps);
    let start = Instant::now();
    let stats_now = || cache.map(|c| c.stats()).unwrap_or_default();
    let run_stats_start = stats_now();
    let mut stats_before = run_stats_start;
    let mut state = PipelineState::new(graph, model, oracle, config, seed)?;
    // The never-updated matrix is only consumed by the oracle metrics;
    // skip the O(pairs) copy when those are off.
    let naive = config.iteration_metrics.then(|| state.delays().clone());
    let initial_potentials = state.initial_potentials().map(<[i64]>::to_vec);
    let initial_engine = state.take_initial_engine();
    let initial_warm = state.solver_warm();
    let mut history = vec![snapshot(
        graph,
        state.schedule(),
        state.delays(),
        naive.as_ref(),
        oracle,
        SolveInfo {
            iteration: 0,
            subgraphs_evaluated: 0,
            solver_time: state.initial_solve_time(),
            solver_warm: initial_warm,
            drain: state.solver_drain(),
            metrics: config.iteration_metrics,
        },
        &mut stats_before,
        &stats_now,
        start.elapsed(),
    )];

    let mut stable_for = 0usize;
    let mut prev_bits = state.schedule().register_bits(graph);
    for iteration in 1..=config.max_iterations {
        // Per-iteration cancellation poll (one relaxed load disarmed) and
        // the matching chaos hook. Completed iterations stay in `history`;
        // the caller's error path discards only the in-flight run.
        isdc_cancel::checkpoint().map_err(|_| ScheduleError::DeadlineExceeded)?;
        isdc_faults::trip("pipeline/iteration")
            .map_err(|fault| ScheduleError::Injected { site: fault.site })?;
        // Opened unconditionally: iterations whose *quality metrics* are
        // skipped (`iteration_metrics: false`) still get full span
        // coverage — only the oracle_metrics child span is absent.
        let _iter_span = isdc_telemetry::span_u64("iteration", "i", iteration as u64);
        let iter_start = Instant::now();
        let (subgraphs, _) = run_stage(&mut Extract, &mut state, ())?;
        if subgraphs.is_empty() {
            break; // nothing left to refine (e.g. single-stage pipeline)
        }
        let (subgraphs, _) = run_stage(&mut Dedupe, &mut state, subgraphs)?;
        let (evaluated, _) = run_stage(&mut Evaluate, &mut state, subgraphs)?;
        let subgraphs_evaluated = evaluated.0.len();
        let (dirty, _) = run_stage(&mut Feedback, &mut state, evaluated)?;
        let (dirty, reformulate_time) = run_stage(&mut Reformulate, &mut state, dirty)?;
        let (solver_warm, solve_time) = run_stage(&mut Solve, &mut state, dirty)?;

        let next_bits = state.schedule().register_bits(graph);
        state.metrics().iterations.incr();
        history.push(snapshot(
            graph,
            state.schedule(),
            state.delays(),
            naive.as_ref(),
            oracle,
            SolveInfo {
                iteration,
                subgraphs_evaluated,
                // Matrix maintenance + LP re-solve, mirroring what the
                // pre-pipeline driver timed under this name.
                solver_time: reformulate_time + solve_time,
                solver_warm,
                drain: state.solver_drain(),
                metrics: config.iteration_metrics,
            },
            &mut stats_before,
            &stats_now,
            iter_start.elapsed(),
        ));
        if next_bits == prev_bits {
            stable_for += 1;
            if stable_for >= config.convergence_patience {
                break;
            }
        } else {
            stable_for = 0;
        }
        prev_bits = next_bits;
    }

    let mut metrics_frame = state.metrics_frame();
    if cache.is_some() {
        // This run's share of the (possibly shared) cache's traffic, as
        // registry-shaped counters alongside the pipeline's own.
        let final_stats = stats_now();
        metrics_frame
            .insert("cache/hits", MetricValue::Counter(final_stats.hits - run_stats_start.hits));
        metrics_frame.insert(
            "cache/misses",
            MetricValue::Counter(final_stats.misses - run_stats_start.misses),
        );
        metrics_frame.insert(
            "cache/inserts",
            MetricValue::Counter(final_stats.inserts - run_stats_start.inserts),
        );
    }
    let total_time = start.elapsed();
    // Run reports use this as the wall-clock denominator (stage times
    // exclude snapshotting and convergence bookkeeping).
    metrics_frame.insert("run/total_ns", MetricValue::Counter(total_time.as_nanos() as u64));
    Ok(PipelineOutcome {
        result: IsdcResult {
            schedule: state.schedule().clone(),
            delays: state.delays().clone(),
            history,
            cache_stats: cache.map(|c| c.stats()),
            metrics: metrics_frame,
            total_time,
        },
        initial_potentials,
        initial_engine,
        initial_warm,
    })
}

/// Per-iteration solver facts threaded into [`snapshot`].
struct SolveInfo {
    iteration: usize,
    subgraphs_evaluated: usize,
    solver_time: Duration,
    solver_warm: bool,
    drain: DrainStats,
    /// [`IsdcConfig::iteration_metrics`]: whether to pay for the oracle
    /// quality metrics on this record.
    metrics: bool,
}

#[allow(clippy::too_many_arguments)]
fn snapshot<O: DelayOracle + ?Sized>(
    graph: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
    naive: Option<&DelayMatrix>,
    oracle: &O,
    solve: SolveInfo,
    stats_before: &mut CacheStats,
    stats_now: &dyn Fn() -> CacheStats,
    elapsed: Duration,
) -> IterationRecord {
    let (error_pct, naive_error_pct) = if solve.metrics {
        let _span = isdc_telemetry::span("oracle_metrics");
        let sta = metrics::stage_sta_delays(graph, schedule, oracle);
        let est = metrics::estimated_stage_delays(graph, schedule, delays);
        let naive = naive.expect("naive matrix retained while metrics are on");
        let naive_est = metrics::estimated_stage_delays(graph, schedule, naive);
        (metrics::estimation_error_pct(&est, &sta), metrics::estimation_error_pct(&naive_est, &sta))
    } else {
        // Metrics skipped (e.g. a sweep's inner points): the oracle is not
        // consulted at all, which is the whole saving.
        (0.0, 0.0)
    };
    let stats_after = stats_now();
    let record = IterationRecord {
        iteration: solve.iteration,
        register_bits: schedule.register_bits(graph),
        num_stages: schedule.num_stages(),
        estimation_error_pct: error_pct,
        naive_estimation_error_pct: naive_error_pct,
        subgraphs_evaluated: solve.subgraphs_evaluated,
        cache_hits: stats_after.hits - stats_before.hits,
        cache_misses: stats_after.misses - stats_before.misses,
        solver_time: solve.solver_time,
        solver_warm: solve.solver_warm,
        drain: solve.drain,
        elapsed,
    };
    *stats_before = stats_after;
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;
    use isdc_synth::{NaiveSumOracle, SynthesisOracle};
    use isdc_techlib::TechLibrary;

    /// A datapath with enough chained arithmetic that naive estimates force
    /// splits which feedback can undo.
    fn datapath() -> Graph {
        // Summing per-op adder delays wildly overestimates a fused
        // carry-lookahead chain, so feedback has real slack to harvest.
        let mut g = Graph::new("dp");
        let inputs: Vec<_> = (0..10).map(|i| g.param(format!("p{i}"), 8)).collect();
        let mut acc = g.binary(OpKind::Add, inputs[0], inputs[1]).unwrap();
        for &p in &inputs[2..] {
            acc = g.binary(OpKind::Add, acc, p).unwrap();
        }
        let out = g.binary(OpKind::Xor, acc, inputs[0]).unwrap();
        g.set_output(out);
        g
    }

    fn quick_config(clock: f64) -> IsdcConfig {
        IsdcConfig {
            subgraphs_per_iteration: 8,
            max_iterations: 8,
            threads: 1,
            ..IsdcConfig::paper_defaults(clock)
        }
    }

    #[test]
    fn isdc_never_worse_than_sdc() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let (baseline, _) = run_sdc(&g, &model, 2500.0).unwrap();
        let result = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        assert_eq!(result.history[0].register_bits, baseline.register_bits(&g));
        assert!(
            result.final_record().register_bits <= result.history[0].register_bits,
            "feedback must not increase register usage"
        );
        assert_eq!(result.schedule.first_dependency_violation(&g), None);
    }

    #[test]
    fn isdc_reduces_registers_on_chained_arithmetic() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let result = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        assert!(
            result.final_record().register_bits < result.history[0].register_bits,
            "history: {:?}",
            result.history.iter().map(|r| r.register_bits).collect::<Vec<_>>()
        );
    }

    #[test]
    fn no_gain_oracle_changes_nothing() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = NaiveSumOracle::new(OpDelayModel::new(lib));
        let g = datapath();
        let result = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        let first = result.history[0].register_bits;
        for rec in &result.history {
            assert_eq!(rec.register_bits, first, "naive feedback must be a no-op");
        }
        // And it must converge early rather than burn all iterations.
        assert!(result.iterations() < quick_config(2500.0).max_iterations);
    }

    #[test]
    fn single_stage_converges_immediately() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let mut g = Graph::new("tiny");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let x = g.binary(OpKind::Xor, a, b).unwrap();
        g.set_output(x);
        let result = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        assert_eq!(result.schedule.num_stages(), 1);
        assert_eq!(result.iterations(), 0);
    }

    #[test]
    fn history_is_monotone_nonincreasing_for_synthesis_oracle() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let result = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        for w in result.history.windows(2) {
            assert!(
                w[1].register_bits <= w[0].register_bits,
                "register usage regressed: {:?}",
                result.history.iter().map(|r| r.register_bits).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn cached_run_matches_uncached() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let plain = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        let cached_config = quick_config(2500.0).with_cache(None);
        let cached = run_isdc(&g, &model, &oracle, &cached_config).unwrap();
        assert_eq!(cached.schedule, plain.schedule, "memoization must not change results");
        assert_eq!(
            cached.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
            plain.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
        );
        let stats = cached.cache_stats.expect("stats recorded when caching");
        assert!(stats.hits > 0, "iterations repeat subgraphs, so hits must occur: {stats:?}");
        assert!(plain.cache_stats.is_none());
        let total_hits: u64 = cached.history.iter().map(|r| r.cache_hits).sum();
        let total_misses: u64 = cached.history.iter().map(|r| r.cache_misses).sum();
        assert_eq!(total_hits, stats.hits, "per-iteration hits must sum to the total");
        assert_eq!(total_misses, stats.misses);
        assert!(cached.history.last().unwrap().cache_hit_rate() > 0.0);
    }

    #[test]
    fn incremental_run_is_bit_identical_to_from_scratch() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let incremental = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        let cold_config = IsdcConfig { incremental: false, ..quick_config(2500.0) };
        let from_scratch = run_isdc(&g, &model, &oracle, &cold_config).unwrap();
        assert_eq!(
            incremental.schedule, from_scratch.schedule,
            "incremental solving must not change results"
        );
        assert_eq!(incremental.history.len(), from_scratch.history.len());
        for (a, b) in incremental.history.iter().zip(&from_scratch.history) {
            assert_eq!(a.register_bits, b.register_bits, "iteration {}", a.iteration);
            assert_eq!(a.num_stages, b.num_stages, "iteration {}", a.iteration);
        }
        // The whole point: feedback iterations re-solve warm.
        assert!(!incremental.history[0].solver_warm, "initial solve is cold");
        assert!(
            incremental.history[1..].iter().all(|r| r.solver_warm),
            "feedback iterations must warm-start: {:?}",
            incremental.history.iter().map(|r| r.solver_warm).collect::<Vec<_>>()
        );
        assert!(from_scratch.history.iter().all(|r| !r.solver_warm));
    }

    #[test]
    fn estimation_error_shrinks_with_feedback() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let result = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        let first = result.history[0].estimation_error_pct;
        let last = result.final_record().estimation_error_pct;
        assert!(last <= first + 1e-9, "error should not grow: {first:.2}% -> {last:.2}%");
    }
}
