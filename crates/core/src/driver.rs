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
use isdc_ir::{Graph, NodeId};
use isdc_sdc::DrainStats;
use isdc_synth::{DelayOracle, OpDelayModel};
use isdc_techlib::Picos;
use isdc_telemetry::{MetricValue, MetricsFrame};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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
    /// ([`isdc_cache::CachingOracle`]). A run times each distinct member
    /// set once without it and answers its own repeats before they reach
    /// the cache, so the cache serves what the run cannot: a structurally
    /// identical region at other node ids, and every later run, session
    /// or snapshot file that shares it.
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
    /// Compute the per-iteration **oracle quality metrics**
    /// ([`IterationRecord::estimation_error_pct`] and its naive twin) for
    /// the initial schedule and after each iteration. A snapshot times
    /// through the downstream oracle only the stages whose member set this
    /// run has not timed yet, as a stage or as an Evaluate subgraph (one at
    /// a time, on the calling thread, with a cancellation poll before
    /// each), reuses the rest, and derives the naive estimate from an
    /// n-entry vector of per-node delays, so the run keeps no copy of the
    /// n×n naive matrix. Its wall-clock is reported as
    /// `stage/oracle_metrics/ns`. Defaults to on;
    /// [`sweep_clock_period`](crate::sweep_clock_period) turns it off for
    /// non-final sweep points,
    /// where the records are never read — schedules, register bits and
    /// convergence are unaffected either way (the metrics are purely
    /// observational), only the error columns read 0.
    ///
    /// **Not to be confused with telemetry.** This flag gates the paper's
    /// Fig. 7 estimation-error measurement (extra oracle work per
    /// iteration); it has nothing to do with the `isdc-telemetry` span
    /// layer, which is controlled globally by
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

/// Per-iteration quality snapshot. Its counters and `solver_time` are what
/// the run's [`IsdcResult::metrics`] frame gained since the record before
/// it, so the records sum to the frame.
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
    /// Subgraphs this iteration's Evaluate sent to the oracle (0 for the
    /// initial schedule). A member set the run had already timed, in an
    /// earlier iteration or as a snapshot's stage, is answered from the
    /// run's memo and counted under `run/subgraphs_reused` instead.
    pub subgraphs_evaluated: usize,
    /// Oracle-cache hits recorded during this iteration (0 with caching
    /// off). Only member sets the run has not timed yet reach the cache,
    /// from Evaluate or a quality snapshot, so in-run repeats are never
    /// lookups: hits are structurally identical regions at other node ids
    /// and entries from earlier runs or snapshot files.
    pub cache_hits: u64,
    /// Oracle-cache misses recorded during this iteration (0 with caching
    /// off).
    pub cache_misses: u64,
    /// Wall-clock time spent maintaining the delay matrix (Alg. 2) and
    /// re-solving this iteration's LP through the persistent
    /// [`IncrementalScheduler`] (`stage/reformulate/ns` plus
    /// `stage/solve/ns`); for the initial schedule, the LP build (or a
    /// seeded engine's retarget) and its first solve.
    pub solver_time: Duration,
    /// Whether this iteration's LP re-solve was warm-started (false for an
    /// unseeded initial schedule and after any cold fallback).
    pub solver_warm: bool,
    /// SSP drain counters of this iteration's LP solve: Dijkstra searches,
    /// nodes settled, augmenting paths, flow pushed. A warm re-drain runs
    /// one search per path, so `dijkstras == paths`; a cold solve delivers
    /// most paths by its zero-cost max flow, so `dijkstras <= paths`. All
    /// zero for cached zero-delta re-solves.
    pub drain: DrainStats,
}

impl IterationRecord {
    /// Cache hits over lookups for this iteration, or 0.0 without lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        CacheStats { hits: self.cache_hits, misses: self.cache_misses, ..CacheStats::default() }
            .hit_rate()
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
    /// Every metric the run recorded, as one telemetry frame:
    /// per-stage wall-clock and invocations (`stage/{name}/ns`,
    /// `stage/{name}/calls`), including the oracle quality snapshots as
    /// `stage/oracle_metrics/*` (zero with
    /// [`IsdcConfig::iteration_metrics`] off); solver drain totals
    /// (`drain/*`); iteration counts and the oracle's traffic (`run/*`):
    /// `run/subgraphs_evaluated` and `run/stages_evaluated`, the subgraphs
    /// and snapshot stages sent to the oracle, whose sum is the run's
    /// oracle calls, and `run/subgraphs_reused` and `run/stages_reused`,
    /// those answered from the run's earlier reports; the LP solve-time
    /// histogram (`solve/ns`); and — when caching was on, and only then —
    /// this run's own cache lookups (`cache/hits`, `cache/misses`,
    /// `cache/inserts`).
    pub metrics: MetricsFrame,
    /// Total wall-clock scheduling time: the length of the run's `run`
    /// span, also reported as `run/total_ns`.
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
    let result =
        run_pipeline(graph, model, &caching, config, Some(&|| caching.stats()), RunSeed::default())
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
}

/// The full ISDC loop over the staged pipeline. `cache_stats` (when
/// present) reads the lookup counts of the run's own [`CachingOracle`],
/// which the caller wrapped `oracle` in; each snapshot copies them into
/// the frame as `cache/*`. `seed` warm-starts the initial LP solve.
pub(crate) fn run_pipeline<O: DelayOracle + ?Sized>(
    graph: &Graph,
    model: &OpDelayModel,
    oracle: &O,
    config: &IsdcConfig,
    cache_stats: Option<&dyn Fn() -> CacheStats>,
    seed: RunSeed<'_>,
) -> Result<PipelineOutcome, ScheduleError> {
    let run_span = isdc_telemetry::span_f64("run", "clock_ps", config.clock_period_ps);
    let mut state = PipelineState::new(graph, model, oracle, config, seed)?;
    let probe = config.iteration_metrics.then(|| QualityProbe::new(state.delays()));
    let initial_potentials = state.initial_potentials().map(<[i64]>::to_vec);
    let initial_engine = state.take_initial_engine();
    let mut history = Vec::new();
    history.push(snapshot(&mut state, probe.as_ref(), cache_stats, &history)?);

    let mut stable_for = 0usize;
    let mut prev_bits = history[0].register_bits;
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
        let (subgraphs, _) = run_stage(&mut Extract, &mut state, ())?;
        if subgraphs.is_empty() {
            break; // nothing left to refine (e.g. single-stage pipeline)
        }
        let (subgraphs, _) = run_stage(&mut Dedupe, &mut state, subgraphs)?;
        let (evaluated, _) = run_stage(&mut Evaluate, &mut state, subgraphs)?;
        let (dirty, _) = run_stage(&mut Feedback, &mut state, evaluated)?;
        let (dirty, _) = run_stage(&mut Reformulate, &mut state, dirty)?;
        run_stage(&mut Solve, &mut state, dirty)?;
        state.frame.add("run/iterations", 1);
        history.push(snapshot(&mut state, probe.as_ref(), cache_stats, &history)?);

        let next_bits = history[iteration].register_bits;
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

    let total_time = run_span.finish();
    let (schedule, delays, mut metrics) = state.into_parts();
    // Run reports use this as the wall-clock denominator (the stage times,
    // `stage/oracle_metrics/ns` among them, exclude matrix set-up and
    // convergence bookkeeping).
    metrics.insert("run/total_ns", MetricValue::Counter(total_time.as_nanos() as u64));
    Ok(PipelineOutcome {
        result: IsdcResult { schedule, delays, history, metrics, total_time },
        initial_potentials,
        initial_engine,
    })
}

/// What one run's oracle quality snapshots keep between iterations
/// (present only with [`IsdcConfig::iteration_metrics`] on): the naive
/// per-node delays (the initial matrix's diagonal), which are all that the
/// never-updated matrix's stage estimates depend on. The stages' measured
/// delays come from the run's report memo, which Evaluate fills too.
struct QualityProbe {
    naive_node_delays: Vec<Picos>,
}

impl QualityProbe {
    fn new(initial: &DelayMatrix) -> Self {
        let naive_node_delays =
            (0..initial.len()).map(|v| initial.node_delay(NodeId(v as u32))).collect();
        Self { naive_node_delays }
    }

    /// Fig. 7's estimation errors of the current schedule against the
    /// oracle: `(feedback-updated, naive)`. Stages whose member set the
    /// run has not timed yet go through the oracle on the calling thread,
    /// in stage order, with a cancellation poll before each.
    fn errors<O: DelayOracle + ?Sized>(
        &self,
        state: &mut PipelineState<'_, O>,
    ) -> Result<(f64, f64), ScheduleError> {
        let span = isdc_telemetry::span("oracle_metrics");
        let stages = state.schedule().stages();
        let timed: Vec<&[NodeId]> =
            stages.iter().filter(|members| !members.is_empty()).map(Vec::as_slice).collect();
        let evaluated =
            state.memo.time_missing(state.oracle, state.graph, timed.iter().copied(), 1)?;
        let memo = &state.memo;
        let sta: Vec<Picos> =
            stages.iter().map(|m| if m.is_empty() { 0.0 } else { memo.get(m).delay_ps }).collect();
        let (graph, schedule) = (state.graph, state.schedule());
        let est = metrics::estimated_stage_delays(graph, schedule, state.delays());
        let naive_est = metrics::naive_stage_delays(graph, schedule, &self.naive_node_delays);
        let frame = &mut state.frame;
        frame.add("stage/oracle_metrics/ns", span.finish().as_nanos() as u64);
        frame.add("stage/oracle_metrics/calls", 1);
        frame.add("run/stages_evaluated", evaluated as u64);
        frame.add("run/stages_reused", (timed.len() - evaluated) as u64);
        Ok((
            metrics::estimation_error_pct(&est, &sta),
            metrics::estimation_error_pct(&naive_est, &sta),
        ))
    }
}

/// The record of the state's current schedule. With a `probe` it carries
/// the oracle quality metrics; without one (e.g. a sweep's inner points)
/// the oracle is not consulted and the error columns read 0. Its counters
/// are what the frame gained since the records in `history`.
///
/// # Errors
///
/// [`ScheduleError::DeadlineExceeded`] when cancellation cuts the probe's
/// oracle calls short.
fn snapshot<O: DelayOracle + ?Sized>(
    state: &mut PipelineState<'_, O>,
    probe: Option<&QualityProbe>,
    cache_stats: Option<&dyn Fn() -> CacheStats>,
    history: &[IterationRecord],
) -> Result<IterationRecord, ScheduleError> {
    let (error_pct, naive_error_pct) = match probe {
        Some(probe) => probe.errors(state)?,
        None => (0.0, 0.0),
    };
    if let Some(stats) = cache_stats.map(|stats| stats()) {
        for (key, n) in [
            ("cache/hits", stats.hits),
            ("cache/misses", stats.misses),
            ("cache/inserts", stats.inserts),
        ] {
            state.frame.insert(key, MetricValue::Counter(n));
        }
    }
    let (graph, schedule, frame) = (state.graph, state.schedule(), &state.frame);
    let gained = |keys: &[&str], prior: fn(&IterationRecord) -> u64| -> u64 {
        let now: u64 = keys.iter().map(|key| frame.counter_or_zero(key)).sum();
        now - history.iter().map(prior).sum::<u64>()
    };
    Ok(IterationRecord {
        iteration: history.len(),
        register_bits: schedule.register_bits(graph),
        num_stages: schedule.num_stages(),
        estimation_error_pct: error_pct,
        naive_estimation_error_pct: naive_error_pct,
        subgraphs_evaluated: gained(&["run/subgraphs_evaluated"], |r| r.subgraphs_evaluated as u64)
            as usize,
        cache_hits: gained(&["cache/hits"], |r| r.cache_hits),
        cache_misses: gained(&["cache/misses"], |r| r.cache_misses),
        solver_time: Duration::from_nanos(gained(
            &["stage/reformulate/ns", "stage/solve/ns"],
            |r| r.solver_time.as_nanos() as u64,
        )),
        solver_warm: state.solver_warm(),
        drain: DrainStats {
            dijkstras: gained(&["drain/dijkstras"], |r| r.drain.dijkstras),
            nodes_settled: gained(&["drain/nodes_settled"], |r| r.drain.nodes_settled),
            paths: gained(&["drain/paths"], |r| r.drain.paths),
            flow_pushed: gained(&["drain/flow_pushed"], |r| r.drain.flow_pushed),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;
    use isdc_synth::{NaiveSumOracle, SynthesisOracle};
    use isdc_techlib::TechLibrary;

    /// Adds a datapath with enough chained arithmetic that naive estimates
    /// force splits which feedback can undo, its inputs named `{prefix}{i}`.
    fn add_datapath(g: &mut Graph, prefix: &str) {
        // Summing per-op adder delays wildly overestimates a fused
        // carry-lookahead chain, so feedback has real slack to harvest.
        let inputs: Vec<_> = (0..10).map(|i| g.param(format!("{prefix}{i}"), 8)).collect();
        let mut acc = g.binary(OpKind::Add, inputs[0], inputs[1]).unwrap();
        for &p in &inputs[2..] {
            acc = g.binary(OpKind::Add, acc, p).unwrap();
        }
        let out = g.binary(OpKind::Xor, acc, inputs[0]).unwrap();
        g.set_output(out);
    }

    fn datapath() -> Graph {
        let mut g = Graph::new("dp");
        add_datapath(&mut g, "p");
        g
    }

    /// Two datapaths side by side: structurally identical regions at
    /// different node ids.
    fn twin_datapath() -> Graph {
        let mut g = Graph::new("twins");
        add_datapath(&mut g, "a");
        add_datapath(&mut g, "b");
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
        let g = twin_datapath();
        let plain = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        let cached_config = quick_config(2500.0).with_cache(None);
        let cached = run_isdc(&g, &model, &oracle, &cached_config).unwrap();
        assert_eq!(cached.schedule, plain.schedule, "memoization must not change results");
        assert_eq!(
            cached.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
            plain.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
        );
        let hits = cached.metrics.counter("cache/hits").expect("recorded when caching");
        // A run answers its own repeats of a member set before they reach
        // the cache; what hits is one twin's window replayed onto the other.
        assert!(hits > 0, "structurally identical regions at other node ids must hit");
        assert_eq!(plain.metrics.counter("cache/hits"), None);
        let total_hits: u64 = cached.history.iter().map(|r| r.cache_hits).sum();
        let total_misses: u64 = cached.history.iter().map(|r| r.cache_misses).sum();
        assert_eq!(total_hits, hits, "per-iteration hits must sum to the total");
        assert_eq!(total_misses, cached.metrics.counter_or_zero("cache/misses"));
        assert!(cached.history.iter().any(|r| r.cache_hit_rate() > 0.0));
        // The records' drain and solver time are the frame's, split by
        // iteration, for both runs.
        for run in [&plain, &cached] {
            let counter = |key: &str| run.metrics.counter_or_zero(key);
            let mut drain = DrainStats::default();
            for record in &run.history {
                drain += record.drain;
            }
            assert!(drain.paths > 0, "the initial solve drains");
            assert_eq!(drain.dijkstras, counter("drain/dijkstras"));
            assert_eq!(drain.nodes_settled, counter("drain/nodes_settled"));
            assert_eq!(drain.paths, counter("drain/paths"));
            assert_eq!(drain.flow_pushed, counter("drain/flow_pushed"));
            let solver_ns: u128 = run.history.iter().map(|r| r.solver_time.as_nanos()).sum();
            let frame_ns = counter("stage/reformulate/ns") + counter("stage/solve/ns");
            assert_eq!(solver_ns, u128::from(frame_ns));
        }
    }

    #[test]
    fn snapshots_are_timed_and_counted() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let keys = [
            "stage/oracle_metrics/ns",
            "stage/oracle_metrics/calls",
            "run/stages_evaluated",
            "run/stages_reused",
        ];

        let on = run_isdc(&g, &model, &oracle, &quick_config(2500.0)).unwrap();
        let counter = |key: &str| on.metrics.counter_or_zero(key);
        assert_eq!(counter("stage/oracle_metrics/calls"), on.history.len() as u64);
        assert!(counter("stage/oracle_metrics/ns") > 0);
        assert!(counter("run/stages_evaluated") > 0, "the initial stages are timed");
        assert!(
            counter("run/stages_evaluated") + counter("run/stages_reused")
                >= on.history.len() as u64
        );

        let config = IsdcConfig { iteration_metrics: false, ..quick_config(2500.0) };
        let off = run_isdc(&g, &model, &oracle, &config).unwrap();
        for key in keys {
            assert_eq!(off.metrics.counter(key), Some(0), "{key}");
        }
        assert_eq!(off.schedule, on.schedule);
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
