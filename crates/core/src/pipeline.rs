//! The staged ISDC iteration pipeline.
//!
//! [`run_isdc`](crate::run_isdc) used to be one monolithic loop; it is now
//! six explicit, reusable stages threaded through a shared
//! [`PipelineState`]:
//!
//! ```text
//!      +---------+    +--------+    +----------+    +----------+    +-------------+    +-------+
//!  +-->| Extract |--->| Dedupe |--->| Evaluate |--->| Feedback |--->| Reformulate |--->| Solve |--+
//!  |   +---------+    +--------+    +----------+    +----------+    +-------------+    +-------+  |
//!  |    subgraphs      distinct      oracle delay    Alg. 1 into     Alg. 2 worklist    warm LP   |
//!  |    from the       node sets     reports (par-   the matrix,     sweep + dirty      re-solve  |
//!  |    schedule       only          allel, cached)  dirty pairs     carry              (engine)  |
//!  +------------------------------- until registers stabilize --------------------------------+
//! ```
//!
//! Each stage is a unit struct implementing [`Stage`]; [`run_stage`] times
//! an invocation into the run's metrics (`stage/{name}/ns` and
//! `stage/{name}/calls` in [`IsdcResult::metrics`](crate::IsdcResult)).
//! The driver composes the stages in the fixed order above; tests and
//! tools can run any stage in isolation against a `PipelineState`.
//!
//! The state deliberately owns everything a *run* needs (delay matrix,
//! incremental LP engine, dirty-carry) and borrows everything that outlives
//! a run (graph, config, oracle) — [`IsdcSession`](crate::IsdcSession)
//! holds the cross-run assets and builds one `PipelineState` per run,
//! seeding the LP from the previous run's exported potentials.

use crate::delay::{DelayMatrix, DirtySet};
use crate::schedule::Schedule;
use crate::scheduler::{IncrementalScheduler, ScheduleError, SparsifyStats};
use crate::subgraph::{extract_subgraphs, Subgraph};
use isdc_ir::{Graph, NodeId};
use isdc_sdc::DrainStats;
use isdc_synth::{evaluate_parallel_cancellable, DelayOracle, DelayReport, OpDelayModel};
use isdc_telemetry::{Counter, Histogram, MetricsFrame, Registry};
use std::collections::HashSet;
use std::time::{Duration, Instant};

use crate::driver::IsdcConfig;

/// The six fixed pipeline stages, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Subgraph extraction from the current schedule (§III-B).
    Extract,
    /// Drop node-set duplicates before paying for evaluation.
    Dedupe,
    /// Downstream oracle evaluation, parallel and (optionally) memoized.
    Evaluate,
    /// Alg. 1 delay updating into the matrix, tracked as dirty pairs.
    Feedback,
    /// Alg. 2 reformulation (worklist sweep over the dirty region).
    Reformulate,
    /// LP re-solve through the persistent engine — warm when possible.
    Solve,
}

impl StageKind {
    /// All stages in execution order.
    pub const ALL: [StageKind; 6] = [
        StageKind::Extract,
        StageKind::Dedupe,
        StageKind::Evaluate,
        StageKind::Feedback,
        StageKind::Reformulate,
        StageKind::Solve,
    ];

    /// The stage's display name.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Extract => "extract",
            StageKind::Dedupe => "dedupe",
            StageKind::Evaluate => "evaluate",
            StageKind::Feedback => "feedback",
            StageKind::Reformulate => "reformulate",
            StageKind::Solve => "solve",
        }
    }

    fn index(self) -> usize {
        match self {
            StageKind::Extract => 0,
            StageKind::Dedupe => 1,
            StageKind::Evaluate => 2,
            StageKind::Feedback => 3,
            StageKind::Reformulate => 4,
            StageKind::Solve => 5,
        }
    }

    /// The stage's telemetry span name (static, for the trace layer).
    pub fn span_name(self) -> &'static str {
        match self {
            StageKind::Extract => "stage:extract",
            StageKind::Dedupe => "stage:dedupe",
            StageKind::Evaluate => "stage:evaluate",
            StageKind::Feedback => "stage:feedback",
            StageKind::Reformulate => "stage:reformulate",
            StageKind::Solve => "stage:solve",
        }
    }
}

/// The registry-backed metric handles of one run. Every counter that
/// used to be a bespoke field (per-stage wall-clock, drain totals,
/// subgraph counts) records through here, so
/// [`IsdcResult::metrics`](crate::IsdcResult) is one coherent frame.
pub(crate) struct RunMetrics {
    registry: Registry,
    stage_ns: [Counter; 6],
    stage_calls: [Counter; 6],
    drain_dijkstras: Counter,
    drain_nodes_settled: Counter,
    drain_paths: Counter,
    drain_flow_pushed: Counter,
    lp_pairs_scanned: Counter,
    lp_constraints_emitted: Counter,
    lp_pruned: Counter,
    /// Pipeline iterations completed (excluding the initial solve).
    pub(crate) iterations: Counter,
    /// Subgraphs sent to the oracle (post-dedupe), summed over iterations.
    pub(crate) subgraphs_evaluated: Counter,
    /// Wall-clock of the oracle quality snapshots (`stage/oracle_metrics/ns`),
    /// which run outside the six stages.
    oracle_metrics_ns: Counter,
    oracle_metrics_calls: Counter,
    /// Stages the snapshots sent to the oracle (`run/stages_evaluated`).
    stages_evaluated: Counter,
    /// Stages the snapshots answered from the run's earlier measurements
    /// (`run/stages_reused`).
    stages_reused: Counter,
    /// Distribution of individual LP solve times (log2 ns buckets).
    solve_ns: Histogram,
}

impl RunMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let stage_ns =
            StageKind::ALL.map(|kind| registry.counter(&format!("stage/{}/ns", kind.name())));
        let stage_calls =
            StageKind::ALL.map(|kind| registry.counter(&format!("stage/{}/calls", kind.name())));
        let drain_dijkstras = registry.counter("drain/dijkstras");
        let drain_nodes_settled = registry.counter("drain/nodes_settled");
        let drain_paths = registry.counter("drain/paths");
        let drain_flow_pushed = registry.counter("drain/flow_pushed");
        let lp_pairs_scanned = registry.counter("lp/pairs_scanned");
        let lp_constraints_emitted = registry.counter("lp/constraints_emitted");
        let lp_pruned = registry.counter("lp/pruned");
        let iterations = registry.counter("run/iterations");
        let subgraphs_evaluated = registry.counter("run/subgraphs_evaluated");
        let oracle_metrics_ns = registry.counter("stage/oracle_metrics/ns");
        let oracle_metrics_calls = registry.counter("stage/oracle_metrics/calls");
        let stages_evaluated = registry.counter("run/stages_evaluated");
        let stages_reused = registry.counter("run/stages_reused");
        let solve_ns = registry.histogram("solve/ns");
        Self {
            registry,
            stage_ns,
            stage_calls,
            drain_dijkstras,
            drain_nodes_settled,
            drain_paths,
            drain_flow_pushed,
            lp_pairs_scanned,
            lp_constraints_emitted,
            lp_pruned,
            iterations,
            subgraphs_evaluated,
            oracle_metrics_ns,
            oracle_metrics_calls,
            stages_evaluated,
            stages_reused,
            solve_ns,
        }
    }

    /// Records one quality snapshot: its wall-clock, and how many stages
    /// it timed through the oracle versus reused.
    pub(crate) fn record_snapshot(&self, elapsed: Duration, evaluated: usize, reused: usize) {
        self.oracle_metrics_ns.add(elapsed.as_nanos() as u64);
        self.oracle_metrics_calls.incr();
        self.stages_evaluated.add(evaluated as u64);
        self.stages_reused.add(reused as u64);
    }

    fn record_stage(&self, kind: StageKind, elapsed: Duration) {
        self.stage_ns[kind.index()].add(elapsed.as_nanos() as u64);
        self.stage_calls[kind.index()].incr();
        if kind == StageKind::Solve {
            self.solve_ns.record(elapsed.as_nanos() as u64);
        }
    }

    fn record_drain(&self, drain: DrainStats) {
        self.drain_dijkstras.add(drain.dijkstras);
        self.drain_nodes_settled.add(drain.nodes_settled);
        self.drain_paths.add(drain.paths);
        self.drain_flow_pushed.add(drain.flow_pushed);
    }

    fn record_lp(&self, delta: SparsifyStats) {
        self.lp_pairs_scanned.add(delta.pairs_scanned);
        self.lp_constraints_emitted.add(delta.constraints_emitted);
        self.lp_pruned.add(delta.pruned);
    }
}

/// One ISDC iteration pipeline step: consumes `In`, produces `Out`, reading
/// and mutating the shared [`PipelineState`]. Implementations are plain
/// unit structs, so a stage carries no state of its own — everything lives
/// in the `PipelineState`, which is what makes stages individually
/// re-runnable and the whole pipeline session-hostable.
pub trait Stage<O: DelayOracle + ?Sized> {
    /// What the stage consumes.
    type In;
    /// What the stage produces.
    type Out;
    /// Which fixed stage this is (names the profile row).
    const KIND: StageKind;
    /// Executes the stage.
    ///
    /// # Errors
    ///
    /// Only the LP-backed stages fail; see [`ScheduleError`].
    fn run(
        &mut self,
        state: &mut PipelineState<'_, O>,
        input: Self::In,
    ) -> Result<Self::Out, ScheduleError>;
}

/// Runs one stage, recording its wall-clock cost in the state's profile.
/// Returns the stage output and the elapsed time of this invocation.
///
/// # Errors
///
/// Propagates the stage's error.
pub fn run_stage<O: DelayOracle + ?Sized, S: Stage<O>>(
    stage: &mut S,
    state: &mut PipelineState<'_, O>,
    input: S::In,
) -> Result<(S::Out, Duration), ScheduleError> {
    // Stage-boundary cancellation poll: one relaxed load when no deadline
    // is armed. Bailing between stages leaves the run's state objects
    // untouched since the last completed stage, so the caller's normal
    // error path (discard the run, keep the session) stays clean-cut.
    isdc_cancel::checkpoint().map_err(|_| ScheduleError::DeadlineExceeded)?;
    let _span = isdc_telemetry::span(S::KIND.span_name());
    let start = Instant::now();
    let out = stage.run(state, input)?;
    let elapsed = start.elapsed();
    state.record(S::KIND, elapsed);
    Ok((out, elapsed))
}

/// Cross-run warm-start material handed to [`PipelineState::new`], in
/// decreasing order of strength:
///
/// 1. `engine` — a solved [`IncrementalScheduler`] from an earlier run's
///    initial solve, retargeted to this run's clock period (system, flow
///    and potentials all survive; ascending sweeps re-solve warm, repeat
///    runs re-solve in O(1) off the cached solution);
/// 2. `potentials` — a bare potential vector (typically restored from a
///    cache snapshot), which skips the Bellman-Ford cold start when it
///    validates against this run's LP;
/// 3. nothing — the ordinary cold start.
#[derive(Default)]
pub struct RunSeed<'p> {
    /// An earlier run's engine, ready to retarget (strongest).
    pub engine: Option<IncrementalScheduler>,
    /// Fallback potentials when no engine is available.
    pub potentials: Option<&'p [i64]>,
    /// Capture a clone of the engine right after the initial solve, for
    /// the *next* run ([`PipelineState::take_initial_engine`]).
    pub export_engine: bool,
}

/// Everything one ISDC run owns, shared by all six stages.
///
/// Constructed by [`PipelineState::new`], which also performs the initial
/// (iteration 0) solve — warm-started from the caller's [`RunSeed`] when
/// it validates.
pub struct PipelineState<'a, O: ?Sized> {
    pub(crate) graph: &'a Graph,
    pub(crate) config: &'a IsdcConfig,
    pub(crate) oracle: &'a O,
    delays: DelayMatrix,
    engine: IncrementalScheduler,
    carry: DirtySet,
    schedule: Schedule,
    solver_warm: bool,
    solver_drain: DrainStats,
    initial_solve_time: Duration,
    initial_potentials: Option<Vec<i64>>,
    initial_engine: Option<IncrementalScheduler>,
    /// The engine's cumulative [`SparsifyStats`] as of the last recording —
    /// a session-carried engine arrives with prior runs' events already
    /// counted, so the `lp/*` metrics record deltas against this snapshot.
    lp_seen: SparsifyStats,
    metrics: RunMetrics,
}

impl<'a, O: DelayOracle + ?Sized> PipelineState<'a, O> {
    /// Initializes a run: naive delay matrix, LP build, initial solve.
    ///
    /// `seed` carries cross-run warm-start material (see [`RunSeed`]);
    /// anything that does not validate is silently ignored — it only costs
    /// the validation scan, never correctness.
    ///
    /// # Errors
    ///
    /// See [`ScheduleError`].
    pub fn new(
        graph: &'a Graph,
        model: &OpDelayModel,
        oracle: &'a O,
        config: &'a IsdcConfig,
        seed: RunSeed<'_>,
    ) -> Result<Self, ScheduleError> {
        let delays = DelayMatrix::initialize(graph, &model.all_node_delays(graph));
        let init_span = isdc_telemetry::span("initial_solve");
        // A seeded engine's sparsify counters include previous runs; only
        // what this run's retarget + build adds should hit this run's
        // metrics.
        let lp_base =
            seed.engine.as_ref().map(IncrementalScheduler::sparsify_stats).unwrap_or_default();
        let solve_start = Instant::now();
        let mut engine = match seed.engine {
            Some(mut engine) => {
                // The seed engine encodes the naive matrix at its old
                // period; re-emit every bound at this run's period.
                engine.retarget(graph, &delays, config.clock_period_ps);
                engine
            }
            None => {
                let mut engine = IncrementalScheduler::new(graph, &delays, config.clock_period_ps)?;
                if let Some(pi) = seed.potentials {
                    let _ = engine.warm_from_potentials(pi);
                }
                engine
            }
        };
        let schedule = engine.reschedule(graph, &delays, &DirtySet::new(graph.len()))?;
        let solver_warm = engine.last_solve_was_warm();
        let solver_drain = engine.last_drain_stats();
        let initial_solve_time = solve_start.elapsed();
        drop(init_span);
        // Exported right after the naive-matrix solve: these are the
        // potentials (and, on request, the whole engine) a *future* run's
        // iteration 0 — same naive matrix — can seed from. The final
        // iteration's state would encode the feedback-relaxed matrix, which
        // the next run does not start from.
        let initial_potentials = engine.potentials();
        let initial_engine = seed.export_engine.then(|| engine.clone());
        let metrics = RunMetrics::new();
        metrics.record_stage(StageKind::Solve, initial_solve_time);
        metrics.record_drain(solver_drain);
        let lp_seen = engine.sparsify_stats();
        metrics.record_lp(lp_seen.delta_since(&lp_base));
        Ok(Self {
            graph,
            config,
            oracle,
            delays,
            engine,
            carry: DirtySet::new(graph.len()),
            schedule,
            solver_warm,
            solver_drain,
            initial_solve_time,
            initial_potentials,
            initial_engine,
            lp_seen,
            metrics,
        })
    }

    /// The current schedule (initial solve, then updated by each `Solve`).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The current (feedback-updated) delay matrix.
    pub fn delays(&self) -> &DelayMatrix {
        &self.delays
    }

    /// Whether the most recent solve was warm-started.
    pub fn solver_warm(&self) -> bool {
        self.solver_warm
    }

    /// SSP drain counters of the most recent solve (zeros for a cached
    /// zero-delta re-solve).
    pub fn solver_drain(&self) -> DrainStats {
        self.solver_drain
    }

    /// Wall-clock time of the initial (iteration 0) LP build + solve.
    pub fn initial_solve_time(&self) -> Duration {
        self.initial_solve_time
    }

    /// The LP potentials exported right after the initial solve — what a
    /// later run of the same design imports to skip its cold start.
    pub fn initial_potentials(&self) -> Option<&[i64]> {
        self.initial_potentials.as_deref()
    }

    /// Takes the engine clone captured after the initial solve (present
    /// only when the run was seeded with `export_engine`), ready to be
    /// retargeted by the next run.
    pub fn take_initial_engine(&mut self) -> Option<IncrementalScheduler> {
        self.initial_engine.take()
    }

    /// The run's metric handles (driver-internal).
    pub(crate) fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// A snapshot of every metric the run has recorded.
    pub fn metrics_frame(&self) -> MetricsFrame {
        self.metrics.registry.snapshot()
    }

    /// Ends the run, handing over its final schedule and delay matrix
    /// without copying them.
    pub(crate) fn into_schedule_and_delays(self) -> (Schedule, DelayMatrix) {
        (self.schedule, self.delays)
    }

    fn record(&mut self, kind: StageKind, elapsed: Duration) {
        self.metrics.record_stage(kind, elapsed);
    }
}

/// Stage 1: extract candidate subgraphs from the current schedule.
pub struct Extract;

impl<O: DelayOracle + ?Sized> Stage<O> for Extract {
    type In = ();
    type Out = Vec<Subgraph>;
    const KIND: StageKind = StageKind::Extract;

    fn run(
        &mut self,
        state: &mut PipelineState<'_, O>,
        _input: (),
    ) -> Result<Self::Out, ScheduleError> {
        Ok(extract_subgraphs(
            state.graph,
            &state.schedule,
            &state.delays,
            &state.config.extraction(),
        ))
    }
}

/// Stage 2: drop exact node-set duplicates, keeping first occurrences.
///
/// Identical sets would evaluate to identical reports and fold into the
/// matrix idempotently, so deduplication cannot change any schedule — it
/// only refunds the duplicate evaluations (which cost real synthesis time
/// when the oracle cache is off or cold).
pub struct Dedupe;

impl<O: DelayOracle + ?Sized> Stage<O> for Dedupe {
    type In = Vec<Subgraph>;
    type Out = Vec<Subgraph>;
    const KIND: StageKind = StageKind::Dedupe;

    fn run(
        &mut self,
        _state: &mut PipelineState<'_, O>,
        mut input: Self::In,
    ) -> Result<Self::Out, ScheduleError> {
        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(input.len());
        input.retain(|sub| {
            let mut key: Vec<u32> = sub.nodes.iter().map(|n| n.0).collect();
            key.sort_unstable();
            seen.insert(key)
        });
        Ok(input)
    }
}

/// Stage 3: evaluate every subgraph through the downstream oracle, in
/// parallel. The reports ride along with their subgraphs.
pub struct Evaluate;

impl<O: DelayOracle + ?Sized> Stage<O> for Evaluate {
    type In = Vec<Subgraph>;
    type Out = (Vec<Subgraph>, Vec<DelayReport>);
    const KIND: StageKind = StageKind::Evaluate;

    fn run(
        &mut self,
        state: &mut PipelineState<'_, O>,
        input: Self::In,
    ) -> Result<Self::Out, ScheduleError> {
        let node_sets: Vec<Vec<NodeId>> = input.iter().map(|s| s.nodes.clone()).collect();
        state.metrics.subgraphs_evaluated.add(node_sets.len() as u64);
        let reports = evaluate_parallel_cancellable(
            state.oracle,
            state.graph,
            &node_sets,
            state.config.threads,
        )
        .map_err(|_| ScheduleError::DeadlineExceeded)?;
        Ok((input, reports))
    }
}

/// Stage 4: fold the reports into the delay matrix (Alg. 1, per-output
/// refinement), returning the exact dirty pairs.
pub struct Feedback;

impl<O: DelayOracle + ?Sized> Stage<O> for Feedback {
    type In = (Vec<Subgraph>, Vec<DelayReport>);
    type Out = DirtySet;
    const KIND: StageKind = StageKind::Feedback;

    fn run(
        &mut self,
        state: &mut PipelineState<'_, O>,
        (subgraphs, reports): Self::In,
    ) -> Result<Self::Out, ScheduleError> {
        let mut dirty = DirtySet::new(state.graph.len());
        for (sub, report) in subgraphs.iter().zip(&reports) {
            dirty.union(&state.delays.apply_subgraph_feedback_per_output(
                &sub.nodes,
                &report.output_arrivals,
                report.delay_ps,
            ));
        }
        Ok(dirty)
    }
}

/// Stage 5: re-derive all-pairs delays (Alg. 2) by the worklist sweep over
/// the dirty region, plus the dirty carry between passes (a pass's
/// backward-sweep writes are only consumed by the *next* pass's forward
/// sweep).
pub struct Reformulate;

impl<O: DelayOracle + ?Sized> Stage<O> for Reformulate {
    type In = DirtySet;
    type Out = DirtySet;
    const KIND: StageKind = StageKind::Reformulate;

    fn run(
        &mut self,
        state: &mut PipelineState<'_, O>,
        mut dirty: Self::In,
    ) -> Result<Self::Out, ScheduleError> {
        dirty.union(&state.carry);
        let swept = state.delays.reformulate_incremental(state.graph, &dirty);
        dirty.union(&swept);
        state.carry = swept;
        Ok(dirty)
    }
}

/// Stage 6: re-solve the LP against the updated matrix through the
/// persistent engine (warm for monotone updates). Updates
/// [`PipelineState::schedule`] and returns whether the solve was warm.
pub struct Solve;

impl<O: DelayOracle + ?Sized> Stage<O> for Solve {
    type In = DirtySet;
    type Out = bool;
    const KIND: StageKind = StageKind::Solve;

    fn run(
        &mut self,
        state: &mut PipelineState<'_, O>,
        dirty: Self::In,
    ) -> Result<Self::Out, ScheduleError> {
        isdc_faults::trip("solver/drain")
            .map_err(|fault| ScheduleError::Injected { site: fault.site })?;
        let engine = &mut state.engine;
        state.schedule = engine.reschedule(state.graph, &state.delays, &dirty)?;
        state.solver_warm = engine.last_solve_was_warm();
        state.solver_drain = engine.last_drain_stats();
        let lp_now = engine.sparsify_stats();
        state.metrics.record_lp(lp_now.delta_since(&state.lp_seen));
        state.lp_seen = lp_now;
        state.metrics.record_drain(state.solver_drain);
        Ok(state.solver_warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::IsdcConfig;
    use isdc_ir::OpKind;
    use isdc_synth::SynthesisOracle;
    use isdc_techlib::TechLibrary;

    fn datapath() -> Graph {
        let mut g = Graph::new("dp");
        let inputs: Vec<_> = (0..6).map(|i| g.param(format!("p{i}"), 8)).collect();
        let mut acc = g.binary(OpKind::Add, inputs[0], inputs[1]).unwrap();
        for &p in &inputs[2..] {
            acc = g.binary(OpKind::Add, acc, p).unwrap();
        }
        g.set_output(acc);
        g
    }

    #[test]
    fn stages_compose_into_one_iteration() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let mut config = IsdcConfig::paper_defaults(2500.0);
        config.threads = 1;
        let mut state =
            PipelineState::new(&g, &model, &oracle, &config, RunSeed::default()).unwrap();
        let bits_before = state.schedule().register_bits(&g);

        let (subs, _) = run_stage(&mut Extract, &mut state, ()).unwrap();
        assert!(!subs.is_empty(), "a multi-stage pipeline must yield subgraphs");
        let (subs, _) = run_stage(&mut Dedupe, &mut state, subs).unwrap();
        let ((subs, reports), _) = run_stage(&mut Evaluate, &mut state, subs).unwrap();
        assert_eq!(subs.len(), reports.len());
        let (dirty, _) = run_stage(&mut Feedback, &mut state, (subs, reports)).unwrap();
        let (dirty, _) = run_stage(&mut Reformulate, &mut state, dirty).unwrap();
        let (warm, _) = run_stage(&mut Solve, &mut state, dirty).unwrap();
        assert!(warm, "monotone feedback must keep the engine warm");
        assert!(state.schedule().register_bits(&g) <= bits_before);

        // Every stage ran exactly once (Solve twice: the initial solve
        // counts too).
        let frame = state.metrics_frame();
        for kind in StageKind::ALL {
            let expected = if kind == StageKind::Solve { 2 } else { 1 };
            let calls = frame.counter(&format!("stage/{}/calls", kind.name()));
            assert_eq!(calls, Some(expected), "{}", kind.name());
        }
    }

    #[test]
    fn dedupe_drops_exact_node_set_duplicates_only() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let config = IsdcConfig::paper_defaults(2500.0);
        let mut state =
            PipelineState::new(&g, &model, &oracle, &config, RunSeed::default()).unwrap();
        let (subs, _) = run_stage(&mut Extract, &mut state, ()).unwrap();
        let mut doubled = subs.clone();
        doubled.extend(subs.iter().cloned());
        let (deduped, _) = run_stage(&mut Dedupe, &mut state, doubled).unwrap();
        let mut keys: Vec<Vec<u32>> = subs
            .iter()
            .map(|s| {
                let mut k: Vec<u32> = s.nodes.iter().map(|n| n.0).collect();
                k.sort_unstable();
                k
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(deduped.len(), keys.len(), "one survivor per distinct node set");
    }
}
