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
//!  |    from the       node sets     reports, par-   the matrix,     sweep + dirty      re-solve  |
//!  |    schedule       only          allel, one per  dirty pairs     carry              (engine)  |
//!  |                                 set per run                                                 |
//!  +------------------------------- until registers stabilize --------------------------------+
//! ```
//!
//! Each stage is a unit struct implementing [`Stage`]; [`run_stage`] runs
//! an invocation inside its `stage:{name}` span and adds the span's length
//! and one call to the run's frame (`stage/{name}/ns` and
//! `stage/{name}/calls` in [`IsdcResult::metrics`](crate::IsdcResult)).
//! The driver composes the stages in the fixed order above; tests and
//! tools can run any stage in isolation against a `PipelineState`.
//!
//! The state deliberately owns everything a *run* needs (delay matrix,
//! incremental LP engine, dirty-carry, the oracle reports it has received)
//! and borrows everything that outlives a run (graph, config, oracle) —
//! [`IsdcSession`](crate::IsdcSession) holds the cross-run assets and
//! builds one `PipelineState` per run, seeding the LP from the previous
//! run's exported potentials.

use crate::delay::{DelayMatrix, DirtySet};
use crate::schedule::Schedule;
use crate::scheduler::{IncrementalScheduler, ScheduleError, SparsifyStats};
use crate::subgraph::{extract_subgraphs, Subgraph};
use isdc_ir::{Graph, NodeId};
use isdc_synth::{evaluate_parallel_cancellable, DelayOracle, DelayReport, OpDelayModel};
use isdc_telemetry::MetricsFrame;
use std::collections::{HashMap, HashSet};
use std::iter::once;
use std::time::Duration;

use crate::driver::IsdcConfig;

/// The six fixed pipeline stages, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Subgraph extraction from the current schedule (§III-B).
    Extract,
    /// Drop the node-set duplicates of one extraction.
    Dedupe,
    /// Downstream oracle evaluation, parallel, each member set once per run.
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

    /// The stage's frame keys: `stage/{name}/ns` and `stage/{name}/calls`.
    fn keys(self) -> [&'static str; 2] {
        match self {
            StageKind::Extract => ["stage/extract/ns", "stage/extract/calls"],
            StageKind::Dedupe => ["stage/dedupe/ns", "stage/dedupe/calls"],
            StageKind::Evaluate => ["stage/evaluate/ns", "stage/evaluate/calls"],
            StageKind::Feedback => ["stage/feedback/ns", "stage/feedback/calls"],
            StageKind::Reformulate => ["stage/reformulate/ns", "stage/reformulate/calls"],
            StageKind::Solve => ["stage/solve/ns", "stage/solve/calls"],
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

/// Counters every run's frame carries from its start, next to the
/// stages' own and the ones the initial solve adds, so a run that never
/// iterates or skips the quality snapshots still reports them as 0.
const RUN_COUNTERS: [&str; 7] = [
    "run/iterations",
    "run/subgraphs_evaluated",
    "run/subgraphs_reused",
    "run/stages_evaluated",
    "run/stages_reused",
    "stage/oracle_metrics/ns",
    "stage/oracle_metrics/calls",
];

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

/// Runs one stage inside its span, adding the span's length to the run's
/// frame. Returns the stage output and that length.
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
    let span = isdc_telemetry::span(S::KIND.span_name());
    let out = stage.run(state, input)?;
    let elapsed = span.finish();
    state.record_stage(S::KIND, elapsed);
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
    initial_potentials: Option<Vec<i64>>,
    initial_engine: Option<IncrementalScheduler>,
    /// The engine's cumulative [`SparsifyStats`] as of the last recording —
    /// a session-carried engine arrives with prior runs' events already
    /// counted, so the `lp/*` metrics record deltas against this snapshot.
    lp_seen: SparsifyStats,
    /// Every oracle report the run has received, shared by Evaluate and
    /// the quality snapshots.
    pub(crate) memo: ReportMemo,
    /// Every number the run reports, added to as it goes.
    pub(crate) frame: MetricsFrame,
}

/// The oracle reports one run has received, keyed by ascending,
/// deduplicated member list. [`DelayOracle::evaluate`] is a pure function
/// of the member set, so the run times each distinct set once and answers
/// every repeat from here: a window re-extracted in a later iteration, a
/// window equal to a stage a quality snapshot timed, and the reverse.
#[derive(Default)]
pub(crate) struct ReportMemo(HashMap<Vec<NodeId>, DelayReport>);

impl ReportMemo {
    /// Times through the oracle each set in `sets` the memo lacks (first
    /// occurrences, in order, on `threads` threads, with a cancellation
    /// poll before each) and keeps the reports. Each set must be ascending
    /// and deduplicated. Returns how many sets reached the oracle.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::DeadlineExceeded`] when cancellation cuts the calls
    /// short; the memo then keeps none of their reports.
    pub(crate) fn time_missing<'s, O: DelayOracle + ?Sized>(
        &mut self,
        oracle: &O,
        graph: &Graph,
        sets: impl IntoIterator<Item = &'s [NodeId]>,
        threads: usize,
    ) -> Result<usize, ScheduleError> {
        let mut queued = HashSet::new();
        let fresh: Vec<Vec<NodeId>> = sets
            .into_iter()
            .filter(|set| !self.0.contains_key(*set) && queued.insert(*set))
            .map(<[NodeId]>::to_vec)
            .collect();
        let reports = evaluate_parallel_cancellable(oracle, graph, &fresh, threads)
            .map_err(|_| ScheduleError::DeadlineExceeded)?;
        let timed = fresh.len();
        self.0.extend(fresh.into_iter().zip(reports));
        Ok(timed)
    }

    /// The report the oracle returned for `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` was never timed.
    pub(crate) fn get(&self, set: &[NodeId]) -> &DelayReport {
        &self.0[set]
    }
}

/// A subgraph's member set: its nodes ascending and deduplicated.
fn member_set(nodes: &[NodeId]) -> Vec<NodeId> {
    let mut set = nodes.to_vec();
    set.sort_unstable();
    set.dedup();
    set
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
        let lp_seen =
            seed.engine.as_ref().map(IncrementalScheduler::sparsify_stats).unwrap_or_default();
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
        let initial_solve_time = init_span.finish();
        // Exported right after the naive-matrix solve: these are the
        // potentials (and, on request, the whole engine) a *future* run's
        // iteration 0 — same naive matrix — can seed from. The final
        // iteration's state would encode the feedback-relaxed matrix, which
        // the next run does not start from.
        let initial_potentials = engine.potentials();
        let initial_engine = seed.export_engine.then(|| engine.clone());
        let mut state = Self {
            graph,
            config,
            oracle,
            delays,
            engine,
            carry: DirtySet::new(graph.len()),
            schedule,
            initial_potentials,
            initial_engine,
            lp_seen,
            memo: ReportMemo::default(),
            frame: MetricsFrame::new(),
        };
        let stage_keys = StageKind::ALL.into_iter().flat_map(StageKind::keys);
        for key in RUN_COUNTERS.into_iter().chain(stage_keys) {
            state.frame.add(key, 0);
        }
        state.record_stage(StageKind::Solve, initial_solve_time);
        state.record_solve();
        Ok(state)
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
        self.engine.last_solve_was_warm()
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

    /// A copy of every metric the run has recorded so far.
    pub fn metrics_frame(&self) -> MetricsFrame {
        self.frame.clone()
    }

    /// Ends the run, handing over its final schedule, delay matrix and
    /// frame without copying them.
    pub(crate) fn into_parts(self) -> (Schedule, DelayMatrix, MetricsFrame) {
        (self.schedule, self.delays, self.frame)
    }

    /// Adds one invocation of `kind` lasting `elapsed`; each LP solve also
    /// lands in the `solve/ns` histogram.
    fn record_stage(&mut self, kind: StageKind, elapsed: Duration) {
        let [ns, calls] = kind.keys();
        let elapsed_ns = elapsed.as_nanos() as u64;
        self.frame.add(ns, elapsed_ns);
        self.frame.add(calls, 1);
        if kind == StageKind::Solve {
            self.frame.record("solve/ns", elapsed_ns);
        }
    }

    /// Adds the engine's latest solve: its drain counters and the `lp/*`
    /// events since the last recording.
    fn record_solve(&mut self) {
        let drain = self.engine.last_drain_stats();
        let lp_now = self.engine.sparsify_stats();
        let lp = lp_now.delta_since(&self.lp_seen);
        self.lp_seen = lp_now;
        for (key, n) in [
            ("drain/dijkstras", drain.dijkstras),
            ("drain/nodes_settled", drain.nodes_settled),
            ("drain/paths", drain.paths),
            ("drain/flow_pushed", drain.flow_pushed),
            ("lp/pairs_scanned", lp.pairs_scanned),
            ("lp/constraints_emitted", lp.constraints_emitted),
            ("lp/pruned", lp.pruned),
        ] {
            self.frame.add(key, n);
        }
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
/// Identical sets get identical reports, which fold into the matrix
/// idempotently, so deduplication cannot change any schedule. Evaluate
/// never times a set twice in one run anyway; dropping the duplicates of
/// one extraction here spares Feedback from folding their reports again.
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
        let mut seen: HashSet<Vec<NodeId>> = HashSet::with_capacity(input.len());
        input.retain(|sub| seen.insert(member_set(&sub.nodes)));
        Ok(input)
    }
}

/// Stage 3: report every subgraph's delays, in input order. Only member
/// sets the run has not timed yet reach the downstream oracle (first
/// occurrences, in parallel on [`IsdcConfig::threads`] threads); a set
/// timed in an earlier iteration, or as a stage by a quality snapshot, is
/// answered from the run's memo. `run/subgraphs_evaluated` counts the
/// former and `run/subgraphs_reused` the latter, so repeats within a run
/// never reach a caching oracle either. The reports ride along with their
/// subgraphs.
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
        let sets: Vec<Vec<NodeId>> = input.iter().map(|sub| member_set(&sub.nodes)).collect();
        let timed = state.memo.time_missing(
            state.oracle,
            state.graph,
            sets.iter().map(Vec::as_slice),
            state.config.threads,
        )?;
        state.frame.add("run/subgraphs_evaluated", timed as u64);
        state.frame.add("run/subgraphs_reused", (sets.len() - timed) as u64);
        let reports = sets.iter().map(|set| state.memo.get(set).clone()).collect();
        Ok((input, reports))
    }
}

/// Stage 4: fold the reports into the delay matrix (Alg. 1, per-output
/// refinement), returning the exact dirty pairs.
///
/// Every report is checked before any is applied: a negative or NaN
/// `delay_ps` or output arrival fails the stage with
/// [`ScheduleError::MalformedOracleReport`] and leaves the matrix as it was.
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
        for (sub, report) in subgraphs.iter().zip(&reports) {
            let arrivals = report.output_arrivals.iter().map(|&(_, d)| d);
            let bad = once(report.delay_ps).chain(arrivals).find(|d| d.is_nan() || *d < 0.0);
            if let (Some(&node), Some(delay_ps)) = (sub.nodes.first(), bad) {
                return Err(ScheduleError::MalformedOracleReport { node, delay_ps });
            }
        }
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
        state.schedule = state.engine.reschedule(state.graph, &state.delays, &dirty)?;
        state.record_solve();
        Ok(state.solver_warm())
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

    /// Replaces one field of every report with `value`.
    struct Malformed {
        inner: SynthesisOracle,
        value: f64,
        in_arrivals: bool,
    }

    impl DelayOracle for Malformed {
        fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
            let mut report = self.inner.evaluate(graph, members);
            if self.in_arrivals {
                let (_, last) = report.output_arrivals.last_mut().expect("an output");
                *last = self.value;
            } else {
                report.delay_ps = self.value;
            }
            report
        }

        fn name(&self) -> &str {
            "malformed"
        }
    }

    #[test]
    fn negative_or_nan_oracle_reports_fail_the_run() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let graph = isdc_benchsuite::designs::crc32();
        let config = IsdcConfig {
            max_iterations: 2,
            threads: 1,
            iteration_metrics: false,
            ..IsdcConfig::paper_defaults(2500.0)
        };
        for value in [-1.0, -5.0, f64::NAN] {
            for in_arrivals in [false, true] {
                let oracle =
                    Malformed { inner: SynthesisOracle::new(lib.clone()), value, in_arrivals };
                let err = crate::run_isdc(&graph, &model, &oracle, &config).unwrap_err();
                let ScheduleError::MalformedOracleReport { node, delay_ps } = err else {
                    panic!("{value} (arrivals: {in_arrivals}) gave {err:?}");
                };
                assert_eq!(delay_ps.to_bits(), value.to_bits());
                assert!(err.to_string().contains(&format!("{node}")), "{err}");
            }
        }
    }

    #[test]
    fn feedback_rejects_a_malformed_report_before_writing_any() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let mut config = IsdcConfig::paper_defaults(2500.0);
        config.threads = 1;
        let mut state =
            PipelineState::new(&g, &model, &oracle, &config, RunSeed::default()).unwrap();
        let before = state.delays().clone();
        let (subs, _) = run_stage(&mut Extract, &mut state, ()).unwrap();
        let ((subs, mut reports), _) = run_stage(&mut Evaluate, &mut state, subs).unwrap();
        let last = reports.len() - 1;
        reports[last].delay_ps = -1.0;
        let first = subs[last].nodes[0];
        let err = run_stage(&mut Feedback, &mut state, (subs, reports)).unwrap_err();
        assert_eq!(err, ScheduleError::MalformedOracleReport { node: first, delay_ps: -1.0 });
        assert_eq!(*state.delays(), before, "no report may be applied");
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
