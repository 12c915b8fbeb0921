//! The incremental scheduling engine's one non-negotiable property: it is a
//! pure performance optimization. For any graph and any monotone feedback
//! sequence, the warm-started incremental path must produce **bit-identical
//! schedules** to a full Alg. 2 pass plus a fresh build and cold solve —
//! across random DAGs (proptest, with per-output steps that leave delays
//! shrinking along paths) and every iteration of the full Table I
//! benchsuite. The Table I replay also pins `run_isdc`'s per-iteration
//! estimation errors (Fig. 7) against a from-scratch recomputation, and a
//! counting oracle shows that a run times each member set once.

use isdc::benchsuite::{random_dag, RandomDagConfig};
use isdc::core::metrics::{estimated_stage_delays, estimation_error_pct, stage_sta_delays};
use isdc::core::pipeline::{
    run_stage, Dedupe, Evaluate, Extract, Feedback, PipelineState, Reformulate, RunSeed, Solve,
};
use isdc::core::{
    run_isdc, schedule_with_matrix, DelayMatrix, DirtySet, IncrementalScheduler, IsdcConfig,
    IsdcResult, IterationRecord, Schedule,
};
use isdc::ir::{Graph, NodeId};
use isdc::synth::{DelayOracle, DelayReport, OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

const CLOCK: f64 = 2500.0;

/// A monotone feedback step: a window of nodes, the fraction of the
/// window's current worst pair delay to report back, and whether the
/// window's last member reports its own arrival, at the given fraction of
/// that report, through per-output feedback.
type FeedbackStep = (usize, usize, f64, bool, f64);

fn feedback_strategy() -> impl Strategy<Value = (RandomDagConfig, u64, Vec<FeedbackStep>)> {
    let step = (0usize..64, 2usize..8, 0.3f64..1.1, prop::bool::ANY, 0.3f64..1.0);
    (8usize..40, 2usize..5, any::<u64>(), prop::collection::vec(step, 1..10)).prop_map(
        |(num_ops, num_params, seed, steps)| {
            (
                RandomDagConfig { num_ops, num_params, widths: vec![4, 8], with_muls: false },
                seed,
                steps,
            )
        },
    )
}

/// A feedback step resolved against the graph and the *current* matrix: a
/// contiguous node-id window, the reported delay (the scaled worst member
/// pair, which keeps the sequence monotone whenever the scale is below 1
/// and exercises no-op feedback when it is not), and the per-output
/// arrivals, empty for whole-window feedback.
struct Report {
    members: Vec<NodeId>,
    delay_ps: f64,
    arrivals: Vec<(NodeId, f64)>,
}

fn resolve_step(m: &DelayMatrix, n: usize, step: &FeedbackStep) -> Report {
    let (start, len, scale, per_output, output_scale) = *step;
    let start = start % n;
    let members: Vec<NodeId> = (start..(start + len).min(n)).map(|i| NodeId(i as u32)).collect();
    let worst = members
        .iter()
        .flat_map(|&u| members.iter().map(move |&v| (u, v)))
        .filter_map(|(u, v)| m.get(u, v))
        .fold(0.0f64, f64::max);
    let delay_ps = worst * scale;
    // The last member arrives before the window's fallback, so pairs ending
    // there can drop below pairs ending at its operands.
    let arrivals = match members.last() {
        Some(&last) if per_output => vec![(last, delay_ps * output_scale)],
        _ => Vec::new(),
    };
    Report { members, delay_ps, arrivals }
}

/// Applies `report` as Alg. 1 feedback, per output when it carries arrivals.
fn apply(m: &mut DelayMatrix, report: &Report) -> DirtySet {
    if report.arrivals.is_empty() {
        m.apply_subgraph_feedback(&report.members, report.delay_ps)
    } else {
        m.apply_subgraph_feedback_per_output(&report.members, &report.arrivals, report.delay_ps)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Randomized monotone relaxation sequences: after every step, both the
    /// incrementally-maintained delay matrix and the warm-solved schedule
    /// must be bit-identical to the from-scratch pipeline.
    #[test]
    fn incremental_pipeline_is_bit_identical((config, seed, steps) in feedback_strategy()) {
        let g = random_dag(&config, seed);
        let model = OpDelayModel::new(TechLibrary::sky130());
        let mut inc = DelayMatrix::initialize(&g, &model.all_node_delays(&g));
        let mut full = inc.clone();
        let mut engine = IncrementalScheduler::new(&g, &inc, CLOCK).expect("schedulable");
        let initial = engine.reschedule(&g, &inc, &DirtySet::new(g.len())).unwrap();
        prop_assert_eq!(&initial, &schedule_with_matrix(&g, &full, CLOCK).unwrap());
        let mut carry = DirtySet::new(g.len());
        for (i, step) in steps.iter().enumerate() {
            let report = resolve_step(&inc, g.len(), step);
            // From-scratch path: full Alg. 2 pass + fresh LP build + cold solve.
            apply(&mut full, &report);
            full.reformulate(&g);
            let cold = schedule_with_matrix(&g, &full, CLOCK).unwrap();
            // Incremental path: dirty-tracked feedback, worklist sweep
            // (carrying the previous pass's escaped writes), warm re-solve.
            let mut dirty = apply(&mut inc, &report);
            dirty.union(&carry);
            carry = inc.reformulate_incremental(&g, &dirty);
            dirty.union(&carry);
            prop_assert_eq!(&inc, &full, "matrix diverged at step {}", i);
            let warm = engine.reschedule(&g, &inc, &dirty).unwrap();
            prop_assert_eq!(&warm, &cold, "schedule diverged at step {}", i);
            // And the warm solve certifies as the optimum of the dense
            // one-constraint-per-pair LP.
            prop_assert_eq!(engine.certify(&g, &inc, &warm), Ok(()), "step {}", i);
        }
    }
}

/// Counts the oracle calls a run makes, per ascending member set.
struct Counting<'a> {
    inner: &'a SynthesisOracle,
    calls: Mutex<HashMap<Vec<NodeId>, u64>>,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a SynthesisOracle) -> Self {
        Self { inner, calls: Mutex::new(HashMap::new()) }
    }

    /// Asserts that no member set reached the oracle twice during `run`,
    /// and that its calls are the ones the run's frame counts: the
    /// subgraphs its Evaluate stages sent plus the stages its quality
    /// snapshots timed.
    fn assert_each_set_timed_once(&self, run: &IsdcResult, at: &str) {
        let calls = self.calls.lock().unwrap();
        let repeated = calls.values().filter(|&&n| n > 1).count();
        assert_eq!(repeated, 0, "{at}: member sets timed more than once");
        let subgraphs: u64 = run.history.iter().map(|r| r.subgraphs_evaluated as u64).sum();
        let stages = run.metrics.counter_or_zero("run/stages_evaluated");
        assert_eq!(calls.values().sum::<u64>(), subgraphs + stages, "{at}: oracle calls");
    }
}

impl DelayOracle for Counting<'_> {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        let mut set = members.to_vec();
        set.sort_unstable();
        set.dedup();
        *self.calls.lock().unwrap().entry(set).or_insert(0) += 1;
        self.inner.evaluate(graph, members)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Asserts that `record`'s Fig. 7 columns equal a from-scratch
/// recomputation: every stage timed through the oracle, the updated and
/// the naive estimates read off whole matrices.
fn assert_errors_recomputed(
    g: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
    naive: &DelayMatrix,
    oracle: &SynthesisOracle,
    record: &IterationRecord,
    at: &str,
) {
    let sta = stage_sta_delays(g, schedule, oracle);
    let est = estimation_error_pct(&estimated_stage_delays(g, schedule, delays), &sta);
    let naive_est = estimation_error_pct(&estimated_stage_delays(g, schedule, naive), &sta);
    assert_eq!(record.estimation_error_pct.to_bits(), est.to_bits(), "{at}: estimation error");
    assert_eq!(
        record.naive_estimation_error_pct.to_bits(),
        naive_est.to_bits(),
        "{at}: naive estimation error"
    );
}

/// The acceptance bar: on every Table I design, each of `run_isdc`'s
/// iterations, driven stage by stage, re-solves warm and matches a
/// from-scratch shadow fed the same reports (full Alg. 2 pass, fresh build,
/// cold solve) and `run_isdc`'s own record, estimation errors included. By
/// induction over the iterations, the whole run equals the from-scratch
/// pipeline. `run_isdc` times each member set once, every stage the
/// replay saw among them, and its oracle calls are the subgraphs and
/// stages its frame says it sent.
#[test]
fn benchsuite_runs_are_bit_identical() {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    for b in isdc::benchsuite::suite() {
        let (g, clock) = (&b.graph, b.clock_period_ps);
        let config = IsdcConfig {
            subgraphs_per_iteration: 8,
            max_iterations: 3,
            threads: 2,
            ..IsdcConfig::paper_defaults(clock)
        };
        let counting = Counting::new(&oracle);
        let run =
            run_isdc(g, &model, &counting, &config).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let mut state =
            PipelineState::new(g, &model, &oracle, &config, RunSeed::default()).unwrap();
        let naive = state.delays().clone();
        let mut shadow = naive.clone();
        let mut stages: HashSet<Vec<NodeId>> = HashSet::new();
        let at = format!("{} iter 0", b.name);
        assert_eq!(state.schedule().register_bits(g), run.history[0].register_bits, "{at}");
        assert_errors_recomputed(
            g,
            state.schedule(),
            state.delays(),
            &naive,
            &oracle,
            &run.history[0],
            &at,
        );
        stages.extend(state.schedule().stages().into_iter().filter(|m| !m.is_empty()));
        for record in &run.history[1..] {
            let at = format!("{} iter {}", b.name, record.iteration);
            let (subgraphs, _) = run_stage(&mut Extract, &mut state, ()).unwrap();
            let (subgraphs, _) = run_stage(&mut Dedupe, &mut state, subgraphs).unwrap();
            let (evaluated, _) = run_stage(&mut Evaluate, &mut state, subgraphs).unwrap();
            for (sub, report) in evaluated.0.iter().zip(&evaluated.1) {
                let arrivals = &report.output_arrivals;
                shadow.apply_subgraph_feedback_per_output(&sub.nodes, arrivals, report.delay_ps);
            }
            shadow.reformulate(g);
            let (dirty, _) = run_stage(&mut Feedback, &mut state, evaluated).unwrap();
            let (dirty, _) = run_stage(&mut Reformulate, &mut state, dirty).unwrap();
            let (warm, _) = run_stage(&mut Solve, &mut state, dirty).unwrap();
            assert!(warm, "{at}: monotone feedback must keep every re-solve warm");
            assert_eq!(state.delays(), &shadow, "{at}: delay matrices diverged");
            let cold = schedule_with_matrix(g, &shadow, clock).unwrap();
            assert_eq!(state.schedule(), &cold, "{at}: schedules diverged");
            assert_eq!(state.schedule().register_bits(g), record.register_bits, "{at}");
            assert_eq!(state.schedule().num_stages(), record.num_stages, "{at}");
            assert_errors_recomputed(
                g,
                state.schedule(),
                state.delays(),
                &naive,
                &oracle,
                record,
                &at,
            );
            stages.extend(state.schedule().stages().into_iter().filter(|m| !m.is_empty()));
        }
        assert_eq!(state.schedule(), &run.schedule, "{}: final schedules diverged", b.name);
        counting.assert_each_set_timed_once(&run, b.name);
        let timed = counting.calls.lock().unwrap();
        assert!(stages.iter().all(|m| timed.contains_key(m)), "{}: a stage went untimed", b.name);
    }
}

/// No member set reaches the oracle twice within one `run_isdc`: a window
/// re-extracted in a later iteration, or equal to a stage a quality
/// snapshot timed (and the reverse), is answered from the run's earlier
/// report. Every Table I design at its own clock with paper defaults, and
/// seeded random DAGs at twice their largest node delay.
#[test]
fn no_member_set_reaches_the_oracle_twice_in_a_run() {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let suite = isdc::benchsuite::suite();
    let random: Vec<Graph> =
        (0..4).map(|seed| random_dag(&RandomDagConfig::default(), seed)).collect();
    let table1 = suite.iter().map(|b| (&b.graph, b.clock_period_ps));
    let random = random.iter().map(|g| {
        let d_max = model.all_node_delays(g).into_iter().fold(0.0f64, f64::max);
        (g, 2.0 * d_max)
    });
    let mut reused = 0;
    for (g, clock) in table1.chain(random) {
        let config = IsdcConfig { threads: 2, ..IsdcConfig::paper_defaults(clock) };
        let counting = Counting::new(&oracle);
        let run =
            run_isdc(g, &model, &counting, &config).unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        counting.assert_each_set_timed_once(&run, g.name());
        reused += run.metrics.counter_or_zero("run/subgraphs_reused");
    }
    assert!(reused > 0, "later iterations re-extract windows the run already timed");
}
