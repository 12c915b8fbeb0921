//! Per-layer measurement from outside the library: a timing wrapper around
//! the synthesis oracle, and the ISDC loop driven stage by stage through
//! the public pipeline API so each stage can be timed around its call.

use isdc::core::metrics::{estimated_stage_delays, estimation_error_pct, stage_sta_delays};
use isdc::core::pipeline::{
    run_stage, Dedupe, Evaluate, Extract, Feedback, PipelineState, Reformulate, RunSeed, Solve,
};
use isdc::core::{DelayMatrix, IsdcConfig, Schedule, ScheduleError};
use isdc::ir::{Graph, NodeId};
use isdc::synth::{DelayOracle, DelayReport, OpDelayModel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A transparent [`DelayOracle`] wrapper that counts and times every call
/// into the oracle it wraps. Reports and `name()` pass through unchanged,
/// so cache snapshot tags and schedules are the same with or without it.
pub struct TimedOracle<O> {
    inner: O,
    epoch: Instant,
    and_nodes: AtomicU64,
    /// `(start_ns, end_ns)` since `epoch`, one per call.
    calls: Mutex<Vec<(u64, u64)>>,
}

impl<O: DelayOracle> TimedOracle<O> {
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            epoch: Instant::now(),
            and_nodes: AtomicU64::new(0),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the wrapper's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every call interval so far, in completion order.
    pub fn calls(&self) -> Vec<(u64, u64)> {
        self.calls.lock().expect("no caller panics while holding the call log").clone()
    }

    /// AND nodes summed over every report returned so far.
    pub fn and_nodes(&self) -> u64 {
        self.and_nodes.load(Ordering::Relaxed)
    }
}

impl<O: DelayOracle> DelayOracle for TimedOracle<O> {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        let start = self.ns_at(Instant::now());
        let report = self.inner.evaluate(graph, members);
        let end = self.ns_at(Instant::now());
        self.and_nodes.fetch_add(report.and_count as u64, Ordering::Relaxed);
        self.calls.lock().expect("no caller panics while holding the call log").push((start, end));
        report
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Merges intervals into a sorted list of disjoint ones.
pub fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Nanoseconds of `window` covered by the disjoint, sorted `covered`.
pub fn covered_ns(covered: &[(u64, u64)], window: (u64, u64)) -> u64 {
    let first = covered.partition_point(|&(_, e)| e <= window.0);
    covered[first..]
        .iter()
        .take_while(|&&(s, _)| s < window.1)
        .map(|&(s, e)| e.min(window.1).saturating_sub(s.max(window.0)))
        .sum()
}

/// Named per-layer accumulators (seconds, counts, fractions).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Adds the seconds since `start` to `name`.
    pub fn time_since(&mut self, name: &'static str, start: Instant) {
        self.add(name, start.elapsed().as_secs_f64());
    }
}

/// What the stage-by-stage loop hands back: the same schedule and
/// per-iteration register bits `run_isdc` returns.
pub struct StagedRun {
    pub schedule: Schedule,
    pub history_bits: Vec<u64>,
    pub iterations: usize,
    /// Feedback re-solves that ran warm.
    pub warm_solves: usize,
}

/// The oracle quality metrics `run_isdc` records after every iteration
/// (stage STA plus the estimated and naive stage delays).
fn quality_snapshot<O: DelayOracle + ?Sized>(
    graph: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
    naive: &DelayMatrix,
    oracle: &O,
) {
    let sta = stage_sta_delays(graph, schedule, oracle);
    let est = estimated_stage_delays(graph, schedule, delays);
    let naive_est = estimated_stage_delays(graph, schedule, naive);
    std::hint::black_box((
        estimation_error_pct(&est, &sta),
        estimation_error_pct(&naive_est, &sta),
    ));
}

/// Runs the ISDC loop as `run_isdc` does with `cache: false` and
/// `iteration_metrics: true`, one public pipeline stage at a time, timing
/// each call from outside into `layers`:
///
/// - `PipelineState::new` (matrix initialisation plus the first LP solve)
///   under `solve`, which thereby counts every LP solve of the run;
/// - each `run_stage` call under its stage's name;
/// - the quality snapshot at iteration 0 and after every iteration as
///   `oracle_metrics`;
/// - Evaluate's windows into `evaluate_windows`, so synthesis time can be
///   separated from the stage's own time.
///
/// The loop ends as `run_isdc`'s does: on an empty extraction, after
/// `convergence_patience` iterations without a register-bit change, or at
/// `max_iterations`.
///
/// # Errors
///
/// The first stage error, as `run_isdc` would return it.
pub fn isdc_by_stage<O: DelayOracle>(
    graph: &Graph,
    model: &OpDelayModel,
    oracle: &TimedOracle<O>,
    config: &IsdcConfig,
    layers: &mut Layers,
    evaluate_windows: &mut Vec<(u64, u64)>,
) -> Result<StagedRun, ScheduleError> {
    assert!(!config.cache && config.iteration_metrics, "mirrors the uncached, metered run");
    let t = Instant::now();
    let mut state = PipelineState::new(graph, model, oracle, config, RunSeed::default())?;
    layers.time_since("solve.busy_s", t);
    layers.add("solve.calls", 1.0);

    let t = Instant::now();
    let naive = state.delays().clone();
    quality_snapshot(graph, state.schedule(), state.delays(), &naive, oracle);
    layers.time_since("oracle_metrics.busy_s", t);
    let mut history_bits = vec![state.schedule().register_bits(graph)];

    let (mut iterations, mut warm_solves) = (0, 0);
    let mut stable_for = 0usize;
    let mut prev_bits = history_bits[0];
    for _ in 1..=config.max_iterations {
        let t = Instant::now();
        let (subgraphs, _) = run_stage(&mut Extract, &mut state, ())?;
        layers.time_since("extract.busy_s", t);
        layers.add("extract.subgraphs", subgraphs.len() as f64);
        if subgraphs.is_empty() {
            break;
        }
        let extracted = subgraphs.len();
        let t = Instant::now();
        let (subgraphs, _) = run_stage(&mut Dedupe, &mut state, subgraphs)?;
        layers.time_since("dedupe.busy_s", t);
        layers.add("dedupe.dropped", (extracted - subgraphs.len()) as f64);

        let t = Instant::now();
        let (evaluated, _) = run_stage(&mut Evaluate, &mut state, subgraphs)?;
        let end = Instant::now();
        layers.add("evaluate.busy_s", (end - t).as_secs_f64());
        evaluate_windows.push((oracle.ns_at(t), oracle.ns_at(end)));

        let t = Instant::now();
        let (dirty, _) = run_stage(&mut Feedback, &mut state, evaluated)?;
        layers.time_since("feedback.busy_s", t);
        layers.add("feedback.dirty_pairs", dirty.pairs().count() as f64);

        let t = Instant::now();
        let (dirty, _) = run_stage(&mut Reformulate, &mut state, dirty)?;
        layers.time_since("reformulate.busy_s", t);
        layers.add("reformulate.dirty_pairs", dirty.pairs().count() as f64);

        let t = Instant::now();
        let (warm, _) = run_stage(&mut Solve, &mut state, dirty)?;
        layers.time_since("solve.busy_s", t);
        layers.add("solve.calls", 1.0);
        iterations += 1;
        warm_solves += usize::from(warm);

        let next_bits = state.schedule().register_bits(graph);
        let t = Instant::now();
        quality_snapshot(graph, state.schedule(), state.delays(), &naive, oracle);
        layers.time_since("oracle_metrics.busy_s", t);
        history_bits.push(next_bits);
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

    let frame = state.metrics_frame();
    for (layer, counter) in FRAME_COUNTS {
        layers.add(layer, frame.counter_or_zero(counter) as f64);
    }
    Ok(StagedRun { schedule: state.schedule().clone(), history_bits, iterations, warm_solves })
}

/// Solver counters the program records in each run's metrics frame, under
/// the per-layer names the benchmark reports them as.
pub const FRAME_COUNTS: [(&str, &str); 5] = [
    ("drain.dijkstras", "drain/dijkstras"),
    ("drain.paths", "drain/paths"),
    ("drain.nodes_settled", "drain/nodes_settled"),
    ("lp.pairs_scanned", "lp/pairs_scanned"),
    ("lp.constraints_emitted", "lp/constraints_emitted"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use isdc::core::run_isdc;
    use isdc::synth::SynthesisOracle;
    use isdc::techlib::TechLibrary;

    fn setup() -> (OpDelayModel, SynthesisOracle) {
        let lib = TechLibrary::sky130();
        (OpDelayModel::new(lib.clone()), SynthesisOracle::new(lib))
    }

    #[test]
    fn timed_oracle_is_transparent() {
        let (_, oracle) = setup();
        let bench = isdc::benchsuite::suite().into_iter().find(|b| b.name == "rrot").unwrap();
        let timed = TimedOracle::new(SynthesisOracle::new(TechLibrary::sky130()));
        assert_eq!(timed.name(), oracle.name(), "cache snapshot tags depend on the name");
        let members: Vec<NodeId> = bench.graph.node_ids().take(12).collect();
        assert_eq!(timed.evaluate(&bench.graph, &members), oracle.evaluate(&bench.graph, &members));
        let all: Vec<NodeId> = bench.graph.node_ids().collect();
        let report = timed.evaluate(&bench.graph, &all);
        assert_eq!(report, oracle.evaluate(&bench.graph, &all));
        let calls = timed.calls();
        assert_eq!(calls.len(), 2);
        assert!(calls.iter().all(|&(s, e)| s <= e));
        assert!(timed.and_nodes() >= report.and_count as u64);
    }

    #[test]
    fn stage_loop_equals_run_isdc() {
        let (model, oracle) = setup();
        let bench =
            isdc::benchsuite::suite().into_iter().find(|b| b.name == "ml_core_datapath1").unwrap();
        let mut config = IsdcConfig::paper_defaults(bench.clock_period_ps);
        config.threads = 2;
        let reference = run_isdc(&bench.graph, &model, &oracle, &config).unwrap();
        assert!(reference.iterations() > 1, "the design must exercise the feedback loop");
        let timed = TimedOracle::new(SynthesisOracle::new(TechLibrary::sky130()));
        let mut layers = Layers::default();
        let mut windows = Vec::new();
        let staged =
            isdc_by_stage(&bench.graph, &model, &timed, &config, &mut layers, &mut windows)
                .unwrap();
        assert_eq!(staged.schedule, reference.schedule);
        let bits: Vec<u64> = reference.history.iter().map(|r| r.register_bits).collect();
        assert_eq!(staged.history_bits, bits);
        assert_eq!(staged.iterations, reference.iterations());
        assert_eq!(windows.len(), reference.iterations());
        assert!(layers.get("extract.subgraphs") > 0.0);
        assert!(!timed.calls().is_empty());
    }

    #[test]
    fn coverage_counts_each_instant_once() {
        let merged = union(vec![(5, 8), (0, 2), (1, 3), (7, 10)]);
        assert_eq!(merged, vec![(0, 3), (5, 10)]);
        assert_eq!(covered_ns(&merged, (0, 10)), 8);
        assert_eq!(covered_ns(&merged, (2, 6)), 2);
        assert_eq!(covered_ns(&merged, (3, 5)), 0);
        assert_eq!(covered_ns(&[], (0, 5)), 0);
    }
}
