//! Clock-period sweeps over a persistent [`IsdcSession`].
//!
//! The first workload built to consume cross-run warm starts: re-running
//! the same design at many clock periods. Subgraphs extracted at
//! neighbouring periods overlap almost completely, so after the first
//! point the session's delay cache serves nearly every oracle evaluation,
//! and each point's initial LP solve imports the potentials of the nearest
//! already-solved period. Results stay bit-identical to independent cold
//! [`run_isdc`](crate::run_isdc) calls at every point — both assets are
//! pure accelerators.
//!
//! Two searches are provided:
//!
//! - [`sweep_clock_period`] — every period of an explicit grid (see
//!   [`linear_grid`]), ascending order recommended so each point
//!   warm-starts from the previous one;
//! - [`min_feasible_period`] — binary search for the smallest period any
//!   schedule can meet (the paper doubles the target period on
//!   infeasibility; this finds the exact floor instead). Infeasible probes
//!   fail before any downstream evaluation, so they are nearly free.
//!
//! [`render_sweep_json`] serializes the per-run records (warm starts,
//! cache hit rates, solver statistics) in the `BENCH_sweep.json` layout
//! the bench tooling and CI consume.

use crate::driver::IsdcConfig;
use crate::pipeline::StageKind;
use crate::schedule::Schedule;
use crate::scheduler::ScheduleError;
use crate::session::{IsdcSession, SessionRun};
use isdc_synth::DelayOracle;
use isdc_techlib::Picos;
use isdc_telemetry::{escape_json, MetricsFrame};
use std::fmt::Write as _;
use std::time::Duration;

/// One sweep point's record: scheduling outcome plus the warm-start and
/// cache accounting that shows what the session reused.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The clock period this point scheduled for.
    pub clock_period_ps: Picos,
    /// False when no schedule can meet the period (an operation's own delay
    /// exceeds it); all other fields are zero/empty then.
    pub feasible: bool,
    /// Final pipeline register bits.
    pub register_bits: u64,
    /// Final pipeline depth.
    pub num_stages: u32,
    /// Feedback iterations executed.
    pub iterations: usize,
    /// Whether the run's initial LP solve imported potentials (always
    /// false for cold sweeps).
    pub warm_start: bool,
    /// LP solves that ran warm, across the run's whole history.
    pub warm_solves: usize,
    /// LP solves that ran cold.
    pub cold_solves: usize,
    /// Oracle-cache hits during this run (0 for cold sweeps).
    pub cache_hits: u64,
    /// Oracle-cache misses during this run (0 for cold sweeps).
    pub cache_misses: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// The final schedule, for bit-identity checks (absent if infeasible).
    pub schedule: Option<Schedule>,
    /// The run's full telemetry frame
    /// ([`IsdcResult::metrics`](crate::IsdcResult::metrics)): per-stage
    /// wall-clock, drain totals, iteration counts. Empty for infeasible
    /// points.
    pub metrics: MetricsFrame,
}

impl SweepPoint {
    /// Cache hits over lookups, or 0.0 without lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// A drain counter (`drain/dijkstras`, `drain/paths`, ...) from the
    /// run's telemetry frame, or 0 for infeasible points.
    pub fn drain_total(&self, leaf: &str) -> u64 {
        self.metrics.counter_or_zero(&format!("drain/{leaf}"))
    }

    /// Wall-clock microseconds spent in `stage` across the run, from the
    /// telemetry frame.
    pub fn stage_micros(&self, stage: StageKind) -> u64 {
        self.metrics.counter_or_zero(&format!("stage/{}/ns", stage.name())) / 1_000
    }

    fn infeasible(clock_period_ps: Picos) -> Self {
        Self {
            clock_period_ps,
            feasible: false,
            register_bits: 0,
            num_stages: 0,
            iterations: 0,
            warm_start: false,
            warm_solves: 0,
            cold_solves: 0,
            cache_hits: 0,
            cache_misses: 0,
            elapsed: Duration::ZERO,
            schedule: None,
            metrics: MetricsFrame::new(),
        }
    }

    fn from_session_run(run: &SessionRun) -> Self {
        Self::from_result(
            run.clock_period_ps,
            &run.result,
            run.warm_start,
            run.cache_hits,
            run.cache_misses,
        )
    }

    /// The one place a feasible point is derived from a run, shared by the
    /// session and the independent-baseline sweeps so their records cannot
    /// drift apart.
    fn from_result(
        clock_period_ps: Picos,
        result: &crate::driver::IsdcResult,
        warm_start: bool,
        cache_hits: u64,
        cache_misses: u64,
    ) -> Self {
        Self {
            clock_period_ps,
            feasible: true,
            register_bits: result.final_record().register_bits,
            num_stages: result.final_record().num_stages,
            iterations: result.iterations(),
            warm_start,
            warm_solves: result.history.iter().filter(|r| r.solver_warm).count(),
            cold_solves: result.history.iter().filter(|r| !r.solver_warm).count(),
            cache_hits,
            cache_misses,
            elapsed: result.total_time,
            schedule: Some(result.schedule.clone()),
            metrics: result.metrics.clone(),
        }
    }
}

/// `points` evenly spaced periods from `from` to `to` inclusive.
///
/// # Panics
///
/// Panics if `points` is 0.
pub fn linear_grid(from: Picos, to: Picos, points: usize) -> Vec<Picos> {
    assert!(points > 0, "a grid needs at least one point");
    if points == 1 {
        return vec![from];
    }
    let step = (to - from) / (points - 1) as f64;
    (0..points).map(|i| from + step * i as f64).collect()
}

/// Whether an error means "this period is infeasible" rather than "the run
/// is broken".
fn is_infeasibility(e: &ScheduleError) -> bool {
    matches!(
        e,
        ScheduleError::OperationExceedsClock { .. } | ScheduleError::LatencyUnachievable { .. }
    )
}

/// Runs `base` at every period of `periods` through the session, in the
/// given order. Infeasible periods are recorded, not fatal.
///
/// Per-iteration oracle metrics ([`IsdcConfig::iteration_metrics`]) are
/// computed only for the **final** point: inner points are stepping stones
/// whose error columns nobody reads, and the metric evaluations are the
/// one remaining cost a sweep pays symmetrically with independent runs.
/// Schedules and register counts are unaffected (the metrics are purely
/// observational). Pass a `base` with `iteration_metrics: false` to skip
/// them everywhere.
///
/// # Cancellation
///
/// A deadline tripping mid-sweep is **clean-cut**, not fatal: the sweep
/// returns the already-completed points, bit-identical to the uncancelled
/// run's prefix (the session absorbs nothing from the abandoned run, and
/// its caches are pure accelerators). Callers detect truncation by
/// comparing `points.len()` against `periods.len()`.
///
/// # Errors
///
/// Propagates solver failures that do not signal infeasibility.
pub fn sweep_clock_period<O: DelayOracle + ?Sized>(
    session: &mut IsdcSession<'_, O>,
    base: &IsdcConfig,
    periods: &[Picos],
) -> Result<Vec<SweepPoint>, ScheduleError> {
    let _span = isdc_telemetry::span_u64("sweep", "points", periods.len() as u64);
    let mut points = Vec::with_capacity(periods.len());
    for (i, &clock) in periods.iter().enumerate() {
        let config = IsdcConfig {
            clock_period_ps: clock,
            iteration_metrics: base.iteration_metrics && i + 1 == periods.len(),
            ..base.clone()
        };
        match session.run(&config) {
            Ok(run) => points.push(SweepPoint::from_session_run(&run)),
            Err(e) if is_infeasibility(&e) => points.push(SweepPoint::infeasible(clock)),
            Err(ScheduleError::DeadlineExceeded) => return Ok(points),
            Err(e) => return Err(e),
        }
    }
    Ok(points)
}

/// The independent-cold-runs baseline: [`run_isdc`](crate::run_isdc) at
/// every period with the **cold solver** (`incremental: false` — a fresh
/// LP rebuild and Bellman-Ford cold solve per iteration, the CLI's
/// `--cold-solver` and the reference semantics every warm path is proven
/// bit-identical to), no caching, no session. Used for speedup measurement
/// and the bit-identity guarantee.
///
/// For the softer baseline — independent runs that still warm-start
/// *within* each run — see [`sweep_clock_period_independent`].
///
/// # Errors
///
/// Propagates solver failures that do not signal infeasibility.
pub fn sweep_clock_period_cold<O: DelayOracle + ?Sized>(
    graph: &isdc_ir::Graph,
    model: &isdc_synth::OpDelayModel,
    oracle: &O,
    base: &IsdcConfig,
    periods: &[Picos],
) -> Result<Vec<SweepPoint>, ScheduleError> {
    sweep_independent(graph, model, oracle, base, periods, false)
}

/// Independent per-period [`run_isdc`](crate::run_isdc) calls with the
/// default within-run incremental solver but nothing shared *across* runs
/// (no cache, no potentials, no engine handoff). Isolates exactly what the
/// session adds on top of PR 2's per-iteration warm solving.
///
/// # Errors
///
/// Propagates solver failures that do not signal infeasibility.
pub fn sweep_clock_period_independent<O: DelayOracle + ?Sized>(
    graph: &isdc_ir::Graph,
    model: &isdc_synth::OpDelayModel,
    oracle: &O,
    base: &IsdcConfig,
    periods: &[Picos],
) -> Result<Vec<SweepPoint>, ScheduleError> {
    sweep_independent(graph, model, oracle, base, periods, true)
}

fn sweep_independent<O: DelayOracle + ?Sized>(
    graph: &isdc_ir::Graph,
    model: &isdc_synth::OpDelayModel,
    oracle: &O,
    base: &IsdcConfig,
    periods: &[Picos],
    incremental: bool,
) -> Result<Vec<SweepPoint>, ScheduleError> {
    let mut points = Vec::with_capacity(periods.len());
    for &clock in periods {
        let config = IsdcConfig {
            clock_period_ps: clock,
            cache: false,
            cache_file: None,
            incremental,
            ..base.clone()
        };
        match crate::driver::run_isdc(graph, model, oracle, &config) {
            Ok(result) => points.push(SweepPoint::from_result(clock, &result, false, 0, 0)),
            Err(e) if is_infeasibility(&e) => points.push(SweepPoint::infeasible(clock)),
            Err(e) => return Err(e),
        }
    }
    Ok(points)
}

/// The result of a minimum-feasible-period search.
#[derive(Clone, Debug)]
pub struct MinPeriodSearch {
    /// The smallest period (within `tol_ps`) at which scheduling succeeds,
    /// or `None` when even the upper bound is infeasible.
    pub min_period_ps: Option<Picos>,
    /// Every probe the search ran, in probe order.
    pub probes: Vec<SweepPoint>,
}

/// Binary-searches the smallest feasible clock period in `[lo, hi]` to a
/// resolution of `tol_ps`, scheduling through the session so feasible
/// probes reuse each other's work. `lo` may be infeasible; `hi` should be
/// feasible (otherwise the search reports `None`). Probes skip the
/// per-iteration oracle metrics ([`IsdcConfig::iteration_metrics`]) —
/// schedules and feasibility are unaffected.
///
/// # Errors
///
/// Propagates solver failures that do not signal infeasibility.
///
/// # Panics
///
/// Panics if `tol_ps` is not positive or `lo > hi`.
pub fn min_feasible_period<O: DelayOracle + ?Sized>(
    session: &mut IsdcSession<'_, O>,
    base: &IsdcConfig,
    lo: Picos,
    hi: Picos,
    tol_ps: Picos,
) -> Result<MinPeriodSearch, ScheduleError> {
    assert!(tol_ps > 0.0, "tolerance must be positive");
    assert!(lo <= hi, "empty search interval");
    let _span = isdc_telemetry::span("min_period_search");
    let mut probes = Vec::new();
    let mut probe =
        |session: &mut IsdcSession<'_, O>, clock: Picos| -> Result<bool, ScheduleError> {
            // Probes are pure feasibility/quality stepping stones — nobody
            // reads their per-iteration error columns, so none of them pay
            // the oracle metrics (same reasoning as a sweep's inner points).
            let config =
                IsdcConfig { clock_period_ps: clock, iteration_metrics: false, ..base.clone() };
            match session.run(&config) {
                Ok(run) => {
                    probes.push(SweepPoint::from_session_run(&run));
                    Ok(true)
                }
                Err(e) if is_infeasibility(&e) => {
                    probes.push(SweepPoint::infeasible(clock));
                    Ok(false)
                }
                Err(e) => Err(e),
            }
        };
    if !probe(session, hi)? {
        return Ok(MinPeriodSearch { min_period_ps: None, probes });
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > tol_ps {
        let mid = lo + (hi - lo) / 2.0;
        if probe(session, mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(MinPeriodSearch { min_period_ps: Some(hi), probes })
}

/// Serializes sweep records as the `BENCH_sweep.json` document: design
/// metadata, one row per session point, per-baseline totals and speedups,
/// and each baseline's per-point time alongside the session's (baselines
/// are named, e.g. `("cold", ..)` for the reference cold-solver runs and
/// `("independent", ..)` for warm-within-run independent calls).
pub fn render_sweep_json(
    design: &str,
    nodes: usize,
    mode: &str,
    session_points: &[SweepPoint],
    baselines: &[(&str, &[SweepPoint])],
) -> String {
    let total =
        |points: &[SweepPoint]| -> u128 { points.iter().map(|p| p.elapsed.as_nanos()).sum() };
    let session_total = total(session_points);
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"sweep\",\n");
    let (design, mode) = (escape_json(design), escape_json(mode));
    let _ = writeln!(out, "  \"design\": \"{design}\",\n  \"nodes\": {nodes},");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",\n  \"points\": {},", session_points.len());
    let _ = writeln!(out, "  \"session_total_ns\": {session_total},");
    for (name, points) in baselines {
        let baseline_total = total(points);
        let _ = writeln!(out, "  \"{name}_total_ns\": {baseline_total},");
        let _ = writeln!(
            out,
            "  \"speedup_vs_{name}\": {:.2},",
            baseline_total as f64 / session_total.max(1) as f64
        );
    }
    out.push_str("  \"runs\": [\n");
    for (i, p) in session_points.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "    {{\"clock_ps\": {}, \"feasible\": {}, \"register_bits\": {}, \
             \"stages\": {}, \"iterations\": {}, \"warm_start\": {}, \
             \"warm_solves\": {}, \"cold_solves\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \"elapsed_ns\": {}",
            p.clock_period_ps,
            p.feasible,
            p.register_bits,
            p.num_stages,
            p.iterations,
            p.warm_start,
            p.warm_solves,
            p.cold_solves,
            p.cache_hits,
            p.cache_misses,
            p.cache_hit_rate(),
            p.elapsed.as_nanos(),
        );
        // Registry-derived enrichment: solver drain totals and per-stage
        // wall-clock, straight from the run's telemetry frame.
        let _ = write!(
            out,
            ", \"drain_dijkstras\": {}, \"drain_paths\": {}, \"drain_flow_pushed\": {}",
            p.drain_total("dijkstras"),
            p.drain_total("paths"),
            p.drain_total("flow_pushed"),
        );
        out.push_str(", \"stage_us\": {");
        for (si, kind) in StageKind::ALL.iter().enumerate() {
            if si > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", kind.name(), p.stage_micros(*kind));
        }
        out.push('}');
        for (name, points) in baselines {
            if let Some(b) = points.iter().find(|b| b.clock_period_ps == p.clock_period_ps) {
                let _ = write!(out, ", \"{name}_elapsed_ns\": {}", b.elapsed.as_nanos());
            }
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_grid_covers_endpoints() {
        let grid = linear_grid(1000.0, 2000.0, 5);
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0], 1000.0);
        assert_eq!(grid[4], 2000.0);
        assert!(grid.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(linear_grid(1500.0, 9999.0, 1), vec![1500.0]);
    }

    #[test]
    fn sweep_json_shape_is_stable() {
        let mut metrics = MetricsFrame::new();
        metrics.insert("drain/dijkstras", isdc_telemetry::MetricValue::Counter(7));
        metrics.insert("drain/paths", isdc_telemetry::MetricValue::Counter(12));
        metrics.insert("stage/solve/ns", isdc_telemetry::MetricValue::Counter(42_000));
        let point = SweepPoint {
            clock_period_ps: 2500.0,
            feasible: true,
            register_bits: 128,
            num_stages: 3,
            iterations: 4,
            warm_start: true,
            warm_solves: 5,
            cold_solves: 0,
            cache_hits: 40,
            cache_misses: 2,
            elapsed: Duration::from_nanos(1234),
            schedule: None,
            metrics,
        };
        let cold =
            SweepPoint { warm_start: false, elapsed: Duration::from_nanos(9999), ..point.clone() };
        let json = render_sweep_json("crc32", 452, "full", &[point], &[("cold", &[cold])]);
        for needle in [
            "\"bench\": \"sweep\"",
            "\"design\": \"crc32\"",
            "\"speedup_vs_cold\": 8.10",
            "\"warm_start\": true",
            "\"cache_hit_rate\": 0.9524",
            "\"drain_dijkstras\": 7",
            "\"drain_paths\": 12",
            "\"stage_us\": {\"extract\": 0",
            "\"solve\": 42",
            "\"cold_elapsed_ns\": 9999",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn sweep_json_design_path_round_trips() {
        let path = r#"C:\designs\"odd".ir"#;
        let json = render_sweep_json(path, 1, "full", &[], &[]);
        let at = json.find("\"design\": ").expect("the document names its design") + 10;
        assert_eq!(isdc_cache::json::Parser::new(&json[at..]).string().unwrap(), path, "{json}");
    }
}
