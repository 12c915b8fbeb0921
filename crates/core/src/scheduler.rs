//! The SDC scheduling LP: constraints, objective and solving.
//!
//! Given a delay matrix (naive for the baseline, feedback-updated for ISDC
//! iterations), this module builds the LP of paper §II and solves it exactly:
//!
//! - **dependencies** — an operand is scheduled no later than its user;
//! - **timing (Eq. 2)** — a pair whose critical-path delay exceeds the clock
//!   period is split across `ceil(D/Tclk)` cycles;
//! - **parameters** pinned to the first stage (inputs arrive with the
//!   transaction);
//! - **objective** — total register bits: `sum_v width(v) * (last_use_v -
//!   s_v)`, the metric Table I reports, linearized with one auxiliary
//!   last-use variable per value and a sink variable for graph outputs.
//!
//! # LP sparsification
//!
//! Eq. 2 names a constraint for every delay-matrix pair — `O(n^2)` of them —
//! but most are implied by others. Emission ([`sweep_source`]) decides each
//! pair `(u, w)` from its own row alone: a pair whose bound `-(k-1)` is
//! negative gets its own constraint unless some operand `p ≠ u` of `w` has
//! `D[u][p] > (k-1)·Tclk`. Such an operand's bound is at least as tight, and
//! the dependency `x_p <= x_w` carries it to `w`, so the pair is **pruned**.
//! By induction in topological order every pair's bound is emitted or
//! implied, whatever the matrix: the rule does not assume that delays grow
//! along paths. A source's sweep walks only its descendants, read from the
//! delay matrix's connectivity index, instead of all `n` sinks.
//!
//! A pruned pair stays pruned only while its operand's bound holds, so the
//! incremental engine re-decides every pair of the dirty rows (or of every
//! row on a [`IncrementalScheduler::retarget`]) and reconciles by one rule:
//! a pair that has a timing constraint keeps it at its current Eq. 2 bound,
//! and a pair that newly needs one is *promoted* to its own constraint (see
//! [`isdc_sdc::IncrementalSolver::add_constraint`]). Nothing is ever
//! demoted: a kept constraint the rule no longer emits is implied through an
//! operand, so it moves neither the polyhedron nor any shortest-path
//! distance of the canonicalization. The sparse and dense systems describe
//! the same polyhedron, and `canonical_assignment` is a geometric property
//! of that polyhedron, so schedules are bit-identical;
//! [`IncrementalScheduler::certify`] proves it per solve.

use crate::delay::{DelayMatrix, DirtySet};
use crate::schedule::Schedule;
use isdc_ir::{Graph, NodeId};
use isdc_sdc::{DifferenceSystem, IncrementalSolver, SolveError, VarId};
use isdc_techlib::Picos;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from schedule construction.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    /// The underlying LP failed (infeasible systems indicate a delay matrix
    /// inconsistency; unbounded indicates a malformed objective).
    Solver(SolveError),
    /// The graph has no nodes to schedule.
    EmptyGraph,
    /// An operation's own delay exceeds the clock period — no schedule can
    /// meet timing (the paper doubles the target period in this case).
    OperationExceedsClock {
        /// The offending node.
        node: NodeId,
        /// The node's characterized delay.
        delay_ps: Picos,
        /// The clock period it does not fit in.
        clock_period_ps: Picos,
    },
    /// A deterministic fault-injection hook fired (chaos testing only —
    /// see `isdc_faults`). Treated as a *transient* failure by the batch
    /// engine's retry policy, unlike the real solver errors above.
    Injected {
        /// The injection site that fired (e.g. `solver/drain`).
        site: &'static str,
    },
    /// The downstream oracle reported a negative or NaN delay or output
    /// arrival for a subgraph. Written into the delay matrix, a negative
    /// value can read as "not connected" and a NaN poisons every path
    /// through it, so the run fails before the report is applied.
    /// *Terminal* — the batch engine never retries it.
    MalformedOracleReport {
        /// The subgraph's first node.
        node: NodeId,
        /// The offending value.
        delay_ps: Picos,
    },
    /// An installed `isdc_cancel` deadline or token tripped mid-run. The
    /// run unwound through its normal error paths: warm solver state is
    /// discarded (never poisoned), session/cache stay consistent, and any
    /// already-completed sweep points are kept. *Terminal* — the batch
    /// engine never retries it.
    DeadlineExceeded,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Solver(e) => write!(f, "lp solver: {e}"),
            ScheduleError::EmptyGraph => f.write_str("cannot schedule an empty graph"),
            ScheduleError::OperationExceedsClock { node, delay_ps, clock_period_ps } => write!(
                f,
                "operation {node} delay {delay_ps}ps exceeds clock period {clock_period_ps}ps"
            ),
            ScheduleError::MalformedOracleReport { node, delay_ps } => write!(
                f,
                "oracle reported {delay_ps}ps for the subgraph at {node}; \
                 delays must be non-negative"
            ),
            ScheduleError::Injected { site } => {
                write!(f, "injected fault at {site}")
            }
            ScheduleError::DeadlineExceeded => {
                f.write_str("deadline exceeded (run cancelled cleanly)")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Why [`IncrementalScheduler::certify`] rejected a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleCertifyError {
    /// The LP solve's own certificate failed.
    Lp(isdc_sdc::CertifyError),
    /// The timing constraint held for this `(source, sink)` pair does not
    /// carry the pair's current Eq. 2 bound.
    HeldBound(NodeId, NodeId),
    /// The schedule breaks the dependency or the dense Eq. 2 bound between
    /// these nodes.
    Violation(NodeId, NodeId),
}

impl From<SolveError> for ScheduleError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::Cancelled => ScheduleError::DeadlineExceeded,
            e => ScheduleError::Solver(e),
        }
    }
}

/// Builds and solves the SDC LP against the given delay matrix.
///
/// This one function serves both the baseline (naive matrix) and every ISDC
/// iteration (feedback-updated matrix) — exactly the reformulation loop of
/// paper §III-D.
///
/// # Errors
///
/// See [`ScheduleError`].
///
/// # Examples
///
/// ```
/// use isdc_core::{schedule_with_matrix, DelayMatrix};
/// use isdc_ir::{Graph, OpKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new("t");
/// let a = g.param("a", 8);
/// let b = g.param("b", 8);
/// let x = g.binary(OpKind::Add, a, b)?;
/// let y = g.binary(OpKind::Mul, x, x)?;
/// g.set_output(y);
/// // add takes 600ps, mul 900ps, clock 1000ps: they cannot chain.
/// let delays = DelayMatrix::initialize(&g, &[0.0, 0.0, 600.0, 900.0]);
/// let schedule = schedule_with_matrix(&g, &delays, 1000.0)?;
/// assert_eq!(schedule.num_stages(), 2);
/// # Ok(())
/// # }
/// ```
pub fn schedule_with_matrix(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
) -> Result<Schedule, ScheduleError> {
    IncrementalScheduler::new(graph, delays, clock_period_ps)?.reschedule(
        graph,
        delays,
        &DirtySet::new(graph.len()),
    )
}

/// Counters of the sparsified Eq. 2 emission (see the module docs). On an
/// [`IncrementalScheduler`] these accumulate across the initial build and
/// every reconciliation sweep, so they export directly as monotone
/// telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparsifyStats {
    /// Delay-matrix pairs whose Eq. 2 bound was derived.
    pub pairs_scanned: u64,
    /// Pairs that emitted (or kept, on reconciliation) their own constraint.
    pub constraints_emitted: u64,
    /// Pairs with a negative bound left to an operand whose bound is at
    /// least as tight: constraints the dense emission would have added.
    pub pruned: u64,
}

impl SparsifyStats {
    /// Constraints the dense Eq. 2 emission would have added.
    pub fn dense_constraints(&self) -> u64 {
        self.constraints_emitted + self.pruned
    }

    /// Fraction of dense constraints dropped; `>= 0.5` means the LP shrank
    /// by at least 2x.
    pub fn pruning_ratio(&self) -> f64 {
        let dense = self.dense_constraints();
        if dense == 0 {
            0.0
        } else {
            self.pruned as f64 / dense as f64
        }
    }

    /// The events since an `earlier` snapshot of the same cumulative
    /// counters — what one reconciliation (or one run's share of a
    /// session-carried engine) contributed.
    #[must_use]
    pub fn delta_since(&self, earlier: &SparsifyStats) -> SparsifyStats {
        SparsifyStats {
            pairs_scanned: self.pairs_scanned.saturating_sub(earlier.pairs_scanned),
            constraints_emitted: self
                .constraints_emitted
                .saturating_sub(earlier.constraints_emitted),
            pruned: self.pruned.saturating_sub(earlier.pruned),
        }
    }
}

/// The SDC LP plus the bookkeeping the incremental engine needs: which
/// constraint (if any) encodes the timing bound of each node pair.
struct BuiltLp {
    sys: DifferenceSystem,
    weights: Vec<i64>,
    /// Per source `u`: sink index -> the id of the pair's timing constraint
    /// (the solver holds its bound). Sparse — only pairs that ever emitted a
    /// constraint have entries, keyed by node index in a `BTreeMap` so
    /// iteration (and thus constraint ids) stays deterministic.
    timing: Vec<BTreeMap<u32, usize>>,
    stats: SparsifyStats,
}

/// Eq. 2's bound for a pair with critical-path delay `d`: split across
/// `ceil(d / Tclk)` stages. Nonpositive whenever `d > Tclk`; pairs at or
/// under the clock need no constraint (encoded as bound 0, which dependency
/// transitivity already implies for connected pairs).
///
/// The stage count is the smallest `k` with `k * Tclk >= d`, found by
/// floating the quotient and then walking to the exact boundary with
/// correctly-rounded multiplications — a pair at exactly `k * Tclk` needs
/// exactly `k` stages at every magnitude, where the historical
/// `(d / Tclk - 1e-9).ceil()` drifted once one ulp of the quotient exceeded
/// the fixed epsilon.
pub(crate) fn timing_bound(d: Picos, clock_period_ps: Picos) -> i64 {
    if d <= clock_period_ps {
        return 0;
    }
    let mut stages = (d / clock_period_ps).floor() as i64;
    if stages < 1 {
        stages = 1;
    }
    while (stages as f64) * clock_period_ps < d {
        stages += 1;
    }
    while stages > 1 && ((stages - 1) as f64) * clock_period_ps >= d {
        stages -= 1;
    }
    -(stages - 1)
}

/// The sparsified Eq. 2 emission for one source `u` (see the module docs).
///
/// For every sink `w` with a delay entry from `u` (its descendants, in
/// ascending order), `on_pair(w, bound, emitted)` reports the pair's Eq. 2
/// bound `-(k-1)` and whether it needs its own constraint: `emitted` is
/// true exactly when the bound is negative and every operand `p ≠ u` of
/// `w` with an entry has `D[u][p] <= (k-1)·Tclk`, i.e. a looser bound of
/// its own. The product is rounded as [`timing_bound`] rounds it, so the
/// test agrees with the operands' own stage counts. The diagonal is
/// skipped: a node's fit in the period is the caller's feasibility check,
/// not a difference constraint.
fn sweep_source(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
    u: NodeId,
    stats: &mut SparsifyStats,
    mut on_pair: impl FnMut(NodeId, i64, bool),
) {
    for (w, d) in delays.descendants(u) {
        stats.pairs_scanned += 1;
        let bound = timing_bound(d, clock_period_ps);
        let mut emitted = false;
        if bound < 0 {
            let operands = graph.node(w).operands.iter().filter(|&&p| p != u);
            let reach = operands.filter_map(|&p| delays.get(u, p)).fold(0.0, f64::max);
            emitted = reach <= (-bound) as f64 * clock_period_ps;
            if emitted {
                stats.constraints_emitted += 1;
            } else {
                stats.pruned += 1;
            }
        }
        on_pair(w, bound, emitted);
    }
}

/// Builds the full SDC LP of paper §II for the given delay matrix, with
/// the operand rule's Eq. 2 emission ([`sweep_source`]).
fn build_lp(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
) -> Result<BuiltLp, ScheduleError> {
    let n = graph.len();
    if n == 0 {
        return Err(ScheduleError::EmptyGraph);
    }
    check_node_delays(graph, delays, clock_period_ps)?;

    // Variable layout: [0, n) node cycles; [n, 2n) last-use; 2n sink.
    let x = |v: NodeId| VarId(v.0);
    let m = |v: NodeId| VarId((n + v.index()) as u32);
    let sink = VarId(2 * n as u32);
    let mut sys = DifferenceSystem::new(2 * n + 1);
    let mut weights = vec![0i64; 2 * n + 1];
    let mut timing: Vec<BTreeMap<u32, usize>> = vec![BTreeMap::new(); n];
    let mut stats = SparsifyStats::default();

    // Dependencies: x_p <= x_v.
    for (v, node) in graph.iter() {
        for &p in &node.operands {
            sys.add_constraint(x(p), x(v), 0);
        }
    }

    // Timing (Eq. 2): pairs whose critical-path delay exceeds Tclk.
    for u in graph.node_ids() {
        let map = &mut timing[u.index()];
        sweep_source(graph, delays, clock_period_ps, u, &mut stats, |w, b, e| {
            if e {
                map.insert(w.0, sys.add_constraint(x(u), x(w), b));
            }
        });
    }

    // Parameters arrive together in the first stage and precede everything.
    if let Some(&p0) = graph.params().first() {
        for &p in &graph.params()[1..] {
            sys.add_constraint(x(p), x(p0), 0);
            sys.add_constraint(x(p0), x(p), 0);
        }
        for v in graph.node_ids() {
            if v != p0 {
                sys.add_constraint(x(p0), x(v), 0);
            }
        }
    }

    // Sink: after every node; the pseudo-last-use of graph outputs.
    for v in graph.node_ids() {
        sys.add_constraint(x(v), sink, 0);
    }

    // Register-lifetime objective.
    for (v, node) in graph.iter() {
        let users = graph.users(v);
        let is_output = graph.outputs().contains(&v);
        if users.is_empty() && !is_output {
            continue; // dead value: no register cost
        }
        for &u in users {
            sys.add_constraint(x(u), m(v), 0); // m_v >= x_u
        }
        if is_output {
            sys.add_constraint(sink, m(v), 0); // m_v >= sink
        } else {
            // Guarantee m_v >= x_v even if all users chain in-stage.
            sys.add_constraint(x(v), m(v), 0);
        }
        let w = node.width as i64;
        weights[m(v).index()] += w;
        weights[x(v).index()] -= w;
    }

    Ok(BuiltLp { sys, weights, timing, stats })
}

/// Re-decides every pair of source `u` against the live solver and
/// reconciles what the emission rule wants with what the system carries, by
/// one rule:
///
/// - a pair that has a timing constraint keeps it at its current Eq. 2
///   bound through `update_bound` (a no-op when the bound is unchanged;
///   relaxations stay warm, tightenings cold-fall on their own), whether or
///   not the rule still emits it — a constraint it no longer emits is
///   implied through an operand, so keeping it changes no schedule;
/// - a pair that needs a constraint it never had is **promoted** via
///   `add_constraint` (warm-safe under monotone feedback: the pruned pair's
///   old bound was implied, so the old optimum satisfied it, and the
///   promoted bound is no tighter).
///
/// The sweep visits every descendant and `map` holds only descendants,
/// both ascending, so the held constraints are found by walking `map` in
/// step with the sweep; promotions join `map` after it.
fn reconcile_source(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
    u: NodeId,
    solver: &mut IncrementalSolver,
    map: &mut BTreeMap<u32, usize>,
    stats: &mut SparsifyStats,
) {
    let mut held = map.iter().map(|(&w, &id)| (w, id)).peekable();
    let mut promoted = Vec::new();
    sweep_source(graph, delays, clock_period_ps, u, stats, |w, bound, emitted| {
        match held.next_if(|&(k, _)| k == w.0) {
            Some((_, id)) => solver.update_bound(id, bound),
            None if emitted => {
                promoted.push((w.0, solver.add_constraint(VarId(u.0), VarId(w.0), bound)));
            }
            None => {}
        }
    });
    debug_assert!(held.next().is_none(), "a held constraint's sink is not a descendant");
    map.extend(promoted);
}

/// Rejects a delay matrix in which a single operation's own delay exceeds
/// the clock period: no schedule can meet timing there.
fn check_node_delays(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
) -> Result<(), ScheduleError> {
    for v in graph.node_ids() {
        let d = delays.node_delay(v);
        if d > clock_period_ps {
            return Err(ScheduleError::OperationExceedsClock {
                node: v,
                delay_ps: d,
                clock_period_ps,
            });
        }
    }
    Ok(())
}

/// Normalizes an LP assignment into a schedule: params (or the global
/// minimum) define stage 0.
fn solution_to_schedule(graph: &Graph, assignment: &[i64]) -> Schedule {
    let n = graph.len();
    let base = graph
        .params()
        .first()
        .map(|&p| assignment[p.index()])
        .unwrap_or_else(|| (0..n).map(|i| assignment[i]).min().unwrap_or(0));
    let cycles: Vec<u32> = (0..n)
        .map(|i| {
            let c = assignment[i] - base;
            debug_assert!(c >= 0, "node scheduled before the first stage");
            c as u32
        })
        .collect();
    Schedule::new(cycles)
}

/// A scheduler that persists the SDC LP across ISDC iterations.
///
/// [`schedule_with_matrix`] is the engine's one-shot use: build the
/// (sparsified) system, cold-solve it, drop it. Kept across iterations, the
/// engine instead re-runs the emission sweep over only the delay matrix's
/// dirty rows and re-solves through a warm-started [`IncrementalSolver`].
///
/// Timing constraints are only ever re-bounded or appended, never removed.
/// Because Alg. 1 keeps delay updates monotonically non-increasing, the
/// re-emitted bounds are relaxations and promoted constraints are already
/// satisfied by the old optimum, so the warm path applies end to end; any
/// non-monotone input (a tightened bound, a promotion the old optimum
/// violates) makes the solver fall back to its cold path on its own — there
/// is no full-rebuild mode. Either way the result is bit-identical to
/// [`schedule_with_matrix`] on the same matrix.
#[derive(Clone, Debug)]
pub struct IncrementalScheduler {
    clock_period_ps: Picos,
    solver: IncrementalSolver,
    /// Per source: sink index -> timing constraint id (see
    /// [`BuiltLp::timing`]).
    timing: Vec<BTreeMap<u32, usize>>,
    stats: SparsifyStats,
}

impl IncrementalScheduler {
    /// Builds the LP for `graph` against `delays` at `clock_period_ps` and
    /// primes the solver.
    ///
    /// # Errors
    ///
    /// See [`schedule_with_matrix`].
    pub fn new(
        graph: &Graph,
        delays: &DelayMatrix,
        clock_period_ps: Picos,
    ) -> Result<Self, ScheduleError> {
        let built = build_lp(graph, delays, clock_period_ps)?;
        let solver = IncrementalSolver::new(built.sys, built.weights)?;
        Ok(Self { clock_period_ps, solver, timing: built.timing, stats: built.stats })
    }

    /// Re-solves after delay-matrix changes covered by `dirty`, reusing the
    /// persistent system and solver state. `delays` must be the same matrix
    /// the engine was built against, mutated only through entries recorded
    /// in `dirty` since the previous call.
    ///
    /// # Errors
    ///
    /// See [`schedule_with_matrix`]. Monotone (relaxing-only) updates can
    /// never make the system infeasible.
    pub fn reschedule(
        &mut self,
        graph: &Graph,
        delays: &DelayMatrix,
        dirty: &DirtySet,
    ) -> Result<Schedule, ScheduleError> {
        check_node_delays(graph, delays, self.clock_period_ps)?;
        // A pair's decision depends only on its source's delay row, so
        // dirty *rows* are exactly the sources whose inputs changed; within
        // a row every pair is re-derived from the matrix, making repeated
        // marks and row/col shapes equally cheap to honor.
        let Self { clock_period_ps, solver, timing, stats } = self;
        let emit = isdc_telemetry::span("solve:emit");
        for u in dirty.rows() {
            let map = &mut timing[u.index()];
            reconcile_source(graph, delays, *clock_period_ps, u, solver, map, stats);
        }
        drop(emit);
        let solution = solver.solve()?;
        Ok(solution_to_schedule(graph, &solution.assignment))
    }

    /// Whether the most recent [`IncrementalScheduler::reschedule`] re-used
    /// warm solver state end to end (false after any cold fallback).
    pub fn last_solve_was_warm(&self) -> bool {
        self.solver.last_solve_was_warm()
    }

    /// Drain counters of the most recent solve (see
    /// [`isdc_sdc::DrainStats`]): how many augmenting paths the SSP drain
    /// delivered, how many Dijkstra searches it ran for them, and how many
    /// nodes its searches settled.
    pub fn last_drain_stats(&self) -> isdc_sdc::DrainStats {
        self.solver.last_drain_stats()
    }

    /// Cumulative [`SparsifyStats`] — the initial build plus every
    /// reconciliation sweep since. Monotone, so deltas export directly as
    /// telemetry counters; right after [`IncrementalScheduler::new`] it is
    /// exactly the build's composition (emitted + pruned = what the dense
    /// LP would carry).
    pub fn sparsify_stats(&self) -> SparsifyStats {
        self.stats
    }

    /// Certifies the `schedule` the most recent
    /// [`IncrementalScheduler::reschedule`] returned against `delays` as the
    /// canonical optimum of the *dense* LP of paper §II, one Eq. 2
    /// constraint per pair, without building it: the solver's optimum
    /// passes [`isdc_sdc::certify`]; every held timing constraint carries
    /// its pair's current Eq. 2 bound, so the dense system implies the
    /// sparse one; and the schedule meets the dense system
    /// ([`Schedule::first_constraint_violation`]), so the sparse optimum is
    /// the dense one too.
    ///
    /// # Errors
    ///
    /// The first check that fails.
    pub fn certify(
        &self,
        graph: &Graph,
        delays: &DelayMatrix,
        schedule: &Schedule,
    ) -> Result<(), ScheduleCertifyError> {
        self.solver.certify().map_err(ScheduleCertifyError::Lp)?;
        for (u, map) in graph.node_ids().zip(&self.timing) {
            for (&w, &id) in map {
                let eq2 = delays.get(u, NodeId(w)).map(|d| timing_bound(d, self.clock_period_ps));
                if eq2 != Some(self.solver.bound(id)) {
                    return Err(ScheduleCertifyError::HeldBound(u, NodeId(w)));
                }
            }
        }
        match schedule.first_constraint_violation(graph, delays, self.clock_period_ps) {
            Some((u, v)) => Err(ScheduleCertifyError::Violation(u, v)),
            None => Ok(()),
        }
    }

    /// Exports the solver's node potentials after a solve — the cross-run
    /// warm-start currency: `-potentials` is the optimal LP assignment, and
    /// [`IncrementalScheduler::warm_from_potentials`] on a *fresh* engine
    /// (same design, this or a neighbouring clock period) re-seeds from it.
    pub fn potentials(&self) -> Option<Vec<i64>> {
        self.solver.potentials()
    }

    /// Re-targets the engine to a new clock period by re-deciding every
    /// pair of every source at `clock_period_ps` — the strongest
    /// cross-run reuse an [`IsdcSession`](crate::IsdcSession) sweep has:
    /// the whole difference system, flow and potentials survive the period
    /// change.
    ///
    /// `delays` must be the matrix the engine's bounds currently encode
    /// (for a session, the naive matrix its initial solve ran against).
    /// Eq. 2's bound is monotone in the period, so moving to a *longer*
    /// period relaxes every bound and the next solve stays warm; a shorter
    /// period tightens bounds and promotes pairs whose operands no longer
    /// carry a bound as tight as theirs, either of which makes the next
    /// solve fall back cold on its own. Either way the subsequent schedule
    /// is bit-identical to a fresh engine's; an infeasible period surfaces
    /// as [`IncrementalScheduler::reschedule`]'s usual feasibility error.
    pub fn retarget(&mut self, graph: &Graph, delays: &DelayMatrix, clock_period_ps: Picos) {
        self.clock_period_ps = clock_period_ps;
        let Self { solver, timing, stats, .. } = self;
        let _emit = isdc_telemetry::span("solve:emit");
        for u in graph.node_ids() {
            let map = &mut timing[u.index()];
            reconcile_source(graph, delays, clock_period_ps, u, solver, map, stats);
        }
    }

    /// Seeds the engine's first solve from previously-exported potentials
    /// (see [`isdc_sdc::IncrementalSolver::warm_from_potentials`]). Returns
    /// false and changes nothing when the import does not validate against
    /// the current LP — schedules are bit-identical either way, so callers
    /// treat this as a pure speed hint.
    pub fn warm_from_potentials(&mut self, pi: &[i64]) -> bool {
        self.solver.warm_from_potentials(pi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;

    fn mac_graph() -> (Graph, [NodeId; 5]) {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let c = g.param("c", 8);
        let p = g.binary(OpKind::Mul, a, b).unwrap();
        let s = g.binary(OpKind::Add, p, c).unwrap();
        g.set_output(s);
        (g, [a, b, c, p, s])
    }

    fn not_chain(len: usize) -> Graph {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let mut prev = a;
        for _ in 0..len {
            prev = g.unary(OpKind::Not, prev).unwrap();
        }
        g.set_output(prev);
        g
    }

    /// A fresh engine's schedule, certified as the dense LP's optimum.
    fn certified(g: &Graph, d: &DelayMatrix, clock: Picos) -> Schedule {
        let mut engine = IncrementalScheduler::new(g, d, clock).unwrap();
        let schedule = engine.reschedule(g, d, &DirtySet::new(g.len())).unwrap();
        assert_eq!(engine.certify(g, d, &schedule), Ok(()), "at {clock}ps");
        schedule
    }

    #[test]
    fn everything_chains_when_timing_allows() {
        let (g, _) = mac_graph();
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 400.0, 300.0]);
        let schedule = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(schedule.num_stages(), 1);
        assert_eq!(schedule.register_bits(&g), 0);
    }

    #[test]
    fn timing_splits_stages() {
        let (g, [_, _, _, p, s]) = mac_graph();
        // 400 + 700 = 1100 > 1000: mul and add must separate.
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 400.0, 700.0]);
        let schedule = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(schedule.num_stages(), 2);
        assert!(schedule.cycle(p) < schedule.cycle(s));
        assert_eq!(schedule.first_dependency_violation(&g), None);
    }

    #[test]
    fn long_paths_split_multiple_times() {
        // Chain of four 400ps ops at 1000ps: pairs chain (800), triples do
        // not (1200) — two ops per stage, two stages.
        let g = not_chain(4);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0]);
        let schedule = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(schedule.num_stages(), 2);
        // And with 600ps ops even pairs cannot chain: one op per stage.
        let d = DelayMatrix::initialize(&g, &[0.0, 600.0, 600.0, 600.0, 600.0]);
        let schedule = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(schedule.num_stages(), 4);
    }

    #[test]
    fn objective_minimizes_register_bits() {
        // A narrow input feeding a wide intermediate: producing the wide
        // value early would buffer 32 bits across the stage boundary, while
        // deferring it only buffers the 8-bit input. The LP must defer.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 32);
        let c = g.param("c", 32);
        let slow = g.binary(OpKind::Mul, b, c).unwrap(); // 900ps
        let e = g.unary(OpKind::ZeroExt { new_width: 32 }, a).unwrap(); // free
        let wide = g.binary(OpKind::Mul, e, e).unwrap(); // 100ps, 32 bits
        let out = g.binary(OpKind::Xor, slow, wide).unwrap(); // 200ps
        g.set_output(out);
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 900.0, 0.0, 100.0, 200.0]);
        let schedule = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        // slow -> out is 1100ps: two stages. wide chains with out in the
        // second stage, so only `a` (8 bits) crosses besides slow's
        // unavoidable 32-bit register.
        assert_eq!(schedule.num_stages(), 2);
        assert_eq!(schedule.cycle(wide), schedule.cycle(out));
        assert_eq!(schedule.register_bits(&g), 32 + 8);
    }

    #[test]
    fn params_pinned_to_stage_zero() {
        let (g, [a, b, c, _, _]) = mac_graph();
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 900.0, 900.0]);
        let schedule = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(schedule.cycle(a), 0);
        assert_eq!(schedule.cycle(b), 0);
        assert_eq!(schedule.cycle(c), 0);
    }

    #[test]
    fn oversized_operation_rejected() {
        let (g, _) = mac_graph();
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 2700.0, 100.0]);
        let err = schedule_with_matrix(&g, &d, 2500.0).unwrap_err();
        assert!(matches!(err, ScheduleError::OperationExceedsClock { delay_ps, .. }
            if delay_ps == 2700.0));
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Graph::new("empty");
        let d = DelayMatrix::initialize(&g, &[]);
        assert_eq!(schedule_with_matrix(&g, &d, 1000.0).unwrap_err(), ScheduleError::EmptyGraph);
    }

    #[test]
    fn feedback_updated_matrix_reduces_stages() {
        // The paper's Fig. 2 scenario: naive estimate forces a split, the
        // downstream-reported delay lets ops merge back into one cycle.
        let (g, [_, _, _, p, s]) = mac_graph();
        let mut d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 700.0, 500.0]);
        let before = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(before.num_stages(), 2);
        // Downstream synthesis reports the {p, s} subgraph fits in 900ps.
        d.apply_subgraph_feedback(&[p, s], 900.0);
        d.reformulate(&g);
        let after = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(after.num_stages(), 1);
        assert!(after.register_bits(&g) < before.register_bits(&g));
    }

    #[test]
    fn timing_bound_is_exact_at_bucket_boundaries() {
        // Exactly k*Tclk fits in k stages; one ulp past needs k+1.
        assert_eq!(timing_bound(1000.0, 1000.0), 0);
        assert_eq!(timing_bound(1999.999, 1000.0), -1);
        assert_eq!(timing_bound(2000.0, 1000.0), -1);
        assert_eq!(timing_bound(2000.0000001, 1000.0), -2);
        assert_eq!(timing_bound(3000.0, 1000.0), -2);
        // Fractional periods: 3 * 333.3 is not representable, but the
        // comparison happens against the correctly-rounded product, so the
        // bucket count is still the smallest k with fl(k * T) >= d.
        let t = 333.3;
        assert_eq!(timing_bound(3.0 * t, t), -2);
        assert_eq!(timing_bound(3.0 * t + 0.001, t), -3);
        // Large magnitudes, where the historical fixed 1e-9 epsilon fell
        // below one ulp of the quotient and exact multiples drifted up a
        // bucket.
        let t = 1.0e12;
        assert_eq!(timing_bound(3.0 * t, t), -2);
        assert_eq!(timing_bound(3.0 * t + 1.0, t), -3);
        assert_eq!(timing_bound(1000.0 * t, t), -999);
    }

    #[test]
    fn timing_bound_is_monotone_near_boundaries() {
        // The incremental engine's warm path relies on monotonicity: a
        // smaller delay or longer period never tightens the bound.
        let mut prev = 0;
        for i in 0..4000 {
            let d = f64::from(i);
            let b = timing_bound(d, 100.0);
            assert!(b <= prev, "bound tightened as delay shrank: {d}");
            prev = b;
            if d > 100.0 {
                assert!(timing_bound(d, 100.5) >= b, "longer period tightened {d}");
            }
        }
    }

    #[test]
    fn pairs_an_operand_bounds_as_tightly_are_pruned() {
        // Five 400ps Nots at 900ps: along each source's row the bound steps
        // -1 (1200ps), -1 (1600ps), -2 (2000ps). The 1600ps pair's operand
        // sits at 1200ps > 1 * 900ps, so it already carries a -1 bound and
        // the pair is pruned; the sparse LP carries 6 of the dense 9.
        let g = not_chain(5);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0, 400.0]);
        let engine = IncrementalScheduler::new(&g, &d, 900.0).unwrap();
        let stats = engine.sparsify_stats();
        assert_eq!(stats.constraints_emitted, 6);
        assert_eq!(stats.pruned, 3);
        assert_eq!(stats.dense_constraints(), 9);
        certified(&g, &d, 900.0);
    }

    #[test]
    fn sparse_matches_dense_across_clocks_and_feedback() {
        let (g, [_, _, _, p, s]) = mac_graph();
        let mut d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 700.0, 500.0]);
        for clock in [1000.0, 1200.0, 700.1, 2500.0] {
            certified(&g, &d, clock);
        }
        d.apply_subgraph_feedback(&[p, s], 900.0);
        d.reformulate(&g);
        certified(&g, &d, 1000.0);
    }

    #[test]
    fn retarget_promotes_pairs_their_operands_stop_implying() {
        // At 900ps the (u, u+1) pairs (800ps) need no constraint and the
        // (u, u+3) pairs are pruned by their 1200ps operand's -1 bound. At
        // 700ps the (u, u+3) bound is -2, which that operand (1200ps <=
        // 2 * 700ps) no longer implies, so pairs the rule used to skip are
        // promoted, and the promoted system must still match a fresh engine
        // bit for bit and certify as the dense LP's optimum.
        let g = not_chain(5);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0, 400.0]);
        let empty = crate::delay::DirtySet::new(g.len());
        let mut engine = IncrementalScheduler::new(&g, &d, 900.0).unwrap();
        engine.reschedule(&g, &d, &empty).unwrap();
        let before = engine.sparsify_stats();
        engine.retarget(&g, &d, 700.0);
        let got = engine.reschedule(&g, &d, &empty).unwrap();
        assert_eq!(got, schedule_with_matrix(&g, &d, 700.0).unwrap());
        assert_eq!(engine.certify(&g, &d, &got), Ok(()));
        let after = engine.sparsify_stats();
        assert!(
            after.constraints_emitted > before.constraints_emitted,
            "the tighter period must emit (promote) pruned pairs: {after:?}"
        );
        // And the promotions survive a round trip back to the build period.
        engine.retarget(&g, &d, 900.0);
        let back = engine.reschedule(&g, &d, &empty).unwrap();
        assert_eq!(back, schedule_with_matrix(&g, &d, 900.0).unwrap());
    }

    #[test]
    fn incremental_scheduler_matches_from_scratch_across_relaxations() {
        // Chain of four 400ps ops at 1000ps, relaxed step by step; the
        // persistent engine must match a fresh solve bit-for-bit each time.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let mut nodes = vec![a];
        let mut prev = a;
        for _ in 0..4 {
            prev = g.unary(OpKind::Not, prev).unwrap();
            nodes.push(prev);
        }
        g.set_output(prev);
        let mut d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0]);
        let mut engine = IncrementalScheduler::new(&g, &d, 1000.0).unwrap();
        let first = engine.reschedule(&g, &d, &crate::delay::DirtySet::new(g.len())).unwrap();
        assert!(!engine.last_solve_was_warm(), "first solve is cold");
        assert_eq!(first, schedule_with_matrix(&g, &d, 1000.0).unwrap());
        let mut carry = crate::delay::DirtySet::new(g.len());
        for feedback in [900.0, 700.0, 500.0] {
            let mut from_scratch = d.clone();
            let mut dirty = d.apply_subgraph_feedback(&nodes[1..4], feedback);
            from_scratch.apply_subgraph_feedback(&nodes[1..4], feedback);
            from_scratch.reformulate(&g);
            dirty.union(&carry);
            carry = d.reformulate_incremental(&g, &dirty);
            dirty.union(&carry);
            assert_eq!(d, from_scratch, "matrix maintenance diverged at {feedback}");
            let warm = engine.reschedule(&g, &d, &dirty).unwrap();
            assert!(engine.last_solve_was_warm(), "relaxation at {feedback} must stay warm");
            let cold = schedule_with_matrix(&g, &d, 1000.0).unwrap();
            assert_eq!(warm, cold, "schedules diverged at feedback {feedback}");
            assert_eq!(engine.certify(&g, &d, &warm), Ok(()), "at feedback {feedback}");
        }
    }

    #[test]
    fn incremental_scheduler_rebuilds_on_non_monotone_delays() {
        // Build the engine against a fast matrix, then hand it a *slower*
        // one: a pair that never had a timing constraint now needs one, so
        // the promotion violates the old optimum and the solve runs cold —
        // and still matches from-scratch.
        let (g, _) = mac_graph();
        let fast = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 400.0, 300.0]);
        let slow = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 400.0, 700.0]);
        let mut engine = IncrementalScheduler::new(&g, &fast, 1000.0).unwrap();
        let empty = crate::delay::DirtySet::new(g.len());
        engine.reschedule(&g, &fast, &empty).unwrap();
        // Mark everything dirty and swap in the slower matrix.
        let mut all = crate::delay::DirtySet::new(g.len());
        for u in 0..g.len() {
            for v in 0..g.len() {
                all.mark(u, v);
            }
        }
        let rebuilt = engine.reschedule(&g, &slow, &all).unwrap();
        assert!(!engine.last_solve_was_warm(), "non-monotone delta must fall back cold");
        assert_eq!(rebuilt, schedule_with_matrix(&g, &slow, 1000.0).unwrap());
        assert_eq!(rebuilt.num_stages(), 2);
    }

    #[test]
    fn potentials_warm_start_a_fresh_engine_at_a_looser_clock() {
        // Cross-run reuse: solve a chain at a tight clock, export the
        // potentials, seed a fresh engine at a looser clock (every timing
        // bound relaxes, so the old optimum stays feasible). The seeded
        // initial solve must be warm and bit-identical to a cold solve.
        let g = not_chain(4);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0]);
        let mut first = IncrementalScheduler::new(&g, &d, 1000.0).unwrap();
        first.reschedule(&g, &d, &crate::delay::DirtySet::new(g.len())).unwrap();
        let pi = first.potentials().expect("potentials available after a solve");

        let mut second = IncrementalScheduler::new(&g, &d, 1700.0).unwrap();
        assert!(second.warm_from_potentials(&pi), "tight optimum must validate when relaxed");
        let warm = second.reschedule(&g, &d, &crate::delay::DirtySet::new(g.len())).unwrap();
        assert!(second.last_solve_was_warm(), "imported potentials must warm the first solve");
        assert_eq!(warm, schedule_with_matrix(&g, &d, 1700.0).unwrap());
    }

    #[test]
    fn retargeting_periods_matches_fresh_engines_both_directions() {
        let g = not_chain(5);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0, 400.0]);
        let mut engine = IncrementalScheduler::new(&g, &d, 900.0).unwrap();
        let empty = crate::delay::DirtySet::new(g.len());
        engine.reschedule(&g, &d, &empty).unwrap();
        // Ascending: every bound relaxes, the re-solve stays warm.
        for clock in [1000.0, 1300.0, 2100.0] {
            engine.retarget(&g, &d, clock);
            let got = engine.reschedule(&g, &d, &empty).unwrap();
            assert!(engine.last_solve_was_warm(), "ascending retarget to {clock} must be warm");
            assert_eq!(got, schedule_with_matrix(&g, &d, clock).unwrap(), "at {clock}");
        }
        // Same period again: a zero-delta re-solve, still warm, identical.
        engine.retarget(&g, &d, 2100.0);
        let again = engine.reschedule(&g, &d, &empty).unwrap();
        assert!(engine.last_solve_was_warm());
        assert_eq!(again, schedule_with_matrix(&g, &d, 2100.0).unwrap());
        // Descending below the build period: adjacent pairs (800ps) now
        // need constraints that were never emitted at 900ps; promoting them
        // against the relaxed optimum (and tightening surviving bounds)
        // drops the warm state — and still matches from-scratch.
        engine.retarget(&g, &d, 700.0);
        let tight = engine.reschedule(&g, &d, &empty).unwrap();
        assert!(!engine.last_solve_was_warm(), "a tightening retarget cannot count as warm");
        assert_eq!(tight, schedule_with_matrix(&g, &d, 700.0).unwrap());
        assert_eq!(tight.num_stages(), 5, "one op per stage at 700ps");
        // Below the feasibility floor the retargeted engine reports the
        // same error a fresh schedule would.
        engine.retarget(&g, &d, 300.0);
        assert!(matches!(
            engine.reschedule(&g, &d, &empty).unwrap_err(),
            ScheduleError::OperationExceedsClock { .. }
        ));
    }

    #[test]
    fn bulk_retarget_redrains_warm() {
        // Widen the clock on a design with many flow-carrying timing
        // constraints: the retarget relaxes them all at once, so the warm
        // re-solve's excess arrives in bulk, and the re-drain must still
        // match a fresh schedule bit for bit.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        for _ in 0..10 {
            let mut prev = a;
            for _ in 0..7 {
                prev = g.unary(OpKind::Not, prev).unwrap();
            }
            g.set_output(prev);
        }
        let delays: Vec<f64> =
            std::iter::once(0.0).chain(std::iter::repeat(400.0)).take(g.len()).collect();
        let d = DelayMatrix::initialize(&g, &delays);
        let empty = crate::delay::DirtySet::new(g.len());
        let mut engine = IncrementalScheduler::new(&g, &d, 500.0).unwrap();
        engine.reschedule(&g, &d, &empty).unwrap();

        engine.retarget(&g, &d, 2500.0);
        let got = engine.reschedule(&g, &d, &empty).unwrap();
        assert!(engine.last_solve_was_warm(), "an ascending retarget re-solves warm");
        assert_eq!(got, schedule_with_matrix(&g, &d, 2500.0).unwrap());
        let stats = engine.last_drain_stats();
        assert!(stats.paths > 1, "the bulk retarget must re-route flow: {stats:?}");
        assert_eq!(stats.dijkstras, stats.paths, "one search per path: {stats:?}");
    }

    /// A Table I design's naive delay matrix from the sky130 model.
    fn naive(graph: &Graph) -> DelayMatrix {
        let model = isdc_synth::OpDelayModel::new(isdc_techlib::TechLibrary::sky130());
        DelayMatrix::initialize(graph, &model.all_node_delays(graph))
    }

    #[test]
    fn cold_solve_search_stays_small() {
        // The cold drain starts from the tightened start and pops deficits
        // first: it must deliver exactly the objective's supply while
        // settling well under half the nodes the plain Bellman-Ford start
        // did (109,511 on crc32 and 70,604 on sha256).
        for (graph, flow, settled_max) in [
            (isdc_benchsuite::designs::crc32(), 8_480, 55_000),
            (isdc_benchsuite::designs::sha256(), 4_320, 35_000),
        ] {
            let d = naive(&graph);
            let mut engine = IncrementalScheduler::new(&graph, &d, 2500.0).unwrap();
            engine.reschedule(&graph, &d, &crate::delay::DirtySet::new(graph.len())).unwrap();
            assert!(!engine.last_solve_was_warm());
            let stats = engine.last_drain_stats();
            assert_eq!(stats.flow_pushed, flow, "{}: {stats:?}", graph.name());
            assert!(stats.nodes_settled <= settled_max, "{}: {stats:?}", graph.name());
        }
    }

    #[test]
    fn cold_drain_on_a_random_dag_stays_small() {
        // A cold drain from zero flow moves its zero-cost supply as one max
        // flow, so later searches no longer re-walk the zero-cost region
        // earlier paths filled. On this 1,154-node DAG the searches alone
        // settled 410,640 nodes; with the max flow first, 18,868.
        let config = isdc_benchsuite::RandomDagConfig {
            num_ops: 1_000,
            num_params: 8,
            widths: vec![16],
            with_muls: true,
        };
        let graph = isdc_benchsuite::random_dag(&config, 7);
        assert_eq!(graph.len(), 1_154);
        let d = naive(&graph);
        let mut engine = IncrementalScheduler::new(&graph, &d, 5000.0).unwrap();
        engine.reschedule(&graph, &d, &crate::delay::DirtySet::new(graph.len())).unwrap();
        assert!(!engine.last_solve_was_warm());
        let stats = engine.last_drain_stats();
        assert_eq!(stats.flow_pushed, 16_274, "{stats:?}");
        assert!(stats.nodes_settled <= 50_000, "{stats:?}");
    }

    #[test]
    fn warm_drain_search_stays_small() {
        // Warm re-drains run the deficits-first single-source searches
        // alone, with no max flow. Pins, at 2500 ps on the naive matrix: a
        // warm retarget to 3000 ps, then the warm iterations of a feedback
        // run.
        // The flow each delivers is exact; it depends on which optimal flow
        // the cold drain left behind. The settles stay under the caps set
        // at about twice what was first measured (now retarget 20,372 on
        // crc32 and 3,585 on sha256, feedback run 25,770 and 4,241).
        let lib = isdc_techlib::TechLibrary::sky130();
        let model = isdc_synth::OpDelayModel::new(lib.clone());
        let oracle = isdc_synth::SynthesisOracle::new(lib);
        let config = crate::IsdcConfig {
            threads: 1,
            iteration_metrics: false,
            ..crate::IsdcConfig::paper_defaults(2500.0)
        };
        for (graph, retarget_flow, retarget_max, run_flow, run_max) in [
            (isdc_benchsuite::designs::crc32(), 642, 45_000, 945, 58_000),
            (isdc_benchsuite::designs::sha256(), 624, 6_200, 1_164, 6_300),
        ] {
            let d = naive(&graph);
            let mut engine = IncrementalScheduler::new(&graph, &d, 2500.0).unwrap();
            let empty = crate::delay::DirtySet::new(graph.len());
            engine.reschedule(&graph, &d, &empty).unwrap();
            engine.retarget(&graph, &d, 3000.0);
            engine.reschedule(&graph, &d, &empty).unwrap();
            assert!(engine.last_solve_was_warm());
            let stats = engine.last_drain_stats();
            assert_eq!(stats.flow_pushed, retarget_flow, "{} retarget: {stats:?}", graph.name());
            assert!(stats.nodes_settled <= retarget_max, "{} retarget: {stats:?}", graph.name());

            let result = crate::run_isdc(&graph, &model, &oracle, &config).unwrap();
            let mut warm = isdc_sdc::DrainStats::default();
            for record in result.history.iter().filter(|r| r.solver_warm) {
                warm += record.drain;
            }
            assert_eq!(warm.flow_pushed, run_flow, "{} run: {warm:?}", graph.name());
            assert!(warm.nodes_settled <= run_max, "{} run: {warm:?}", graph.name());
        }
    }

    #[test]
    fn tightened_start_on_the_crc32_lp() {
        // On the scheduler's LP the positively weighted variables are the
        // last-use variables: Bellman-Ford leaves them at 0, and the
        // tightened start drops each to its latest user. That point must
        // stay feasible, raise nothing and strictly lower the objective.
        let graph = isdc_benchsuite::designs::crc32();
        let d = naive(&graph);
        let BuiltLp { sys, weights, .. } = build_lp(&graph, &d, 2500.0).unwrap();
        let start = sys.solve_feasible().unwrap();
        let lowered = sys.lower_weighted(&start, &weights);
        assert_eq!(sys.first_violation(&lowered), None);
        assert!(lowered.iter().zip(&start).all(|(l, s)| l <= s));
        let objective = |x: &[i64]| -> i64 { weights.iter().zip(x).map(|(w, x)| w * x).sum() };
        assert!(objective(&lowered) < objective(&start));
    }

    #[test]
    fn held_constraints_carry_their_eq2_bound() {
        // One engine on crc32's naive matrix, retargeted down, up, back and
        // far up. The certificate checks that every pair holding a timing
        // constraint carries exactly its current Eq. 2 bound, whether the
        // rule still emits it or not, and that the schedule meets the dense
        // LP; the schedule also matches a fresh engine.
        let graph = isdc_benchsuite::designs::crc32();
        let d = naive(&graph);
        let empty = crate::delay::DirtySet::new(graph.len());
        let mut engine = IncrementalScheduler::new(&graph, &d, 2500.0).unwrap();
        for clock in [2500.0, 2000.0, 3500.0, 2500.0, 5000.0] {
            engine.retarget(&graph, &d, clock);
            let got = engine.reschedule(&graph, &d, &empty).unwrap();
            assert_eq!(engine.certify(&graph, &d, &got), Ok(()), "at {clock}ps");
            assert_eq!(got, schedule_with_matrix(&graph, &d, clock).unwrap(), "at {clock}ps");
        }
        // The ladder left constraints behind that a fresh build at the last
        // period would not emit, so the held-but-implied path was exercised.
        let held: usize = engine.timing.iter().map(BTreeMap::len).sum();
        let fresh = IncrementalScheduler::new(&graph, &d, 5000.0).unwrap();
        assert!(held as u64 > fresh.sparsify_stats().constraints_emitted, "{held}");
    }

    #[test]
    fn certify_rejects_a_held_bound_tightened_past_eq2() {
        // Four 400ps Nots at 1000ps hold three -1 bounds (1200ps pairs).
        // Tightening one past Eq. 2 behind the engine's back still solves
        // exactly, so only the held-bound check can catch it.
        let g = not_chain(4);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0]);
        let empty = DirtySet::new(g.len());
        let mut engine = IncrementalScheduler::new(&g, &d, 1000.0).unwrap();
        let schedule = engine.reschedule(&g, &d, &empty).unwrap();
        assert_eq!(engine.certify(&g, &d, &schedule), Ok(()));
        let (u, (&w, &id)) = engine
            .timing
            .iter()
            .enumerate()
            .find_map(|(u, map)| map.iter().next().map(|held| (u, held)))
            .expect("a held timing constraint");
        engine.solver.update_bound(id, engine.solver.bound(id) - 1);
        let schedule = engine.reschedule(&g, &d, &empty).unwrap();
        assert_eq!(
            engine.certify(&g, &d, &schedule),
            Err(ScheduleCertifyError::HeldBound(NodeId(u as u32), NodeId(w)))
        );
    }

    #[test]
    fn schedules_are_deterministic() {
        let (g, _) = mac_graph();
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 700.0, 500.0]);
        let s1 = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        let s2 = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        assert_eq!(s1, s2);
    }
}
