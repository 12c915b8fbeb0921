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
//! but most are implied by others. Emission runs a per-source topological
//! sweep ([`sweep_source`]) that tracks, for each node `w`, the tightest
//! bound on `x_u - x_w` already provable from dependency 0-edges plus the
//! timing constraints emitted so far for source `u`. A pair's own bound is
//! emitted only when it is *strictly tighter* than that chain:
//!
//! - **dominance pruning** — if the chain through an intermediate already
//!   proves a tighter bound, the pair's constraint is dropped;
//! - **bucket representatives** — pairs sharing a source collapse into
//!   `ceil(d/Tclk)` buckets along each chain: the first pair reaching a
//!   bucket emits the representative constraint, later members of the same
//!   bucket are deduplicated against it.
//!
//! Dropped pairs stay droppable only while their dominators hold, so the
//! incremental engine re-runs the same sweep over dirty rows (or every row
//! on a [`IncrementalScheduler::retarget`]) and reconciles by one rule: a
//! pair that has a timing constraint keeps it at its current Eq. 2 bound,
//! and a pair that newly needs one is *promoted* to its own constraint (see
//! [`isdc_sdc::IncrementalSolver::add_constraint`]). Nothing is ever
//! demoted: a kept constraint the sweep no longer emits is implied by the
//! chain, so it moves neither the polyhedron nor any shortest-path distance
//! of the canonicalization. The sparse and dense systems describe the same
//! polyhedron, and `canonical_assignment` is a geometric property of that
//! polyhedron, so schedules are bit-identical ([`schedule_with_matrix_dense`]
//! retains the dense emission as the test reference).

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
    /// The requested latency bound is tighter than timing allows.
    LatencyUnachievable {
        /// The requested maximum pipeline stages.
        max_stages: u32,
    },
    /// A deterministic fault-injection hook fired (chaos testing only —
    /// see `isdc_faults`). Treated as a *transient* failure by the batch
    /// engine's retry policy, unlike the real solver errors above.
    Injected {
        /// The injection site that fired (e.g. `solver/drain`).
        site: &'static str,
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
            ScheduleError::LatencyUnachievable { max_stages } => {
                write!(f, "no schedule meets timing within {max_stages} pipeline stages")
            }
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
    schedule_with_options(graph, delays, &ScheduleOptions { clock_period_ps, max_stages: None })
}

/// Scheduling knobs beyond the clock period.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleOptions {
    /// Target clock period in picoseconds.
    pub clock_period_ps: Picos,
    /// Optional upper bound on pipeline depth (like XLS's `pipeline_stages`
    /// option). `None` leaves depth to the register objective.
    pub max_stages: Option<u32>,
}

/// [`schedule_with_matrix`] with explicit [`ScheduleOptions`].
///
/// # Errors
///
/// In addition to [`schedule_with_matrix`]'s errors, returns
/// [`ScheduleError::LatencyUnachievable`] when `max_stages` contradicts the
/// timing constraints.
pub fn schedule_with_options(
    graph: &Graph,
    delays: &DelayMatrix,
    options: &ScheduleOptions,
) -> Result<Schedule, ScheduleError> {
    IncrementalScheduler::new(graph, delays, options)?.reschedule(
        graph,
        delays,
        &DirtySet::new(graph.len()),
    )
}

/// [`schedule_with_matrix`] through the *dense* Eq. 2 emission — one
/// constraint per delay-matrix pair, no dominance pruning or bucket
/// deduplication. The identity-test reference: sparse and dense systems
/// bound the same polyhedron, so schedules must match bit for bit.
#[doc(hidden)]
pub fn schedule_with_matrix_dense(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
) -> Result<Schedule, ScheduleError> {
    let options = ScheduleOptions { clock_period_ps, max_stages: None };
    let built = build_lp(graph, delays, &options, false)?;
    let solution = IncrementalSolver::new(built.sys, built.weights)
        .and_then(|mut solver| solver.solve())
        .map_err(|e| map_solve_error(e, None))?;
    Ok(solution_to_schedule(graph, &solution.assignment))
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
    /// Pairs dropped because a chain through an intermediate already proves
    /// a *strictly tighter* bound.
    pub dominance_pruned: u64,
    /// Pairs dropped because an earlier pair of the same source already
    /// carries the same `ceil(d/Tclk)` bucket's bound along the chain.
    pub bucket_deduped: u64,
}

impl SparsifyStats {
    /// Constraints the dense emission would have added but the sweep
    /// dropped.
    pub fn pruned(&self) -> u64 {
        self.dominance_pruned + self.bucket_deduped
    }

    /// Constraints the dense Eq. 2 emission would have added.
    pub fn dense_constraints(&self) -> u64 {
        self.constraints_emitted + self.pruned()
    }

    /// Fraction of dense constraints dropped; `>= 0.5` means the LP shrank
    /// by at least 2x.
    pub fn pruning_ratio(&self) -> f64 {
        let dense = self.dense_constraints();
        if dense == 0 {
            0.0
        } else {
            self.pruned() as f64 / dense as f64
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
            dominance_pruned: self.dominance_pruned.saturating_sub(earlier.dominance_pruned),
            bucket_deduped: self.bucket_deduped.saturating_sub(earlier.bucket_deduped),
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
    chain: ChainScratch,
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
fn timing_bound(d: Picos, clock_period_ps: Picos) -> i64 {
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

/// "No bound provable" sentinel in the dominance chain; large enough that
/// any real bound wins a `min`, small enough that arithmetic cannot wrap.
const UNREACHED: i64 = i64::MAX / 2;

/// Per-sweep scratch for [`sweep_source`]: `bound[w]` is the tightest bound
/// on `x_u - x_w` provable so far, valid only when `stamp[w]` carries the
/// current sweep's version (version stamps make resets O(1) instead of
/// O(n) per source).
#[derive(Clone, Debug)]
struct ChainScratch {
    bound: Vec<i64>,
    stamp: Vec<u64>,
    version: u64,
}

impl ChainScratch {
    fn new(n: usize) -> Self {
        Self { bound: vec![0; n], stamp: vec![0; n], version: 0 }
    }
}

/// The sparsifying emission sweep for one source `u` (see the module docs).
///
/// Walks sinks in node-id order — which is topological, operands always
/// having smaller ids than their users — maintaining `chain[w]`, the
/// tightest bound on `x_u - x_w` provable from dependency 0-edges plus the
/// timing constraints *this sweep decided to emit*. For every pair with a
/// delay entry, `on_pair(w, bound, emitted)` reports the pair's Eq. 2 bound
/// and whether it needs its own constraint (`emitted` is true exactly when
/// the bound is negative and strictly tighter than the chain). The diagonal
/// is skipped: a node's fit in the period is the caller's feasibility
/// check, not a difference constraint.
///
/// Soundness: every finite `chain[w]` is witnessed by a path of emitted
/// source-`u` constraints and dependency edges, all of whose intermediates
/// lie strictly between `u` and `w` in id order — so dropping a pair never
/// weakens the system, and the chain never claims a bound tighter than the
/// true path bound (delay entries exist exactly for operand-reachable
/// pairs, and path delays dominate their prefixes).
fn sweep_source(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
    u: NodeId,
    chain: &mut ChainScratch,
    stats: &mut SparsifyStats,
    mut on_pair: impl FnMut(NodeId, i64, bool),
) {
    chain.version += 1;
    let version = chain.version;
    chain.stamp[u.index()] = version;
    chain.bound[u.index()] = 0;
    for w in graph.node_ids().skip(u.index() + 1) {
        let mut incoming = UNREACHED;
        for &p in &graph.node(w).operands {
            if chain.stamp[p.index()] == version {
                incoming = incoming.min(chain.bound[p.index()]);
            }
        }
        let own = delays.get(u, w).map(|d| {
            stats.pairs_scanned += 1;
            timing_bound(d, clock_period_ps)
        });
        let mut best = incoming;
        if let Some(own) = own {
            let emitted = own < 0 && own < incoming;
            if emitted {
                stats.constraints_emitted += 1;
                best = own;
            } else if own < 0 {
                if own == incoming {
                    stats.bucket_deduped += 1;
                } else {
                    stats.dominance_pruned += 1;
                }
            }
            on_pair(w, own, emitted);
        }
        if best != UNREACHED {
            chain.stamp[w.index()] = version;
            chain.bound[w.index()] = best;
        }
    }
}

/// Builds the full SDC LP of paper §II for the given delay matrix.
/// `sparsify` selects the Eq. 2 emission: the dominance/bucket sweep, or
/// the dense one-constraint-per-pair reference.
fn build_lp(
    graph: &Graph,
    delays: &DelayMatrix,
    options: &ScheduleOptions,
    sparsify: bool,
) -> Result<BuiltLp, ScheduleError> {
    let clock_period_ps = options.clock_period_ps;
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
    let mut chain = ChainScratch::new(n);

    // Dependencies: x_p <= x_v.
    for (v, node) in graph.iter() {
        for &p in &node.operands {
            sys.add_constraint(x(p), x(v), 0);
        }
    }

    // Timing (Eq. 2): pairs whose critical-path delay exceeds Tclk.
    if sparsify {
        for u in graph.node_ids() {
            let map = &mut timing[u.index()];
            sweep_source(graph, delays, clock_period_ps, u, &mut chain, &mut stats, |w, b, e| {
                if e {
                    map.insert(w.0, sys.add_constraint(x(u), x(w), b));
                }
            });
        }
    } else {
        for u in graph.node_ids() {
            for v in graph.node_ids() {
                let Some(d) = delays.get(u, v) else { continue };
                stats.pairs_scanned += 1;
                let bound = timing_bound(d, clock_period_ps);
                if bound < 0 {
                    stats.constraints_emitted += 1;
                    timing[u.index()].insert(v.0, sys.add_constraint(x(u), x(v), bound));
                }
            }
        }
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

    // Optional latency bound: the whole pipeline fits in max_stages cycles.
    if let Some(max_stages) = options.max_stages {
        if max_stages == 0 {
            return Err(ScheduleError::LatencyUnachievable { max_stages });
        }
        if let Some(&p0) = graph.params().first() {
            // sink - p0 <= max_stages - 1.
            sys.add_constraint(sink, x(p0), i64::from(max_stages) - 1);
        }
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

    Ok(BuiltLp { sys, weights, timing, stats, chain })
}

/// Re-runs the emission sweep for source `u` against the live solver and
/// reconciles what the sweep wants with what the system carries, by one
/// rule:
///
/// - a pair that has a timing constraint keeps it at its current Eq. 2
///   bound through `update_bound` (a no-op when the bound is unchanged;
///   relaxations stay warm, tightenings cold-fall on their own), whether or
///   not the sweep still emits it — a constraint it no longer emits is
///   implied by the chain, so keeping it changes no schedule;
/// - a pair that needs a constraint it never had is **promoted** via
///   `add_constraint` (warm-safe under monotone feedback: the old optimum
///   satisfied the chain bound that used to dominate the pair, which is at
///   least as tight as the promoted bound).
#[allow(clippy::too_many_arguments)]
fn reconcile_source(
    graph: &Graph,
    delays: &DelayMatrix,
    clock_period_ps: Picos,
    u: NodeId,
    solver: &mut IncrementalSolver,
    map: &mut BTreeMap<u32, usize>,
    chain: &mut ChainScratch,
    stats: &mut SparsifyStats,
) {
    sweep_source(graph, delays, clock_period_ps, u, chain, stats, |w, bound, emitted| {
        match map.get(&w.0) {
            Some(&id) => solver.update_bound(id, bound),
            None if emitted => {
                map.insert(w.0, solver.add_constraint(VarId(u.0), VarId(w.0), bound));
            }
            None => {}
        }
    });
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

fn map_solve_error(e: SolveError, max_stages: Option<u32>) -> ScheduleError {
    match (&e, max_stages) {
        (SolveError::Cancelled, _) => ScheduleError::DeadlineExceeded,
        (SolveError::Infeasible { .. }, Some(max_stages)) => {
            ScheduleError::LatencyUnachievable { max_stages }
        }
        _ => ScheduleError::Solver(e),
    }
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
/// [`schedule_with_options`] rebuilds the difference system and cold-solves
/// it on every call. This engine builds the (sparsified) system once, then
/// per iteration re-runs the emission sweep over only the delay matrix's
/// dirty rows and re-solves through a warm-started [`IncrementalSolver`].
///
/// Timing constraints are only ever re-bounded or appended, never removed.
/// Because Alg. 1 keeps delay updates monotonically non-increasing, the
/// re-emitted bounds are relaxations and promoted constraints are already
/// satisfied by the old optimum, so the warm path applies end to end; any
/// non-monotone input (a tightened bound, a promotion the old optimum
/// violates) makes the solver fall back to its cold path on its own — there
/// is no full-rebuild mode. Either way the result is bit-identical to
/// [`schedule_with_options`] on the same matrix.
#[derive(Clone, Debug)]
pub struct IncrementalScheduler {
    options: ScheduleOptions,
    solver: IncrementalSolver,
    /// Per source: sink index -> timing constraint id (see
    /// [`BuiltLp::timing`]).
    timing: Vec<BTreeMap<u32, usize>>,
    chain: ChainScratch,
    stats: SparsifyStats,
}

impl IncrementalScheduler {
    /// Builds the LP for `graph` against `delays` and primes the solver.
    ///
    /// # Errors
    ///
    /// See [`schedule_with_options`].
    pub fn new(
        graph: &Graph,
        delays: &DelayMatrix,
        options: &ScheduleOptions,
    ) -> Result<Self, ScheduleError> {
        let built = build_lp(graph, delays, options, true)?;
        let solver = IncrementalSolver::new(built.sys, built.weights)
            .map_err(|e| map_solve_error(e, options.max_stages))?;
        Ok(Self {
            options: *options,
            solver,
            timing: built.timing,
            chain: built.chain,
            stats: built.stats,
        })
    }

    /// Re-solves after delay-matrix changes covered by `dirty`, reusing the
    /// persistent system and solver state. `delays` must be the same matrix
    /// the engine was built against, mutated only through entries recorded
    /// in `dirty` since the previous call.
    ///
    /// # Errors
    ///
    /// See [`schedule_with_options`]. Monotone (relaxing-only) updates can
    /// never make the system infeasible.
    pub fn reschedule(
        &mut self,
        graph: &Graph,
        delays: &DelayMatrix,
        dirty: &DirtySet,
    ) -> Result<Schedule, ScheduleError> {
        check_node_delays(graph, delays, self.options.clock_period_ps)?;
        // A sweep's decisions depend only on its source's delay row, so
        // dirty *rows* are exactly the sweeps whose inputs changed; within
        // a row the sweep re-derives every pair from the matrix, making
        // repeated marks and row/col shapes equally cheap to honor.
        let Self { options, solver, timing, chain, stats } = self;
        for u in dirty.rows() {
            reconcile_source(
                graph,
                delays,
                options.clock_period_ps,
                u,
                solver,
                &mut timing[u.index()],
                chain,
                stats,
            );
        }
        let solution = solver.solve().map_err(|e| map_solve_error(e, options.max_stages))?;
        Ok(solution_to_schedule(graph, &solution.assignment))
    }

    /// Whether the most recent [`IncrementalScheduler::reschedule`] re-used
    /// warm solver state end to end (false after any cold fallback).
    pub fn last_solve_was_warm(&self) -> bool {
        self.solver.last_solve_was_warm()
    }

    /// Drain counters of the most recent solve (see
    /// [`isdc_sdc::DrainStats`]): how many augmenting paths the SSP drain
    /// delivered, one Dijkstra search each, and how many nodes those
    /// searches settled.
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

    /// Routes solves through the retained serial reference drain
    /// (test/bench hook; see
    /// [`isdc_sdc::IncrementalSolver::use_reference_drain`]).
    #[doc(hidden)]
    pub fn use_reference_drain(&mut self, on: bool) {
        self.solver.use_reference_drain(on);
    }

    /// Exports the solver's node potentials after a solve — the cross-run
    /// warm-start currency: `-potentials` is the optimal LP assignment, and
    /// [`IncrementalScheduler::warm_from_potentials`] on a *fresh* engine
    /// (same design, this or a neighbouring clock period) re-seeds from it.
    pub fn potentials(&self) -> Option<Vec<i64>> {
        self.solver.potentials()
    }

    /// Re-targets the engine to a new clock period by re-running the
    /// emission sweep for every source at `clock_period_ps` — the strongest
    /// cross-run reuse an [`IsdcSession`](crate::IsdcSession) sweep has:
    /// the whole difference system, flow and potentials survive the period
    /// change.
    ///
    /// `delays` must be the matrix the engine's bounds currently encode
    /// (for a session, the naive matrix its initial solve ran against).
    /// Eq. 2's bound is monotone in the period, so moving to a *longer*
    /// period relaxes every bound and the next solve stays warm; a shorter
    /// period tightens bounds and promotes constraints the sweep used to
    /// prune (new bucket representatives), either of which makes the next
    /// solve fall back cold on its own. Either way the subsequent schedule
    /// is bit-identical to a fresh engine's; an infeasible period surfaces
    /// as [`IncrementalScheduler::reschedule`]'s usual feasibility error.
    pub fn retarget(&mut self, graph: &Graph, delays: &DelayMatrix, clock_period_ps: Picos) {
        self.options.clock_period_ps = clock_period_ps;
        let Self { solver, timing, chain, stats, .. } = self;
        for u in graph.node_ids() {
            reconcile_source(
                graph,
                delays,
                clock_period_ps,
                u,
                solver,
                &mut timing[u.index()],
                chain,
                stats,
            );
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
    fn loose_latency_bound_changes_nothing() {
        let (g, _) = mac_graph();
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 700.0, 500.0]);
        let unbounded = schedule_with_matrix(&g, &d, 1000.0).unwrap();
        let bounded = schedule_with_options(
            &g,
            &d,
            &ScheduleOptions { clock_period_ps: 1000.0, max_stages: Some(10) },
        )
        .unwrap();
        assert_eq!(unbounded, bounded);
    }

    #[test]
    fn exact_latency_bound_is_feasible() {
        let (g, _) = mac_graph();
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 700.0, 500.0]);
        let schedule = schedule_with_options(
            &g,
            &d,
            &ScheduleOptions { clock_period_ps: 1000.0, max_stages: Some(2) },
        )
        .unwrap();
        assert_eq!(schedule.num_stages(), 2);
    }

    #[test]
    fn unachievable_latency_reports_clearly() {
        let (g, _) = mac_graph();
        // 700 + 500 > 1000 forces two stages; demanding one must fail.
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 700.0, 500.0]);
        let err = schedule_with_options(
            &g,
            &d,
            &ScheduleOptions { clock_period_ps: 1000.0, max_stages: Some(1) },
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::LatencyUnachievable { max_stages: 1 });
        let err = schedule_with_options(
            &g,
            &d,
            &ScheduleOptions { clock_period_ps: 1000.0, max_stages: Some(0) },
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::LatencyUnachievable { max_stages: 0 });
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
    fn chain_buckets_collapse_to_representatives() {
        // Five 400ps Nots at 900ps: along each source's chain the bound
        // steps -1, -1, -2 — the repeated -1 dedupes against its bucket
        // representative, so the sparse LP carries 6 of the dense 9.
        let g = not_chain(5);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0, 400.0]);
        let options = ScheduleOptions { clock_period_ps: 900.0, max_stages: None };
        let engine = IncrementalScheduler::new(&g, &d, &options).unwrap();
        let stats = engine.sparsify_stats();
        assert_eq!(stats.constraints_emitted, 6);
        assert_eq!(stats.bucket_deduped, 3);
        assert_eq!(stats.dominance_pruned, 0);
        assert_eq!(stats.dense_constraints(), 9);
        assert_eq!(
            schedule_with_matrix(&g, &d, 900.0).unwrap(),
            schedule_with_matrix_dense(&g, &d, 900.0).unwrap()
        );
    }

    #[test]
    fn sparse_matches_dense_across_clocks_and_feedback() {
        let (g, [_, _, _, p, s]) = mac_graph();
        let mut d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 700.0, 500.0]);
        for clock in [1000.0, 1200.0, 700.1, 2500.0] {
            assert_eq!(
                schedule_with_matrix(&g, &d, clock).unwrap(),
                schedule_with_matrix_dense(&g, &d, clock).unwrap(),
                "sparse vs dense diverged at {clock}"
            );
        }
        d.apply_subgraph_feedback(&[p, s], 900.0);
        d.reformulate(&g);
        assert_eq!(
            schedule_with_matrix(&g, &d, 1000.0).unwrap(),
            schedule_with_matrix_dense(&g, &d, 1000.0).unwrap()
        );
    }

    #[test]
    fn retarget_promotes_new_bucket_representatives() {
        // At 900ps the (u, u+1) pairs (800ps) need no constraint and the
        // (u, u+3) pairs dedupe against (u, u+2)'s bucket; tightening to
        // 700ps promotes pairs the sweep used to skip, and the promoted
        // system must still match both fresh emissions bit for bit.
        let g = not_chain(5);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0, 400.0]);
        let options = ScheduleOptions { clock_period_ps: 900.0, max_stages: None };
        let empty = crate::delay::DirtySet::new(g.len());
        let mut engine = IncrementalScheduler::new(&g, &d, &options).unwrap();
        engine.reschedule(&g, &d, &empty).unwrap();
        let before = engine.sparsify_stats();
        engine.retarget(&g, &d, 700.0);
        let got = engine.reschedule(&g, &d, &empty).unwrap();
        assert_eq!(got, schedule_with_matrix(&g, &d, 700.0).unwrap());
        assert_eq!(got, schedule_with_matrix_dense(&g, &d, 700.0).unwrap());
        let after = engine.sparsify_stats();
        assert!(
            after.constraints_emitted > before.constraints_emitted,
            "the tighter period must emit (promote) new representatives: {after:?}"
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
        let options = ScheduleOptions { clock_period_ps: 1000.0, max_stages: None };
        let mut engine = IncrementalScheduler::new(&g, &d, &options).unwrap();
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
            assert_eq!(
                warm,
                schedule_with_matrix_dense(&g, &d, 1000.0).unwrap(),
                "sparse diverged from dense at feedback {feedback}"
            );
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
        let options = ScheduleOptions { clock_period_ps: 1000.0, max_stages: None };
        let mut engine = IncrementalScheduler::new(&g, &fast, &options).unwrap();
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
        let tight = ScheduleOptions { clock_period_ps: 1000.0, max_stages: None };
        let mut first = IncrementalScheduler::new(&g, &d, &tight).unwrap();
        first.reschedule(&g, &d, &crate::delay::DirtySet::new(g.len())).unwrap();
        let pi = first.potentials().expect("potentials available after a solve");

        let loose = ScheduleOptions { clock_period_ps: 1700.0, max_stages: None };
        let mut second = IncrementalScheduler::new(&g, &d, &loose).unwrap();
        assert!(second.warm_from_potentials(&pi), "tight optimum must validate when relaxed");
        let warm = second.reschedule(&g, &d, &crate::delay::DirtySet::new(g.len())).unwrap();
        assert!(second.last_solve_was_warm(), "imported potentials must warm the first solve");
        assert_eq!(warm, schedule_with_matrix(&g, &d, 1700.0).unwrap());
    }

    #[test]
    fn retargeting_periods_matches_fresh_engines_both_directions() {
        let g = not_chain(5);
        let d = DelayMatrix::initialize(&g, &[0.0, 400.0, 400.0, 400.0, 400.0, 400.0]);
        let options = ScheduleOptions { clock_period_ps: 900.0, max_stages: None };
        let mut engine = IncrementalScheduler::new(&g, &d, &options).unwrap();
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
        let options = ScheduleOptions { clock_period_ps: 500.0, max_stages: None };
        let empty = crate::delay::DirtySet::new(g.len());
        let mut engine = IncrementalScheduler::new(&g, &d, &options).unwrap();
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
            let options = ScheduleOptions { clock_period_ps: 2500.0, max_stages: None };
            let mut engine = IncrementalScheduler::new(&graph, &d, &options).unwrap();
            engine.reschedule(&graph, &d, &crate::delay::DirtySet::new(graph.len())).unwrap();
            assert!(!engine.last_solve_was_warm());
            let stats = engine.last_drain_stats();
            assert_eq!(stats.flow_pushed, flow, "{}: {stats:?}", graph.name());
            assert!(stats.nodes_settled <= settled_max, "{}: {stats:?}", graph.name());
        }
    }

    #[test]
    fn warm_drain_search_stays_small() {
        // Warm re-drains run the same deficits-first single-source searches
        // as cold ones. Pins, at 2500 ps on the naive matrix: a warm
        // retarget to 3000 ps, then the warm iterations of a feedback run.
        // The flow each delivers is exact; the settles stay under about
        // twice what was measured (retarget 22,260 on crc32 and 3,094 on
        // sha256, feedback run 29,087 and 3,151).
        let lib = isdc_techlib::TechLibrary::sky130();
        let model = isdc_synth::OpDelayModel::new(lib.clone());
        let oracle = isdc_synth::SynthesisOracle::new(lib);
        let config = crate::IsdcConfig {
            threads: 1,
            iteration_metrics: false,
            ..crate::IsdcConfig::paper_defaults(2500.0)
        };
        for (graph, retarget_flow, retarget_max, run_flow, run_max) in [
            (isdc_benchsuite::designs::crc32(), 678, 45_000, 950, 58_000),
            (isdc_benchsuite::designs::sha256(), 612, 6_200, 1_176, 6_300),
        ] {
            let d = naive(&graph);
            let options = ScheduleOptions { clock_period_ps: 2500.0, max_stages: None };
            let mut engine = IncrementalScheduler::new(&graph, &d, &options).unwrap();
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
        let options = ScheduleOptions { clock_period_ps: 2500.0, max_stages: None };
        let BuiltLp { sys, weights, .. } = build_lp(&graph, &d, &options, true).unwrap();
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
        // far up. Every pair that holds a timing constraint carries exactly
        // its current Eq. 2 bound, whether the sweep still emits it or not,
        // and the schedule matches both fresh emissions.
        let graph = isdc_benchsuite::designs::crc32();
        let d = naive(&graph);
        let options = ScheduleOptions { clock_period_ps: 2500.0, max_stages: None };
        let empty = crate::delay::DirtySet::new(graph.len());
        let mut engine = IncrementalScheduler::new(&graph, &d, &options).unwrap();
        for clock in [2500.0, 2000.0, 3500.0, 2500.0, 5000.0] {
            engine.retarget(&graph, &d, clock);
            let got = engine.reschedule(&graph, &d, &empty).unwrap();
            for (u, map) in engine.timing.iter().enumerate() {
                for (&w, &id) in map {
                    let delay = d.get(NodeId(u as u32), NodeId(w)).expect("constrained pair");
                    assert_eq!(
                        engine.solver.bound(id),
                        timing_bound(delay, clock),
                        "pair ({u}, {w}) at {clock}ps"
                    );
                }
            }
            assert_eq!(got, schedule_with_matrix(&graph, &d, clock).unwrap(), "at {clock}ps");
            assert_eq!(got, schedule_with_matrix_dense(&graph, &d, clock).unwrap(), "at {clock}ps");
        }
        // The ladder left constraints behind that a fresh build at the last
        // period would not emit, so the held-but-implied path was exercised.
        let held: usize = engine.timing.iter().map(BTreeMap::len).sum();
        let options = ScheduleOptions { clock_period_ps: 5000.0, max_stages: None };
        let fresh = IncrementalScheduler::new(&graph, &d, &options).unwrap();
        assert!(held as u64 > fresh.sparsify_stats().constraints_emitted, "{held}");
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
