//! Warm-started incremental re-solving of the SDC LP.
//!
//! The ISDC loop re-solves the same LP every iteration with only a handful
//! of timing bounds changed — and, by the paper's Alg. 1 invariant, changed
//! *monotonically*: delay estimates only ever decrease, so timing
//! constraints only ever relax (`x_u - x_v <= b` with a larger `b`).
//!
//! **Warm-start invariant.** Relaxing a bound preserves dual feasibility of
//! the previous optimum's potentials: every residual arc's reduced cost
//! `b + pi_u - pi_v` only grows when `b` grows. The only invariant that can
//! break is complementary slackness — a relaxed constraint that carried flow
//! is no longer tight, so its reverse residual arc would go negative. The
//! fix is local: cancel the flow on exactly the relaxed arcs, which
//! re-exposes that supply as node excess, then re-drain with successive
//! shortest paths *from the old potentials*. The number of Dijkstra rounds
//! is bounded by the number of flow-carrying relaxed arcs instead of the
//! total supply, which is what makes per-iteration re-solves cheap.
//!
//! Non-relaxing deltas (a bound that tightens) would break dual feasibility
//! itself, so [`IncrementalSolver::update_bound`] drops the warm state and
//! the next [`IncrementalSolver::solve`] falls back to the cold solve —
//! correctness never depends on the monotonicity holding.
//!
//! Both paths finish with the same canonicalization as [`crate::minimize`],
//! so warm and cold solves of equivalent systems return bit-identical
//! assignments (see `mcf::canonical_assignment`), and both end with their
//! flow as a certificate ([`IncrementalSolver::certify`]), which debug
//! builds check after every solve.

use crate::certify::{certify, CertifyError};
use crate::mcf::{
    canonical_assignment, dot, ssp_drain, CanonGraph, DrainStats, FlowNetwork, LpSolution,
    SolverScratch,
};
use crate::system::{DifferenceSystem, SolveError, VarId};

/// Persistent warm-solve state: the flow network, its potentials, any
/// excess re-exposed by canceled flow on relaxed arcs, the
/// canonicalization graph's fixed adjacency, and the drain's reusable
/// Dijkstra scratch (versioned buffers + heap), so warm re-drains allocate
/// no search buffers.
#[derive(Clone, Debug)]
struct WarmState {
    net: FlowNetwork,
    pi: Vec<i64>,
    excess: Vec<i64>,
    canon: CanonGraph,
    scratch: SolverScratch,
    /// The network carries no flow yet (built by a cold start or a
    /// potential import, not drained since), so the next drain opens with
    /// the zero-cost max flow.
    zero_flow: bool,
}

impl WarmState {
    /// A flowless network over `system`'s constraints at potentials `pi`,
    /// with the objective's full supply as excess.
    fn new(system: &DifferenceSystem, weights: &[i64], pi: Vec<i64>) -> Self {
        let n = system.num_vars();
        let mut net = FlowNetwork::new(n);
        for c in system.constraints() {
            net.add_arc(c.u.index(), c.v.index(), c.bound);
        }
        // Node v needs net inflow w_v; excess = -w (positive = source).
        let excess = weights.iter().map(|&w| -w).collect();
        let canon = CanonGraph::new(system);
        Self { net, pi, excess, canon, scratch: SolverScratch::new(n), zero_flow: true }
    }
}

/// A reusable SDC LP solver that persists the min-cost-flow state across
/// solves and re-solves bound relaxations incrementally.
///
/// Constraints are re-bounded ([`IncrementalSolver::update_bound`]) or
/// appended ([`IncrementalSolver::add_constraint`]), never removed or
/// flagged: every solve canonicalizes over the whole current system, so its
/// result depends only on that system, never on the route of updates that
/// led to it.
///
/// Beyond in-process warm re-solves, the solver's dual state can cross
/// solver (and process) boundaries: [`IncrementalSolver::potentials`]
/// exports the final node potentials, and
/// [`IncrementalSolver::warm_from_potentials`] seeds a *fresh* solver with
/// potentials learned elsewhere — from a previous run of the same design,
/// or a neighbouring clock period in a sweep. Imports are validated
/// (every entry within ±2^32, and `-pi` satisfying every current
/// constraint) before any state is installed, so a stale or foreign vector
/// can never corrupt or stall a solve; it just falls back to the cold path.
///
/// # Examples
///
/// ```
/// use isdc_sdc::{minimize, DifferenceSystem, IncrementalSolver, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = DifferenceSystem::new(3);
/// sys.add_constraint(VarId(0), VarId(1), -2);
/// let timing = sys.add_constraint(VarId(0), VarId(2), -3);
/// sys.add_constraint(VarId(1), VarId(2), -1);
/// let weights = vec![-1, 0, 1];
///
/// let mut solver = IncrementalSolver::new(sys.clone(), weights.clone())?;
/// let cold = solver.solve()?; // first solve is always cold
/// assert!(!solver.last_solve_was_warm());
///
/// // A downstream tool reports the 0->2 path faster than estimated: the
/// // bound relaxes, and the re-solve is warm-started.
/// solver.update_bound(timing, -1);
/// let warm = solver.solve()?;
/// assert!(solver.last_solve_was_warm());
/// assert!(warm.objective <= cold.objective);
///
/// // Bit-identical to solving the relaxed system from scratch.
/// sys.set_bound(timing, -1);
/// assert_eq!(warm, minimize(&sys, &weights)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalSolver {
    system: DifferenceSystem,
    weights: Vec<i64>,
    zero_objective: bool,
    /// `None` means the next solve must be cold (never solved, or a
    /// non-relaxing delta invalidated the dual state).
    state: Option<WarmState>,
    /// The last successful solve's solution, kept only while no bound has
    /// changed and nothing was appended or imported since: a re-solve then
    /// returns it verbatim, skipping the canonicalization Dijkstra.
    ///
    /// This is deliberately narrower than "the flow support is unchanged":
    /// a relaxed bound whose arc carries *no* flow moves no excess, but it
    /// can still move the canonical point (the canonicalization graph
    /// weights every constraint, tight or slack — see
    /// `canonical_point_tracks_slack_constraints` below), so only a true
    /// zero-delta solve may reuse the cached assignment.
    cached: Option<LpSolution>,
    last_was_warm: bool,
    /// The warm state's canonicalization graph predates a constraint
    /// appended by [`IncrementalSolver::add_constraint`]; rebuilt lazily at
    /// the next solve.
    canon_stale: bool,
    /// Drain counters of the most recent [`IncrementalSolver::solve`]
    /// (zeroed for cached zero-delta solves and feasibility queries).
    last_drain: DrainStats,
}

impl IncrementalSolver {
    /// Wraps a system and objective for repeated solving. The objective is
    /// fixed for the solver's lifetime; only constraint bounds may change.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnbalancedObjective`] if weights do not sum to zero.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != system.num_vars()`.
    pub fn new(system: DifferenceSystem, weights: Vec<i64>) -> Result<Self, SolveError> {
        assert_eq!(weights.len(), system.num_vars(), "one weight per variable required");
        let weight_sum: i64 = weights.iter().sum();
        if weight_sum != 0 {
            return Err(SolveError::UnbalancedObjective { weight_sum });
        }
        let zero_objective = weights.iter().all(|&w| w == 0);
        Ok(Self {
            system,
            weights,
            zero_objective,
            state: None,
            cached: None,
            last_was_warm: false,
            canon_stale: false,
            last_drain: DrainStats::default(),
        })
    }

    /// The current bound of a constraint.
    ///
    /// # Panics
    ///
    /// Panics if `constraint_id` is out of range.
    pub fn bound(&self, constraint_id: usize) -> i64 {
        self.system.constraints()[constraint_id].bound
    }

    /// Whether the most recent [`IncrementalSolver::solve`] reused warm
    /// state (false for the first solve and after any cold fallback).
    pub fn last_solve_was_warm(&self) -> bool {
        self.last_was_warm
    }

    /// Drain counters of the most recent [`IncrementalSolver::solve`]:
    /// Dijkstra searches, nodes settled, augmenting paths pushed and flow
    /// delivered (see [`DrainStats`]). Zero for cached zero-delta re-solves
    /// and pure feasibility queries (no drain runs at all there).
    pub fn last_drain_stats(&self) -> DrainStats {
        self.last_drain
    }

    /// The dual flow the most recent solve ended with, one entry per
    /// constraint (all zeros for a zero objective, which needs no flow):
    /// the certificate [`crate::certify`] checks that solve's assignment
    /// against. `None` when no solve has succeeded since the last bound
    /// change, append or import.
    pub fn flow(&self) -> Option<Vec<i64>> {
        self.cached.as_ref()?;
        let m = self.system.constraints().len();
        Some(
            self.state.as_ref().map_or(vec![0; m], |s| (0..m).map(|c| s.net.flow(2 * c)).collect()),
        )
    }

    /// Checks the most recent solve with [`crate::certify`] against the flow
    /// it ended with.
    ///
    /// # Errors
    ///
    /// [`CertifyError::Unsolved`] when [`IncrementalSolver::flow`] is `None`.
    pub fn certify(&self) -> Result<(), CertifyError> {
        let (Some(solution), Some(flow)) = (&self.cached, self.flow()) else {
            return Err(CertifyError::Unsolved);
        };
        certify(&self.system, &self.weights, &solution.assignment, &flow)
    }

    /// The current node potentials, when warm state exists (i.e. after a
    /// successful non-trivial solve). `-potentials` is an optimal primal
    /// assignment of the most recent solve, suitable for re-seeding another
    /// solver over the same variables via
    /// [`IncrementalSolver::warm_from_potentials`].
    pub fn potentials(&self) -> Option<Vec<i64>> {
        self.state.as_ref().map(|s| s.pi.clone())
    }

    /// Seeds warm state from externally-learned potentials (a previous run
    /// of the same design, a neighbouring sweep point, or a persisted
    /// snapshot), so the next [`IncrementalSolver::solve`] skips the
    /// Bellman-Ford feasibility pass and drains the objective's supply
    /// directly from `pi`.
    ///
    /// Returns false — leaving the solver untouched, cold path intact —
    /// unless the import is provably safe: `pi` must cover every variable,
    /// every entry must lie within ±2^32, and `-pi` must satisfy every
    /// current constraint (that is exactly dual feasibility of the zero flow
    /// under `pi`, the invariant successive shortest paths needs). The
    /// subsequent solve is bit-identical to a cold solve either way; only
    /// the route to the optimum changes. The magnitude bound keeps the
    /// drain in `i64`: each augmenting path adds one reduced distance,
    /// about twice the largest entry, to the potentials, so at ±2^53 a few
    /// hundred paths overflow, and at ±2^32 it takes about 2^30.
    pub fn warm_from_potentials(&mut self, pi: &[i64]) -> bool {
        let n = self.system.num_vars();
        let too_large = pi.iter().any(|p| p.unsigned_abs() > 1 << 32);
        if pi.len() != n || self.zero_objective || too_large {
            return false;
        }
        let x: Vec<i64> = pi.iter().map(|&p| -p).collect();
        if self.system.first_violation(&x).is_some() {
            return false;
        }
        self.state = Some(WarmState::new(&self.system, &self.weights, pi.to_vec()));
        self.canon_stale = false;
        self.cached = None;
        true
    }

    /// Appends a new constraint `x_u - x_v <= bound` to the system,
    /// returning its id. The constraint set was historically frozen at
    /// construction; sparsified emission needs late additions — a delay or
    /// clock change can promote a pair that never had a constraint (its
    /// bound used to be implied by an operand pair's) into needing its own.
    ///
    /// Warm state survives the append exactly when the current optimum
    /// `-pi` already satisfies the new bound: the new arc then carries zero
    /// flow at nonnegative reduced cost, so dual feasibility is intact and
    /// the next solve re-drains warm. (Monotone-feedback promotions always
    /// pass this test: the old optimum satisfied the operand bound that
    /// implied the pair's old bound, and the promoted bound is no tighter
    /// than that old bound.) Otherwise the warm state is
    /// dropped and the next solve runs cold — same contract as a
    /// tightening through [`IncrementalSolver::update_bound`].
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_constraint(&mut self, u: VarId, v: VarId, bound: i64) -> usize {
        let id = self.system.add_constraint(u, v, bound);
        self.cached = None;
        self.canon_stale = true;
        if let Some(state) = &mut self.state {
            // Arcs append in constraint order, so the `2 * id` arc-index
            // mapping every warm structure relies on stays intact.
            state.net.add_arc(u.index(), v.index(), bound);
            if bound + state.pi[u.index()] - state.pi[v.index()] < 0 {
                // The current optimum violates the new constraint: the
                // fresh arc's reduced cost is negative, so the potentials
                // are no longer dual-feasible.
                self.state = None;
            }
        }
        id
    }

    /// Changes a constraint's bound. A relaxation (`new_bound` larger) is
    /// folded into the warm state: the arc's cost is rewritten and any flow
    /// it carried is canceled back into node excess, to be re-routed by the
    /// next solve. A tightening invalidates the warm state (the old
    /// potentials may no longer be dual-feasible), so the next solve falls
    /// back to the cold path.
    ///
    /// # Panics
    ///
    /// Panics if `constraint_id` is out of range.
    pub fn update_bound(&mut self, constraint_id: usize, new_bound: i64) {
        let old = self.system.constraints()[constraint_id].bound;
        if new_bound == old {
            return;
        }
        self.cached = None;
        if new_bound < old {
            // Tightening: not covered by the warm-start invariant.
            self.state = None;
        } else if let Some(state) = &mut self.state {
            let arc = 2 * constraint_id;
            state.net.set_cost(arc, new_bound);
            let flow = state.net.flow(arc);
            if flow > 0 {
                // The relaxed constraint was tight and carried flow; with
                // the larger bound it is no longer tight, so the flow must
                // be re-routed. Cancel it: the tail gets its supply back,
                // the head owes it again.
                state.net.push(arc, -flow);
                let c = self.system.constraints()[constraint_id];
                state.excess[c.u.index()] += flow;
                state.excess[c.v.index()] -= flow;
            }
        }
        self.system.set_bound(constraint_id, new_bound);
    }

    /// Solves the LP — warm when valid state is available, cold otherwise.
    /// Returns the same canonical optimum as [`crate::minimize`] on the
    /// current system.
    ///
    /// # Errors
    ///
    /// See [`crate::minimize`].
    pub fn solve(&mut self) -> Result<LpSolution, SolveError> {
        self.last_drain = DrainStats::default();
        if self.zero_objective {
            // Pure feasibility query: any satisfying point is optimal, and
            // Bellman-Ford's is the canonical one.
            let _span = isdc_telemetry::span("solve:feasibility");
            let assignment = self.system.solve_feasible()?;
            self.last_was_warm = false;
            return Ok(self.finish(assignment));
        }
        if let Some(cached) = &self.cached {
            // Zero deltas since the last solve: the flow, its support, *and*
            // every bound are unchanged, so the canonical optimum is too —
            // skip the drain and the canonicalization Dijkstra.
            self.last_was_warm = true;
            return Ok(cached.clone());
        }
        let warm = self.state.is_some();
        if self.state.is_none() {
            // Cold start: feasibility first — it also seeds the potentials
            // (pi_u = -x_u makes every reduced cost b - x_u + x_v >= 0).
            let _span = isdc_telemetry::span("solve:feasibility");
            let feasible = self.system.solve_feasible()?;
            // Tightened start: every deficit node drops to the lowest point
            // its constraints allow, which zeroes the reduced cost of its
            // tightest in-arc, so the drain's early-exit searches meet
            // deficits sooner.
            let feasible = self.system.lower_weighted(&feasible, &self.weights);
            debug_assert!(
                self.system.first_violation(&feasible).is_none(),
                "the tightened start must stay feasible"
            );
            let pi = feasible.iter().map(|&x| -x).collect();
            self.state = Some(WarmState::new(&self.system, &self.weights, pi));
            self.canon_stale = false;
        }
        if self.canon_stale {
            // Constraints were appended since the canonicalization graph was
            // built; re-derive its adjacency (a cheap counting sort).
            let state = self.state.as_mut().expect("state just ensured");
            state.canon = CanonGraph::new(&self.system);
            self.canon_stale = false;
        }
        let state = self.state.as_mut().expect("state just ensured");
        let mut drain = DrainStats::default();
        let drain_span = isdc_telemetry::span("solve:drain");
        let drained = ssp_drain(
            &mut state.net,
            &mut state.excess,
            &mut state.pi,
            &mut state.scratch,
            state.zero_flow,
            &mut drain,
        );
        state.zero_flow = false;
        drain_span.note(
            "drain_stats",
            &[
                ("dijkstras", isdc_telemetry::ArgValue::U64(drain.dijkstras)),
                ("nodes_settled", isdc_telemetry::ArgValue::U64(drain.nodes_settled)),
                ("paths", isdc_telemetry::ArgValue::U64(drain.paths)),
                ("flow_pushed", isdc_telemetry::ArgValue::U64(drain.flow_pushed)),
            ],
        );
        drop(drain_span);
        self.last_drain = drain;
        if let Err(e) = drained {
            // A failed drain leaves partial flow behind; poison the state.
            self.state = None;
            self.cached = None;
            self.last_was_warm = false;
            return Err(e);
        }
        self.last_was_warm = warm;
        let state = self.state.as_ref().expect("state retained on success");
        let x_star: Vec<i64> = state.pi.iter().map(|&p| -p).collect();
        let canon_span = isdc_telemetry::span("solve:canonicalize");
        let assignment = canonical_assignment(&self.system, &state.net, &x_star, &state.canon);
        drop(canon_span);
        Ok(self.finish(assignment))
    }

    /// Caches a solve's canonical optimum and, in debug builds, certifies
    /// it against the flow the solve ended with.
    fn finish(&mut self, assignment: Vec<i64>) -> LpSolution {
        let solution = LpSolution { objective: dot(&self.weights, &assignment), assignment };
        self.cached = Some(solution.clone());
        debug_assert_eq!(self.certify(), Ok(()), "a solve must end on a certified optimum");
        solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcf::minimize;
    use crate::system::VarId;

    /// Chain + timing system mimicking the scheduler's shape.
    fn chain_system() -> (DifferenceSystem, Vec<i64>, Vec<usize>) {
        let mut sys = DifferenceSystem::new(5);
        for i in 0..4u32 {
            sys.add_constraint(VarId(i), VarId(i + 1), 0); // dependencies
        }
        let timing = vec![
            sys.add_constraint(VarId(0), VarId(2), -2),
            sys.add_constraint(VarId(1), VarId(3), -2),
            sys.add_constraint(VarId(0), VarId(4), -3),
        ];
        (sys, vec![-2, 1, 0, -1, 2], timing)
    }

    #[test]
    fn warm_relaxation_matches_cold_solve() {
        let (sys, weights, timing) = chain_system();
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        solver.solve().unwrap();
        assert!(!solver.last_solve_was_warm());

        // Relax timing bounds step by step; each warm solve must equal a
        // from-scratch minimize of the equivalently-relaxed system.
        let mut reference = sys;
        for (step, &ci) in timing.iter().enumerate() {
            let new_bound = reference.constraints()[ci].bound + 1;
            solver.update_bound(ci, new_bound);
            reference.set_bound(ci, new_bound);
            let warm = solver.solve().unwrap();
            assert!(solver.last_solve_was_warm(), "step {step} should stay warm");
            let cold = minimize(&reference, &weights).unwrap();
            assert_eq!(warm, cold, "step {step}: warm and cold must be bit-identical");
        }
    }

    #[test]
    fn tightening_falls_back_to_cold() {
        let (sys, weights, timing) = chain_system();
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        solver.solve().unwrap();
        // Tighten: the monotone invariant is violated, warm state must drop.
        solver.update_bound(timing[0], -3);
        let sol = solver.solve().unwrap();
        assert!(!solver.last_solve_was_warm(), "tightening must force a cold solve");
        let mut reference = sys;
        reference.set_bound(timing[0], -3);
        assert_eq!(sol, minimize(&reference, &weights).unwrap());
        // And the solver recovers: a subsequent relaxation is warm again.
        solver.update_bound(timing[0], -2);
        reference.set_bound(timing[0], -2);
        let again = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm());
        assert_eq!(again, minimize(&reference, &weights).unwrap());
    }

    #[test]
    fn no_op_update_keeps_warm_state() {
        let (sys, weights, timing) = chain_system();
        let mut solver = IncrementalSolver::new(sys, weights).unwrap();
        let first = solver.solve().unwrap();
        solver.update_bound(timing[0], solver.bound(timing[0]));
        let second = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm());
        assert_eq!(first, second);
    }

    #[test]
    fn unbalanced_weights_rejected_at_construction() {
        let sys = DifferenceSystem::new(2);
        assert!(matches!(
            IncrementalSolver::new(sys, vec![1, 2]).unwrap_err(),
            SolveError::UnbalancedObjective { weight_sum: 3 }
        ));
    }

    #[test]
    fn zero_objective_is_a_feasibility_query() {
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(0), VarId(1), -1);
        let mut solver = IncrementalSolver::new(sys.clone(), vec![0, 0]).unwrap();
        let sol = solver.solve().unwrap();
        assert_eq!(sol.objective, 0);
        assert_eq!(sol.assignment, sys.solve_feasible().unwrap());
    }

    #[test]
    fn exported_potentials_warm_start_a_fresh_solver() {
        let (sys, weights, _) = chain_system();
        let mut first = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        let reference = first.solve().unwrap();
        let pi = first.potentials().expect("warm state after a solve");

        let mut second = IncrementalSolver::new(sys, weights).unwrap();
        assert!(second.warm_from_potentials(&pi), "optimal potentials must validate");
        let warm = second.solve().unwrap();
        assert!(second.last_solve_was_warm(), "imported potentials must count as warm");
        assert_eq!(warm, reference, "the solve path must not change the canonical optimum");
    }

    #[test]
    fn potentials_from_a_tighter_system_warm_start_a_looser_one() {
        // The sweep scenario: the optimum at a short clock period satisfies
        // the relaxed bounds of a longer one, so its potentials import.
        let (mut sys, weights, timing) = chain_system();
        let mut tight = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        tight.solve().unwrap();
        let pi = tight.potentials().unwrap();
        for &ci in &timing {
            let b = sys.constraints()[ci].bound;
            sys.set_bound(ci, b + 1);
        }
        let mut loose = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        assert!(loose.warm_from_potentials(&pi));
        let warm = loose.solve().unwrap();
        assert!(loose.last_solve_was_warm());
        assert_eq!(warm, minimize(&sys, &weights).unwrap());
    }

    #[test]
    fn infeasible_potential_import_is_rejected_and_harmless() {
        let (sys, weights, _) = chain_system();
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        // All-zero potentials put every variable at 0, violating the -2
        // timing bounds; and a wrong-length vector must never install.
        assert!(!solver.warm_from_potentials(&vec![0; sys.num_vars()]));
        assert!(!solver.warm_from_potentials(&[1, 2]));
        let sol = solver.solve().unwrap();
        assert!(!solver.last_solve_was_warm(), "rejected import must leave the cold path");
        assert_eq!(sol, minimize(&sys, &weights).unwrap());
    }

    #[test]
    fn zero_delta_resolve_returns_cached_solution_without_rework() {
        let (sys, weights, timing) = chain_system();
        let mut solver = IncrementalSolver::new(sys, weights).unwrap();
        let first = solver.solve().unwrap();
        // No updates at all, and an update that does not change the bound:
        // both must serve the cached canonical solution, warm.
        let second = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm());
        assert_eq!(first, second);
        solver.update_bound(timing[0], solver.bound(timing[0]));
        let third = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm());
        assert_eq!(first, third);
    }

    #[test]
    fn canonical_point_tracks_slack_constraints() {
        // Why the cached-solution skip requires *zero* deltas rather than
        // just an unchanged flow support: relax a bound whose arc carries no
        // flow. No excess is created, the drain is a no-op, the optimal
        // objective is unchanged — yet the canonical (componentwise-maximal)
        // optimum moves, because slack constraints still fence it in.
        let mut sys = DifferenceSystem::new(3);
        sys.add_constraint(VarId(0), VarId(1), -1); // x0 <= x1 - 1
        let slack = sys.add_constraint(VarId(2), VarId(1), -2); // x2 <= x1 - 2
        let weights = vec![-1, 1, 0]; // minimize x1 - x0: x2 is unweighted
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        let before = solver.solve().unwrap();
        solver.update_bound(slack, -1);
        sys.set_bound(slack, -1);
        let after = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm(), "a no-flow relaxation stays warm");
        assert_eq!(after, minimize(&sys, &weights).unwrap(), "must match a cold re-solve");
        assert_eq!(before.objective, after.objective, "the optimum itself is unchanged");
        assert_ne!(before.assignment, after.assignment, "but the canonical point moved");
    }

    #[test]
    fn relax_to_zero_then_tighten_matches_minimize() {
        // Dependency chain 0 -> 1 -> 2 -> 3 (all 0-bounds) plus timing
        // constraints that the chain implies once relaxed to 0: the warm
        // relaxation, a zero-delta re-solve and a cold tightening must each
        // stay bit-identical to a from-scratch minimize.
        let mut sys = DifferenceSystem::new(4);
        for i in 0..3u32 {
            sys.add_constraint(VarId(i), VarId(i + 1), 0);
        }
        let t02 = sys.add_constraint(VarId(0), VarId(2), -1);
        let t13 = sys.add_constraint(VarId(1), VarId(3), -2);
        let weights = vec![-2, 1, -1, 2];
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        solver.solve().unwrap();

        // Relax both timing bounds to 0: now implied by the chain.
        for ci in [t02, t13] {
            solver.update_bound(ci, 0);
            sys.set_bound(ci, 0);
        }
        let relaxed = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm());
        assert_eq!(relaxed, minimize(&sys, &weights).unwrap(), "relaxing moved the optimum");

        // Re-solving with no change returns the cached solution.
        assert_eq!(solver.solve().unwrap(), relaxed);

        // Tightening a relaxed constraint again runs cold — still
        // bit-identical.
        solver.update_bound(t02, -2);
        sys.set_bound(t02, -2);
        let tightened = solver.solve().unwrap();
        assert!(!solver.last_solve_was_warm(), "tightening forces the cold path");
        assert_eq!(tightened, minimize(&sys, &weights).unwrap());
    }

    #[test]
    fn relax_to_zero_beside_a_zero_chain_matches_minimize() {
        // A zero-bound constraint parallel to a zero-bound chain, with an
        // objective that pushes flow somewhere: whichever arc the drain
        // routes through, the canonicalization must agree with `minimize`.
        let mut sys = DifferenceSystem::new(3);
        sys.add_constraint(VarId(0), VarId(1), 0);
        sys.add_constraint(VarId(1), VarId(2), 0);
        let direct = sys.add_constraint(VarId(0), VarId(2), -1);
        let weights = vec![-3, 1, 2];
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        solver.solve().unwrap();
        solver.update_bound(direct, 0);
        sys.set_bound(direct, 0);
        let got = solver.solve().unwrap();
        assert_eq!(got, minimize(&sys, &weights).unwrap());
    }

    #[test]
    fn satisfied_late_constraint_keeps_warm_state() {
        // Append a constraint the current optimum already satisfies: the
        // solver must stay warm and still match a from-scratch minimize of
        // the extended system.
        let (sys, weights, _) = chain_system();
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        let before = solver.solve().unwrap();
        let x = &before.assignment;
        // A bound one looser than what the optimum already achieves.
        let (u, v) = (VarId(0), VarId(3));
        let slack_bound = x[0] - x[3] + 1;
        let id = solver.add_constraint(u, v, slack_bound);
        let warm = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm(), "a satisfied append must not drop warm state");
        let mut reference = sys;
        assert_eq!(reference.add_constraint(u, v, slack_bound), id);
        assert_eq!(warm, minimize(&reference, &weights).unwrap());
        // The new constraint behaves like any other from here on.
        solver.update_bound(id, slack_bound + 1);
        reference.set_bound(id, slack_bound + 1);
        let again = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm());
        assert_eq!(again, minimize(&reference, &weights).unwrap());
    }

    #[test]
    fn violated_late_constraint_falls_back_cold() {
        let (sys, weights, _) = chain_system();
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        let before = solver.solve().unwrap();
        let x = &before.assignment;
        // A bound strictly tighter than the current optimum: the old
        // potentials cannot be dual-feasible for the extended system.
        let (u, v) = (VarId(1), VarId(4));
        let tight_bound = x[1] - x[4] - 1;
        solver.add_constraint(u, v, tight_bound);
        let sol = solver.solve().unwrap();
        assert!(!solver.last_solve_was_warm(), "a violated append must run cold");
        let mut reference = sys;
        reference.add_constraint(u, v, tight_bound);
        assert_eq!(sol, minimize(&reference, &weights).unwrap());
    }

    #[test]
    fn add_constraint_before_first_solve_just_extends_the_system() {
        let (mut sys, weights, _) = chain_system();
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        solver.add_constraint(VarId(0), VarId(4), -4);
        sys.add_constraint(VarId(0), VarId(4), -4);
        let sol = solver.solve().unwrap();
        assert!(!solver.last_solve_was_warm());
        assert_eq!(sol, minimize(&sys, &weights).unwrap());
    }

    #[test]
    fn relaxing_a_dominator_rebinds_its_member_and_matches_minimize() {
        // A constraint implied by a tighter one, then the constraint that
        // dominated it relaxes so the member binds on its own: every solve
        // must stay bit-identical to a from-scratch minimize.
        let mut sys = DifferenceSystem::new(3);
        sys.add_constraint(VarId(0), VarId(1), 0);
        sys.add_constraint(VarId(1), VarId(2), 0);
        let dominator = sys.add_constraint(VarId(0), VarId(1), -2);
        // The member: implied by the dominator (-2) plus the 1->2 zero-edge.
        sys.add_constraint(VarId(0), VarId(2), -2);
        let weights = vec![-1, 0, 1];
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        let dominated = solver.solve().unwrap();
        assert_eq!(dominated, minimize(&sys, &weights).unwrap());
        // Relax the dominator: `member` now binds on its own.
        solver.update_bound(dominator, 0);
        sys.set_bound(dominator, 0);
        let rebound = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm(), "the relaxation path stays warm");
        assert_eq!(rebound, minimize(&sys, &weights).unwrap());
        // A zero-delta re-solve returns the same point.
        assert_eq!(solver.solve().unwrap(), rebound);
    }

    #[test]
    fn bulk_relaxation_redrains_one_search_per_path() {
        // Many independent weighted pairs, each with a flow-carrying timing
        // bound. Relaxing all of them at once re-exposes every pair's
        // supply in one re-drain, which must certify, agree bit for bit
        // with a cold minimize, and run one Dijkstra per path.
        const PAIRS: u32 = 80;
        let mut sys = DifferenceSystem::new(2 * PAIRS as usize);
        let mut arcs = Vec::new();
        let mut weights = vec![0i64; 2 * PAIRS as usize];
        for k in 0..PAIRS {
            arcs.push(sys.add_constraint(VarId(2 * k), VarId(2 * k + 1), -3));
            weights[(2 * k) as usize] = -1;
            weights[(2 * k + 1) as usize] = 1;
        }
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        solver.solve().unwrap();

        for &ci in &arcs {
            solver.update_bound(ci, -1);
            sys.set_bound(ci, -1);
        }
        assert_eq!(solver.flow(), None, "the relaxations outdate the last solve's flow");
        let warm = solver.solve().unwrap();
        assert!(solver.last_solve_was_warm());
        assert_eq!(solver.certify(), Ok(()));
        assert_eq!(warm, minimize(&sys, &weights).unwrap());

        let stats = solver.last_drain_stats();
        assert_eq!(stats.paths, u64::from(PAIRS), "one augmenting path per relaxed pair");
        assert_eq!(stats.dijkstras, stats.paths, "one search per path: {stats:?}");
        assert_eq!(stats.flow_pushed, u64::from(PAIRS), "{stats:?}");
    }

    #[test]
    fn oversized_or_wrapping_potential_imports_are_refused() {
        // x0 - x1 <= 0 plus a redundant x0 - x1 <= 1: `-[i64::MAX, 0]` is
        // feasible, but the drain's reduced costs overflow on it.
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(0), VarId(1), 0);
        sys.add_constraint(VarId(0), VarId(1), 1);
        let weights = vec![-1, 1];
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        assert!(!solver.warm_from_potentials(&[i64::MAX, 0]));
        assert_eq!(solver.solve().unwrap(), minimize(&sys, &weights).unwrap());
        // Every augmenting path adds its distance to the drain's potentials:
        // 600 independent pairs imported at ±2^53 are 2^54 apart each, and
        // the sum overflows; at ±2^32 it stays far inside i64.
        const PAIRS: u32 = 600;
        let mut sys = DifferenceSystem::new(2 * PAIRS as usize);
        for k in 0..PAIRS {
            sys.add_constraint(VarId(2 * k), VarId(2 * k + 1), 0);
        }
        let weights: Vec<i64> = (0..2 * PAIRS).map(|v| if v % 2 == 0 { -1 } else { 1 }).collect();
        let spread = |p: i64| -> Vec<i64> { weights.iter().map(|&w| -w * p).collect() };
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        assert!(!solver.warm_from_potentials(&spread(1 << 53)));
        assert!(solver.warm_from_potentials(&spread(1 << 32)), "the largest magnitude imports");
        assert_eq!(solver.solve().unwrap(), minimize(&sys, &weights).unwrap());
        assert!(solver.last_solve_was_warm());
        // Here `x0 - x1` wraps in i64 for `-[0, i64::MIN, 0]`.
        let mut sys = DifferenceSystem::new(3);
        sys.add_constraint(VarId(0), VarId(1), 0);
        sys.add_constraint(VarId(1), VarId(2), -1);
        sys.add_constraint(VarId(2), VarId(0), 5);
        let weights = vec![-1, 0, 1];
        let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        assert!(!solver.warm_from_potentials(&[0, i64::MIN, 0]));
        assert_eq!(solver.solve().unwrap(), minimize(&sys, &weights).unwrap());
        assert!(!solver.last_solve_was_warm(), "a refused import leaves the cold path");
    }

    #[test]
    fn drain_stats_reset_on_cached_and_feasibility_solves() {
        let (sys, weights, timing) = chain_system();
        let supply: u64 = weights.iter().filter(|&&w| w < 0).map(|&w| w.unsigned_abs()).sum();
        let mut solver = IncrementalSolver::new(sys.clone(), weights).unwrap();
        solver.solve().unwrap();
        // The cold solve drains the objective's whole supply (its zero-cost
        // share by max flow, without any Dijkstra).
        let cold = solver.last_drain_stats();
        assert!(cold.paths > 0, "the cold solve drains: {cold:?}");
        assert_eq!(cold.flow_pushed, supply, "{cold:?}");
        // Zero-delta re-solve: served from cache, no drain at all.
        solver.solve().unwrap();
        assert_eq!(solver.last_drain_stats(), DrainStats::default());
        // A relaxation re-drains only what its canceled flow re-exposed.
        solver.update_bound(timing[0], solver.bound(timing[0]) + 1);
        solver.solve().unwrap();
        let warm = solver.last_drain_stats();
        assert_eq!(warm.dijkstras, warm.paths, "{warm:?}");
        // Feasibility queries never touch the flow network.
        let mut feas = IncrementalSolver::new(sys, vec![0; 5]).unwrap();
        feas.solve().unwrap();
        assert_eq!(feas.last_drain_stats(), DrainStats::default());
    }

    #[test]
    fn relaxing_many_bounds_at_once_stays_warm_and_exact() {
        // Wider randomized soak: a dense feasible system relaxed in batches.
        let mut state = 0xfeed_f00du64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for trial in 0..20 {
            let n = 4 + (trial % 4) as usize;
            let hidden: Vec<i64> = (0..n).map(|_| rng() % 8).collect();
            let mut sys = DifferenceSystem::new(n);
            for _ in 0..3 * n {
                let u = rng().unsigned_abs() as usize % n;
                let v = rng().unsigned_abs() as usize % n;
                if u == v {
                    continue;
                }
                // Feasible by construction relative to the hidden point.
                sys.add_constraint(
                    VarId(u as u32),
                    VarId(v as u32),
                    hidden[u] - hidden[v] + (rng() % 3).abs(),
                );
            }
            let mut weights: Vec<i64> = (0..n).map(|_| rng() % 3).collect();
            let s: i64 = weights.iter().sum();
            weights[0] -= s;
            let Ok(mut solver) = IncrementalSolver::new(sys.clone(), weights.clone()) else {
                continue;
            };
            let Ok(_) = solver.solve() else { continue };
            let mut reference = sys;
            for _round in 0..4 {
                for ci in 0..reference.constraints().len() {
                    if rng() % 3 == 0 {
                        let b = reference.constraints()[ci].bound + 1 + (rng() % 2).abs();
                        solver.update_bound(ci, b);
                        reference.set_bound(ci, b);
                    }
                }
                let warm = solver.solve().unwrap();
                assert!(solver.last_solve_was_warm(), "trial {trial}");
                let cold = minimize(&reference, &weights).unwrap();
                assert_eq!(warm, cold, "trial {trial}: warm diverged from cold");
            }
        }
    }
}
