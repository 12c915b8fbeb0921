//! Systems of difference constraints and their feasibility.
//!
//! A difference constraint has the form `x_u - x_v <= b` with integer `b`.
//! The constraint matrix of such a system is totally unimodular, so (as the
//! paper's §II recalls, citing Cong & Zhang) feasible systems always admit
//! integral solutions — found here with Bellman-Ford shortest paths from a
//! virtual source.

use std::fmt;

/// A scheduling variable (one per IR operation in SDC scheduling).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// One constraint `x_u - x_v <= bound`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// The positively-signed variable.
    pub u: VarId,
    /// The negatively-signed variable.
    pub v: VarId,
    /// The integer bound.
    pub bound: i64,
}

/// Errors from solving a difference-constraint system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The constraints contradict each other; the payload is a certificate —
    /// a cycle of constraint indices whose bounds sum to a negative value.
    Infeasible {
        /// Indices into the system's constraint list forming the negative cycle.
        cycle: Vec<usize>,
    },
    /// The optimization objective can be driven to negative infinity.
    Unbounded,
    /// Objective weights do not sum to zero, so the LP dual has no feasible
    /// flow (the objective is unbounded for any feasible system).
    UnbalancedObjective {
        /// The nonzero weight sum.
        weight_sum: i64,
    },
    /// The solve was cancelled by an installed `isdc_cancel` deadline or
    /// token before completing. Partial drain state is discarded by the
    /// caller, so this never poisons warm solver state.
    Cancelled,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible { cycle } => {
                write!(f, "infeasible system (negative cycle through {} constraints)", cycle.len())
            }
            SolveError::Unbounded => f.write_str("objective is unbounded below"),
            SolveError::UnbalancedObjective { weight_sum } => {
                write!(f, "objective weights sum to {weight_sum}, expected 0")
            }
            SolveError::Cancelled => f.write_str("solve cancelled (deadline exceeded)"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A system of difference constraints over `num_vars` variables.
///
/// # Examples
///
/// ```
/// use isdc_sdc::{DifferenceSystem, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = DifferenceSystem::new(2);
/// // x0 - x1 <= -1  (x0 at least one cycle before x1)
/// sys.add_constraint(VarId(0), VarId(1), -1);
/// let solution = sys.solve_feasible()?;
/// assert!(solution[0] - solution[1] <= -1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DifferenceSystem {
    num_vars: usize,
    constraints: Vec<Constraint>,
}

impl DifferenceSystem {
    /// Creates a system over `num_vars` variables and no constraints.
    pub fn new(num_vars: usize) -> Self {
        Self { num_vars, constraints: Vec::new() }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds `x_u - x_v <= bound` and returns the constraint index.
    ///
    /// # Panics
    ///
    /// Panics if either variable is out of range.
    pub fn add_constraint(&mut self, u: VarId, v: VarId, bound: i64) -> usize {
        assert!(
            u.index() < self.num_vars && v.index() < self.num_vars,
            "variable out of range (num_vars = {})",
            self.num_vars
        );
        self.constraints.push(Constraint { u, v, bound });
        self.constraints.len() - 1
    }

    /// Replaces the bound of constraint `index`, returning the previous
    /// bound. The constraint's variable pair is immutable — incremental
    /// solvers rely on the arc topology staying fixed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_bound(&mut self, index: usize, bound: i64) -> i64 {
        let old = self.constraints[index].bound;
        self.constraints[index].bound = bound;
        old
    }

    /// Checks a candidate assignment against every constraint, returning the
    /// index of the first violated constraint, if any. Differences are taken
    /// in `i128`, so no assignment can wrap past a bound.
    pub fn first_violation(&self, assignment: &[i64]) -> Option<usize> {
        self.constraints.iter().position(|c| {
            i128::from(assignment[c.u.index()]) - i128::from(assignment[c.v.index()])
                > i128::from(c.bound)
        })
    }

    /// Lowers every variable with a positive weight, all at once, to the
    /// largest lower bound its constraints allow at `feasible`: variable `v`
    /// becomes `max(feasible[c.u] - c.bound)` over the constraints `c` with
    /// `c.v == v`, or keeps its value when no constraint bounds it from
    /// below. This is the cold solve's tightened start.
    ///
    /// For a feasible input the result is feasible and raises no variable;
    /// only positively weighted variables move, so it never raises
    /// `sum weights[v] * x_v` either. Take `c = (u, v, b)`: if `v`
    /// is lowered, its new value is at least `feasible[u] - b`, which is at
    /// least the new `x_u - b` because `u` only ever moves down; if `v` is
    /// not lowered, `x_u - x_v` can only have fallen. And each lowered value
    /// is at most `feasible[v]`, since `feasible` meets every bound it was
    /// taken from.
    ///
    /// # Panics
    ///
    /// Panics if `feasible` or `weights` is shorter than
    /// [`DifferenceSystem::num_vars`].
    pub fn lower_weighted(&self, feasible: &[i64], weights: &[i64]) -> Vec<i64> {
        let mut lowest: Vec<Option<i64>> = vec![None; self.num_vars];
        for c in &self.constraints {
            let v = c.v.index();
            if weights[v] > 0 {
                let floor = feasible[c.u.index()].saturating_sub(c.bound);
                lowest[v] = Some(lowest[v].map_or(floor, |l| l.max(floor)));
            }
        }
        feasible[..self.num_vars].iter().zip(lowest).map(|(&x, l)| l.unwrap_or(x)).collect()
    }

    /// Finds an integral feasible assignment via Bellman-Ford, or a negative
    /// cycle certificate.
    ///
    /// The solution returned is the canonical shortest-path solution: each
    /// variable takes its shortest distance from a virtual source connected
    /// to every variable with weight 0. Solutions are translation-invariant
    /// (adding a constant to every variable preserves feasibility).
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when constraints contradict.
    pub fn solve_feasible(&self) -> Result<Vec<i64>, SolveError> {
        // Edge for constraint x_u - x_v <= b: v -> u with weight b
        // (dist[u] <= dist[v] + b).
        let n = self.num_vars;
        let mut dist = vec![0i64; n]; // virtual source: all start at 0
        let mut pred: Vec<Option<usize>> = vec![None; n]; // predecessor constraint
        let mut updated_node: Option<usize> = None;
        for _round in 0..n {
            updated_node = None;
            for (ci, c) in self.constraints.iter().enumerate() {
                let cand = dist[c.v.index()].saturating_add(c.bound);
                if cand < dist[c.u.index()] {
                    dist[c.u.index()] = cand;
                    pred[c.u.index()] = Some(ci);
                    updated_node = Some(c.u.index());
                }
            }
            if updated_node.is_none() {
                break;
            }
        }
        if let Some(start) = updated_node {
            // A node relaxed in round n lies on or reaches back to a negative
            // cycle; walk predecessors n times to land on the cycle, then
            // collect it.
            let mut node = start;
            for _ in 0..n {
                let ci = pred[node].expect("relaxed node has a predecessor");
                node = self.constraints[ci].v.index();
            }
            let mut cycle = Vec::new();
            let cycle_start = node;
            loop {
                let ci = pred[node].expect("cycle node has a predecessor");
                cycle.push(ci);
                node = self.constraints[ci].v.index();
                if node == cycle_start {
                    break;
                }
            }
            cycle.reverse();
            return Err(SolveError::Infeasible { cycle });
        }
        Ok(dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_system_is_feasible() {
        let sys = DifferenceSystem::new(3);
        let sol = sys.solve_feasible().unwrap();
        assert_eq!(sol, vec![0, 0, 0]);
    }

    #[test]
    fn chain_constraints() {
        // x0 <= x1 - 1 <= x2 - 2
        let mut sys = DifferenceSystem::new(3);
        sys.add_constraint(VarId(0), VarId(1), -1);
        sys.add_constraint(VarId(1), VarId(2), -1);
        let sol = sys.solve_feasible().unwrap();
        assert!(sys.first_violation(&sol).is_none());
        assert!(sol[0] < sol[1] && sol[1] < sol[2]);
    }

    #[test]
    fn detects_infeasibility_with_certificate() {
        // x0 - x1 <= -1 and x1 - x0 <= 0 sum to -1 < 0: contradiction.
        let mut sys = DifferenceSystem::new(2);
        let c0 = sys.add_constraint(VarId(0), VarId(1), -1);
        let c1 = sys.add_constraint(VarId(1), VarId(0), 0);
        let err = sys.solve_feasible().unwrap_err();
        let SolveError::Infeasible { cycle } = err else { panic!("expected infeasible") };
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![c0, c1]);
        // Certificate property: bounds around the cycle sum negative and the
        // cycle is closed.
        let sum: i64 = cycle.iter().map(|&i| sys.constraints()[i].bound).sum();
        assert!(sum < 0);
        for w in cycle.windows(2) {
            assert_eq!(sys.constraints()[w[0]].u, sys.constraints()[w[1]].v);
        }
        let first = sys.constraints()[cycle[0]];
        let last = sys.constraints()[*cycle.last().unwrap()];
        assert_eq!(first.v, last.u);
    }

    #[test]
    fn longer_negative_cycle() {
        let mut sys = DifferenceSystem::new(4);
        sys.add_constraint(VarId(0), VarId(1), 2);
        sys.add_constraint(VarId(1), VarId(2), -3);
        sys.add_constraint(VarId(2), VarId(0), 0);
        sys.add_constraint(VarId(3), VarId(0), 5); // unrelated
        let err = sys.solve_feasible().unwrap_err();
        let SolveError::Infeasible { cycle } = err else { panic!("expected infeasible") };
        let sum: i64 = cycle.iter().map(|&i| sys.constraints()[i].bound).sum();
        assert!(sum < 0);
    }

    #[test]
    fn feasible_with_positive_cycle() {
        // Cycle with nonnegative sum is fine.
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(0), VarId(1), 1);
        sys.add_constraint(VarId(1), VarId(0), -1);
        let sol = sys.solve_feasible().unwrap();
        assert!(sys.first_violation(&sol).is_none());
        assert_eq!(sol[1] - sol[0], -1); // the tight constraint is honored
    }

    #[test]
    fn first_violation_reports_index() {
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(0), VarId(1), -1);
        assert_eq!(sys.first_violation(&[0, 0]), Some(0));
        assert_eq!(sys.first_violation(&[0, 5]), None);
        // 0 - i64::MIN wraps to a negative i64; the check must not.
        assert_eq!(sys.first_violation(&[0, i64::MIN]), Some(0));
    }

    #[test]
    #[should_panic(expected = "variable out of range")]
    fn out_of_range_variable_rejected() {
        let mut sys = DifferenceSystem::new(1);
        sys.add_constraint(VarId(0), VarId(1), 0);
    }

    #[test]
    fn dense_random_feasible_systems() {
        // Pseudo-random systems built to be feasible by construction:
        // bounds derived from a hidden assignment.
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for trial in 0..20 {
            let n = 5 + (trial % 7);
            let hidden: Vec<i64> = (0..n).map(|_| rng() % 10).collect();
            let mut sys = DifferenceSystem::new(n);
            for _ in 0..3 * n {
                let u = (rng().unsigned_abs() as usize) % n;
                let v = (rng().unsigned_abs() as usize) % n;
                if u == v {
                    continue;
                }
                let slack = rng() % 4; // nonnegative slack keeps it feasible
                sys.add_constraint(
                    VarId(u as u32),
                    VarId(v as u32),
                    hidden[u] - hidden[v] + slack.abs(),
                );
            }
            let sol = sys.solve_feasible().unwrap();
            assert!(sys.first_violation(&sol).is_none(), "trial {trial}");
        }
    }
}
