//! Certifying a solve without solving again (McConnell, Mehlhorn, Näher &
//! Schweitzer, "Certifying algorithms", *Computer Science Review* 5(2),
//! 2011).

use crate::system::DifferenceSystem;

/// Why [`certify`] rejected a solve: the first failed condition, with the
/// constraint or variable index it failed at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// The weights, assignment or flow length does not match the system.
    Shape,
    /// No solve has succeeded since the last change
    /// ([`IncrementalSolver::certify`](crate::IncrementalSolver::certify)).
    Unsolved,
    /// The assignment violates this constraint.
    Infeasible(usize),
    /// This constraint carries negative flow.
    NegativeFlow(usize),
    /// This constraint carries flow but is slack.
    SlackFlow(usize),
    /// This variable's net inflow differs from its weight.
    Unbalanced(usize),
    /// This variable is above zero.
    AboveZero(usize),
    /// No tight path reaches this variable from a variable at zero.
    NotCanonical(usize),
}

/// Certifies that `assignment` is the canonical optimum of minimizing
/// `sum weights[v] * x_v` over `system` (the componentwise-maximal optimum
/// at or below zero, which [`crate::minimize`] returns), with `flow`, one
/// entry per constraint, as the dual solution. In O(n + m), sharing no code
/// with the solver, it checks LP duality (Ahuja, Magnanti & Orlin, *Network
/// Flows*, 1993, ch. 9): the assignment is feasible, and the flow is
/// nonnegative, sits only on tight constraints and nets every variable its
/// weight, so the assignment is optimal and the optimal face is the
/// feasible set with every flow-carrying constraint tight. Then it checks
/// that the assignment is at or below zero and reaches every variable from
/// a zero along tight edges (each constraint's primal edge `v -> u`, and
/// `u -> v` for each flow-carrying one): the face's canonical point bounds
/// it from above, and those paths from below.
///
/// # Errors
///
/// The first failed condition, constraint by constraint, then variable by
/// variable.
pub fn certify(
    system: &DifferenceSystem,
    weights: &[i64],
    assignment: &[i64],
    flow: &[i64],
) -> Result<(), CertifyError> {
    let (n, constraints) = (system.num_vars(), system.constraints());
    if weights.len() != n || assignment.len() != n || flow.len() != constraints.len() {
        return Err(CertifyError::Shape);
    }
    let mut inflow = vec![0i128; n];
    // Edges tight at the assignment, by tail.
    let mut tight: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, (c, &f)) in constraints.iter().zip(flow).enumerate() {
        let (u, v) = (c.u.index(), c.v.index());
        let slack = i128::from(c.bound) - (i128::from(assignment[u]) - i128::from(assignment[v]));
        if slack < 0 {
            return Err(CertifyError::Infeasible(ci));
        }
        if f < 0 {
            return Err(CertifyError::NegativeFlow(ci));
        }
        if f > 0 && slack > 0 {
            return Err(CertifyError::SlackFlow(ci));
        }
        inflow[v] += i128::from(f);
        inflow[u] -= i128::from(f);
        if slack == 0 {
            tight[v].push(u);
        }
        if f > 0 {
            tight[u].push(v);
        }
    }
    if let Some(v) = (0..n).find(|&v| inflow[v] != i128::from(weights[v])) {
        return Err(CertifyError::Unbalanced(v));
    }
    if let Some(v) = assignment.iter().position(|&x| x > 0) {
        return Err(CertifyError::AboveZero(v));
    }
    let mut reached: Vec<bool> = assignment.iter().map(|&x| x == 0).collect();
    let mut stack: Vec<usize> = (0..n).filter(|&v| reached[v]).collect();
    while let Some(z) = stack.pop() {
        for &u in &tight[z] {
            if !reached[u] {
                reached[u] = true;
                stack.push(u);
            }
        }
    }
    match reached.iter().position(|&r| !r) {
        Some(v) => Err(CertifyError::NotCanonical(v)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::VarId;
    use crate::IncrementalSolver;

    /// A solved system: constraints, weights, the optimum and its flow.
    type Solved = (DifferenceSystem, Vec<i64>, Vec<i64>, Vec<i64>);

    /// `count` seeded random systems, feasible around a hidden point, with
    /// balanced weights, each solved (unbounded draws are skipped).
    fn solved_systems(count: usize) -> Vec<Solved> {
        let mut state = 0xc0ff_ee11u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let mut out = Vec::new();
        while out.len() < count {
            let n = 4 + (rng() % 7) as usize;
            let hidden: Vec<i64> = (0..n).map(|_| rng() % 8).collect();
            let mut sys = DifferenceSystem::new(n);
            for _ in 0..3 * n {
                let (u, v) = ((rng() as usize) % n, (rng() as usize) % n);
                if u != v {
                    sys.add_constraint(
                        VarId(u as u32),
                        VarId(v as u32),
                        hidden[u] - hidden[v] + rng() % 3,
                    );
                }
            }
            let mut weights: Vec<i64> = (0..n).map(|_| rng() % 3).collect();
            let sum: i64 = weights.iter().sum();
            weights[0] -= sum;
            let mut solver = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
            let Ok(solution) = solver.solve() else { continue };
            assert_eq!(solver.certify(), Ok(()));
            let flow = solver.flow().expect("a solve just succeeded");
            out.push((sys, weights, solution.assignment, flow));
        }
        out
    }

    #[test]
    fn every_unit_perturbation_of_the_optimum_fails() {
        let mut rejected = 0;
        for (sys, weights, x, flow) in solved_systems(200) {
            assert_eq!(certify(&sys, &weights, &x, &flow), Ok(()));
            for v in 0..x.len() {
                for delta in [-1, 1] {
                    let mut moved = x.clone();
                    moved[v] += delta;
                    assert!(
                        certify(&sys, &weights, &moved, &flow).is_err(),
                        "{x:?} at x{v}{delta:+}"
                    );
                    rejected += 1;
                }
            }
            // Shifting everything keeps the point optimal but leaves no
            // variable at zero to reach the others from.
            let shifted: Vec<i64> = x.iter().map(|&xv| xv - 1).collect();
            assert!(matches!(
                certify(&sys, &weights, &shifted, &flow),
                Err(CertifyError::NotCanonical(_))
            ));
        }
        assert!(rejected > 2_000, "{rejected}");
    }

    #[test]
    fn broken_flows_fail() {
        let (mut unbalanced, mut slack) = (0, 0);
        for (sys, weights, x, flow) in solved_systems(200) {
            let tight = |c: &crate::Constraint| x[c.u.index()] - x[c.v.index()] == c.bound;
            for (ci, c) in sys.constraints().iter().enumerate() {
                let mut broken = flow.clone();
                broken[ci] += 1;
                let got = certify(&sys, &weights, &x, &broken);
                if tight(c) {
                    assert!(matches!(got, Err(CertifyError::Unbalanced(_))), "{got:?}");
                    unbalanced += 1;
                } else {
                    assert_eq!(got, Err(CertifyError::SlackFlow(ci)));
                    slack += 1;
                }
                broken[ci] = -1;
                assert_eq!(
                    certify(&sys, &weights, &x, &broken),
                    Err(CertifyError::NegativeFlow(ci))
                );
            }
            assert_eq!(certify(&sys, &weights, &x, &flow[1..]), Err(CertifyError::Shape));
        }
        assert!(unbalanced > 500 && slack > 500, "{unbalanced} tight, {slack} slack");
        let solver = IncrementalSolver::new(DifferenceSystem::new(2), vec![-1, 1]).unwrap();
        assert_eq!(solver.certify(), Err(CertifyError::Unsolved));
    }
}
