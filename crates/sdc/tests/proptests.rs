//! Property-based tests for the difference-constraint solver: feasibility
//! certificates, optimality against brute force, structural invariants, the
//! tightened cold start, and the optimality certificate of every warm,
//! imported and cold drain.

use isdc_sdc::{minimize, DifferenceSystem, IncrementalSolver, LpSolution, SolveError, VarId};
use proptest::prelude::*;

/// A random system description: `(num_vars, edges)` where each edge is
/// `(u, v, bound)`.
fn system_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (2usize..6).prop_flat_map(|n| {
        let edge = (0..n, 0..n, -4i64..5).prop_filter("self loops excluded", |(u, v, _)| u != v);
        (Just(n), prop::collection::vec(edge, 0..10))
    })
}

fn build(n: usize, edges: &[(usize, usize, i64)]) -> DifferenceSystem {
    let mut sys = DifferenceSystem::new(n);
    for &(u, v, b) in edges {
        sys.add_constraint(VarId(u as u32), VarId(v as u32), b);
    }
    sys
}

fn brute_force(sys: &DifferenceSystem, weights: &[i64], lo: i64, hi: i64) -> Option<i64> {
    let n = sys.num_vars();
    let mut best: Option<i64> = None;
    let mut point = vec![lo; n];
    loop {
        if sys.first_violation(&point).is_none() {
            let obj: i64 = weights.iter().zip(&point).map(|(&w, &x)| w * x).sum();
            best = Some(best.map_or(obj, |b: i64| b.min(obj)));
        }
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            point[i] += 1;
            if point[i] <= hi {
                break;
            }
            point[i] = lo;
            i += 1;
        }
    }
}

/// A solver seeded with potentials `-hidden`, the point every generated
/// system is feasible around. The import succeeds unless the objective is
/// all zeros, which needs no flow network.
fn import_hidden(sys: &DifferenceSystem, weights: &[i64], hidden: &[i64]) -> IncrementalSolver {
    let mut solver = IncrementalSolver::new(sys.clone(), weights.to_vec()).unwrap();
    let pi: Vec<i64> = hidden.iter().map(|&h| -h).collect();
    assert_eq!(solver.warm_from_potentials(&pi), weights.iter().any(|&w| w != 0));
    solver
}

/// Solves `solver` and, when the solve succeeds, checks its certificate.
fn certified_solve(solver: &mut IncrementalSolver) -> Result<LpSolution, SolveError> {
    let solved = solver.solve();
    if solved.is_ok() {
        assert_eq!(solver.certify(), Ok(()), "a successful solve must certify");
    }
    solved
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The feasibility solver either returns a satisfying assignment or an
    /// honest negative-cycle certificate.
    #[test]
    fn feasibility_or_certificate((n, edges) in system_strategy()) {
        let sys = build(n, &edges);
        match sys.solve_feasible() {
            Ok(solution) => {
                prop_assert_eq!(sys.first_violation(&solution), None);
            }
            Err(SolveError::Infeasible { cycle }) => {
                // Certificate: consecutive constraints chain and the bounds
                // sum negative.
                prop_assert!(!cycle.is_empty());
                let cs = sys.constraints();
                let total: i64 = cycle.iter().map(|&i| cs[i].bound).sum();
                prop_assert!(total < 0, "cycle bound sum {} must be negative", total);
                // The reversed walk lists constraints in forward order:
                // each constraint's u meets the next one's v, and the list
                // closes back on itself.
                for w in cycle.windows(2) {
                    prop_assert_eq!(cs[w[0]].u, cs[w[1]].v);
                }
                let first = cs[cycle[0]];
                let last = cs[*cycle.last().unwrap()];
                prop_assert_eq!(first.v, last.u);
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }

    /// On solvable instances the LP optimum matches exhaustive enumeration.
    #[test]
    fn optimum_matches_brute_force(
        (n, edges) in system_strategy(),
        raw_weights in prop::collection::vec(-2i64..3, 6),
    ) {
        let sys = build(n, &edges);
        let mut weights: Vec<i64> = raw_weights.into_iter().take(n).collect();
        weights.resize(n, 0);
        let total: i64 = weights.iter().sum();
        weights[0] -= total;
        match minimize(&sys, &weights) {
            Ok(sol) => {
                prop_assert_eq!(sys.first_violation(&sol.assignment), None);
                let brute = brute_force(&sys, &weights, -8, 8)
                    .expect("solver found a solution so brute force must too");
                prop_assert_eq!(sol.objective, brute);
            }
            Err(SolveError::Infeasible { .. }) => {
                prop_assert_eq!(brute_force(&sys, &weights, -8, 8), None);
            }
            Err(SolveError::Unbounded) => {
                // Widening the box must keep improving the optimum.
                let narrow = brute_force(&sys, &weights, -4, 4);
                let wide = brute_force(&sys, &weights, -8, 8);
                if let (Some(a), Some(b)) = (narrow, wide) {
                    prop_assert!(b < a, "claimed unbounded but optimum stable at {}", a);
                }
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }

    /// Solutions are translation-invariant: shifting every variable keeps
    /// feasibility.
    #[test]
    fn feasible_solutions_are_translation_invariant(
        (n, edges) in system_strategy(),
        shift in -100i64..100,
    ) {
        let sys = build(n, &edges);
        if let Ok(solution) = sys.solve_feasible() {
            let shifted: Vec<i64> = solution.iter().map(|x| x + shift).collect();
            prop_assert_eq!(sys.first_violation(&shifted), None);
        }
    }

    /// Every drain ends certified — across the initial solve and arbitrary
    /// mixed relax/tighten bound sequences (relaxations re-drain warm;
    /// tightenings force the cold path, from the tightened start). A second
    /// solver enters through imported potentials `-hidden`, so its first
    /// drain also starts from zero flow but at another feasible point. Both
    /// certify their optimum and equal a from-scratch `minimize`, errors
    /// included, at every step.
    #[test]
    fn drain_is_certified_through_bound_sequences(
        n in 3usize..8,
        hidden in prop::collection::vec(-8i64..8, 8),
        edges in prop::collection::vec((0usize..8, 0usize..8, 0i64..3), 4..24),
        raw_weights in prop::collection::vec(-2i64..3, 8),
        deltas in prop::collection::vec((0usize..24, -2i64..4), 1..12),
    ) {
        // Feasible by construction relative to the hidden point.
        let mut sys = DifferenceSystem::new(n);
        for &(u, v, slack) in &edges {
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            sys.add_constraint(
                VarId(u as u32),
                VarId(v as u32),
                hidden[u] - hidden[v] + slack,
            );
        }
        if sys.constraints().is_empty() {
            return; // degenerate draw: nothing to relax or tighten
        }
        let mut weights: Vec<i64> = raw_weights.into_iter().take(n).collect();
        weights.resize(n, 0);
        let total: i64 = weights.iter().sum();
        weights[0] -= total;

        let mut drained = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        let mut imported = import_hidden(&sys, &weights, &hidden[..n]);
        let cold = minimize(&sys, &weights);
        prop_assert_eq!(&certified_solve(&mut drained), &cold, "initial solve diverged");
        prop_assert_eq!(&certified_solve(&mut imported), &cold, "initial imported solve diverged");

        let m = sys.constraints().len();
        for (step, &(ci, delta)) in deltas.iter().enumerate() {
            let ci = ci % m;
            let bound = sys.constraints()[ci].bound + delta;
            drained.update_bound(ci, bound);
            imported.update_bound(ci, bound);
            sys.set_bound(ci, bound);
            let cold = minimize(&sys, &weights);
            prop_assert_eq!(&certified_solve(&mut drained), &cold, "step {}: drain vs cold", step);
            prop_assert_eq!(
                &certified_solve(&mut imported), &cold, "step {}: imported vs cold", step
            );
        }
    }

    /// The cold solve's tightened start, taken from the Bellman-Ford point,
    /// violates no constraint, raises no variable, moves only positively
    /// weighted ones and never increases the objective.
    #[test]
    fn tightened_start_is_feasible_and_no_worse(
        n in 2usize..8,
        hidden in prop::collection::vec(-8i64..8, 8),
        edges in prop::collection::vec((0usize..8, 0usize..8, 0i64..3), 0..24),
        raw_weights in prop::collection::vec(-3i64..4, 8),
    ) {
        let mut sys = DifferenceSystem::new(n);
        for &(u, v, slack) in &edges {
            let (u, v) = (u % n, v % n);
            if u != v {
                sys.add_constraint(VarId(u as u32), VarId(v as u32), hidden[u] - hidden[v] + slack);
            }
        }
        let weights: Vec<i64> = raw_weights.into_iter().take(n).collect();
        let start = sys.solve_feasible().expect("feasible by construction");
        let lowered = sys.lower_weighted(&start, &weights);
        prop_assert_eq!(sys.first_violation(&lowered), None);
        for v in 0..n {
            prop_assert!(lowered[v] <= start[v], "x{} rose", v);
            if weights[v] <= 0 {
                prop_assert_eq!(lowered[v], start[v], "x{} has no positive weight", v);
            }
        }
        let objective = |x: &[i64]| -> i64 { weights.iter().zip(x).map(|(&w, &x)| w * x).sum() };
        prop_assert!(objective(&lowered) <= objective(&start));
    }

    /// Adding a redundant (implied) constraint never changes the optimum.
    #[test]
    fn implied_constraints_are_free((n, edges) in system_strategy()) {
        let sys = build(n, &edges);
        let mut weights = vec![0i64; n];
        weights[0] = -1;
        weights[n - 1] = 1;
        let base = minimize(&sys, &weights);
        if let Ok(sol) = base {
            // x_u - x_v <= (actual difference + 1) is satisfied by the
            // optimum and cannot cut it off.
            let mut relaxed = build(n, &edges);
            relaxed.add_constraint(
                VarId(0),
                VarId(n as u32 - 1),
                sol.assignment[0] - sol.assignment[n - 1] + 1,
            );
            let again = minimize(&relaxed, &weights).expect("still solvable");
            prop_assert_eq!(again.objective, sol.objective);
        }
    }
}

// Large systems with a many-sourced objective, so each re-drain runs many
// searches through the one persistent, versioned search scratch. Fewer
// cases — each one solves a few-hundred-constraint LP three ways per step.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Same property as `drain_is_certified_through_bound_sequences`, on
    /// systems of 128 to 149 variables.
    #[test]
    fn drain_is_certified_through_bound_sequences_large(
        n in 128usize..150,
        seed in any::<u64>(),
        deltas in prop::collection::vec((0usize..4096, -2i64..4), 1..8),
    ) {
        let mut state = seed;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        // Feasible by construction relative to a hidden point; a dependency
        // chain keeps the weighted endpoints mutually constrained.
        let hidden: Vec<i64> = (0..n).map(|_| rng() % 16).collect();
        let mut sys = DifferenceSystem::new(n);
        for i in 1..n {
            sys.add_constraint(
                VarId(i as u32 - 1),
                VarId(i as u32),
                hidden[i - 1] - hidden[i] + (rng() % 3).abs(),
            );
        }
        for _ in 0..3 * n {
            let u = rng().unsigned_abs() as usize % n;
            let v = rng().unsigned_abs() as usize % n;
            if u == v {
                continue;
            }
            sys.add_constraint(
                VarId(u as u32),
                VarId(v as u32),
                hidden[u] - hidden[v] + (rng() % 3).abs(),
            );
        }
        // Many-sourced balanced objective so warm re-drains expose bulk
        // excess across the whole system.
        let mut weights: Vec<i64> = (0..n).map(|_| rng() % 3).collect();
        let total: i64 = weights.iter().sum();
        weights[0] -= total;

        let mut drained = IncrementalSolver::new(sys.clone(), weights.clone()).unwrap();
        let mut imported = import_hidden(&sys, &weights, &hidden);
        let cold = minimize(&sys, &weights);
        prop_assert_eq!(&certified_solve(&mut drained), &cold, "initial solve diverged");
        prop_assert_eq!(&certified_solve(&mut imported), &cold, "initial imported solve diverged");

        let m = sys.constraints().len();
        for (step, &(ci, delta)) in deltas.iter().enumerate() {
            let ci = ci % m;
            let bound = sys.constraints()[ci].bound + delta;
            drained.update_bound(ci, bound);
            imported.update_bound(ci, bound);
            sys.set_bound(ci, bound);
            let cold = minimize(&sys, &weights);
            prop_assert_eq!(&certified_solve(&mut drained), &cold, "step {}: drain vs cold", step);
            prop_assert_eq!(
                &certified_solve(&mut imported), &cold, "step {}: imported vs cold", step
            );
        }
    }
}
