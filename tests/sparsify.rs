//! LP sparsification identity: the operand rule's Eq. 2 emission is a pure
//! constraint-count optimization. Sparse and dense systems bound the same
//! polyhedron, so `canonical_assignment` must land on the same optimal
//! point. `IncrementalScheduler::certify` proves it per solve without
//! building the dense LP — across the full Table I benchsuite, every
//! `retarget` path, and randomized clock ladders on random DAGs, where the
//! persistent engine must also match a fresh one. The emitted and pruned
//! counts are checked against a pair-by-pair count of the rule itself, on
//! naive and feedback-final matrices.

use isdc::benchsuite::{random_dag, RandomDagConfig};
use isdc::core::{
    run_isdc, schedule_with_matrix, DelayMatrix, DirtySet, IncrementalScheduler, IsdcConfig,
};
use isdc::ir::Graph;
use isdc::synth::{OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use proptest::prelude::*;

/// Every bundled design at its own clock: the sparse emission's schedule
/// certifies as the dense one-constraint-per-pair LP's optimum.
#[test]
fn suite_sparse_matches_dense_at_design_clocks() {
    let model = OpDelayModel::new(TechLibrary::sky130());
    for b in isdc::benchsuite::suite() {
        let d = DelayMatrix::initialize(&b.graph, &model.all_node_delays(&b.graph));
        let mut engine = IncrementalScheduler::new(&b.graph, &d, b.clock_period_ps).unwrap();
        let sparse = engine.reschedule(&b.graph, &d, &DirtySet::new(b.graph.len())).unwrap();
        assert_eq!(engine.certify(&b.graph, &d, &sparse), Ok(()), "{}", b.name);
    }
}

/// Every bundled design through a retarget ladder that relaxes, revisits
/// and tightens the period: after each step the persistent (promoting /
/// demoting) engine must match a fresh engine — including identical errors
/// where the period is infeasible — and certify as the dense LP's optimum.
#[test]
fn suite_retargets_match_dense_every_step() {
    let model = OpDelayModel::new(TechLibrary::sky130());
    for b in isdc::benchsuite::suite() {
        let d = DelayMatrix::initialize(&b.graph, &model.all_node_delays(&b.graph));
        let empty = DirtySet::new(b.graph.len());
        let mut engine = IncrementalScheduler::new(&b.graph, &d, b.clock_period_ps).unwrap();
        engine.reschedule(&b.graph, &d, &empty).unwrap();
        for scale in [1.3, 2.0, 1.0, 0.85, 1.15] {
            let clock = b.clock_period_ps * scale;
            engine.retarget(&b.graph, &d, clock);
            let got = engine.reschedule(&b.graph, &d, &empty);
            let fresh = schedule_with_matrix(&b.graph, &d, clock);
            assert_eq!(got, fresh, "{}: diverged after retarget to {clock}ps", b.name);
            if let Ok(schedule) = &got {
                assert_eq!(
                    engine.certify(&b.graph, &d, schedule),
                    Ok(()),
                    "{} at {clock}ps",
                    b.name
                );
            }
        }
    }
}

/// The tentpole's measurable bar: crc32's Eq. 2 constraint count drops by
/// at least 2x (the dense LP carries ~75k).
#[test]
fn crc32_constraint_count_is_at_least_halved() {
    let model = OpDelayModel::new(TechLibrary::sky130());
    let b = isdc::benchsuite::suite()
        .into_iter()
        .find(|b| b.name == "crc32")
        .expect("crc32 in the suite");
    let d = DelayMatrix::initialize(&b.graph, &model.all_node_delays(&b.graph));
    let engine = IncrementalScheduler::new(&b.graph, &d, b.clock_period_ps).unwrap();
    let stats = engine.sparsify_stats();
    assert!(
        stats.dense_constraints() > 70_000,
        "crc32's dense Eq. 2 emission should be ~75k constraints: {stats:?}"
    );
    assert!(
        stats.pruning_ratio() >= 0.5,
        "sparsification must cut the constraint count at least 2x: {stats:?}"
    );
    assert_eq!(stats.dense_constraints(), stats.constraints_emitted + stats.pruned);
}

/// Stages a `d`-ps pair spans at period `t`: the smallest `k` with
/// `k·t >= d`, found by repeated addition. Exact for whole-picosecond
/// periods such as the Table I clocks.
fn stages(d: f64, t: f64) -> u64 {
    let (mut k, mut reach) = (1, t);
    while reach < d {
        k += 1;
        reach += t;
    }
    k
}

/// `(emitted, pruned)` by the operand rule, decided pair by pair: a pair
/// spanning `k >= 2` stages is pruned iff some operand `p ≠ u` of its sink
/// spans at least `k` stages from `u`.
fn operand_rule_counts(g: &Graph, d: &DelayMatrix, t: f64) -> (u64, u64) {
    let (mut emitted, mut pruned) = (0, 0);
    for u in g.node_ids() {
        for w in g.node_ids().skip(u.index() + 1) {
            let Some(k) = d.get(u, w).map(|dw| stages(dw, t)).filter(|&k| k >= 2) else {
                continue;
            };
            let operands = &g.node(w).operands;
            if operands.iter().any(|&p| p != u && d.get(u, p).is_some_and(|dp| stages(dp, t) >= k))
            {
                pruned += 1;
            } else {
                emitted += 1;
            }
        }
    }
    (emitted, pruned)
}

/// Every Table I design at its own clock, on its naive matrix and on the
/// final matrix of its `run_isdc`: a fresh engine emits and prunes exactly
/// what the operand rule decides pair by pair. Per-output feedback leaves
/// `ml_core_datapath0_opcode2`'s final matrix with delays that shrink along
/// paths, where the rule emits 45 constraints and prunes 117.
#[test]
fn emission_counts_match_the_operand_rule() {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let (mut naive_total, mut final_total) = ((0, 0), (0, 0));
    for b in isdc::benchsuite::suite() {
        let (g, clock) = (&b.graph, b.clock_period_ps);
        let config = IsdcConfig { threads: 1, ..IsdcConfig::paper_defaults(clock) };
        let naive = DelayMatrix::initialize(g, &model.all_node_delays(g));
        let run = run_isdc(g, &model, &oracle, &config).unwrap();
        for (which, d, total) in
            [("naive", &naive, &mut naive_total), ("final", &run.delays, &mut final_total)]
        {
            let stats = IncrementalScheduler::new(g, d, clock).unwrap().sparsify_stats();
            let got = (stats.constraints_emitted, stats.pruned);
            assert_eq!(got, operand_rule_counts(g, d, clock), "{} {which}", b.name);
            match (b.name, which) {
                ("crc32", "naive") => assert_eq!(got, (2_802, 72_245)),
                ("ml_core_datapath0_opcode2", "final") => assert_eq!(got, (45, 117)),
                _ => {}
            }
            total.0 += got.0;
            total.1 += got.1;
        }
    }
    assert_eq!(naive_total, (10_742, 126_998));
    assert_eq!(final_total, (9_744, 112_027));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs through randomized clock ladders (relaxing *and*
    /// tightening): the engine's promote-on-retarget path must match a
    /// fresh engine, errors included, and certify as the dense LP's
    /// optimum at every step.
    #[test]
    fn random_dag_retarget_ladders_match_dense(
        (num_ops, num_params, seed) in (8usize..32, 2usize..5, any::<u64>()),
        scales in prop::collection::vec(0.5f64..2.5, 1..6),
    ) {
        let config =
            RandomDagConfig { num_ops, num_params, widths: vec![4, 8], with_muls: false };
        let g = random_dag(&config, seed);
        let model = OpDelayModel::new(TechLibrary::sky130());
        let d = DelayMatrix::initialize(&g, &model.all_node_delays(&g));
        let base = 2500.0;
        let empty = DirtySet::new(g.len());
        let mut engine = IncrementalScheduler::new(&g, &d, base).expect("schedulable");
        engine.reschedule(&g, &d, &empty).unwrap();
        for &scale in &scales {
            let clock = base * scale;
            engine.retarget(&g, &d, clock);
            let got = engine.reschedule(&g, &d, &empty);
            prop_assert_eq!(&got, &schedule_with_matrix(&g, &d, clock), "diverged at {}ps", clock);
            if let Ok(schedule) = &got {
                prop_assert_eq!(engine.certify(&g, &d, schedule), Ok(()), "at {}ps", clock);
            }
        }
    }
}
