//! Schedule quality metrics: post-synthesis slack and delay-estimation error.
//!
//! The paper evaluates schedules with post-synthesis STA (Table I's slack
//! column) and tracks how far the scheduler's internal delay estimates drift
//! from STA (Fig. 7). Here the same downstream oracle that drives the
//! feedback loop times whole pipeline stages to produce those numbers.
//!
//! [`run_isdc`](crate::run_isdc) records Fig. 7's two errors after every
//! iteration without paying for these functions in full: it times only
//! stages whose member list the run has not timed yet (the oracle is pure,
//! so a repeated stage reuses its first measurement), and it derives the
//! naive estimate from the per-node delays by an in-stage longest-path
//! pass instead of keeping a copy of the never-updated n×n matrix. Both
//! shortcuts reproduce [`stage_sta_delays`] and [`estimated_stage_delays`]
//! bit for bit.

use crate::delay::DelayMatrix;
use crate::schedule::Schedule;
use isdc_ir::{Graph, NodeId};
use isdc_synth::DelayOracle;
use isdc_techlib::Picos;

/// Post-synthesis (oracle-measured) delay of every stage's combinational
/// region.
///
/// Stages containing only wiring report zero.
pub fn stage_sta_delays<O: DelayOracle + ?Sized>(
    graph: &Graph,
    schedule: &Schedule,
    oracle: &O,
) -> Vec<Picos> {
    schedule
        .stages()
        .iter()
        .map(
            |members| {
                if members.is_empty() {
                    0.0
                } else {
                    oracle.evaluate(graph, members).delay_ps
                }
            },
        )
        .collect()
}

/// The scheduler's own estimate of every stage's delay: the worst
/// delay-matrix entry among same-stage pairs.
pub fn estimated_stage_delays(
    graph: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
) -> Vec<Picos> {
    let _ = graph;
    schedule
        .stages()
        .iter()
        .map(|members| {
            let mut worst: Picos = 0.0;
            for &u in members {
                for &v in members {
                    if let Some(d) = delays.get(u, v) {
                        worst = worst.max(d);
                    }
                }
            }
            worst
        })
        .collect()
}

/// What [`estimated_stage_delays`] reads from the naive matrix
/// `DelayMatrix::initialize(graph, node_delays)`, computed from the per-node
/// delays alone in O(nodes + edges).
///
/// A node's longest in-stage path ends at it and starts at a same-stage
/// node; operands scheduled in an earlier stage never lengthen it. The
/// result is bit-identical to the matrix route whenever `schedule` respects
/// dependencies: every node on a path between two same-stage nodes is then
/// in that stage, so the matrix's worst same-stage entry is exactly this
/// longest path, and IEEE rounding is monotone, so taking the maximum
/// before adding a node's delay rounds the same as adding first.
pub(crate) fn naive_stage_delays(
    graph: &Graph,
    schedule: &Schedule,
    node_delays: &[Picos],
) -> Vec<Picos> {
    let mut worst: Vec<Picos> = vec![0.0; schedule.num_stages() as usize];
    let mut longest: Vec<Picos> = vec![0.0; graph.len()];
    for (id, node) in graph.iter() {
        let stage = schedule.cycle(id);
        let d = node_delays[id.index()];
        let mut best = d;
        for &p in &node.operands {
            if schedule.cycle(p) == stage {
                best = best.max(longest[p.index()] + d);
            }
        }
        longest[id.index()] = best;
        worst[stage as usize] = worst[stage as usize].max(best);
    }
    worst
}

/// Post-synthesis slack: clock period minus the slowest stage's measured
/// delay (Table I's "Slack" column).
pub fn post_synthesis_slack<O: DelayOracle + ?Sized>(
    graph: &Graph,
    schedule: &Schedule,
    oracle: &O,
    clock_period_ps: Picos,
) -> Picos {
    let worst = stage_sta_delays(graph, schedule, oracle).into_iter().fold(0.0, f64::max);
    clock_period_ps - worst
}

/// Mean relative estimation error across stages, in percent (Fig. 7's
/// metric): `mean(|estimated - measured| / measured)` over stages with
/// nonzero measured delay.
pub fn estimation_error_pct(estimated: &[Picos], measured: &[Picos]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (&e, &m) in estimated.iter().zip(measured) {
        if m > 0.0 {
            total += (e - m).abs() / m;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        100.0 * total / count as f64
    }
}

/// Convenience: the set of values crossing each stage boundary, as
/// `(node, bits_carried)` — useful for reports and debugging.
pub fn register_breakdown(graph: &Graph, schedule: &Schedule) -> Vec<(NodeId, u64)> {
    let mut out = Vec::new();
    for (id, node) in graph.iter() {
        let span = schedule.last_use_cycle(graph, id) - schedule.cycle(id);
        if span > 0 {
            out.push((id, node.width as u64 * span as u64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;
    use isdc_synth::SynthesisOracle;
    use isdc_techlib::TechLibrary;

    fn two_stage() -> (Graph, Schedule) {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let x = g.binary(OpKind::Mul, a, b).unwrap();
        let y = g.binary(OpKind::Add, x, b).unwrap();
        g.set_output(y);
        (g, Schedule::new(vec![0, 0, 0, 1]))
    }

    #[test]
    fn sta_delays_per_stage() {
        let (g, s) = two_stage();
        let oracle = SynthesisOracle::new(TechLibrary::sky130());
        let delays = stage_sta_delays(&g, &s, &oracle);
        assert_eq!(delays.len(), 2);
        assert!(delays[0] > delays[1], "mul stage slower than add stage");
    }

    #[test]
    fn estimated_delays_use_matrix() {
        let (g, s) = two_stage();
        let node_delays = [0.0, 0.0, 500.0, 200.0];
        let d = DelayMatrix::initialize(&g, &node_delays);
        let est = estimated_stage_delays(&g, &s, &d);
        assert_eq!(est, vec![500.0, 200.0]);
        // The mul's 500 ps sits in stage 0, so it must not lengthen the
        // add's stage-1 path, although the mul-to-add entry is 700 ps.
        assert_eq!(d.get(NodeId(2), NodeId(3)), Some(700.0));
        assert_eq!(naive_stage_delays(&g, &s, &node_delays), est);
    }

    #[test]
    fn naive_estimate_matches_the_initial_matrix_on_the_suite() {
        let model = isdc_synth::OpDelayModel::new(TechLibrary::sky130());
        let mut stages = 0;
        for b in isdc_benchsuite::suite() {
            let g = &b.graph;
            let node_delays = model.all_node_delays(g);
            let naive = DelayMatrix::initialize(g, &node_delays);
            for scale in [1.0, 1.5, 2.0] {
                let clock = b.clock_period_ps * scale;
                let s = crate::schedule_with_matrix(g, &naive, clock).unwrap();
                let fast = naive_stage_delays(g, &s, &node_delays);
                let slow = estimated_stage_delays(g, &s, &naive);
                let bits = |v: &[Picos]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "{} at {clock} ps", b.name);
                stages += s.num_stages();
            }
        }
        assert!(stages > 3 * 17, "some schedules must have several stages");
    }

    #[test]
    fn slack_is_clock_minus_worst_stage() {
        let (g, s) = two_stage();
        let oracle = SynthesisOracle::new(TechLibrary::sky130());
        let sta = stage_sta_delays(&g, &s, &oracle);
        let slack = post_synthesis_slack(&g, &s, &oracle, 5000.0);
        let worst = sta.iter().copied().fold(0.0, f64::max);
        assert!((slack - (5000.0 - worst)).abs() < 1e-9);
        assert!(slack > 0.0);
    }

    #[test]
    fn error_pct_basics() {
        assert_eq!(estimation_error_pct(&[100.0], &[100.0]), 0.0);
        assert!((estimation_error_pct(&[150.0], &[100.0]) - 50.0).abs() < 1e-9);
        // Zero-measured stages are skipped.
        assert_eq!(estimation_error_pct(&[10.0, 100.0], &[0.0, 100.0]), 0.0);
        assert_eq!(estimation_error_pct(&[], &[]), 0.0);
    }

    #[test]
    fn breakdown_matches_total() {
        let (g, s) = two_stage();
        let breakdown = register_breakdown(&g, &s);
        let total: u64 = breakdown.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, s.register_bits(&g));
        assert!(!breakdown.is_empty());
    }
}
