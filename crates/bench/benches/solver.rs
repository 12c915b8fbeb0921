//! LP-solver scaling benchmarks: Bellman-Ford feasibility and min-cost-flow
//! optimization over growing difference-constraint systems, the Alg. 2 vs
//! exhaustive-fixpoint reformulation cost (§III-D's O(n^2) vs O(n^3) trade),
//! and the headline cold-vs-warm comparison: a from-scratch LP rebuild +
//! cold solve against the incremental engine's dirty re-emission +
//! warm-started re-solve, per ISDC iteration, on every Table I design.
//!
//! The cold-vs-warm pass also writes `BENCH_solver.json` at the workspace
//! root with per-design per-iteration solve times, so the perf trajectory
//! of the solver is tracked across PRs. Set `ISDC_BENCH_QUICK=1` (CI does)
//! to run a reduced design subset with fewer rounds. The recorded
//! `speedup` fields come from the **median** of `repeats` timing runs
//! (min values are kept alongside); set `ISDC_BENCH_REPEAT=N` to change
//! the repeat count — criterion owns this binary's argv, so the repeat
//! knob is an environment variable rather than a `--repeat` flag.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isdc_benchsuite::{random_dag, Benchmark, RandomDagConfig};
use isdc_core::{
    schedule_with_matrix, DelayMatrix, DirtySet, IncrementalScheduler, ScheduleOptions,
};
use isdc_ir::NodeId;
use isdc_sdc::{minimize, DifferenceSystem, IncrementalSolver, VarId};
use isdc_synth::OpDelayModel;
use isdc_techlib::TechLibrary;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Row stores for the two passes that feed `BENCH_solver.json` — criterion
/// runs the groups sequentially in one process, and whichever pass finishes
/// later rewrites the document with everything collected so far.
static DESIGN_ROWS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static DRAIN_ROWS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Feedback rounds driven (and recorded) per mode — one definition so the
/// JSON's `feedback_rounds` always matches what `feedback_trace` ran.
fn feedback_rounds(quick: bool) -> usize {
    if quick {
        3
    } else {
        6
    }
}

/// Timing repetitions per measurement: `ISDC_BENCH_REPEAT` if set (min 1),
/// else 3 in quick mode and 5 in full mode. Recorded as `repeats` in the
/// document so the gate knows its floors were evaluated on medians.
fn timing_repeats(quick: bool) -> usize {
    std::env::var("ISDC_BENCH_REPEAT")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(if quick { 3 } else { 5 })
}

/// (Re)writes `BENCH_solver.json` from the accumulated row stores.
fn write_solver_json(quick: bool) {
    let rounds = feedback_rounds(quick);
    let designs = DESIGN_ROWS.lock().unwrap().join(",\n");
    let drains = DRAIN_ROWS.lock().unwrap().join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"solver\",\n  \"mode\": \"{}\",\n  \"feedback_rounds\": {},\n  \
         \"repeats\": {},\n  \
         \"unit\": \"ns per ISDC iteration re-solve (constraint emission + LP solve)\",\n  \
         \"designs\": [\n{}\n  ],\n  \"drain\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        rounds,
        timing_repeats(quick),
        designs,
        drains,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_solver.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}

/// Builds a feasible chain-plus-random system of `n` variables.
fn build_system(n: usize) -> (DifferenceSystem, Vec<i64>) {
    let mut sys = DifferenceSystem::new(n);
    let mut state = 0x5eed_5eedu64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in 1..n {
        sys.add_constraint(VarId(i as u32 - 1), VarId(i as u32), 0);
    }
    for _ in 0..2 * n {
        let u = rng() % n;
        let v = rng() % n;
        if u < v {
            sys.add_constraint(VarId(u as u32), VarId(v as u32), -((rng() % 3) as i64));
        }
    }
    // Minimize the span end - start: balanced weights.
    let mut weights = vec![0i64; n];
    weights[0] = -1;
    weights[n - 1] = 1;
    (sys, weights)
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("bellman_ford_feasibility");
    for n in [50usize, 200, 800] {
        let (sys, _) = build_system(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &sys, |bencher, sys| {
            bencher.iter(|| sys.solve_feasible().expect("feasible"));
        });
    }
    group.finish();
}

fn bench_lp_optimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcf_minimize");
    for n in [50usize, 200, 800] {
        let (sys, weights) = build_system(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &sys, |bencher, sys| {
            bencher.iter(|| minimize(sys, &weights).expect("solvable"));
        });
    }
    group.finish();
}

fn bench_reformulation(c: &mut Criterion) {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib);
    let mut group = c.benchmark_group("reformulation");
    group.sample_size(10);
    for num_ops in [50usize, 150, 400] {
        let g = random_dag(
            &RandomDagConfig { num_ops, num_params: 6, widths: vec![8, 16], with_muls: true },
            7,
        );
        let base = DelayMatrix::initialize(&g, &model.all_node_delays(&g));
        let members: Vec<_> = g.node_ids().take(num_ops / 2).collect();
        group.bench_with_input(BenchmarkId::new("alg2", num_ops), &g, |bencher, g| {
            bencher.iter(|| {
                let mut m = base.clone();
                m.apply_subgraph_feedback(&members, 500.0);
                m.reformulate(g)
            });
        });
        group.bench_with_input(BenchmarkId::new("alg2_worklist", num_ops), &g, |bencher, g| {
            bencher.iter(|| {
                let mut m = base.clone();
                let dirty = m.apply_subgraph_feedback(&members, 500.0);
                m.reformulate_incremental(g, &dirty)
            });
        });
        group.bench_with_input(BenchmarkId::new("exact_fixpoint", num_ops), &g, |bencher, g| {
            bencher.iter(|| {
                let mut m = base.clone();
                m.apply_subgraph_feedback(&members, 500.0);
                m.reformulate_exact(g)
            });
        });
    }
    group.finish();
}

/// A synthetic-but-shaped ISDC feedback trace: per round, eight overlapping
/// windows report 80% of their current worst pair delay (always a pure
/// relaxation, like Alg. 1 guarantees), followed by an incremental Alg. 2
/// pass with the dirty carry the driver uses.
struct FeedbackTrace {
    /// Matrix state after round `r` (index 0 = initial).
    matrices: Vec<DelayMatrix>,
    /// Dirty set accompanying the transition into `matrices[r + 1]`.
    dirties: Vec<DirtySet>,
}

fn feedback_trace(bench: &Benchmark, model: &OpDelayModel, rounds: usize) -> FeedbackTrace {
    let g = &bench.graph;
    let n = g.len();
    let mut m = DelayMatrix::initialize(g, &model.all_node_delays(g));
    let mut matrices = vec![m.clone()];
    let mut dirties = Vec::new();
    let mut carry = DirtySet::new(n);
    for r in 0..rounds {
        let mut dirty = DirtySet::new(n);
        for k in 0..8usize {
            let start = (r * 31 + k * 7) % n;
            let members: Vec<NodeId> =
                (start..(start + 6).min(n)).map(|i| NodeId(i as u32)).collect();
            let worst = members
                .iter()
                .flat_map(|&u| members.iter().map(move |&v| (u, v)))
                .filter_map(|(u, v)| m.get(u, v))
                .fold(0.0f64, f64::max);
            dirty.union(&m.apply_subgraph_feedback(&members, worst * 0.8));
        }
        dirty.union(&carry);
        carry = m.reformulate_incremental(g, &dirty);
        dirty.union(&carry);
        matrices.push(m.clone());
        dirties.push(dirty);
    }
    FeedbackTrace { matrices, dirties }
}

/// Sorted wall times of `runs` executions, in nanoseconds. Index 0 is the
/// min; `[len / 2]` the (upper) median the recorded speedups use.
fn sample_ns<R>(runs: usize, mut f: impl FnMut() -> R) -> Vec<u128> {
    let mut samples: Vec<u128> = (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples
}

/// The (upper) median of a sorted sample set.
fn median(samples: &[u128]) -> u128 {
    samples[samples.len() / 2]
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let quick = std::env::var_os("ISDC_BENCH_QUICK").is_some();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib);
    let suite = isdc_benchsuite::suite();
    let largest = suite.iter().map(|b| b.graph.len()).max().unwrap_or(0);
    let designs: Vec<&Benchmark> = suite
        .iter()
        .filter(|b| !quick || b.graph.len() < 150 || b.graph.len() == largest)
        .collect();
    let rounds = feedback_rounds(quick);
    let timing_runs = timing_repeats(quick);

    let mut group = c.benchmark_group("solver_cold_vs_warm");
    group.sample_size(10);
    let mut rows = Vec::new();
    for b in designs {
        let n = b.graph.len();
        let options = ScheduleOptions { clock_period_ps: b.clock_period_ps, max_stages: None };
        let trace = feedback_trace(b, &model, rounds);
        let last = trace.matrices.len() - 1;
        let final_m = &trace.matrices[last];
        let final_dirty = &trace.dirties[last - 1];
        // Prime the engine up to the state *before* the final round, so each
        // timed warm solve applies one genuine iteration's worth of deltas.
        let mut engine =
            IncrementalScheduler::new(&b.graph, &trace.matrices[0], &options).expect("schedulable");
        engine.reschedule(&b.graph, &trace.matrices[0], &DirtySet::new(n)).unwrap();
        for r in 0..last - 1 {
            engine.reschedule(&b.graph, &trace.matrices[r + 1], &trace.dirties[r]).unwrap();
        }
        let primed = engine;
        // Sanity: the timed paths must agree before we compare their speed.
        let cold_reference = schedule_with_matrix(&b.graph, final_m, b.clock_period_ps).unwrap();
        {
            let mut e = primed.clone();
            let warm = e.reschedule(&b.graph, final_m, final_dirty).unwrap();
            assert!(e.last_solve_was_warm(), "{}: final round should warm-start", b.name);
            assert_eq!(warm, cold_reference, "{}: warm diverged from cold", b.name);
        }
        group.bench_with_input(BenchmarkId::new("cold", b.name), b, |bencher, b| {
            bencher.iter(|| schedule_with_matrix(&b.graph, final_m, b.clock_period_ps).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("warm", b.name), b, |bencher, b| {
            bencher.iter(|| {
                // The clone (pure memcpy) stands in for state the driver
                // keeps alive; it biases against the warm path if anything.
                let mut e = primed.clone();
                e.reschedule(&b.graph, final_m, final_dirty).unwrap()
            });
        });
        let cold = sample_ns(timing_runs, || {
            schedule_with_matrix(&b.graph, final_m, b.clock_period_ps).unwrap()
        });
        let warm = sample_ns(timing_runs, || {
            let mut e = primed.clone();
            e.reschedule(&b.graph, final_m, final_dirty).unwrap()
        });
        let (cold_ns, warm_ns) = (cold[0], warm[0]);
        let (cold_median_ns, warm_median_ns) = (median(&cold), median(&warm));
        let speedup = cold_median_ns as f64 / warm_median_ns.max(1) as f64;
        // Sparsification composition and cold-drain search size of the LP
        // this design solves: a fresh build at the final (feedback-relaxed)
        // matrix, so emitted + pruned equals what the dense Eq. 2 emission
        // would have carried, and its first solve is the timed cold one.
        let mut fresh =
            IncrementalScheduler::new(&b.graph, final_m, &options).expect("schedulable");
        let sparsity = fresh.sparsify_stats();
        fresh.reschedule(&b.graph, final_m, &DirtySet::new(n)).unwrap();
        rows.push(format!(
            "    {{\"name\": \"{}\", \"nodes\": {}, \"clock_ps\": {}, \
             \"cold_solve_ns\": {}, \"warm_solve_ns\": {}, \
             \"cold_solve_median_ns\": {cold_median_ns}, \
             \"warm_solve_median_ns\": {warm_median_ns}, \"speedup\": {:.2}, \
             \"cold_nodes_settled\": {}, \
             \"constraints_emitted\": {}, \"constraints_pruned\": {}, \
             \"pruning_ratio\": {:.3}}}",
            b.name,
            n,
            b.clock_period_ps,
            cold_ns,
            warm_ns,
            speedup,
            fresh.last_drain_stats().nodes_settled,
            sparsity.constraints_emitted,
            sparsity.pruned(),
            sparsity.pruning_ratio()
        ));
    }
    group.finish();

    *DESIGN_ROWS.lock().unwrap() = rows;
    write_solver_json(quick);
}

/// A retarget-shaped difference system: a dependency chain of 0-bounds plus
/// sliding-window timing constraints that force spacing (Eq. 2 at a tight
/// clock), under a many-sourced register-style objective (`-1` on the first
/// half, `+1` on the second), so the dual routes `n/2` units of flow over
/// the timing arcs.
fn drain_workload(n: usize) -> (DifferenceSystem, Vec<i64>, Vec<usize>) {
    assert!(n.is_multiple_of(2), "balanced halves need an even n");
    let mut sys = DifferenceSystem::new(n);
    for i in 1..n {
        sys.add_constraint(VarId(i as u32 - 1), VarId(i as u32), 0);
    }
    let mut timing = Vec::new();
    for w in [2usize, 3, 5] {
        for i in 0..n - w {
            timing.push(sys.add_constraint(
                VarId(i as u32),
                VarId((i + w) as u32),
                -((w - 1) as i64),
            ));
        }
    }
    let weights: Vec<i64> = (0..n).map(|i| if i < n / 2 { -1 } else { 1 }).collect();
    (sys, weights, timing)
}

/// A **bulk retarget** (every timing bound relaxed one notch at once,
/// exactly what a clock-period step does to the warm engine) re-drained by
/// the retained serial reference SSP versus the solver's own drain. Both
/// paths produce bit-identical solutions; rows (`serial_ns`, `drain_ns`,
/// Dijkstra/path counts) go into `BENCH_solver.json`'s `drain` section for
/// the regression gate.
fn bench_drain(c: &mut Criterion) {
    let quick = std::env::var_os("ISDC_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick { &[200, 600] } else { &[200, 600, 1600] };
    let timing_runs = timing_repeats(quick);
    let mut group = c.benchmark_group("drain");
    group.sample_size(10);
    let mut rows = Vec::new();
    for &n in sizes {
        let (sys, weights, timing) = drain_workload(n);
        let mut primed = IncrementalSolver::new(sys.clone(), weights.clone()).expect("balanced");
        primed.solve().expect("solvable");
        let relax = |solver: &mut IncrementalSolver| {
            for &ci in &timing {
                let b = solver.bound(ci);
                solver.update_bound(ci, (b + 1).min(0));
            }
        };
        // Sanity + counters: both drains agree bit-for-bit on the retarget.
        let (drain_stats, serial_stats) = {
            let mut d = primed.clone();
            relax(&mut d);
            let drained = d.solve().unwrap();
            let mut s = primed.clone();
            s.use_reference_drain(true);
            relax(&mut s);
            let serial = s.solve().unwrap();
            assert_eq!(drained, serial, "n={n}: drains must be bit-identical");
            assert!(d.last_solve_was_warm() && s.last_solve_was_warm());
            (d.last_drain_stats(), s.last_drain_stats())
        };
        assert_eq!(
            drain_stats.dijkstras, drain_stats.paths,
            "n={n}: the drain runs one search per path: {drain_stats:?}"
        );
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |bencher, _| {
            bencher.iter(|| {
                let mut s = primed.clone();
                s.use_reference_drain(true);
                relax(&mut s);
                s.solve().unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("drain", n), &n, |bencher, _| {
            bencher.iter(|| {
                let mut s = primed.clone();
                relax(&mut s);
                s.solve().unwrap()
            });
        });
        let serial = sample_ns(timing_runs, || {
            let mut s = primed.clone();
            s.use_reference_drain(true);
            relax(&mut s);
            s.solve().unwrap()
        });
        let drain = sample_ns(timing_runs, || {
            let mut s = primed.clone();
            relax(&mut s);
            s.solve().unwrap()
        });
        let (serial_ns, drain_ns) = (serial[0], drain[0]);
        let (serial_median_ns, drain_median_ns) = (median(&serial), median(&drain));
        let speedup = serial_median_ns as f64 / drain_median_ns.max(1) as f64;
        rows.push(format!(
            "    {{\"n\": {n}, \"relaxed_arcs\": {}, \"serial_ns\": {serial_ns}, \
             \"drain_ns\": {drain_ns}, \"serial_median_ns\": {serial_median_ns}, \
             \"drain_median_ns\": {drain_median_ns}, \"speedup\": {speedup:.2}, \
             \"dijkstras_serial\": {}, \"dijkstras\": {}, \"paths\": {}}}",
            timing.len(),
            serial_stats.dijkstras,
            drain_stats.dijkstras,
            drain_stats.paths,
        ));
    }
    group.finish();

    *DRAIN_ROWS.lock().unwrap() = rows;
    write_solver_json(quick);
}

criterion_group!(
    benches,
    bench_feasibility,
    bench_lp_optimization,
    bench_reformulation,
    bench_cold_vs_warm,
    bench_drain
);
criterion_main!(benches);
