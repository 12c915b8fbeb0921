//! Clock-period sweep of the largest benchmark through a persistent
//! [`IsdcSession`], against an independent-runs baseline.
//!
//! This is the acceptance workload for the session engine: a 10-point
//! linear sweep (plus the minimum feasible period, scheduled once),
//! where every point after the first reuses the previous points' oracle
//! evaluations (delay cache) and LP state (engine retarget / potentials).
//! The baseline, **independent**, is one `run_isdc` call per period: each
//! run re-solves its own iterations warm, but nothing is shared across
//! runs. The gap to it is exactly what cross-run persistence buys.
//!
//! The baseline runs `run_isdc` with its defaults, per-iteration oracle
//! metrics included — that is what a user doing per-point runs gets —
//! while the session sweep skips those metrics on non-final points
//! (`IsdcConfig::iteration_metrics`). The speedups therefore measure the
//! *product* gap (session sweep vs naive per-point runs), not the solver
//! in isolation; `BENCH_solver.json` holds the engine-only comparison.
//!
//! The program verifies bit-identity against the baseline point by point,
//! prints per-run reuse statistics, and writes `BENCH_sweep.json` at the
//! workspace root.
//!
//! Run with: `cargo run --example period_sweep --release`
//! (`ISDC_SWEEP_QUICK=1` shrinks the grid and iteration budget for CI.)

use isdc_core::{
    linear_grid, min_feasible_period, render_sweep_json, sweep_clock_period,
    sweep_clock_period_independent, IsdcConfig, IsdcSession,
};
use isdc_synth::{OpDelayModel, SynthesisOracle};
use isdc_techlib::TechLibrary;
use std::path::Path;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var_os("ISDC_SWEEP_QUICK").is_some();
    let suite = isdc_benchsuite::suite();
    let bench = suite.iter().max_by_key(|b| b.graph.len()).expect("suite is nonempty");
    let g = &bench.graph;
    let points = if quick { 4 } else { 10 };
    let mut base = IsdcConfig::paper_defaults(bench.clock_period_ps);
    base.max_iterations = if quick { 3 } else { 8 };
    println!(
        "{}: {} nodes, {} sweep points from {}ps to {}ps ({})",
        bench.name,
        g.len(),
        points,
        bench.clock_period_ps,
        bench.clock_period_ps * 2.0,
        if quick { "quick" } else { "full" },
    );

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let periods = linear_grid(bench.clock_period_ps, bench.clock_period_ps * 2.0, points);

    // Session sweep: one persistent engine across all points, ascending so
    // each point warm-starts from its tighter neighbour.
    let mut session = IsdcSession::new(g, &model, &oracle);
    let t = Instant::now();
    let warm = sweep_clock_period(&mut session, &base, &periods)?;
    let session_time = t.elapsed();

    // Baseline: independent runs, nothing shared across points.
    let t = Instant::now();
    let independent = sweep_clock_period_independent(g, &model, &oracle, &base, &periods)?;
    let independent_time = t.elapsed();

    // The non-negotiable property before any speed talk: bit-identity
    // against the baseline at every point.
    for (w, i) in warm.iter().zip(&independent) {
        assert_eq!(
            w.schedule, i.schedule,
            "session diverged from the independent baseline at {}ps",
            w.clock_period_ps
        );
    }

    println!("\nclock_ps | bits | stages | iters | warm | hit rate | session |  indep");
    for (w, i) in warm.iter().zip(&independent) {
        println!(
            "{:>8.0} | {:>4} | {:>6} | {:>5} | {:>4} | {:>7.1}% | {:>6.1?} | {:>6.1?}",
            w.clock_period_ps,
            w.register_bits,
            w.num_stages,
            w.iterations,
            if w.warm_start { "yes" } else { "no" },
            w.cache_hit_rate() * 100.0,
            w.elapsed,
            i.elapsed,
        );
    }
    let speedup_indep = independent_time.as_secs_f64() / session_time.as_secs_f64().max(1e-9);
    println!(
        "\nsweep totals: session {session_time:.1?} | vs independent runs \
         {independent_time:.1?} ({speedup_indep:.1}x); all {points} schedules bit-identical"
    );

    // The minimum feasible period: bisected on the largest op delay, then
    // one run at the answer through the same (cache-warm) session.
    let search = min_feasible_period(&mut session, &base, 1.0, bench.clock_period_ps, 10.0)?;
    match (search.min_period_ps, search.floor) {
        (Some(p), Some((node, delay))) => println!(
            "minimum feasible period: {p:.0}ps (floor {delay:.1}ps, the delay of {node}; \
             {} bits, {} stages there)",
            search.point.register_bits, search.point.num_stages,
        ),
        _ => println!("design infeasible even at {}ps", bench.clock_period_ps),
    }

    let json = render_sweep_json(
        bench.name,
        g.len(),
        if quick { "quick" } else { "full" },
        &warm,
        &[("independent", &independent)],
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_sweep.json");
    std::fs::write(&out, json)?;
    println!("wrote {}", out.display());
    Ok(())
}
