//! The batch engine's acceptance workload: the **full 17-design suite**,
//! one ascending clock-period sweep job per design, executed by
//! `isdc-batch` worker pools at increasing thread counts against the
//! serial session sweep baseline (one fresh private session per design —
//! the PR 3 workflow this subsystem replaces).
//!
//! The program
//!
//! 1. runs the serial baseline and each thread count's batch (every batch
//!    starts from its own cold shared cache, so thread counts compete
//!    fairly);
//! 2. verifies **bit-identity**: every batch schedule, at every thread
//!    count, equals the serial baseline's schedule at the same (design,
//!    period) point — the determinism guarantee the engine is built
//!    around;
//! 3. prints the scaling table and writes `BENCH_batch.json` at the
//!    workspace root (including `hardware_threads`: on a 1-core container
//!    the wall-clock scaling columns are necessarily flat — the speedup
//!    numbers mean what the hardware lets them mean).
//!
//! Run with: `cargo run --release --example batch_sweep`
//! (`ISDC_BATCH_QUICK=1` shrinks grids, iterations and thread counts for
//! CI.) Pass `-- --repeat N` (or set `ISDC_BATCH_REPEAT=N`) to run every
//! timed configuration N times and report the median run — the document
//! records `repeats`, so gate floors are evaluated on medians instead of
//! single noisy samples.

use isdc_batch::{
    render_batch_json, run_batch, serial_reference, BatchBenchDoc, BatchDesign, BatchOptions,
    BatchReport, Job, ScalingRow,
};
use isdc_cache::DelayCache;
use isdc_core::{linear_grid, sweep_clock_period_independent, IsdcConfig};
use isdc_synth::{OpDelayModel, SynthesisOracle};
use isdc_techlib::TechLibrary;
use std::path::Path;
use std::sync::Arc;

/// Panics with a clear message if any batch point diverges from serial.
fn assert_bit_identical(batch: &BatchReport, serial: &BatchReport, threads: usize) {
    for (b, s) in batch.jobs.iter().zip(&serial.jobs) {
        assert_eq!(b.points.len(), s.points.len(), "{}: point count", b.job.design);
        for (bp, sp) in b.points.iter().zip(&s.points) {
            assert_eq!(
                bp.schedule, sp.schedule,
                "{} at {}ps: batch({threads} threads) diverged from the serial session sweep",
                b.job.design, bp.clock_period_ps
            );
        }
        assert_eq!(b.min_period_ps, s.min_period_ps, "{}: min period", b.job.design);
    }
}

/// `--repeat N` argument, falling back to `ISDC_BATCH_REPEAT`, default 1.
fn parse_repeats() -> usize {
    let mut args = std::env::args().skip(1);
    let mut repeats: Option<usize> = None;
    while let Some(a) = args.next() {
        if a == "--repeat" {
            repeats = args.next().and_then(|v| v.parse().ok());
        }
    }
    repeats
        .or_else(|| std::env::var("ISDC_BATCH_REPEAT").ok().and_then(|v| v.parse().ok()))
        .map_or(1, |n: usize| n.max(1))
}

/// Runs a timed configuration `repeats` times and keeps the run with the
/// median wall-clock (upper median for even N), so the reported document
/// is an actual measured run, internally consistent — not a blend.
fn median_run<E>(
    repeats: usize,
    mut run: impl FnMut() -> Result<BatchReport, E>,
) -> Result<BatchReport, E> {
    let mut reports: Vec<BatchReport> = (0..repeats).map(|_| run()).collect::<Result<_, _>>()?;
    reports.sort_by_key(|r| r.elapsed);
    let mid = reports.len() / 2;
    Ok(reports.swap_remove(mid))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var_os("ISDC_BATCH_QUICK").is_some();
    let repeats = parse_repeats();
    let suite = isdc_benchsuite::suite();
    let points = if quick { 4 } else { 10 };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);

    let designs: Vec<BatchDesign> = suite
        .iter()
        .map(|b| {
            let mut base = IsdcConfig::paper_defaults(b.clock_period_ps);
            base.max_iterations = if quick { 3 } else { 8 };
            // Outer (job-level) parallelism replaces inner evaluation
            // threads: one core per worker.
            base.threads = 1;
            BatchDesign { name: b.name.to_string(), graph: b.graph.clone(), base }
        })
        .collect();
    let jobs: Vec<Job> = suite
        .iter()
        .map(|b| {
            Job::sweep(b.name, linear_grid(b.clock_period_ps, b.clock_period_ps * 2.0, points))
        })
        .collect();
    let total_points: usize = jobs.iter().map(Job::planned_points).sum();
    println!(
        "{} designs x {points} periods = {total_points} runs ({}, {hardware} hardware threads, \
         median of {repeats})",
        designs.len(),
        if quick { "quick" } else { "full" },
    );

    // Serial session sweep: the baseline every speedup is measured against
    // and every schedule is compared against.
    let serial = median_run(repeats, || serial_reference(&designs, &jobs, &model, &oracle))?;
    println!("serial session sweep: {:.2?}", serial.elapsed);

    // Independent runs (no cache, no session, nothing shared across
    // points): what per-point `run_isdc` calls cost, for the long-lever
    // speedup.
    let mut independent_samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = std::time::Instant::now();
        for ((design, job), serial_job) in designs.iter().zip(&jobs).zip(&serial.jobs) {
            let isdc_batch::JobKind::Sweep { periods } = &job.kind else { unreachable!() };
            let points = sweep_clock_period_independent(
                &design.graph,
                &model,
                &oracle,
                &design.base,
                periods,
            )?;
            for (i, s) in points.iter().zip(&serial_job.points) {
                assert_eq!(
                    i.schedule, s.schedule,
                    "{} at {}ps: serial session diverged from the independent runs",
                    design.name, i.clock_period_ps
                );
            }
        }
        independent_samples.push(start.elapsed());
    }
    independent_samples.sort();
    let independent_total = independent_samples[independent_samples.len() / 2];
    println!("independent runs: {independent_total:.2?}");

    let mut scaling: Vec<ScalingRow> = Vec::new();
    let mut last: Option<BatchReport> = None;
    for &threads in thread_counts {
        let report = median_run(repeats, || {
            // Every repeat starts from its own cold shared cache, like the
            // thread counts themselves, so repeats measure the same thing.
            let cache = Arc::new(DelayCache::new());
            let options = BatchOptions { threads, shard_points: 0, ..Default::default() };
            run_batch(&designs, &jobs, &options, &model, &oracle, &cache)
        })?;
        // Execution failures surface per job since the fault-tolerance
        // rework; a bench run tolerates none (and the rendered document's
        // jobs_failed/jobs_retried/jobs_timed_out fields attest it to the
        // gate).
        assert!(report.all_ok(), "batch @ {threads} threads had failed jobs");
        assert_eq!(report.jobs_retried(), 0, "a bench must not need retries");
        assert_eq!(report.jobs_timed_out(), 0, "no deadlines are armed, nothing may time out");
        assert_bit_identical(&report, &serial, threads);
        println!(
            "batch @ {threads} threads: {:.2?} ({:.2}x vs serial, {:.1}x vs independent, \
             {} shards, {:.1}% fleet cache hit rate)",
            report.elapsed,
            serial.elapsed.as_secs_f64() / report.elapsed.as_secs_f64().max(1e-9),
            independent_total.as_secs_f64() / report.elapsed.as_secs_f64().max(1e-9),
            report.shards,
            report.cache_hit_rate() * 100.0,
        );
        scaling.push(ScalingRow { threads, total: report.elapsed });
        last = Some(report);
    }
    let report = last.expect("at least one thread count measured");
    println!("all {} schedules bit-identical to the serial baseline", total_points);

    println!("\ndesign                       | shards | points | hit rate | elapsed");
    for job in &report.jobs {
        println!(
            "{:<28} | {:>6} | {:>6} | {:>7.1}% | {:.1?}",
            job.job.design,
            job.shards,
            job.points.len(),
            job.cache_hit_rate() * 100.0,
            job.elapsed,
        );
    }

    let doc = BatchBenchDoc {
        mode: if quick { "quick" } else { "full" },
        designs: designs.len(),
        report: &report,
        hardware_threads: hardware,
        repeats,
        serial_total: Some(serial.elapsed),
        independent_total: Some(independent_total),
        scaling: &scaling,
        bit_identical: true,
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_batch.json");
    std::fs::write(&out, render_batch_json(&doc))?;
    println!("wrote {}", out.display());
    Ok(())
}
