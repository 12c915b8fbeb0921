//! The batch engine's acceptance property: **parallel batch output is
//! bit-identical to the serial session sweep for every job** — any thread
//! count, any shard size, any job mix, shared fleet cache and all. Plus the
//! seams around it: spec-file roundtrips driving the engine, snapshot
//! preloading, and failure reporting.

use isdc::batch::{
    parse_jobs, plan_shards, render_jobs, run_batch, serial_reference, BatchDesign, BatchError,
    BatchOptions, Job, JobKind,
};
use isdc::cache::DelayCache;
use isdc::core::{
    linear_grid, min_feasible_period, sweep_clock_period, IsdcConfig, IsdcSession, SweepPoint,
};
use isdc::synth::{DelayOracle, OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic helper RNG (same recipe the sibling crates' proptests use).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// The smallest suite designs — job mixes over them stay fast while still
/// exercising real scheduling, feedback and infeasibility.
fn small_designs(max_iterations: usize) -> Vec<BatchDesign> {
    let mut suite = isdc::benchsuite::suite();
    suite.sort_by_key(|b| b.graph.len());
    suite
        .into_iter()
        .take(4)
        .map(|b| {
            let mut base = IsdcConfig::paper_defaults(b.clock_period_ps);
            base.max_iterations = max_iterations;
            base.subgraphs_per_iteration = 8;
            base.threads = 1;
            BatchDesign { name: b.name.to_string(), graph: b.graph, base }
        })
        .collect()
}

/// The serial session sweep the guarantee is stated against, executed
/// through the *public core API* (one fresh session per job, exactly what
/// a user would write without the batch engine).
fn serial_points(design: &BatchDesign, kind: &JobKind) -> Vec<SweepPoint> {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut session = IsdcSession::new(&design.graph, &model, &oracle);
    match kind {
        JobKind::Sweep { periods } => {
            sweep_clock_period(&mut session, &design.base, periods).expect("serial sweep")
        }
        JobKind::MinPeriod { lo, hi, tol_ps } => {
            vec![
                min_feasible_period(&mut session, &design.base, *lo, *hi, *tol_ps)
                    .expect("serial search")
                    .point,
            ]
        }
    }
}

/// A random mix of sweep jobs (ascending, descending, repeated periods —
/// some dipping below the feasibility floor) and min-period searches.
fn arbitrary_mix() -> impl Strategy<Value = (Vec<Job>, usize, usize, u64)> {
    (any::<u64>(), 1usize..5, 0usize..4).prop_map(|(seed, threads, shard_points)| {
        let designs = small_designs(3);
        let mut state = seed;
        let n_jobs = 2 + (lcg(&mut state) as usize % 4);
        let jobs: Vec<Job> = (0..n_jobs)
            .map(|_| {
                let d = &designs[lcg(&mut state) as usize % designs.len()];
                let clock = d.base.clock_period_ps;
                match lcg(&mut state) % 4 {
                    0 => Job::min_period(&d.name, 1.0, clock, 50.0),
                    1 => {
                        // Descending grid, possibly dipping infeasible.
                        let lo = clock * (0.2 + 0.2 * (lcg(&mut state) % 3) as f64);
                        let mut periods = linear_grid(lo, clock, 3);
                        periods.reverse();
                        Job::sweep(&d.name, periods)
                    }
                    2 => {
                        // Repeats: re-runs must replay purely from cache.
                        Job::sweep(&d.name, vec![clock, clock * 1.4, clock])
                    }
                    _ => {
                        let points = 2 + (lcg(&mut state) as usize % 3);
                        Job::sweep(&d.name, linear_grid(clock, clock * 1.8, points))
                    }
                }
            })
            .collect();
        (jobs, threads, shard_points, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole guarantee, against randomized job mixes, thread counts
    /// and shard sizes.
    #[test]
    fn batch_is_bit_identical_to_serial_session_sweeps(
        (jobs, threads, shard_points, seed) in arbitrary_mix()
    ) {
        let designs = small_designs(3);
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let cache = Arc::new(DelayCache::new());
        let options = BatchOptions { threads, shard_points, ..Default::default() };
        let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache)
            .expect("batch run");
        prop_assert_eq!(report.jobs.len(), jobs.len());
        for result in &report.jobs {
            let design = designs.iter().find(|d| d.name == result.job.design).expect("resolved");
            let reference = serial_points(design, &result.job.kind);
            prop_assert_eq!(result.points.len(), reference.len(),
                "{} (seed {seed}): point count", &result.job.design);
            for (b, s) in result.points.iter().zip(&reference) {
                prop_assert_eq!(b.clock_period_ps, s.clock_period_ps);
                prop_assert_eq!(b.feasible, s.feasible,
                    "{} at {}ps (seed {seed})", &result.job.design, b.clock_period_ps);
                prop_assert_eq!(&b.schedule, &s.schedule,
                    "{} at {}ps (seed {seed}): batch diverged from the serial session sweep",
                    &result.job.design, b.clock_period_ps);
            }
        }
    }
}

#[test]
fn spec_file_roundtrip_drives_the_engine() {
    let designs = small_designs(3);
    let spec = render_jobs(&[
        Job::sweep(&designs[0].name, vec![designs[0].base.clock_period_ps]),
        Job::min_period(&designs[1].name, 1.0, designs[1].base.clock_period_ps, 50.0),
    ]);
    let jobs = parse_jobs(&spec).expect("roundtrip");
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let cache = Arc::new(DelayCache::new());
    let report = run_batch(
        &designs,
        &jobs,
        &BatchOptions { threads: 2, ..Default::default() },
        &model,
        &oracle,
        &cache,
    )
    .expect("batch");
    assert!(report.jobs[0].points[0].feasible);
    let found = report.jobs[1].min_period_ps.expect("design clock is feasible");
    let floor = report.jobs[1].floor_ps.expect("a search reports its floor");
    assert!(found >= floor && found - floor <= 50.0, "found {found}ps, floor {floor}ps");
    // The same one record the serial search makes: the run at its answer.
    let serial = serial_points(&designs[1], &jobs[1].kind);
    assert_eq!(serial.len(), 1);
    assert_eq!(report.jobs[1].points.len(), 1);
    let (batch, serial) = (&report.jobs[1].points[0], &serial[0]);
    assert_eq!(batch.clock_period_ps, found);
    assert_eq!(serial.clock_period_ps, found);
    assert!(batch.feasible && serial.feasible);
    assert_eq!(batch.schedule, serial.schedule);
}

#[test]
fn preloaded_snapshot_accelerates_without_changing_schedules() {
    let designs = small_designs(4);
    let jobs: Vec<Job> = designs
        .iter()
        .map(|d| {
            Job::sweep(
                &d.name,
                linear_grid(d.base.clock_period_ps, d.base.clock_period_ps * 1.6, 3),
            )
        })
        .collect();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let options = BatchOptions { threads: 2, shard_points: 2, ..Default::default() };

    // First batch fills a cache; its snapshot preloads a fresh one (the
    // path `batch --cache-file` takes) and a re-run replays everything.
    let first_cache = Arc::new(DelayCache::new());
    let first = run_batch(&designs, &jobs, &options, &model, &oracle, &first_cache).unwrap();
    let preloaded = Arc::new(DelayCache::new());
    let snapshot = first_cache.to_json(oracle.name());
    assert_eq!(preloaded.merge_json(&snapshot, oracle.name()), Ok(first_cache.len()));
    let second = run_batch(&designs, &jobs, &options, &model, &oracle, &preloaded).unwrap();
    assert_eq!(second.cache.misses, 0, "a preloaded fleet cache must serve every evaluation");
    assert!(second.cache_hit_rate() == 1.0);
    for (a, b) in first.jobs.iter().zip(&second.jobs) {
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.schedule, pb.schedule, "preloading must not change schedules");
        }
    }
    // And the engine's own serial reference agrees with both.
    let serial = serial_reference(&designs, &jobs, &model, &oracle).unwrap();
    for (a, s) in second.jobs.iter().zip(&serial.jobs) {
        for (pa, ps) in a.points.iter().zip(&s.points) {
            assert_eq!(pa.schedule, ps.schedule);
        }
    }
}

#[test]
fn unknown_design_fails_before_any_work() {
    let designs = small_designs(3);
    let jobs = vec![Job::sweep("no_such_design", vec![2500.0])];
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let cache = Arc::new(DelayCache::new());
    let err =
        run_batch(&designs, &jobs, &BatchOptions::default(), &model, &oracle, &cache).unwrap_err();
    assert_eq!(err, BatchError::UnknownDesign { job: 0, design: "no_such_design".into() });
    assert!(cache.is_empty(), "planning failures must not schedule anything");
}

#[test]
fn sharding_splits_only_sweeps_and_respects_the_cap() {
    let designs = small_designs(3);
    let clock = designs[0].base.clock_period_ps;
    let jobs = vec![
        Job::sweep(&designs[0].name, linear_grid(clock, clock * 2.0, 7)),
        Job::min_period(&designs[1].name, 1.0, designs[1].base.clock_period_ps, 50.0),
    ];
    let shards = plan_shards(
        &designs,
        &jobs,
        &BatchOptions { threads: 3, shard_points: 3, ..Default::default() },
    )
    .unwrap();
    assert_eq!(shards.len(), 4, "ceil(7/3) sweep shards + 1 search shard");
    let mut rebuilt: Vec<f64> = Vec::new();
    for s in &shards {
        if let (0, JobKind::Sweep { periods }) = (s.job, &s.kind) {
            assert!(periods.len() <= 3);
            rebuilt.extend(periods);
        }
    }
    assert_eq!(rebuilt, linear_grid(clock, clock * 2.0, 7), "chunks must stitch back in order");
}

#[test]
fn per_run_cache_counts_sum_to_the_fleet_under_two_workers() {
    // One-point shards on two workers, so runs of the same design overlap
    // in the shared cache. Each run counts only its own lookups, so the
    // points, the fleet frame and the cache's own counters agree.
    let designs = small_designs(4);
    let jobs: Vec<Job> = designs
        .iter()
        .map(|d| {
            let clock = d.base.clock_period_ps;
            Job::sweep(&d.name, linear_grid(clock, clock * 1.6, 4))
        })
        .collect();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let cache = Arc::new(DelayCache::new());
    let options = BatchOptions { threads: 2, shard_points: 1, ..Default::default() };
    let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache).unwrap();
    let points = || report.jobs.iter().flat_map(|j| &j.points);
    assert_eq!(points().count(), 16);
    assert!(report.cache.hits > 0 && report.cache.misses > 0, "{:?}", report.cache);
    assert_eq!(points().map(|p| p.cache_hits).sum::<u64>(), report.cache.hits);
    assert_eq!(points().map(|p| p.cache_misses).sum::<u64>(), report.cache.misses);
    assert_eq!(report.metrics.total_of("hits"), report.cache.hits);
    assert_eq!(report.metrics.total_of("misses"), report.cache.misses);
}
