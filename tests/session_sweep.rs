//! The session/sweep acceptance property: a persistent [`IsdcSession`] is a
//! pure accelerator. A clock-period sweep through one session must produce
//! **bit-identical schedules** to independent `run_isdc` calls at every
//! period point, while actually reusing work (cache hits, warm LP starts)
//! from the second point on — and the learned state must survive a snapshot
//! round-trip to disk.

use isdc::benchsuite::{random_dag, RandomDagConfig};
use isdc::core::{
    linear_grid, min_feasible_period, run_isdc, sweep_clock_period, sweep_clock_period_independent,
    IsdcConfig, IsdcSession, ScheduleError,
};
use isdc::synth::{OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use std::path::PathBuf;

fn quick(clock: f64) -> IsdcConfig {
    IsdcConfig {
        subgraphs_per_iteration: 8,
        max_iterations: 4,
        threads: 2,
        ..IsdcConfig::paper_defaults(clock)
    }
}

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("isdc-session-sweep-{tag}-{}.json", std::process::id()))
}

#[test]
fn session_sweep_is_bit_identical_to_independent_runs_at_every_point() {
    let suite = isdc::benchsuite::suite();
    let bench = suite.iter().find(|b| b.name == "ml_core_datapath2").expect("present");
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let base = quick(bench.clock_period_ps);
    let periods = linear_grid(bench.clock_period_ps, bench.clock_period_ps * 1.8, 5);

    let mut session = IsdcSession::new(&bench.graph, &model, &oracle);
    let warm = sweep_clock_period(&mut session, &base, &periods).expect("session sweep");
    let independent =
        sweep_clock_period_independent(&bench.graph, &model, &oracle, &base, &periods)
            .expect("independent sweep");

    assert_eq!(warm.len(), periods.len());
    assert_eq!(independent.len(), periods.len());
    for (w, i) in warm.iter().zip(&independent) {
        assert_eq!(w.clock_period_ps, i.clock_period_ps);
        assert!(w.feasible && i.feasible, "grid starts at the design clock: all feasible");
        assert_eq!(
            w.schedule, i.schedule,
            "schedules diverged at {}ps — the session must be invisible in results",
            w.clock_period_ps
        );
        assert_eq!(w.register_bits, i.register_bits, "at {}ps", w.clock_period_ps);
        assert_eq!(w.num_stages, i.num_stages, "at {}ps", w.clock_period_ps);
        assert_eq!(w.iterations, i.iterations, "at {}ps", w.clock_period_ps);
    }

    // And the session must actually be reusing work after the first point.
    assert!(!warm[0].warm_start, "nothing to import at the first point");
    assert!(
        warm[1..].iter().all(|p| p.warm_start),
        "ascending points must warm-start from a stored neighbour: {:?}",
        warm.iter().map(|p| p.warm_start).collect::<Vec<_>>()
    );
    for p in &warm[1..] {
        assert!(
            p.cache_hit_rate() > 0.5,
            "neighbouring periods share most subgraphs ({}ps: {:.2})",
            p.clock_period_ps,
            p.cache_hit_rate()
        );
    }
    assert!(independent.iter().all(|p| !p.warm_start && p.cache_hits == 0));
}

#[test]
fn session_state_survives_a_snapshot_roundtrip() {
    let suite = isdc::benchsuite::suite();
    let bench = suite.iter().min_by_key(|b| b.graph.len()).expect("nonempty");
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let base = quick(bench.clock_period_ps);
    let path = snapshot_path(bench.name);
    let _ = std::fs::remove_file(&path);

    let first = {
        let mut session = IsdcSession::new(&bench.graph, &model, &oracle);
        let run = session.run(&base).expect("first run");
        assert!(!run.warm_start);
        session.save_snapshot(&path).expect("snapshot written");
        run
    };

    // A brand-new session (fresh process, conceptually) restores both the
    // delay entries and the potentials from the snapshot.
    let resumed = IsdcSession::new(&bench.graph, &model, &oracle);
    assert!(resumed.load_snapshot(&path).expect("snapshot read") > 0);
    let mut resumed = resumed;
    let second = resumed.run(&base).expect("resumed run");
    let _ = std::fs::remove_file(&path);

    assert_eq!(second.result.schedule, first.result.schedule);
    assert!(second.warm_start, "persisted potentials must warm the resumed run");
    assert!(second.result.history[0].solver_warm, "the initial solve itself goes warm");
    assert_eq!(second.cache_misses, 0, "persisted entries must serve every evaluation");
}

#[test]
fn min_feasible_period_search_finds_the_timing_floor() {
    let suite = isdc::benchsuite::suite();
    let bench = suite.iter().min_by_key(|b| b.graph.len()).expect("nonempty");
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let base = quick(bench.clock_period_ps);
    let mut session = IsdcSession::new(&bench.graph, &model, &oracle);

    let tol = 5.0;
    let search =
        min_feasible_period(&mut session, &base, 1.0, bench.clock_period_ps, tol).expect("search");
    let found = search.min_period_ps.expect("the design clock is feasible");

    // The analytic floor: feasibility only fails when a single op exceeds
    // the period, so the minimum is the largest naive node delay.
    let floor = model.all_node_delays(&bench.graph).into_iter().fold(0.0f64, f64::max);
    assert!(found >= floor, "found {found}ps below the analytic floor {floor}ps");
    assert!(found - floor <= tol, "search stopped {found}ps, floor {floor}ps, tol {tol}ps");
    assert_eq!(search.floor.map(|(_, delay)| delay), Some(floor), "the search names its floor");
    // The search's one record is the run at its answer.
    assert_eq!(session.runs_completed(), 1, "the search runs ISDC once");
    assert_eq!(search.point.clock_period_ps, found);
    assert!(search.point.feasible);

    // Spot-check against a direct run: feasible at `found`, infeasible at
    // the floor minus a hair.
    assert!(run_isdc(&bench.graph, &model, &oracle, &quick(found)).is_ok());
    assert!(run_isdc(&bench.graph, &model, &oracle, &quick(floor - 1.0)).is_err());
}

/// Golden answers, read from the bisection over full ISDC runs that the
/// closed-form search replaced: the two searches of the benchmark's `batch`
/// workload and CI's batch-spec search. The answers depend only on the
/// naive node delays, so a cheap iteration budget pins them as well as the
/// full one does.
#[test]
fn min_period_answers_match_golden_pins() {
    let suite = isdc::benchsuite::suite();
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    for (design, lo, hi, answer) in [
        ("crc32", 250.0, 2500.0, 346.6796875f64),
        ("sha256", 250.0, 2500.0, 1190.4296875),
        ("ml_core_datapath1", 1.0, 2500.0, 1650.73046875),
    ] {
        let bench = suite.iter().find(|b| b.name == design).expect("a suite design");
        let base = IsdcConfig {
            subgraphs_per_iteration: 8,
            max_iterations: 2,
            threads: 1,
            ..IsdcConfig::paper_defaults(bench.clock_period_ps)
        };
        let mut session = IsdcSession::new(&bench.graph, &model, &oracle);
        let search = min_feasible_period(&mut session, &base, lo, hi, 10.0).expect("search");
        let found = search.min_period_ps.expect("hi is feasible");
        assert_eq!(found.to_bits(), answer.to_bits(), "{design}: found {found:?}ps");
        // The one record is exactly the independent run at the answer.
        let config = IsdcConfig { clock_period_ps: found, iteration_metrics: false, ..base };
        let independent = run_isdc(&bench.graph, &model, &oracle, &config).expect("feasible");
        assert_eq!(search.point.clock_period_ps, found, "{design}");
        assert_eq!(search.point.schedule.as_ref(), Some(&independent.schedule), "{design}");
    }
}

/// The predicate the search bisects on, checked against real runs: a run
/// at the largest naive node delay succeeds, and a run at the next double
/// below fails with `OperationExceedsClock` naming the session's floor
/// node — on every suite design and on seeded random DAGs.
#[test]
fn period_feasibility_is_the_largest_node_delay() {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let suite = isdc::benchsuite::suite();
    let random: Vec<_> =
        (0..24).map(|seed| random_dag(&RandomDagConfig::default(), seed)).collect();
    let config = |clock: f64| IsdcConfig {
        subgraphs_per_iteration: 4,
        max_iterations: 1,
        threads: 1,
        ..IsdcConfig::paper_defaults(clock)
    };
    for graph in suite.iter().map(|b| &b.graph).chain(&random) {
        let d_max = model.all_node_delays(graph).into_iter().fold(0.0f64, f64::max);
        let (node, floor) =
            IsdcSession::new(graph, &model, &oracle).timing_floor().expect("a nonempty graph");
        assert_eq!(floor.to_bits(), d_max.to_bits(), "{}", graph.name());
        if let Err(e) = run_isdc(graph, &model, &oracle, &config(d_max)) {
            panic!("{}: a run at the floor {d_max}ps failed: {e}", graph.name());
        }
        let below = f64::from_bits(d_max.to_bits() - 1);
        match run_isdc(graph, &model, &oracle, &config(below)).map(|_| ()) {
            Err(ScheduleError::OperationExceedsClock { node: n, delay_ps, .. }) => {
                assert_eq!((n, delay_ps.to_bits()), (node, d_max.to_bits()), "{}", graph.name());
            }
            other => panic!("{}: expected OperationExceedsClock, got {other:?}", graph.name()),
        }
    }
}
