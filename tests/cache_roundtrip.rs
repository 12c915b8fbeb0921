//! Acceptance test for the isdc-cache subsystem: running ISDC on a
//! benchsuite design twice against the same persistent cache file must (a)
//! produce exactly the schedules an uncached run produces, and (b) serve the
//! second run mostly from the snapshot, with a strictly positive hit rate.

use isdc::cache::CacheStats;
use isdc::core::{run_isdc, IsdcConfig, IsdcResult};
use isdc::synth::{OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use std::path::PathBuf;

fn fresh_snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("isdc-cache-roundtrip-{tag}-{}.json", std::process::id()))
}

/// A cached run's cache traffic, read from its metrics frame.
fn cache_traffic(run: &IsdcResult) -> CacheStats {
    let counter = |key| run.metrics.counter(key).expect("a cached run records its cache traffic");
    CacheStats {
        hits: counter("cache/hits"),
        misses: counter("cache/misses"),
        inserts: counter("cache/inserts"),
        evictions: 0,
    }
}

#[test]
fn persistent_cache_preserves_results_and_hits_on_second_run() {
    let suite = isdc::benchsuite::suite();
    let bench = suite.iter().min_by_key(|b| b.graph.len()).expect("suite is nonempty");
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);

    let base = IsdcConfig {
        subgraphs_per_iteration: 8,
        max_iterations: 4,
        threads: 2,
        ..IsdcConfig::paper_defaults(bench.clock_period_ps)
    };
    let path = fresh_snapshot_path(bench.name);
    let _ = std::fs::remove_file(&path);

    let uncached = run_isdc(&bench.graph, &model, &oracle, &base).expect("uncached run schedules");

    let cached_config = base.clone().with_cache(Some(path.clone()));
    let first = run_isdc(&bench.graph, &model, &oracle, &cached_config)
        .expect("first cached run schedules");
    assert!(path.exists(), "snapshot must be written after the run");

    let second = run_isdc(&bench.graph, &model, &oracle, &cached_config)
        .expect("second cached run schedules");
    let _ = std::fs::remove_file(&path);

    // (a) Caching must be invisible in the results.
    for (label, run) in [("first cached", &first), ("second cached", &second)] {
        assert_eq!(
            run.schedule, uncached.schedule,
            "{label}: schedule diverged from the uncached run"
        );
        assert_eq!(
            run.schedule.register_bits(&bench.graph),
            uncached.schedule.register_bits(&bench.graph),
            "{label}: register bits diverged"
        );
        assert_eq!(
            run.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
            uncached.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
            "{label}: per-iteration trajectory diverged"
        );
    }

    // (b) The snapshot must make the second run strictly warmer.
    let stats1 = cache_traffic(&first);
    let stats2 = cache_traffic(&second);
    assert!(stats2.hits > 0, "second run must hit the persisted cache: {stats2:?}");
    assert!(
        stats2.hit_rate() > stats1.hit_rate() || stats1.hit_rate() == 1.0,
        "persisted entries must raise the hit rate: {stats1:?} -> {stats2:?}"
    );
    assert!(
        stats2.misses < stats1.misses || stats1.misses == 0,
        "second run must miss less: {stats1:?} -> {stats2:?}"
    );
    let recorded_hits: u64 = second.history.iter().map(|r| r.cache_hits).sum();
    assert_eq!(recorded_hits, stats2.hits, "history must account for every hit");
}

#[test]
fn snapshot_from_different_oracle_configuration_is_not_replayed() {
    // Delays measured against one library/corner must never be replayed
    // against another: the snapshot's oracle tag guards the load.
    let suite = isdc::benchsuite::suite();
    let bench = suite.iter().min_by_key(|b| b.graph.len()).expect("nonempty");
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let path = fresh_snapshot_path("xconfig");
    let _ = std::fs::remove_file(&path);
    let base = IsdcConfig {
        max_iterations: 3,
        threads: 1,
        ..IsdcConfig::paper_defaults(bench.clock_period_ps)
    };
    let cached_config = base.clone().with_cache(Some(path.clone()));

    // Populate the snapshot with typical-corner delays.
    let typical = SynthesisOracle::new(lib);
    run_isdc(&bench.graph, &model, &typical, &cached_config).expect("typical run");

    // A slow-corner oracle must ignore it and re-measure.
    let slow = SynthesisOracle::new(isdc::techlib::TechLibrary::sky130_corner(
        isdc::techlib::Corner::Slow,
    ));
    let with_stale_snapshot =
        run_isdc(&bench.graph, &model, &slow, &cached_config).expect("slow cached run");
    let reference = run_isdc(&bench.graph, &model, &slow, &base).expect("slow uncached run");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        with_stale_snapshot.schedule, reference.schedule,
        "foreign snapshot must not leak into the slow-corner schedule"
    );
    let stats = cache_traffic(&with_stale_snapshot);
    assert!(stats.inserts > 0, "slow corner must re-measure, not replay: {stats:?}");
}

#[test]
fn corrupt_snapshot_is_ignored_not_fatal() {
    let suite = isdc::benchsuite::suite();
    let bench = suite.iter().min_by_key(|b| b.graph.len()).expect("nonempty");
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let path = fresh_snapshot_path("corrupt");
    std::fs::write(&path, "definitely { not json").expect("write temp file");
    let config = IsdcConfig {
        max_iterations: 2,
        threads: 1,
        ..IsdcConfig::paper_defaults(bench.clock_period_ps)
    }
    .with_cache(Some(path.clone()));
    let result = run_isdc(&bench.graph, &model, &oracle, &config)
        .expect("a bad snapshot must not break scheduling");
    let _ = std::fs::remove_file(&path);
    assert!(result.metrics.counter("cache/hits").is_some());
}
