//! Cached-vs-uncached oracle benchmarks: the isdc-cache payoff.
//!
//! `cold` evaluates a batch of subgraphs through a fresh cache (all misses,
//! so it pays canonicalization on top of synthesis); `warm` reuses a
//! pre-populated cache (all hits — canonicalization + lookup only);
//! `uncached` is the raw oracle baseline. Warm must be far below the other
//! two.
//!
//! Besides the criterion groups, the run writes `BENCH_cache.json` at the
//! workspace root (uncached/cold/warm nanoseconds per batch and the warm
//! speedups), so the cache perf trajectory is tracked across PRs next to
//! `BENCH_solver.json` and `BENCH_sweep.json`. `ISDC_BENCH_QUICK=1` (CI)
//! reduces the timing repetitions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isdc_cache::CachingOracle;
use isdc_ir::NodeId;
use isdc_synth::{evaluate_parallel_cancellable, SynthesisOracle};
use isdc_techlib::TechLibrary;
use std::path::Path;
use std::time::Instant;

/// 16 overlapping node windows of a mid-size benchmark, like an ISDC
/// iteration would extract.
fn subgraph_batch() -> (isdc_ir::Graph, Vec<Vec<NodeId>>) {
    let suite = isdc_benchsuite::suite();
    let bench = suite.into_iter().find(|b| b.name == "ml_core_datapath2").expect("present");
    let subgraphs: Vec<Vec<NodeId>> = (0..16)
        .map(|k| bench.graph.node_ids().skip(k * 3).take(6).collect::<Vec<_>>())
        .filter(|s| !s.is_empty())
        .collect();
    (bench.graph, subgraphs)
}

fn bench_oracle_caching(c: &mut Criterion) {
    let lib = TechLibrary::sky130();
    let oracle = SynthesisOracle::new(lib);
    let (graph, subgraphs) = subgraph_batch();
    let mut group = c.benchmark_group("oracle_cache");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("uncached"), &subgraphs, |b, subs| {
        b.iter(|| evaluate_parallel_cancellable(&oracle, &graph, subs, 1).unwrap());
    });
    group.bench_with_input(BenchmarkId::from_parameter("cold"), &subgraphs, |b, subs| {
        b.iter(|| {
            let caching = CachingOracle::new(&oracle);
            evaluate_parallel_cancellable(&caching, &graph, subs, 1).unwrap()
        });
    });
    let warm = CachingOracle::new(&oracle);
    evaluate_parallel_cancellable(&warm, &graph, &subgraphs, 1).unwrap();
    group.bench_with_input(BenchmarkId::from_parameter("warm"), &subgraphs, |b, subs| {
        b.iter(|| evaluate_parallel_cancellable(&warm, &graph, subs, 1).unwrap());
    });
    group.finish();
}

fn bench_fingerprint(c: &mut Criterion) {
    let (graph, subgraphs) = subgraph_batch();
    let mut group = c.benchmark_group("fingerprint");
    group.bench_with_input(BenchmarkId::from_parameter("16_windows"), &subgraphs, |b, subs| {
        b.iter(|| {
            subs.iter().map(|s| isdc_cache::canonicalize(&graph, s).fingerprint).collect::<Vec<_>>()
        });
    });
    group.finish();
}

/// Minimum wall time of `runs` executions, in nanoseconds.
fn time_min_ns<R>(runs: usize, mut f: impl FnMut() -> R) -> u128 {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .min()
        .expect("runs > 0")
}

/// The tracked-artifact pass: times the same batch outside criterion and
/// writes `BENCH_cache.json` at the workspace root.
fn emit_cache_json(_c: &mut Criterion) {
    let quick = std::env::var_os("ISDC_BENCH_QUICK").is_some();
    let runs = if quick { 3 } else { 7 };
    let lib = TechLibrary::sky130();
    let oracle = SynthesisOracle::new(lib);
    let (graph, subgraphs) = subgraph_batch();
    let uncached_ns = time_min_ns(runs, || {
        evaluate_parallel_cancellable(&oracle, &graph, &subgraphs, 1).unwrap()
    });
    let cold_ns = time_min_ns(runs, || {
        let caching = CachingOracle::new(&oracle);
        evaluate_parallel_cancellable(&caching, &graph, &subgraphs, 1).unwrap()
    });
    let warm_oracle = CachingOracle::new(&oracle);
    evaluate_parallel_cancellable(&warm_oracle, &graph, &subgraphs, 1).unwrap();
    let warm_ns = time_min_ns(runs, || {
        evaluate_parallel_cancellable(&warm_oracle, &graph, &subgraphs, 1).unwrap()
    });
    let stats = warm_oracle.stats();
    let json = format!(
        "{{\n  \"bench\": \"cache\",\n  \"mode\": \"{}\",\n  \"design\": \"ml_core_datapath2\",\n  \
         \"subgraphs\": {},\n  \"unit\": \"ns per 16-window batch evaluation\",\n  \
         \"uncached_ns\": {},\n  \"cold_ns\": {},\n  \"warm_ns\": {},\n  \
         \"warm_speedup_vs_uncached\": {:.2},\n  \"warm_speedup_vs_cold\": {:.2},\n  \
         \"cold_overhead_vs_uncached\": {:.3},\n  \"entries\": {},\n  \"hits\": {},\n  \
         \"cache_evictions\": {}\n}}\n",
        if quick { "quick" } else { "full" },
        subgraphs.len(),
        uncached_ns,
        cold_ns,
        warm_ns,
        uncached_ns as f64 / warm_ns.max(1) as f64,
        cold_ns as f64 / warm_ns.max(1) as f64,
        cold_ns as f64 / uncached_ns.max(1) as f64,
        warm_oracle.cache().len(),
        stats.hits,
        stats.evictions,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cache.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}

criterion_group!(benches, bench_oracle_caching, bench_fingerprint, emit_cache_json);
criterion_main!(benches);
