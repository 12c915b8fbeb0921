//! Downstream-simulator benchmarks: bit-blasting, optimization passes and
//! STA — the per-subgraph cost that dominates ISDC's iteration time (the
//! paper evaluates 16 subgraphs per iteration in parallel to amortize it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isdc_ir::{Graph, OpKind};
use isdc_netlist::lower_graph;
use isdc_synth::{evaluate_parallel_cancellable, sta, SynthScript, SynthesisOracle};
use isdc_techlib::TechLibrary;

fn adder_chain(n: usize, width: u32) -> Graph {
    let mut g = Graph::new("chain");
    let mut acc = g.param("p0", width);
    for i in 1..=n {
        let p = g.param(format!("p{i}"), width);
        acc = g.binary(OpKind::Add, acc, p).expect("add");
    }
    g.set_output(acc);
    g
}

fn bench_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("lowering");
    for width in [8u32, 16, 32] {
        let mut g = Graph::new("mul");
        let a = g.param("a", width);
        let b = g.param("b", width);
        let m = g.binary(OpKind::Mul, a, b).expect("mul");
        g.set_output(m);
        group.bench_with_input(BenchmarkId::new("mul", width), &g, |bencher, g| {
            bencher.iter(|| lower_graph(g));
        });
    }
    group.finish();
}

fn bench_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_passes");
    for n in [4usize, 8, 16] {
        let g = adder_chain(n, 16);
        let lowered = lower_graph(&g);
        group.bench_with_input(
            BenchmarkId::new("resyn_adder_chain", n),
            &lowered.aig,
            |bencher, aig| {
                bencher.iter(|| SynthScript::resyn().run(aig));
            },
        );
    }
    group.finish();
}

fn bench_sta(c: &mut Criterion) {
    let lib = TechLibrary::sky130();
    let mut group = c.benchmark_group("sta");
    for n in [4usize, 16] {
        let g = adder_chain(n, 16);
        let aig = SynthScript::resyn().run(&lower_graph(&g).aig);
        group.bench_with_input(BenchmarkId::new("adder_chain", n), &aig, |bencher, aig| {
            bencher.iter(|| sta::analyze(aig, &lib));
        });
    }
    group.finish();
}

fn bench_parallel_oracle(c: &mut Criterion) {
    let lib = TechLibrary::sky130();
    let oracle = SynthesisOracle::new(lib);
    let suite = isdc_benchsuite::suite();
    let bench = suite.iter().find(|b| b.name == "ml_core_datapath2").expect("present");
    // 16 singleton-ish subgraphs: consecutive node windows.
    let subgraphs: Vec<Vec<isdc_ir::NodeId>> = (0..16)
        .map(|k| bench.graph.node_ids().skip(k * 3).take(6).collect())
        .filter(|s: &Vec<_>| !s.is_empty())
        .collect();
    let mut group = c.benchmark_group("oracle_16_subgraphs");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bencher, &threads| {
                bencher.iter(|| {
                    evaluate_parallel_cancellable(&oracle, &bench.graph, &subgraphs, threads)
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lowering, bench_passes, bench_sta, bench_parallel_oracle);
criterion_main!(benches);
