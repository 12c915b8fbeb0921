//! Downstream-simulator benchmarks: bit-blasting, optimization passes and
//! STA — the per-subgraph cost that dominates ISDC's iteration time (the
//! paper evaluates 16 subgraphs per iteration in parallel to amortize it).
//!
//! Besides the criterion groups, the run writes `BENCH_synth.json` at the
//! workspace root: per-phase medians (lowering, each pass of the default
//! script, STA) over every non-empty SDC stage of the Table I designs at
//! their own clocks, plus the passes' nanoseconds per output AND node,
//! which `bench_gate` holds to a ceiling. `ISDC_BENCH_QUICK=1` (CI)
//! reduces the timing repetitions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isdc_core::run_sdc;
use isdc_ir::{Graph, NodeId, OpKind};
use isdc_netlist::{lower_graph, lower_subgraph};
use isdc_synth::{evaluate_parallel_cancellable, sta, OpDelayModel, SynthScript, SynthesisOracle};
use isdc_techlib::TechLibrary;
use std::path::Path;
use std::time::Instant;

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
    // 2 threads is what the `table1` and `scale` workloads evaluate with.
    for threads in [1usize, 2, 4] {
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

/// Every non-empty stage of each Table I design's SDC schedule at its own
/// clock: the subgraphs an oracle quality snapshot times.
fn table1_sdc_stages() -> Vec<(Graph, Vec<Vec<NodeId>>)> {
    let model = OpDelayModel::new(TechLibrary::sky130());
    isdc_benchsuite::suite()
        .into_iter()
        .map(|b| {
            let (schedule, _) = run_sdc(&b.graph, &model, b.clock_period_ps).expect("feasible");
            let stages = schedule.stages().into_iter().filter(|s| !s.is_empty()).collect();
            (b.graph, stages)
        })
        .collect()
}

/// The (upper) median of a sample set.
fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The tracked-artifact pass: times each phase of `SynthesisOracle`'s flow
/// over the Table I SDC stages and writes `BENCH_synth.json` at the
/// workspace root. Each pass runs alone as a one-pass script on the
/// previous pass's output, exactly as `SynthScript::run` chains them.
fn emit_synth_json(_c: &mut Criterion) {
    let quick = std::env::var_os("ISDC_BENCH_QUICK").is_some();
    let reps = if quick { 5 } else { 15 };
    let lib = TechLibrary::sky130();
    let script = SynthScript::resyn();
    let single: Vec<SynthScript> =
        script.passes().iter().map(|&p| SynthScript::custom(vec![p])).collect();
    let designs = table1_sdc_stages();
    let stages: usize = designs.iter().map(|(_, s)| s.len()).sum();
    // samples[phase][rep]: phase 0 is lowering, then one per pass, then STA.
    let phases = single.len() + 2;
    let mut samples: Vec<Vec<u128>> = vec![Vec::with_capacity(reps); phases];
    let mut pass_totals: Vec<u128> = Vec::with_capacity(reps);
    let mut output_ands = 0usize;
    for _ in 0..reps {
        let mut ns = vec![0u128; phases];
        output_ands = 0;
        for (graph, members) in designs.iter().flat_map(|(g, s)| s.iter().map(move |m| (g, m))) {
            let t = Instant::now();
            let lowered = lower_subgraph(graph, members);
            ns[0] += t.elapsed().as_nanos();
            let mut aig = lowered.aig;
            for (k, pass) in single.iter().enumerate() {
                let t = Instant::now();
                aig = pass.run(&aig);
                ns[k + 1] += t.elapsed().as_nanos();
            }
            let t = Instant::now();
            std::hint::black_box(sta::analyze(&aig, &lib));
            ns[phases - 1] += t.elapsed().as_nanos();
            output_ands += aig.num_ands();
        }
        pass_totals.push(ns[1..phases - 1].iter().sum());
        for (phase, n) in samples.iter_mut().zip(ns) {
            phase.push(n);
        }
    }
    let medians: Vec<u128> = samples.into_iter().map(median).collect();
    let passes_ns = median(pass_totals);
    let pass_rows: Vec<String> = single
        .iter()
        .zip(&medians[1..phases - 1])
        .enumerate()
        .map(|(k, (pass, ns))| {
            format!("    {{\"name\": \"{}:{}\", \"ns\": {ns}}}", k + 1, pass.mnemonic())
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"synth\",\n  \"mode\": \"{}\",\n  \"script\": \"{}\",\n  \
         \"workload\": \"every non-empty SDC stage of the Table I designs at their own clocks\",\n  \
         \"designs\": {},\n  \"stages\": {stages},\n  \"reps\": {reps},\n  \
         \"unit\": \"ns per phase summed over all stages, median over reps\",\n  \
         \"lowering_ns\": {},\n  \"passes\": [\n{}\n  ],\n  \"passes_total_ns\": {passes_ns},\n  \
         \"sta_ns\": {},\n  \"output_and_nodes\": {output_ands},\n  \
         \"passes_ns_per_and\": {:.2}\n}}\n",
        if quick { "quick" } else { "full" },
        script.mnemonic(),
        designs.len(),
        medians[0],
        pass_rows.join(",\n"),
        medians[phases - 1],
        passes_ns as f64 / output_ands.max(1) as f64,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_synth.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}

criterion_group!(
    benches,
    bench_lowering,
    bench_passes,
    bench_sta,
    bench_parallel_oracle,
    emit_synth_json
);
criterion_main!(benches);
