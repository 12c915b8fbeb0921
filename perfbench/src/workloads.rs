//! The four workloads: seeded inputs, one untraced pass, one traced pass,
//! the correctness checks, and the quality baseline.
//!
//! Every workload is a closed loop: one process issues passes back to
//! back, and no pass keeps more than two threads busy (the host has two
//! cores). `table1`, `sweep` and `scale` schedule with `threads = 2`;
//! `batch` runs two workers with `threads = 1` each.

use crate::layers::{covered_ns, isdc_by_stage, union, Layers, TimedOracle, FRAME_COUNTS};
use crate::stats::median;
use isdc::batch::{run_batch, serial_reference, BatchDesign, BatchOptions, Job, JobKind};
use isdc::benchsuite::{designs, random_dag, RandomDagConfig};
use isdc::cache::{CachingOracle, DelayCache};
use isdc::core::metrics::post_synthesis_slack;
use isdc::core::pipeline::StageKind;
use isdc::core::{linear_grid, run_isdc, run_sdc, DelayMatrix, IsdcConfig, IsdcSession, Schedule};
use isdc::ir::Graph;
use isdc::synth::{DelayOracle, OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use isdc::telemetry::MetricsFrame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// The workloads `--workload` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Table1,
    Sweep,
    Batch,
    Scale,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Table1, Kind::Sweep, Kind::Batch, Kind::Scale];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1 => "table1",
            Kind::Sweep => "sweep",
            Kind::Batch => "batch",
            Kind::Scale => "scale",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Points per sweep grid, from a design's clock to twice it.
const GRID_POINTS: usize = 10;
/// Busy threads per pass: the host's core count.
const THREADS: usize = 2;
/// The `scale` design: one seeded `random_dag` of this many 16-bit
/// operations over `SCALE_PARAMS` inputs (about 2,300 nodes). A single
/// width keeps the node count, and with it the n² memory, within about 1%
/// from seed to seed.
const SCALE_OPS: usize = 2_000;
const SCALE_PARAMS: usize = 8;
/// Clock period of the `scale` design, in picoseconds.
const SCALE_CLOCK_PS: f64 = 5_000.0;
/// Feedback iterations every `scale` run makes (see [`scale_config`]).
const SCALE_ITERATIONS: usize = 4;

/// One design of a workload. `grid` is empty for `table1` and `scale`,
/// which schedule at `clock_ps` only.
pub struct Design {
    pub name: String,
    pub graph: Graph,
    pub clock_ps: f64,
    pub grid: Vec<f64>,
}

/// Everything a pass reads: the generated designs (and, for `batch`, the
/// job list) plus the library, delay model and synthesis oracle.
pub struct Inputs {
    pub kind: Kind,
    pub designs: Vec<Design>,
    pub batch_designs: Vec<BatchDesign>,
    pub jobs: Vec<Job>,
    pub model: OpDelayModel,
    pub oracle: SynthesisOracle,
}

impl Inputs {
    /// The ISDC settings of a `table1` or `scale` run at `clock_ps`.
    fn config(&self, clock_ps: f64) -> IsdcConfig {
        if self.kind == Kind::Scale {
            scale_config(clock_ps)
        } else {
            paper_config(clock_ps)
        }
    }
}

/// `table1` settings: the paper's defaults, two threads.
fn paper_config(clock_ps: f64) -> IsdcConfig {
    IsdcConfig { threads: THREADS, ..IsdcConfig::paper_defaults(clock_ps) }
}

/// `scale` settings: `table1`'s, except that every run makes exactly
/// `SCALE_ITERATIONS` iterations. Under the convergence rule the iteration
/// count of a random design swings between 4 and 8 from seed to seed, and
/// the pass time with it; a fixed count keeps seeds comparable.
fn scale_config(clock_ps: f64) -> IsdcConfig {
    IsdcConfig {
        max_iterations: SCALE_ITERATIONS,
        convergence_patience: SCALE_ITERATIONS,
        ..paper_config(clock_ps)
    }
}

/// The share of one grid step the seeded phase spans. crc32 fits in one
/// stage from about 5,200 ps, where ISDC's register bits drop to 0 (which
/// the geomean clamps to 1); a `sweep` grid whose last point crosses that
/// cliff lowers `reg_bits_ratio` by about a fifth, so a full-step phase would
/// split the seeds into two populations. Half a step stays below it.
const PHASE_SPAN: f64 = 0.5;

/// An ascending grid from `clock` to `2 * clock`, shifted up by `phase`
/// (in `[0, 1)`) of [`PHASE_SPAN`] grid steps.
fn phased_grid(clock_ps: f64, phase: f64) -> Vec<f64> {
    let offset = phase * PHASE_SPAN * clock_ps / (GRID_POINTS - 1) as f64;
    linear_grid(clock_ps + offset, 2.0 * clock_ps + offset, GRID_POINTS)
}

/// Uniform in `[0, 1)`, at the 2⁻⁵³ resolution of an `f64` mantissa.
fn unit_draw(rng: &mut StdRng) -> f64 {
    const STEPS: u64 = 1 << 53;
    rng.gen_range(0..STEPS) as f64 / STEPS as f64
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Builds the workload's inputs from `seed` and characterises every design
/// with the delay model (`OpDelayModel::all_node_delays`). This is what
/// `setup_s` times.
///
/// The seed sets the order of the `table1` designs, the phase of every
/// `sweep` and `batch` grid, the submission order of the `batch` jobs, and
/// the `scale` design (it is the `random_dag` seed).
pub fn setup(kind: Kind, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut designs: Vec<Design> = match kind {
        Kind::Table1 | Kind::Batch => isdc::benchsuite::suite()
            .into_iter()
            .map(|b| Design {
                name: b.name.to_string(),
                graph: b.graph,
                clock_ps: b.clock_period_ps,
                grid: Vec::new(),
            })
            .collect(),
        Kind::Sweep => [("crc32", designs::crc32()), ("sha256", designs::sha256())]
            .into_iter()
            .map(|(name, graph)| Design {
                name: name.to_string(),
                graph,
                clock_ps: 2_500.0,
                grid: Vec::new(),
            })
            .collect(),
        Kind::Scale => {
            let config = RandomDagConfig {
                num_ops: SCALE_OPS,
                num_params: SCALE_PARAMS,
                widths: vec![16],
                with_muls: true,
            };
            let graph = random_dag(&config, seed);
            vec![Design {
                name: graph.name().to_string(),
                graph,
                clock_ps: SCALE_CLOCK_PS,
                grid: Vec::new(),
            }]
        }
    };
    match kind {
        Kind::Table1 => shuffle(&mut rng, &mut designs),
        Kind::Sweep | Kind::Batch => {
            for d in &mut designs {
                d.grid = phased_grid(d.clock_ps, unit_draw(&mut rng));
            }
        }
        Kind::Scale => {}
    }
    let (batch_designs, jobs) =
        if kind == Kind::Batch { batch_jobs(&designs, &mut rng) } else { Default::default() };
    for d in &designs {
        std::hint::black_box(model.all_node_delays(&d.graph));
    }
    Inputs { kind, designs, batch_designs, jobs, model, oracle }
}

/// The `batch` fleet: one 8-iteration sweep job per suite design over its
/// phased grid, in seeded order, then minimum-period searches for sha256
/// and crc32.
fn batch_jobs(designs: &[Design], rng: &mut StdRng) -> (Vec<BatchDesign>, Vec<Job>) {
    let batch_designs = designs
        .iter()
        .map(|d| BatchDesign {
            name: d.name.clone(),
            graph: d.graph.clone(),
            base: IsdcConfig {
                threads: 1,
                max_iterations: 8,
                ..IsdcConfig::paper_defaults(d.clock_ps)
            },
        })
        .collect();
    let mut jobs: Vec<Job> = designs.iter().map(|d| Job::sweep(&d.name, d.grid.clone())).collect();
    shuffle(rng, &mut jobs);
    // The searches go last whatever the seed, crc32's (the longest job)
    // at the very end: which job closes the queue sets most of the
    // makespan, so shuffling it in would swamp everything the seed varies
    // with the luck of the draw.
    jobs.push(Job::min_period("sha256", 250.0, 2_500.0, 10.0));
    jobs.push(Job::min_period("crc32", 250.0, 2_500.0, 10.0));
    (batch_designs, jobs)
}

/// One scheduled (design, period) point of a pass.
pub struct Point {
    /// Index into [`Inputs::designs`].
    pub design: usize,
    pub clock_ps: f64,
    /// A minimum-period probe (excluded from the quality metrics).
    pub probe: bool,
    /// `None` for an infeasible probe.
    pub schedule: Option<Schedule>,
    /// Register bits after each iteration (only the final value for batch
    /// points, whose records carry no history).
    pub history_bits: Vec<u64>,
    /// Scheduling time of the point.
    pub seconds: f64,
    /// Whether the point's first LP solve was warm-started.
    pub warm_start: bool,
    /// Feedback iterations, and how many of their re-solves ran warm.
    pub iterations: usize,
    pub warm_solves: usize,
    /// The metrics frame the program returned for the point.
    pub frame: MetricsFrame,
}

impl Point {
    /// What pass-to-pass identity compares.
    fn signature(&self) -> (usize, u64, Option<&[u32]>, &[u64]) {
        (
            self.design,
            self.clock_ps.to_bits(),
            self.schedule.as_ref().map(Schedule::cycles),
            &self.history_bits,
        )
    }
}

/// One pass: its points, the runs that failed, and a per-job busy-time
/// view (designs for `table1`, `sweep` and `scale`; batch jobs for
/// `batch`) on `workers` workers.
#[derive(Default)]
pub struct Pass {
    pub points: Vec<Point>,
    pub failures: Vec<String>,
    pub job_seconds: Vec<f64>,
    pub workers: usize,
    /// Units of work handed to workers: `run_batch`'s shards, or designs.
    pub shards: usize,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_entries: usize,
}

impl Pass {
    /// Runs attempted: every point plus every failed run.
    pub fn attempted(&self) -> usize {
        self.points.len() + self.failures.len()
    }
}

/// One untraced pass through the raw synthesis oracle. With `check_stages`,
/// every returned delay matrix is checked against its schedule (see
/// [`stage_delay_problems`]) as soon as its run returns; the findings go
/// to [`Pass::failures`]. No pass keeps a matrix past its run, so peak
/// memory is the scheduler's own.
pub fn pass(inputs: &Inputs, check_stages: bool) -> Pass {
    pass_with(inputs, &inputs.oracle, check_stages)
}

fn pass_with<O: DelayOracle>(inputs: &Inputs, oracle: &O, check_stages: bool) -> Pass {
    match inputs.kind {
        Kind::Table1 | Kind::Scale => paper_pass(inputs, oracle, check_stages),
        Kind::Sweep => sweep_pass(inputs, oracle, check_stages),
        Kind::Batch => batch_pass(inputs, oracle),
    }
}

/// Stages of `schedule` whose worst in-stage `DelayMatrix::get` exceeds
/// the clock.
fn stage_delay_problems(
    name: &str,
    clock_ps: f64,
    schedule: &Schedule,
    delays: &DelayMatrix,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (stage, members) in schedule.stages().iter().enumerate() {
        let worst = members
            .iter()
            .flat_map(|&u| members.iter().filter_map(move |&v| delays.get(u, v)))
            .fold(0.0, f64::max);
        if worst > clock_ps + 1e-6 {
            problems.push(format!("{name} @ {clock_ps} ps: stage {stage} estimates {worst} ps"));
        }
    }
    problems
}

/// `table1` and `scale`: `run_sdc` then `run_isdc` per design.
fn paper_pass<O: DelayOracle>(inputs: &Inputs, oracle: &O, check_stages: bool) -> Pass {
    let mut pass = Pass { workers: 1, shards: inputs.designs.len(), ..Pass::default() };
    for (di, d) in inputs.designs.iter().enumerate() {
        let t = Instant::now();
        let outcome = run_sdc(&d.graph, &inputs.model, d.clock_ps).and_then(|baseline| {
            std::hint::black_box(baseline);
            run_isdc(&d.graph, &inputs.model, oracle, &inputs.config(d.clock_ps))
        });
        pass.job_seconds.push(t.elapsed().as_secs_f64());
        match outcome {
            Ok(r) => {
                if check_stages {
                    pass.failures.extend(stage_delay_problems(
                        &d.name,
                        d.clock_ps,
                        &r.schedule,
                        &r.delays,
                    ));
                }
                pass.points.push(Point {
                    design: di,
                    clock_ps: d.clock_ps,
                    probe: false,
                    history_bits: r.history.iter().map(|h| h.register_bits).collect(),
                    seconds: r.total_time.as_secs_f64(),
                    warm_start: false,
                    iterations: r.iterations(),
                    warm_solves: r.history[1..].iter().filter(|h| h.solver_warm).count(),
                    frame: r.metrics,
                    schedule: Some(r.schedule),
                });
            }
            Err(e) => pass.failures.push(format!("{} @ {} ps: {e}", d.name, d.clock_ps)),
        }
    }
    pass
}

/// `sweep`: each design through a fresh `IsdcSession`, one
/// `IsdcSession::run` per grid point in ascending order, with the oracle
/// metrics on the last point only (as `sweep_clock_period` runs it).
fn sweep_pass<O: DelayOracle>(inputs: &Inputs, oracle: &O, check_stages: bool) -> Pass {
    let mut pass = Pass { workers: 1, shards: inputs.designs.len(), ..Pass::default() };
    for (di, d) in inputs.designs.iter().enumerate() {
        let t = Instant::now();
        let mut session = IsdcSession::new(&d.graph, &inputs.model, oracle);
        for (i, &clock_ps) in d.grid.iter().enumerate() {
            let config =
                IsdcConfig { iteration_metrics: i + 1 == d.grid.len(), ..paper_config(clock_ps) };
            let start = Instant::now();
            match session.run(&config) {
                Ok(run) => {
                    let seconds = start.elapsed().as_secs_f64();
                    pass.cache_hits += run.cache_hits;
                    pass.cache_lookups += run.cache_hits + run.cache_misses;
                    let r = run.result;
                    if check_stages {
                        pass.failures.extend(stage_delay_problems(
                            &d.name,
                            clock_ps,
                            &r.schedule,
                            &r.delays,
                        ));
                    }
                    pass.points.push(Point {
                        design: di,
                        clock_ps,
                        probe: false,
                        history_bits: r.history.iter().map(|h| h.register_bits).collect(),
                        seconds,
                        warm_start: run.warm_start,
                        iterations: r.iterations(),
                        warm_solves: r.history[1..].iter().filter(|h| h.solver_warm).count(),
                        frame: r.metrics,
                        schedule: Some(r.schedule),
                    });
                }
                Err(e) => pass.failures.push(format!("{} @ {clock_ps} ps: {e}", d.name)),
            }
        }
        pass.cache_entries += session.cache().len();
        pass.job_seconds.push(t.elapsed().as_secs_f64());
    }
    pass
}

/// `batch`: one `run_batch` call over a fresh shared cache, two workers,
/// automatic sharding.
fn batch_pass<O: DelayOracle>(inputs: &Inputs, oracle: &O) -> Pass {
    let mut pass = Pass { workers: THREADS, ..Pass::default() };
    let cache = Arc::new(DelayCache::new());
    let options = BatchOptions { threads: THREADS, ..BatchOptions::default() };
    let report = match run_batch(
        &inputs.batch_designs,
        &inputs.jobs,
        &options,
        &inputs.model,
        oracle,
        &cache,
    ) {
        Ok(report) => report,
        Err(e) => {
            pass.failures.push(format!("run_batch: {e}"));
            return pass;
        }
    };
    pass.workers = report.threads;
    pass.shards = report.shards;
    pass.cache_hits = report.cache.hits;
    pass.cache_lookups = report.cache.hits + report.cache.misses;
    pass.cache_entries = cache.len();
    for job in &report.jobs {
        pass.job_seconds.push(job.elapsed.as_secs_f64());
        if !job.status.is_ok() {
            pass.failures.push(format!("{} job: {:?}", job.job.design, job.status));
            continue;
        }
        let design = design_index(inputs, &job.job.design);
        let probe = matches!(job.job.kind, JobKind::MinPeriod { .. });
        for p in &job.points {
            pass.points.push(Point {
                design,
                clock_ps: p.clock_period_ps,
                probe,
                schedule: p.schedule.clone(),
                history_bits: vec![p.register_bits],
                seconds: p.elapsed.as_secs_f64(),
                warm_start: p.warm_start,
                iterations: p.iterations,
                warm_solves: p.warm_solves - usize::from(p.warm_start),
                frame: p.metrics.clone(),
            });
        }
    }
    pass
}

fn design_index(inputs: &Inputs, name: &str) -> usize {
    inputs.designs.iter().position(|d| d.name == name).expect("jobs name suite designs")
}

/// The correctness checks a pass must pass on its own, besides the
/// in-stage delay check [`pass`] makes as each run returns: dependency
/// order at every point, and no infeasible point outside minimum-period
/// probes.
pub fn check_points(inputs: &Inputs, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    for p in &pass.points {
        let d = &inputs.designs[p.design];
        let Some(schedule) = &p.schedule else {
            if !p.probe {
                problems.push(format!("{} @ {} ps: infeasible sweep point", d.name, p.clock_ps));
            }
            continue;
        };
        if let Some((op, user)) = schedule.first_dependency_violation(&d.graph) {
            problems.push(format!(
                "{} @ {} ps: {op:?} scheduled after its user {user:?}",
                d.name, p.clock_ps
            ));
        }
    }
    problems
}

/// Points of `pass` whose schedule or register history differs from
/// `reference` (which must have the same points in the same order).
pub fn compare(reference: &Pass, pass: &Pass, what: &str) -> Vec<String> {
    if reference.points.len() != pass.points.len() {
        return vec![format!(
            "{what}: {} points against {} in the reference pass",
            pass.points.len(),
            reference.points.len()
        )];
    }
    reference
        .points
        .iter()
        .zip(&pass.points)
        .filter(|(a, b)| a.signature() != b.signature())
        .map(|(a, _)| format!("{what}: point {} @ {} ps differs", a.design, a.clock_ps))
        .collect()
}

/// `batch` only: the batch schedules must equal `serial_reference`'s.
pub fn check_serial_reference(inputs: &Inputs, pass: &Pass) -> Vec<String> {
    if inputs.kind != Kind::Batch {
        return Vec::new();
    }
    let report = match serial_reference(
        &inputs.batch_designs,
        &inputs.jobs,
        &inputs.model,
        &inputs.oracle,
    ) {
        Ok(report) => report,
        Err(e) => return vec![format!("serial_reference: {e}")],
    };
    let serial: Vec<(u64, Option<&[u32]>)> = report
        .jobs
        .iter()
        .flat_map(|j| j.points.iter())
        .map(|p| (p.clock_period_ps.to_bits(), p.schedule.as_ref().map(Schedule::cycles)))
        .collect();
    let batch: Vec<(u64, Option<&[u32]>)> = pass
        .points
        .iter()
        .map(|p| (p.clock_ps.to_bits(), p.schedule.as_ref().map(Schedule::cycles)))
        .collect();
    if serial == batch {
        Vec::new()
    } else {
        vec!["batch schedules differ from serial_reference".to_string()]
    }
}

/// Table I's quality columns over every feasible, non-probe point.
pub struct Quality {
    /// geomean(ISDC register bits) / geomean(SDC register bits).
    pub reg_bits_ratio: f64,
    /// Points where ISDC's post-synthesis slack is negative while SDC's is
    /// not.
    pub timing_violations: usize,
    pub points: usize,
    /// Summed `run_sdc` time over those points.
    pub run_sdc_s: f64,
    /// The violating points, with both slacks.
    pub violations: Vec<String>,
}

/// Schedules SDC at every feasible, non-probe point of `pass` and times
/// both schedules through the synthesis oracle. Stage evaluations repeat
/// across points, so they go through a private delay cache, which returns
/// the oracle's reports unchanged.
pub fn quality(inputs: &Inputs, pass: &Pass) -> Result<Quality, String> {
    let oracle = CachingOracle::new(&inputs.oracle);
    let (mut sdc_bits, mut isdc_bits, mut violations) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_sdc_s = 0.0;
    for p in pass.points.iter().filter(|p| !p.probe) {
        let Some(schedule) = &p.schedule else { continue };
        let d = &inputs.designs[p.design];
        let t = Instant::now();
        let (baseline, _) = run_sdc(&d.graph, &inputs.model, p.clock_ps)
            .map_err(|e| format!("{} @ {} ps: run_sdc: {e}", d.name, p.clock_ps))?;
        run_sdc_s += t.elapsed().as_secs_f64();
        sdc_bits.push(baseline.register_bits(&d.graph) as f64);
        isdc_bits.push(schedule.register_bits(&d.graph) as f64);
        let sdc_slack = post_synthesis_slack(&d.graph, &baseline, &oracle, p.clock_ps);
        let isdc_slack = post_synthesis_slack(&d.graph, schedule, &oracle, p.clock_ps);
        if isdc_slack < 0.0 && sdc_slack >= 0.0 {
            violations.push(format!(
                "{} @ {:.1} ps: slack {sdc_slack:+.0} ps (SDC) -> {isdc_slack:+.0} ps (ISDC)",
                d.name, p.clock_ps
            ));
        }
    }
    if sdc_bits.is_empty() {
        return Err("no feasible point to take quality over".to_string());
    }
    Ok(Quality {
        reg_bits_ratio: isdc_bench::geomean(isdc_bits)
            / isdc_bench::geomean(sdc_bits.iter().copied()),
        timing_violations: violations.len(),
        points: sdc_bits.len(),
        run_sdc_s,
        violations,
    })
}

/// The traced pass: the same work with the timing wrapper installed around
/// the synthesis oracle, returning the pass (for the traced-vs-untraced
/// check), its wall time, and the per-layer numbers.
pub fn traced_pass(inputs: &Inputs) -> (Pass, f64, Layers) {
    let timed = TimedOracle::new(&inputs.oracle);
    let mut layers = Layers::default();
    let mut evaluate_windows = Vec::new();
    let start = Instant::now();
    let pass = match inputs.kind {
        Kind::Table1 | Kind::Scale => {
            staged_paper_pass(inputs, &timed, &mut layers, &mut evaluate_windows)
        }
        Kind::Sweep | Kind::Batch => pass_with(inputs, &timed, false),
    };
    let wall = start.elapsed().as_secs_f64();

    let calls = timed.calls();
    layers.set("synth.calls", calls.len() as f64);
    layers.set("synth.busy_s", calls.iter().map(|&(s, e)| e - s).sum::<u64>() as f64 * 1e-9);
    layers.set("synth.and_nodes", timed.and_nodes() as f64);
    let covered = union(calls);

    match inputs.kind {
        Kind::Table1 | Kind::Scale => {
            // Evaluate's own time: its windows minus the synthesis under them.
            let synth_ns: u64 = evaluate_windows.iter().map(|&w| covered_ns(&covered, w)).sum();
            layers.set("cache.self_s", layers.get("evaluate.busy_s") - synth_ns as f64 * 1e-9);
            layers.set(
                "session.run_s",
                median(&pass.points.iter().map(|p| p.seconds).collect::<Vec<_>>()),
            );
        }
        Kind::Sweep | Kind::Batch => frame_layers(inputs, &pass, &covered, &mut layers),
    }
    layers.set("cache.lookups", pass.cache_lookups as f64);
    layers.set(
        "cache.hit_rate",
        if pass.cache_lookups == 0 {
            0.0
        } else {
            pass.cache_hits as f64 / pass.cache_lookups as f64
        },
    );
    layers.set("cache.entries", pass.cache_entries as f64);
    let iterations: usize = pass.points.iter().map(|p| p.iterations).sum();
    let warm: usize = pass.points.iter().map(|p| p.warm_solves).sum();
    layers.set("iterations", iterations as f64);
    layers.set(
        "solve.warm_frac",
        if iterations == 0 { 0.0 } else { warm as f64 / iterations as f64 },
    );
    let warm_starts = pass.points.iter().filter(|p| p.warm_start).count();
    layers.set("session.warm_start_frac", warm_starts as f64 / pass.points.len().max(1) as f64);
    batch_layers(&pass, wall, &mut layers);
    (pass, wall, layers)
}

/// `table1` and `scale` traced: `run_sdc` timed whole, ISDC stage by stage.
fn staged_paper_pass<O: DelayOracle>(
    inputs: &Inputs,
    timed: &TimedOracle<O>,
    layers: &mut Layers,
    evaluate_windows: &mut Vec<(u64, u64)>,
) -> Pass {
    let mut pass = Pass { workers: 1, shards: inputs.designs.len(), ..Pass::default() };
    for (di, d) in inputs.designs.iter().enumerate() {
        let t = Instant::now();
        let baseline = run_sdc(&d.graph, &inputs.model, d.clock_ps);
        layers.time_since("run_sdc.busy_s", t);
        let t_isdc = Instant::now();
        let staged = baseline.and_then(|_| {
            isdc_by_stage(
                &d.graph,
                &inputs.model,
                timed,
                &inputs.config(d.clock_ps),
                layers,
                evaluate_windows,
            )
        });
        let seconds = t_isdc.elapsed().as_secs_f64();
        pass.job_seconds.push(t.elapsed().as_secs_f64());
        match staged {
            Ok(run) => pass.points.push(Point {
                design: di,
                clock_ps: d.clock_ps,
                probe: false,
                schedule: Some(run.schedule),
                history_bits: run.history_bits,
                seconds,
                warm_start: false,
                iterations: run.iterations,
                warm_solves: run.warm_solves,
                frame: MetricsFrame::new(),
            }),
            Err(e) => pass.failures.push(format!("{} @ {} ps: {e}", d.name, d.clock_ps)),
        }
    }
    pass
}

/// `sweep` and `batch` traced: stage times and solver counters come from
/// the `MetricsFrame` each point returns — the only numbers the program
/// reports about its own runs. The six stage timers cover Extract through
/// Solve (Solve including each run's first LP solve); `oracle_metrics` is
/// what `run/total_ns` leaves over, which holds the oracle metrics plus
/// matrix set-up and bookkeeping. The program reports no subgraph or
/// dirty-pair counts per stage, so those read -1 here.
fn frame_layers(inputs: &Inputs, pass: &Pass, covered: &[(u64, u64)], layers: &mut Layers) {
    let mut run_ns = 0u64;
    let mut stage_ns = 0u64;
    for p in &pass.points {
        run_ns += p.frame.counter_or_zero("run/total_ns");
        for kind in StageKind::ALL {
            let ns = p.frame.counter_or_zero(&format!("stage/{}/ns", kind.name()));
            stage_ns += ns;
            layers.add(stage_layer(kind), ns as f64 * 1e-9);
        }
        layers.add("solve.calls", p.frame.counter_or_zero("stage/solve/calls") as f64);
        for (layer, counter) in FRAME_COUNTS {
            layers.add(layer, p.frame.counter_or_zero(counter) as f64);
        }
    }
    layers.set("oracle_metrics.busy_s", run_ns.saturating_sub(stage_ns) as f64 * 1e-9);
    for unobserved in
        ["extract.subgraphs", "dedupe.dropped", "feedback.dirty_pairs", "reformulate.dirty_pairs"]
    {
        layers.set(unobserved, -1.0);
    }
    // Synthesis wall time: one driving thread for sweep (Evaluate fans out
    // under it), one per worker for batch (each evaluates inline).
    let synth_s = match inputs.kind {
        Kind::Batch => layers.get("synth.busy_s"),
        _ => covered.iter().map(|&(s, e)| e - s).sum::<u64>() as f64 * 1e-9,
    };
    layers.set(
        "cache.self_s",
        layers.get("evaluate.busy_s") + layers.get("oracle_metrics.busy_s") - synth_s,
    );
    layers.set("session.run_s", median(&pass.points.iter().map(|p| p.seconds).collect::<Vec<_>>()));
}

fn stage_layer(kind: StageKind) -> &'static str {
    match kind {
        StageKind::Extract => "extract.busy_s",
        StageKind::Dedupe => "dedupe.busy_s",
        StageKind::Evaluate => "evaluate.busy_s",
        StageKind::Feedback => "feedback.busy_s",
        StageKind::Reformulate => "reformulate.busy_s",
        StageKind::Solve => "solve.busy_s",
    }
}

/// The pass as jobs on workers: `run_batch`'s own jobs for `batch`, one
/// job per design on one worker otherwise.
fn batch_layers(pass: &Pass, wall: f64, layers: &mut Layers) {
    let busy: f64 = pass.job_seconds.iter().sum();
    let job_max = pass.job_seconds.iter().copied().fold(0.0, f64::max);
    let workers = pass.workers.max(1) as f64;
    layers.set("batch.makespan_s", wall);
    layers.set("batch.busy_s", busy);
    layers.set("batch.job_s_max", job_max);
    layers.set("batch.utilization", busy / (workers * wall));
    layers.set("batch.bound_ratio", wall / job_max.max(busy / workers));
    layers.set("batch.shards", pass.shards as f64);
}

/// Which layers partition a traced pass's wall time, per workload. For
/// `batch` they partition worker time (workers × makespan) instead.
pub fn attributed_layers(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Table1 | Kind::Scale => &[
            "run_sdc.busy_s",
            "solve.busy_s",
            "extract.busy_s",
            "dedupe.busy_s",
            "evaluate.busy_s",
            "feedback.busy_s",
            "reformulate.busy_s",
            "oracle_metrics.busy_s",
        ],
        Kind::Sweep | Kind::Batch => &[
            "solve.busy_s",
            "extract.busy_s",
            "dedupe.busy_s",
            "evaluate.busy_s",
            "feedback.busy_s",
            "reformulate.busy_s",
            "oracle_metrics.busy_s",
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_delay_check_flags_an_overlong_stage() {
        let inputs = setup(Kind::Table1, 1);
        let d = inputs.designs.iter().find(|d| d.name == "rrot").unwrap();
        let r =
            run_isdc(&d.graph, &inputs.model, &inputs.oracle, &paper_config(d.clock_ps)).unwrap();
        assert!(stage_delay_problems(&d.name, d.clock_ps, &r.schedule, &r.delays).is_empty());
        assert!(!stage_delay_problems(&d.name, 1.0, &r.schedule, &r.delays).is_empty());
    }
}
