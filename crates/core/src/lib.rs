//! # isdc-core — feedback-guided iterative SDC scheduling
//!
//! The paper's primary contribution: an iterative HLS scheduling loop that
//! refines a system-of-difference-constraints (SDC) schedule with low-level
//! feedback from downstream tools, reducing pipeline register usage.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | §II SDC formulation, Eq. 2 | [`schedule_with_matrix`] |
//! | §III-B subgraph extraction (Fig. 3, Fig. 4) | [`extract_subgraphs`], [`ScoringStrategy`], [`ShapeStrategy`] |
//! | §III-C Alg. 1 delay updating | [`DelayMatrix::apply_subgraph_feedback`] |
//! | §III-D Alg. 2 SDC reformulation | [`DelayMatrix::reformulate`] (+ [`DelayMatrix::reformulate_exact`]) |
//! | §III-A overall flow (Fig. 2) | [`run_isdc`], [`IsdcConfig`] |
//! | Table I metrics | [`Schedule::register_bits`], [`metrics`] |
//!
//! On top of the paper, the crate exploits Alg. 1's monotonicity for speed:
//! feedback and reformulation report their writes as a [`DirtySet`] (dirty
//! rows and columns), Alg. 2 runs as a worklist sweep over just the dirty
//! region ([`DelayMatrix::reformulate_incremental`]) and, like Eq. 2
//! emission, walks only the connected pairs the matrix indexed at
//! initialization, and the SDC LP persists across iterations in an
//! [`IncrementalScheduler`] that re-sweeps only dirty rows' timing bounds
//! and re-solves warm
//! ([`isdc_sdc::IncrementalSolver`]). Every solve goes through that engine,
//! and each iteration's schedule is bit-identical to a from-scratch
//! [`DelayMatrix::reformulate`] plus [`schedule_with_matrix`] on the same
//! feedback.
//!
//! The loop itself is a staged pipeline ([`pipeline`]: `Extract -> Dedupe
//! -> Evaluate -> Feedback -> Reformulate -> Solve`), and both persistent
//! assets cross *run* boundaries through [`IsdcSession`]: re-runs and
//! clock-period sweeps ([`sweep_clock_period`], [`min_feasible_period`])
//! reuse learned delays and LP state while staying bit-identical to
//! independent runs ([`sweep_clock_period_independent`]).
//!
//! # Examples
//!
//! ```
//! use isdc_core::{run_isdc, run_sdc, IsdcConfig};
//! use isdc_ir::{Graph, OpKind};
//! use isdc_synth::{OpDelayModel, SynthesisOracle};
//! use isdc_techlib::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small multiply-accumulate datapath.
//! let mut g = Graph::new("mac");
//! let a = g.param("a", 16);
//! let b = g.param("b", 16);
//! let c = g.param("c", 16);
//! let p = g.binary(OpKind::Mul, a, b)?;
//! let s = g.binary(OpKind::Add, p, c)?;
//! g.set_output(s);
//!
//! let lib = TechLibrary::sky130();
//! let model = OpDelayModel::new(lib.clone());
//! let oracle = SynthesisOracle::new(lib);
//!
//! let (baseline, _) = run_sdc(&g, &model, 5000.0)?;
//! let mut config = IsdcConfig::paper_defaults(5000.0);
//! config.threads = 1;
//! let refined = run_isdc(&g, &model, &oracle, &config)?;
//! assert!(refined.schedule.register_bits(&g) <= baseline.register_bits(&g));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod delay;
mod driver;
pub mod metrics;
pub mod pipeline;
mod schedule;
mod scheduler;
mod session;
mod subgraph;
mod sweep;

pub use delay::{DelayMatrix, DirtySet};
pub use driver::{run_isdc, run_sdc, IsdcConfig, IsdcResult, IterationRecord};
pub use isdc_cache::{CacheStats, CachingOracle, DelayCache};
pub use isdc_sdc::DrainStats;
pub use pipeline::{PipelineState, RunSeed, Stage, StageKind};
pub use schedule::Schedule;
pub use scheduler::{
    schedule_with_matrix, IncrementalScheduler, ScheduleCertifyError, ScheduleError, SparsifyStats,
};
pub use session::{IsdcSession, SessionRun};
pub use subgraph::{
    cone_of, extract_subgraphs, window_of, ExtractionConfig, ScoringStrategy, ShapeStrategy,
    Subgraph,
};
pub use sweep::{
    linear_grid, min_feasible_period, render_sweep_json, sweep_clock_period,
    sweep_clock_period_independent, MinPeriodSearch, SweepPoint, MAX_GRID_POINTS,
};
