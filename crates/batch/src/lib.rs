//! # isdc-batch — the parallel multi-session batch engine
//!
//! [`isdc_core::IsdcSession`] made one design fast across runs; this crate
//! makes a **fleet of designs and clock periods** fast together — the
//! "many designs × many periods at once" service workload of the roadmap's
//! production north star:
//!
//! - a [`Job`] model (clock-period sweeps, minimum-feasible-period
//!   searches) with an on-disk JSON [`spec`] the CLI consumes;
//! - a **shard planner** ([`plan_shards`]) that splits sweeps into
//!   contiguous period chunks, preserving ascending-period warm starts
//!   inside each shard while still filling a pool from a single wide
//!   sweep;
//! - a **worker pool** ([`run_batch`]) of scoped threads drawing shards
//!   from a shared-index queue, each worker running one
//!   [`IsdcSession`](isdc_core::IsdcSession) at a time, all sessions
//!   sharing one [`isdc_cache::DelayCache`] — delay reports and LP
//!   potentials discovered by any worker are instantly visible fleet-wide,
//!   and a snapshot file ([`isdc_cache::DelayCache::load_resilient`],
//!   `batch --cache-file`) carries them into the next process;
//! - a deterministic **aggregator** ([`BatchReport`]) stitching shard
//!   outputs back into per-job records — the same
//!   [`isdc_core::SweepPoint`]s a serial sweep produces — plus
//!   [`render_batch_json`] for the `BENCH_batch.json` scaling document.
//!
//! **The guarantee:** batch output is bit-identical to the serial session
//! sweep ([`serial_reference`]) for every job, at every thread count and
//! shard size. Both shared assets are pure accelerators, so parallelism
//! changes wall-clock time and nothing else (enforced by `tests/batch.rs`).
//!
//! **Fault tolerance:** every shard runs behind a panic boundary, failures
//! become structured per-job [`JobStatus`] records (with bounded
//! deterministic retries for transient faults), and [`FailPolicy`] picks
//! between aborting the queue and `--keep-going`. Unaffected jobs stay
//! bit-identical even with a fault injected — `tests/chaos.rs` proves it
//! for every `isdc_faults` site.
//!
//! # Examples
//!
//! ```
//! use isdc_batch::{run_batch, BatchDesign, BatchOptions, Job};
//! use isdc_cache::DelayCache;
//! use isdc_core::IsdcConfig;
//! use isdc_ir::{Graph, OpKind};
//! use isdc_synth::{OpDelayModel, SynthesisOracle};
//! use isdc_techlib::TechLibrary;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("mac");
//! let a = g.param("a", 8);
//! let b = g.param("b", 8);
//! let p = g.binary(OpKind::Mul, a, b)?;
//! g.set_output(p);
//!
//! let mut base = IsdcConfig::paper_defaults(2500.0);
//! base.threads = 1;
//! let designs = vec![BatchDesign { name: "mac".into(), graph: g, base }];
//! let jobs = vec![Job::sweep("mac", vec![2500.0, 3000.0, 3500.0])];
//!
//! let lib = TechLibrary::sky130();
//! let model = OpDelayModel::new(lib.clone());
//! let oracle = SynthesisOracle::new(lib);
//! let cache = Arc::new(DelayCache::new());
//! let options = BatchOptions { threads: 2, shard_points: 2, ..Default::default() };
//! let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache)?;
//! assert_eq!(report.total_points(), 3);
//! assert!(report.jobs[0].points.iter().all(|p| p.feasible));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod engine;
mod report;
pub mod spec;

pub use engine::{
    plan_shards, run_batch, serial_reference, BatchDesign, BatchError, BatchOptions, BatchReport,
    FailPolicy, JobError, JobErrorKind, JobResult, JobStatus, ShardJob,
};
pub use report::{render_batch_json, BatchBenchDoc, ScalingRow};
pub use spec::{parse_jobs, render_jobs, Job, JobKind};
