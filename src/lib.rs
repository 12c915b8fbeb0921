//! # isdc — feedback-guided iterative SDC scheduling for HLS
//!
//! A from-scratch reproduction of *"Subgraph Extraction-based
//! Feedback-guided Iterative Scheduling for HLS"* (DATE 2024,
//! [arXiv:2401.12343](https://arxiv.org/abs/2401.12343)): an HLS scheduler
//! that iteratively refines a system-of-difference-constraints (SDC)
//! schedule using delay feedback from a downstream logic-synthesis flow,
//! cutting pipeline register usage.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`ir`] — the XLS-like dataflow IR (graphs, interpreter, text format);
//! - [`techlib`] — the SKY130-flavoured technology library;
//! - [`netlist`] — AIG netlists and bit-blasting;
//! - [`synth`] — the downstream-tool simulator (passes, STA, oracles);
//! - [`sdc`] — the difference-constraint LP solver;
//! - [`cache`] — structural-fingerprint memoization of oracle evaluations;
//! - [`core`] — ISDC itself (delay matrix, extraction, iteration driver);
//! - [`batch`] — the parallel multi-session batch engine (shared cache,
//!   period shards, worker pool);
//! - [`telemetry`] — hierarchical spans, metrics frames, and
//!   JSONL/Chrome trace export (see README § Observability);
//! - [`faults`] — deterministic fault injection for chaos testing (see
//!   README § Robustness);
//! - [`cancel`] — cooperative cancellation tokens and deadlines (one
//!   relaxed atomic load per checkpoint when disarmed);
//! - [`benchsuite`] — the 17 evaluation benchmarks and sweep generators.
//!
//! # Examples
//!
//! ```
//! use isdc::core::{run_isdc, run_sdc, IsdcConfig};
//! use isdc::ir::{Graph, OpKind};
//! use isdc::synth::{OpDelayModel, SynthesisOracle};
//! use isdc::techlib::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("mac");
//! let a = g.param("a", 8);
//! let b = g.param("b", 8);
//! let c = g.param("c", 16);
//! let p = g.binary(OpKind::Mul, a, b)?;
//! let p16 = g.unary(OpKind::ZeroExt { new_width: 16 }, p)?;
//! let s = g.binary(OpKind::Add, p16, c)?;
//! g.set_output(s);
//!
//! let lib = TechLibrary::sky130();
//! let model = OpDelayModel::new(lib.clone());
//! let oracle = SynthesisOracle::new(lib);
//! let (baseline, _) = run_sdc(&g, &model, 2500.0)?;
//! let mut config = IsdcConfig::paper_defaults(2500.0);
//! config.threads = 1;
//! let refined = run_isdc(&g, &model, &oracle, &config)?;
//! assert!(refined.schedule.register_bits(&g) <= baseline.register_bits(&g));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use isdc_batch as batch;
pub use isdc_benchsuite as benchsuite;
pub use isdc_cache as cache;
pub use isdc_cancel as cancel;
pub use isdc_core as core;
pub use isdc_faults as faults;
pub use isdc_ir as ir;
pub use isdc_netlist as netlist;
pub use isdc_sdc as sdc;
pub use isdc_synth as synth;
pub use isdc_techlib as techlib;
pub use isdc_telemetry as telemetry;
