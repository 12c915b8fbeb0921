//! # isdc-synth — the downstream-tool simulator
//!
//! The paper's feedback loop sends combinational subgraphs through
//! "downstream tools like logic synthesizers" (Yosys + OpenSTA + SKY130 in
//! their evaluation) and folds the reported delays back into scheduling.
//! This crate is that downstream stack, built from scratch:
//!
//! - [`SynthScript`] and [`balance`] — AIG optimization (sweep, depth-oriented
//!   balancing) over `isdc-netlist` AIGs;
//! - [`sta`] — static timing analysis with the `isdc-techlib` load model;
//! - [`OpDelayModel`] — per-op delay pre-characterization (what the HLS
//!   scheduler's naive estimates are made of);
//! - [`DelayOracle`] and implementations — the feedback interface ISDC
//!   consumes, including parallel evaluation of many subgraphs.
//!
//! # Examples
//!
//! ```
//! use isdc_ir::{Graph, OpKind};
//! use isdc_synth::{DelayOracle, SynthesisOracle, OpDelayModel};
//! use isdc_techlib::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three chained adds: the synthesized whole is faster than the sum of
//! // its parts — the slack ISDC feeds on.
//! let mut g = Graph::new("chain");
//! let a = g.param("a", 16);
//! let b = g.param("b", 16);
//! let c = g.param("c", 16);
//! let x = g.binary(OpKind::Add, a, b)?;
//! let y = g.binary(OpKind::Add, x, c)?;
//! g.set_output(y);
//!
//! let lib = TechLibrary::sky130();
//! let model = OpDelayModel::new(lib.clone());
//! let naive: f64 = model.node_delay(&g, x) + model.node_delay(&g, y);
//! let oracle = SynthesisOracle::new(lib);
//! let measured = oracle.evaluate(&g, &[x, y]).delay_ps;
//! assert!(measured < naive);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod characterize;
mod oracle;
mod passes;
pub mod sta;

pub use characterize::OpDelayModel;
pub use oracle::{
    evaluate_parallel_cancellable, AigDepthOracle, DelayOracle, DelayReport, NaiveSumOracle,
    SynthesisOracle,
};
pub use passes::{balance, Pass, SynthScript};
