//! # isdc-sdc — system-of-difference-constraints scheduling solver
//!
//! The LP machinery under both the baseline SDC scheduler and ISDC:
//!
//! - [`DifferenceSystem`] — constraints of the form `x_u - x_v <= b`, with
//!   Bellman-Ford feasibility and negative-cycle certificates;
//! - [`minimize`] — exact optimization of a linear objective over such a
//!   system via the min-cost-flow dual (successive shortest paths with
//!   potentials). Solutions are provably optimal and integral, matching the
//!   total-unimodularity guarantee that SDC scheduling relies on (Cong &
//!   Zhang, DAC'06; paper §II). Returned optima are *canonical* — repeated
//!   solves of equivalent systems are bit-identical;
//! - [`IncrementalSolver`] — the same LP solved repeatedly with persisted
//!   min-cost-flow state: bound relaxations (the only deltas the ISDC loop
//!   produces, by Alg. 1's monotonicity) re-solve via warm-started
//!   successive shortest paths, anything else falls back to the cold path;
//! - [`certify`] — checks a solve without solving again: the dual flow a
//!   solve ends with ([`IncrementalSolver::flow`]) certifies by LP duality
//!   that its assignment is the canonical optimum. Debug builds check every
//!   solve this way.
//!
//! This crate is deliberately independent of the IR: it can schedule
//! anything expressible as difference constraints.
//!
//! # Examples
//!
//! ```
//! use isdc_sdc::{minimize, DifferenceSystem, VarId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two ops, dependency x0 <= x1, timing forces them one cycle apart,
//! // and we minimize the span x1 - x0.
//! let mut sys = DifferenceSystem::new(2);
//! sys.add_constraint(VarId(0), VarId(1), -1); // x0 - x1 <= -1
//! let sol = minimize(&sys, &[-1, 1])?;
//! assert_eq!(sol.objective, 1); // exactly one cycle apart
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod certify;
mod incremental;
mod mcf;
mod system;

pub use certify::{certify, CertifyError};
pub use incremental::IncrementalSolver;
pub use mcf::{minimize, DrainStats, LpSolution};
pub use system::{Constraint, DifferenceSystem, SolveError, VarId};
