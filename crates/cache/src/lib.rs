//! # isdc-cache — structural-fingerprint delay memoization
//!
//! The ISDC feedback loop (paper §III-A, Fig. 2) invokes the downstream
//! synthesis stack — bit-blast, AIG optimization, mapping, STA — on the
//! extracted subgraphs of every iteration, and the downstream call is the
//! dominant cost of `run_isdc`. A run answers its own repeats of a member
//! set from its own reports; this crate turns the repeats a run cannot see
//! — structurally identical regions at other node ids, and the same
//! subgraphs in later runs, sweep points and processes — into cache hits:
//!
//! - [`canonicalize`] reduces a subgraph to a **canonical structural
//!   fingerprint** — a 128-bit key over op kinds + attributes, operand
//!   widths and wiring, boundary-input widths and sharing, and output
//!   visibility — invariant to node-id numbering, member ordering and node
//!   names;
//! - [`DelayCache`] is a **sharded, thread-safe map** from fingerprints to
//!   delay reports with hit/miss/insert counters, safe under
//!   [`evaluate_parallel_cancellable`](isdc_synth::evaluate_parallel_cancellable);
//! - [`CachingOracle`] wraps any [`DelayOracle`](isdc_synth::DelayOracle),
//!   replaying cached per-output arrivals onto the caller's node ids via the
//!   canonical order;
//! - [`DelayCache::save`] / [`DelayCache::load`] persist a cache **snapshot
//!   as JSON**, so delay data survives across CLI runs and sweeps;
//! - the cache also carries the **LP potentials** a scheduling session
//!   exports per (design fingerprint, clock period)
//!   ([`DelayCache::store_potentials`] / [`DelayCache::nearest_potentials`])
//!   — persisted in snapshot format version 2 alongside the delay entries,
//!   under the same oracle identity tag.
//!
//! The per-op [`OpDelayModel`](isdc_synth::OpDelayModel) cache plays the
//! same trick at single-op granularity; this crate generalizes it to whole
//! subgraphs.
//!
//! # Examples
//!
//! ```
//! use isdc_cache::{canonicalize, CachingOracle};
//! use isdc_ir::{Graph, OpKind};
//! use isdc_synth::{DelayOracle, SynthesisOracle};
//! use isdc_techlib::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two structurally identical multiply-adds at different node ids.
//! let mut g = Graph::new("t");
//! let mut roots = Vec::new();
//! for tag in ["x", "y"] {
//!     let a = g.param(format!("{tag}_a"), 16);
//!     let b = g.param(format!("{tag}_b"), 16);
//!     let m = g.binary(OpKind::Mul, a, b)?;
//!     let s = g.binary(OpKind::Add, m, a)?;
//!     g.set_output(s);
//!     roots.push(vec![m, s]);
//! }
//! assert_eq!(
//!     canonicalize(&g, &roots[0]).fingerprint,
//!     canonicalize(&g, &roots[1]).fingerprint,
//! );
//!
//! // The second evaluation is served from the cache.
//! let oracle = CachingOracle::new(SynthesisOracle::new(TechLibrary::sky130()));
//! let first = oracle.evaluate(&g, &roots[0]);
//! let second = oracle.evaluate(&g, &roots[1]);
//! assert_eq!(first.delay_ps, second.delay_ps);
//! assert_eq!(oracle.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod fingerprint;
mod oracle;
mod persist;
mod store;

pub use fingerprint::{canonicalize, CanonicalSubgraph, Fingerprint};
pub use oracle::CachingOracle;
pub use persist::{SnapshotLoad, OLDEST_SUPPORTED_SNAPSHOT_VERSION, SNAPSHOT_VERSION};
pub use store::{CacheStats, CachedDelay, DelayCache, StoredPotentials};
