//! Persistent cross-run scheduling sessions.
//!
//! [`run_isdc`](crate::run_isdc) is one-shot: the structural-fingerprint
//! delay cache and the warm-started LP engine it builds die with the call.
//! An [`IsdcSession`] keeps both alive **across runs** of the same design:
//!
//! - the [`DelayCache`] memoizes downstream oracle evaluations, so a re-run
//!   (or the next point of a clock-period sweep, whose extracted subgraphs
//!   overlap almost completely) evaluates mostly from cache;
//! - the initial LP solve of each run exports its solver potentials, keyed
//!   by the design's structural fingerprint and clock period; later runs
//!   import the nearest stored vector and — when it validates against their
//!   own LP — skip the cold Bellman-Ford start entirely.
//!
//! Both assets are *pure accelerators*: cached reports replay
//! bit-identically and the LP canonicalizes its optimum independent of the
//! solve path, so every session run produces exactly the schedule an
//! independent [`run_isdc`](crate::run_isdc) would (guarded by the sweep
//! determinism tests).
//!
//! Sessions persist to disk through the same snapshot file the cache uses
//! ([`IsdcSession::save_snapshot`] / [`IsdcSession::load_snapshot`]):
//! format version 2 stores learned potentials alongside the delay entries,
//! under the same oracle identity tag.
//!
//! # Examples
//!
//! ```
//! use isdc_core::{IsdcConfig, IsdcSession};
//! use isdc_ir::{Graph, OpKind};
//! use isdc_synth::{OpDelayModel, SynthesisOracle};
//! use isdc_techlib::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
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
//! let mut config = IsdcConfig::paper_defaults(5000.0);
//! config.threads = 1;
//!
//! let mut session = IsdcSession::new(&g, &model, &oracle);
//! let first = session.run(&config)?;
//! let second = session.run(&config)?;
//! assert_eq!(first.result.schedule, second.result.schedule);
//! assert_eq!(second.cache_misses, 0, "a repeat run evaluates purely from cache");
//! # Ok(())
//! # }
//! ```

use crate::driver::{run_pipeline, IsdcConfig, IsdcResult};
use crate::pipeline::RunSeed;
use crate::scheduler::{IncrementalScheduler, ScheduleError};
use isdc_cache::{canonicalize, CacheStats, CachingOracle, DelayCache, Fingerprint};
use isdc_ir::{Graph, NodeId};
use isdc_synth::{DelayOracle, OpDelayModel};
use isdc_techlib::Picos;
use std::path::Path;
use std::sync::Arc;

/// One completed run within a session: the full [`IsdcResult`] plus the
/// session-level warm-start and cache accounting for this run alone.
#[derive(Clone, Debug)]
pub struct SessionRun {
    /// The clock period this run scheduled for.
    pub clock_period_ps: Picos,
    /// Whether the run's *initial* LP solve was warm-started from
    /// potentials learned by an earlier run (always false for the first run
    /// of a fresh, snapshotless session).
    pub warm_start: bool,
    /// Oracle-cache hits of this run's own lookups (other sessions
    /// sharing the cache do not count here). The run looks up only member
    /// sets it has not timed yet, since it answers in-run repeats itself,
    /// so its hits are entries from earlier runs or snapshots and
    /// structurally identical regions at other node ids.
    pub cache_hits: u64,
    /// Oracle-cache misses of this run's own lookups.
    pub cache_misses: u64,
    /// The run itself — bit-identical to what an independent
    /// [`run_isdc`](crate::run_isdc) at the same config produces.
    pub result: IsdcResult,
}

impl SessionRun {
    /// Cache hits over lookups for this run, or 0.0 without lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        CacheStats { hits: self.cache_hits, misses: self.cache_misses, ..CacheStats::default() }
            .hit_rate()
    }

    /// Iterations whose LP re-solve was warm-started.
    pub fn warm_solves(&self) -> usize {
        self.result.history.iter().filter(|r| r.solver_warm).count()
    }

    /// Iterations solved cold (including the initial solve unless it
    /// imported potentials).
    pub fn cold_solves(&self) -> usize {
        self.result.history.len() - self.warm_solves()
    }
}

/// A persistent scheduling engine for one design: runs the staged ISDC
/// pipeline any number of times (different clock periods, strategies,
/// iteration budgets) while carrying the learned delay cache and LP
/// potentials across runs. Both are pure accelerators: every run yields
/// exactly the schedule an independent [`run_isdc`](crate::run_isdc) would.
pub struct IsdcSession<'a, O: ?Sized> {
    graph: &'a Graph,
    model: &'a OpDelayModel,
    oracle: &'a O,
    cache: Arc<DelayCache>,
    design_key: Fingerprint,
    /// The most recent run's engine as of its *initial* solve (naive-matrix
    /// bounds at that run's period) — the strongest warm-start: the next
    /// run retargets it to its own period instead of rebuilding the LP.
    engine: Option<IncrementalScheduler>,
    runs: usize,
}

impl<'a, O: DelayOracle + ?Sized> IsdcSession<'a, O> {
    /// A session over `graph` with a fresh private cache.
    pub fn new(graph: &'a Graph, model: &'a OpDelayModel, oracle: &'a O) -> Self {
        Self::with_cache(graph, model, oracle, Arc::new(DelayCache::new()))
    }

    /// A session sharing an existing cache (e.g. one loaded from a snapshot
    /// or shared between sessions over structurally-overlapping designs).
    pub fn with_cache(
        graph: &'a Graph,
        model: &'a OpDelayModel,
        oracle: &'a O,
        cache: Arc<DelayCache>,
    ) -> Self {
        let all: Vec<NodeId> = graph.node_ids().collect();
        let design_key = canonicalize(graph, &all).fingerprint;
        Self { graph, model, oracle, cache, design_key, engine: None, runs: 0 }
    }

    /// The session's shared cache handle (delay entries + potentials).
    pub fn cache(&self) -> &Arc<DelayCache> {
        &self.cache
    }

    /// The design's canonical structural fingerprint — the identity under
    /// which this session's potentials are stored.
    pub fn design_key(&self) -> Fingerprint {
        self.design_key
    }

    /// Number of successful [`IsdcSession::run`] calls so far.
    pub fn runs_completed(&self) -> usize {
        self.runs
    }

    /// The design's timing floor: the first node with the largest naive
    /// delay, and that delay. A run at period `T` fails with
    /// [`ScheduleError::OperationExceedsClock`] exactly when the delay
    /// exceeds `T` — the scheduler makes that `>` test on the naive matrix
    /// before a run's first solve, and feedback only ever lowers a node's
    /// delay. `None` when no node has a delay (an empty graph).
    pub fn timing_floor(&self) -> Option<(NodeId, Picos)> {
        let delays = self.model.all_node_delays(self.graph);
        let mut floor: Option<(NodeId, Picos)> = None;
        for (v, d) in self.graph.node_ids().zip(delays) {
            // `>` skips NaN exactly as the scheduler's test does, and
            // keeps the first of equal maxima, the node it reports.
            if d > floor.map_or(f64::NEG_INFINITY, |(_, max)| max) {
                floor = Some((v, d));
            }
        }
        floor
    }

    /// Merges a persisted snapshot (delay entries and potentials) into the
    /// session, returning the number of delay entries merged. Tagged with
    /// the session oracle's identity, like
    /// [`run_isdc`](crate::run_isdc)'s `cache_file`.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure, including an oracle-tag mismatch.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize, String> {
        self.cache.load(path, self.oracle.name())
    }

    /// Like [`IsdcSession::load_snapshot`], but with the fleet's
    /// degrade-instead-of-error policy: a corrupt snapshot is quarantined
    /// (`<name>.corrupt`) and the session starts cold; see
    /// [`isdc_cache::SnapshotLoad`].
    pub fn load_snapshot_resilient(&self, path: &Path) -> isdc_cache::SnapshotLoad {
        self.cache.load_resilient(path, self.oracle.name())
    }

    /// Persists the session's cache — delay entries *and* learned
    /// potentials — to `path` (current snapshot format, written
    /// crash-safely: temp-then-rename with an integrity footer).
    ///
    /// # Errors
    ///
    /// Returns the I/O failure.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), String> {
        self.cache.save(path, self.oracle.name())
    }

    /// Runs the full ISDC loop at `config`, reusing everything earlier runs
    /// learned. `config.cache` / `config.cache_file` are ignored: a session
    /// always memoizes through its own cache, and persistence goes through
    /// [`IsdcSession::save_snapshot`].
    ///
    /// # Errors
    ///
    /// See [`run_isdc`](crate::run_isdc).
    pub fn run(&mut self, config: &IsdcConfig) -> Result<SessionRun, ScheduleError> {
        // Wraps the pipeline's own "run" span, so the gap between the two
        // is exactly the session's seed/handoff overhead.
        let _span = isdc_telemetry::span_f64("session:run", "clock_ps", config.clock_period_ps);
        let caching = CachingOracle::with_cache(self.oracle, Arc::clone(&self.cache));
        let stats = || caching.stats();
        // Strongest seed first: the previous run's engine, retargeted to
        // this run's period (cloned, so an infeasible period cannot consume
        // it). Fallback — e.g. a fresh session restored from a snapshot —
        // is the nearest stored potential vector: exact clock first, then
        // the closest shorter period (its optimum satisfies this run's
        // relaxed timing bounds by monotonicity of Eq. 2 in the period),
        // then the closest longer one as a validated long shot.
        let prior = if self.engine.is_none() {
            self.cache.nearest_potentials(self.design_key, config.clock_period_ps)
        } else {
            None
        };
        let seed = RunSeed {
            engine: self.engine.clone(),
            potentials: prior.as_ref().map(|(_, pi)| pi.as_slice()),
            export_engine: true,
        };
        let mut outcome =
            run_pipeline(self.graph, self.model, &caching, config, Some(&stats), seed)?;
        if let Some(engine) = outcome.initial_engine.take() {
            self.engine = Some(engine);
        }
        if let Some(pi) = &outcome.initial_potentials {
            self.cache.store_potentials(self.design_key, config.clock_period_ps, pi.clone());
        }
        self.runs += 1;
        let result = outcome.result;
        Ok(SessionRun {
            clock_period_ps: config.clock_period_ps,
            warm_start: result.history[0].solver_warm,
            cache_hits: result.metrics.counter_or_zero("cache/hits"),
            cache_misses: result.metrics.counter_or_zero("cache/misses"),
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_isdc;
    use isdc_ir::OpKind;
    use isdc_synth::SynthesisOracle;
    use isdc_techlib::TechLibrary;

    fn datapath() -> Graph {
        let mut g = Graph::new("dp");
        let inputs: Vec<_> = (0..10).map(|i| g.param(format!("p{i}"), 8)).collect();
        let mut acc = g.binary(OpKind::Add, inputs[0], inputs[1]).unwrap();
        for &p in &inputs[2..] {
            acc = g.binary(OpKind::Add, acc, p).unwrap();
        }
        let out = g.binary(OpKind::Xor, acc, inputs[0]).unwrap();
        g.set_output(out);
        g
    }

    fn quick_config(clock: f64) -> IsdcConfig {
        IsdcConfig {
            subgraphs_per_iteration: 8,
            max_iterations: 6,
            threads: 1,
            ..IsdcConfig::paper_defaults(clock)
        }
    }

    #[test]
    fn session_runs_match_independent_cold_runs() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let mut session = IsdcSession::new(&g, &model, &oracle);
        for clock in [2500.0, 3000.0, 2500.0] {
            let run = session.run(&quick_config(clock)).unwrap();
            let cold = run_isdc(&g, &model, &oracle, &quick_config(clock)).unwrap();
            assert_eq!(run.result.schedule, cold.schedule, "clock {clock}");
            assert_eq!(
                run.result.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
                cold.history.iter().map(|r| r.register_bits).collect::<Vec<_>>(),
                "clock {clock}"
            );
        }
        assert_eq!(session.runs_completed(), 3);
    }

    #[test]
    fn repeat_run_is_fully_cached_and_warm_started() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let mut session = IsdcSession::new(&g, &model, &oracle);
        let first = session.run(&quick_config(2500.0)).unwrap();
        assert!(!first.warm_start, "nothing to import on a fresh session");
        assert!(first.cache_hits + first.cache_misses > 0);
        let second = session.run(&quick_config(2500.0)).unwrap();
        assert!(second.warm_start, "same-clock re-run must import its own potentials");
        assert!(second.result.history[0].solver_warm, "the initial solve itself goes warm");
        assert_eq!(second.cache_misses, 0, "every evaluation must replay from cache");
        assert!(second.cache_hit_rate() == 1.0);
        assert_eq!(second.warm_solves(), second.result.history.len());
        assert_eq!(first.result.schedule, second.result.schedule);
    }

    #[test]
    fn ascending_clocks_warm_start_from_the_tighter_run() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let g = datapath();
        let mut session = IsdcSession::new(&g, &model, &oracle);
        session.run(&quick_config(2500.0)).unwrap();
        let looser = session.run(&quick_config(3200.0)).unwrap();
        assert!(looser.warm_start, "a tighter clock's optimum must validate at a looser clock");
    }
}
