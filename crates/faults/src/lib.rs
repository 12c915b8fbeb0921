//! # isdc-faults — deterministic fault injection for the ISDC fleet
//!
//! Chaos testing needs failures that are **reproducible**: a fault that
//! fires on "the 3rd oracle evaluation" fires there every run, so a chaos
//! test can assert the exact blast radius (one failed job, everything else
//! bit-identical). This crate provides that: a [`FaultPlan`] keyed by
//! *site name + hit count*, installed process-globally, consulted by inert
//! hooks compiled into the production code.
//!
//! The contract mirrors `isdc-telemetry`'s: **disabled cost ≈ zero**. With
//! no plan installed, [`check`] (and its wrappers [`fire`] / [`trip`]) is a
//! single relaxed atomic load — no lock, no allocation, no clock read — so
//! hooks can sit on warm paths permanently (`tests/overhead.rs` enforces
//! this with a counting allocator, same as the telemetry guard).
//!
//! # Sites
//!
//! A *site* is a `&'static str` name at an instrumented point; the bundled
//! hooks are listed in [`SITES`]:
//!
//! | site                 | location                              | effect of a fault |
//! |----------------------|---------------------------------------|-------------------|
//! | `oracle/eval`        | `CachingOracle::evaluate`             | panic             |
//! | `cache/insert`       | `DelayCache::insert`                  | panic             |
//! | `snapshot/write`     | `DelayCache::save`                    | torn write / error / panic |
//! | `solver/drain`       | the pipeline's Solve stage            | error / panic     |
//! | `batch/shard`        | the batch worker, before a shard runs | panic             |
//! | `pipeline/iteration` | `run_pipeline`, top of each iteration | error / panic     |
//! | `batch/shard-stall`  | the batch worker, before a shard runs | stall (sleep)     |
//!
//! # Determinism
//!
//! Hit counts are per-site and process-global: the *N*-th call to a site
//! fires the arm planned for hit *N*, regardless of which thread makes it.
//! Under a multi-threaded fleet the interleaving decides *which* job owns
//! the N-th call, so the failed job may vary with thread count — but
//! exactly one fault fires per planned arm, and every job the fault did
//! not touch is bit-identical to a fault-free run (the shared cache and
//! potentials are pure accelerators). Single-threaded runs are fully
//! deterministic end to end.
//!
//! # Examples
//!
//! ```
//! use isdc_faults::{FaultKind, FaultPlan};
//!
//! // Nothing installed: hooks are inert.
//! assert!(isdc_faults::check("oracle/eval").is_none());
//!
//! // Fail the second oracle evaluation.
//! isdc_faults::install(FaultPlan::new().with("oracle/eval", 1, FaultKind::Error));
//! assert!(isdc_faults::check("oracle/eval").is_none()); // hit 0
//! assert_eq!(isdc_faults::check("oracle/eval"), Some(FaultKind::Error)); // hit 1
//! assert!(isdc_faults::check("oracle/eval").is_none()); // hit 2
//! assert_eq!(isdc_faults::injected_count(), 1);
//! isdc_faults::clear();
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What an injected fault does at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (exercises `catch_unwind` isolation and lock
    /// poisoning recovery).
    Panic,
    /// Return an error from the site (exercises error propagation and the
    /// retry path). Sites that cannot return errors escalate this to a
    /// panic via [`fire`].
    Error,
    /// Truncate an in-flight write (exercises torn-write recovery). Only
    /// meaningful at write sites; elsewhere it behaves like
    /// [`FaultKind::Error`].
    TruncateWrite,
    /// Stall the calling thread at the site for [`stall_ms`] milliseconds
    /// (exercises deadlines and the batch stall watchdog). The stall
    /// happens *inside* the hook — every wrapper then proceeds normally
    /// ([`check`] reports `None`, [`fire`] returns, [`trip`] is `Ok`) —
    /// and it ends early if the thread's `isdc_cancel` token trips.
    /// Deliberately excluded from [`FaultPlan::seeded`] so seed-sweep
    /// chaos invariants (every fired fault fails a job) keep holding.
    Stall,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::TruncateWrite => "truncate-write",
            FaultKind::Stall => "stall",
        })
    }
}

/// One planned injection: at `site`, on its `hit`-th call (0-based), do
/// `kind`. Each arm fires at most once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultArm {
    /// The instrumented site's name.
    pub site: String,
    /// Which call to the site fires the fault (0 = the first call).
    pub hit: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A deterministic set of planned injections, installed with [`install`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned injections.
    pub arms: Vec<FaultArm>,
}

/// The catalog of sites the workspace hooks (see the crate docs table).
/// Seed sweeps iterate this; new hooks must be added here so chaos tests
/// cover them.
pub const SITES: &[&str] = &[
    "oracle/eval",
    "cache/insert",
    "snapshot/write",
    "solver/drain",
    "batch/shard",
    "pipeline/iteration",
    "batch/shard-stall",
];

impl FaultPlan {
    /// An empty plan (installing it still counts hits, but never fires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: adds one arm.
    pub fn with(mut self, site: impl Into<String>, hit: u64, kind: FaultKind) -> Self {
        self.arms.push(FaultArm { site: site.into(), hit, kind });
        self
    }

    /// A single-fault plan derived deterministically from `seed`: picks one
    /// of `sites`, a small hit index, and a [`FaultKind`], all from a
    /// splitmix64 stream. The same seed always yields the same plan, so a
    /// chaos sweep over `seed in 0..N` is reproducible anywhere.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    pub fn seeded(seed: u64, sites: &[&str]) -> Self {
        assert!(!sites.is_empty(), "seeded plan needs at least one site");
        let mut state = seed;
        let site = sites[(splitmix64(&mut state) % sites.len() as u64) as usize];
        let hit = splitmix64(&mut state) % 4;
        let kind = match splitmix64(&mut state) % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Error,
            _ => FaultKind::TruncateWrite,
        };
        Self::new().with(site, hit, kind)
    }
}

/// The standard splitmix64 step — the same generator the workspace's
/// proptest shims use, chosen for its even low-bit diffusion.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Installed {
    plan: FaultPlan,
    /// Calls seen so far, per site.
    hits: HashMap<String, u64>,
    /// Faults actually fired since install.
    injected: u64,
}

/// The one-relaxed-load fast-path gate: true only while a plan is
/// installed. Everything else lives behind the mutex.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Installed>> = Mutex::new(None);

/// How long a fired [`FaultKind::Stall`] sleeps, in milliseconds.
static STALL_MS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(250);

/// Sets the duration of injected stalls. Tests tune this so a stall
/// reliably overruns a deadline without inflating suite wall-time.
pub fn set_stall_ms(ms: u64) {
    STALL_MS.store(ms, Ordering::SeqCst);
}

/// The configured injected-stall duration in milliseconds (default 250).
pub fn stall_ms() -> u64 {
    STALL_MS.load(Ordering::Relaxed)
}

fn state_lock() -> std::sync::MutexGuard<'static, Option<Installed>> {
    // A panicking fault *inside* a hook caller can poison this lock while
    // it is held by no one relevant; recover rather than cascade — the
    // state is only ever mutated under the lock, so it is consistent.
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `plan`, arming every hook, and resets hit/injected counters.
/// Replaces any previously installed plan.
pub fn install(plan: FaultPlan) {
    let mut state = state_lock();
    *state = Some(Installed { plan, hits: HashMap::new(), injected: 0 });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms every hook and drops the installed plan. Hit and injected
/// counts reset on the next [`install`].
pub fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    *state_lock() = None;
}

/// Whether a fault plan is currently installed.
#[inline]
pub fn enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Faults fired since the last [`install`] (0 when disarmed).
pub fn injected_count() -> u64 {
    state_lock().as_ref().map_or(0, |s| s.injected)
}

/// The raw hook: counts a call to `site` and returns the planned fault for
/// this hit, if any. **Disabled cost: one relaxed atomic load.**
#[inline]
pub fn check(site: &'static str) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &'static str) -> Option<FaultKind> {
    let mut guard = state_lock();
    let state = guard.as_mut()?;
    let hit = {
        let counter = state.hits.entry(site.to_string()).or_insert(0);
        let hit = *counter;
        *counter += 1;
        hit
    };
    let fired = state
        .plan
        .arms
        .iter()
        .find(|arm| arm.site == site && arm.hit == hit)
        .map(|arm| arm.kind)?;
    state.injected += 1;
    drop(guard);
    // Stamp the site into the calling thread's flight tail, so a
    // post-mortem dump names the exact fault site even when the panic
    // unwinds through layers that lose the message.
    isdc_telemetry::flight_fault(site);
    if fired == FaultKind::Stall {
        // The stall happens here so every wrapper (`check`/`fire`/`trip`)
        // observes it identically, then proceeds as if nothing fired.
        // Sliced sleep: an `isdc_cancel` cancellation (deadline, watchdog)
        // cuts the stall short instead of holding the thread hostage.
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(stall_ms());
        while std::time::Instant::now() < deadline && !isdc_cancel::cancelled() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        return None;
    }
    Some(fired)
}

/// An injected, non-panic fault surfaced as an error value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: &'static str,
    /// The planned kind ([`FaultKind::Error`] or
    /// [`FaultKind::TruncateWrite`]; panics never reach an error value).
    pub kind: FaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected {} fault at {}", self.kind, self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// Hook for *infallible* sites: any planned fault becomes a panic (there
/// is no error channel to return through). Inert without a plan.
///
/// # Panics
///
/// Panics iff the installed plan fires at this site/hit.
#[inline]
pub fn fire(site: &'static str) {
    if let Some(kind) = check(site) {
        panic!("injected {kind} fault at {site}");
    }
}

/// Hook for *fallible* sites: a planned [`FaultKind::Panic`] panics,
/// anything else returns an [`InjectedFault`] for the caller to propagate.
/// Inert without a plan.
///
/// # Errors
///
/// Returns the injected fault when the plan fires with a non-panic kind.
///
/// # Panics
///
/// Panics iff the plan fires with [`FaultKind::Panic`].
#[inline]
pub fn trip(site: &'static str) -> Result<(), InjectedFault> {
    match check(site) {
        None => Ok(()),
        Some(FaultKind::Panic) => panic!("injected panic fault at {site}"),
        Some(kind) => Err(InjectedFault { site, kind }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The installed plan is process-global; tests in this module must not
    /// interleave installs.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = serial();
        clear();
        assert!(!enabled());
        assert!(check("oracle/eval").is_none());
        fire("oracle/eval");
        assert!(trip("solver/drain").is_ok());
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn arm_fires_exactly_on_its_hit() {
        let _g = serial();
        install(FaultPlan::new().with("oracle/eval", 2, FaultKind::Error));
        assert_eq!(check("oracle/eval"), None);
        assert_eq!(check("cache/insert"), None, "other sites have their own counters");
        assert_eq!(check("oracle/eval"), None);
        assert_eq!(check("oracle/eval"), Some(FaultKind::Error));
        assert_eq!(check("oracle/eval"), None, "an arm fires once");
        assert_eq!(injected_count(), 1);
        clear();
    }

    #[test]
    fn reinstall_resets_counters() {
        let _g = serial();
        install(FaultPlan::new().with("s", 0, FaultKind::Error));
        assert!(check("s").is_some());
        install(FaultPlan::new().with("s", 0, FaultKind::Error));
        assert_eq!(injected_count(), 0, "install resets the injected count");
        assert!(check("s").is_some(), "and the hit counters");
        clear();
    }

    #[test]
    fn trip_surfaces_non_panic_kinds_as_errors() {
        let _g = serial();
        install(FaultPlan::new().with("solver/drain", 0, FaultKind::TruncateWrite));
        let err = trip("solver/drain").unwrap_err();
        assert_eq!(err.site, "solver/drain");
        assert!(err.to_string().contains("truncate-write"));
        clear();
    }

    #[test]
    fn fire_panics_on_any_kind() {
        let _g = serial();
        install(FaultPlan::new().with("cache/insert", 0, FaultKind::Error));
        let panicked = std::panic::catch_unwind(|| fire("cache/insert")).expect_err("must panic");
        let msg = panicked.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("cache/insert"), "{msg}");
        clear();
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_sites() {
        let _g = serial();
        let mut sites_seen = std::collections::HashSet::new();
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, SITES);
            let b = FaultPlan::seeded(seed, SITES);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert_eq!(a.arms.len(), 1);
            sites_seen.insert(a.arms[0].site.clone());
        }
        assert_eq!(sites_seen.len(), SITES.len(), "64 seeds must cover every site");
    }

    #[test]
    fn stall_delays_then_proceeds_as_if_unfired() {
        let _g = serial();
        set_stall_ms(40);
        install(FaultPlan::new().with("batch/shard-stall", 0, FaultKind::Stall));
        let t = std::time::Instant::now();
        fire("batch/shard-stall"); // must NOT panic: stall is transparent
        assert!(t.elapsed() >= std::time::Duration::from_millis(40), "hook must stall");
        assert_eq!(injected_count(), 1, "the stall still counts as injected");
        assert!(trip("batch/shard-stall").is_ok(), "arm fired once; later hits pass");
        clear();
        set_stall_ms(250);
    }

    #[test]
    fn cancellation_cuts_a_stall_short() {
        let _g = serial();
        set_stall_ms(60_000);
        install(FaultPlan::new().with("batch/shard-stall", 0, FaultKind::Stall));
        let token = isdc_cancel::CancelToken::with_deadline(std::time::Duration::from_millis(30));
        let _scope = token.install();
        let t = std::time::Instant::now();
        fire("batch/shard-stall");
        assert!(t.elapsed() < std::time::Duration::from_secs(30), "deadline must end the stall");
        clear();
        set_stall_ms(250);
    }

    #[test]
    fn concurrent_hits_fire_exactly_once() {
        let _g = serial();
        install(FaultPlan::new().with("oracle/eval", 40, FaultKind::Error));
        let fired = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        if check("oracle/eval").is_some() {
                            fired.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(fired.load(Ordering::Relaxed), 1, "exactly one of 100 racing hits fires");
        assert_eq!(injected_count(), 1);
        clear();
    }
}
