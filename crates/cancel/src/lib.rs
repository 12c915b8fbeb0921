//! # isdc-cancel — cooperative cancellation and deadlines
//!
//! The workspace's hot loops (pipeline iterations, per-subgraph oracle
//! evaluations, sweep points, SSP drain phases) poll [`checkpoint`] so a
//! runaway solve can be stopped *cleanly*: the loop unwinds through its
//! normal error path, already-completed work is kept, and no partially
//! mutated solver/cache state survives (callers discard in-flight state on
//! the cancellation error, exactly as they do for any other solve error).
//!
//! The contract mirrors `isdc-telemetry` and `isdc-faults`: **disarmed
//! cost ≈ zero**. With no [`CancelScope`] installed anywhere in the
//! process, [`checkpoint`] is a single relaxed atomic load — no lock, no
//! allocation, no clock read — so the polls can sit on warm paths
//! permanently (`tests/overhead.rs` enforces this with a counting
//! allocator, same as the telemetry and faults guards).
//!
//! # Model
//!
//! A [`CancelToken`] is a cheaply clonable handle carrying a cancel flag
//! and an optional wall-clock deadline. [`CancelToken::install`] arms the
//! calling thread: while the returned [`CancelScope`] guard lives,
//! [`checkpoint`] on that thread consults the token (flag first, then the
//! deadline). Scopes nest — an inner scope's checkpoint also honors every
//! outer token, so a fleet-level budget and a per-job deadline compose.
//! Tokens cross threads by cloning ([`current`] hands workers the
//! installing thread's token to re-install).
//!
//! # Examples
//!
//! ```
//! use isdc_cancel::{checkpoint, CancelToken};
//!
//! // Disarmed: checkpoints are free and always pass.
//! assert!(checkpoint().is_ok());
//!
//! let token = CancelToken::new();
//! let scope = token.install();
//! assert!(checkpoint().is_ok());
//! token.cancel();
//! assert!(checkpoint().is_err());
//! drop(scope);
//! assert!(checkpoint().is_ok(), "disarmed again once the scope ends");
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cancellation error: the installed token was cancelled or its
/// deadline passed. Carrier-free by design — the caller's context (which
/// loop, which point) is what matters, and the caller has it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cancelled (deadline exceeded or cancel requested)")
    }
}

impl std::error::Error for Cancelled {}

struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shareable cancellation handle: a cancel flag plus an optional
/// deadline. Clones share state; any clone can [`CancelToken::cancel`]
/// and every installed scope observes it.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token with no deadline; it only trips when [`cancel`]led.
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> Self {
        Self { inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: None }) }
    }

    /// A token that trips `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// A token that trips at the absolute instant `deadline` — the form
    /// the batch engine uses so a job deadline and the fleet budget can be
    /// folded into one token (`min` of the two instants).
    pub fn with_deadline_at(deadline: Instant) -> Self {
        Self {
            inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: Some(deadline) }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone and every
    /// installed scope on its next [`checkpoint`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has tripped: explicitly cancelled, or past its
    /// deadline. Reads the clock only when a deadline is set and the flag
    /// is not already up.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Arms the calling thread: while the returned guard lives,
    /// [`checkpoint`] consults this token (in addition to any outer
    /// scopes). Dropping the guard disarms in LIFO order.
    #[must_use = "the scope guard arms checkpoints only while it lives"]
    pub fn install(&self) -> CancelScope {
        CURRENT.with(|stack| stack.borrow_mut().push(self.clone()));
        ARMED.fetch_add(1, Ordering::SeqCst);
        CancelScope { _not_send: std::marker::PhantomData }
    }
}

/// Count of live [`CancelScope`]s process-wide: the one-relaxed-load fast
/// gate. Zero means every checkpoint in the process is free.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's installed tokens, innermost last.
    static CURRENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard from [`CancelToken::install`]: pops the token and disarms
/// on drop. Deliberately `!Send` (thread-local bookkeeping).
pub struct CancelScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        ARMED.fetch_sub(1, Ordering::SeqCst);
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Whether any scope is installed process-wide (the armed fast gate).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
}

/// The cooperative poll hot loops call. **Disarmed cost: one relaxed
/// atomic load.** Armed, it walks the calling thread's installed tokens
/// (flag check, then deadline clock read) and fails if any has tripped.
///
/// # Errors
///
/// Returns [`Cancelled`] when an installed token on this thread is
/// cancelled or past its deadline.
#[inline]
pub fn checkpoint() -> Result<(), Cancelled> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    checkpoint_slow()
}

#[cold]
fn checkpoint_slow() -> Result<(), Cancelled> {
    CURRENT.with(|stack| {
        for token in stack.borrow().iter() {
            if token.is_cancelled() {
                return Err(Cancelled);
            }
        }
        Ok(())
    })
}

/// Whether the calling thread is currently cancelled — [`checkpoint`] as
/// a boolean, for loops that break instead of erroring.
#[inline]
pub fn cancelled() -> bool {
    checkpoint().is_err()
}

/// The innermost token installed on the calling thread, if any. Worker
/// pools use this to hand the spawning thread's token to their threads
/// (clone here, [`CancelToken::install`] there).
pub fn current() -> Option<CancelToken> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|stack| stack.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checkpoints_pass() {
        // Thread-local facts only: sibling tests raise the process-global
        // `armed()` count concurrently.
        assert!(checkpoint().is_ok());
        assert!(!cancelled());
        assert!(current().is_none());
    }

    #[test]
    fn cancel_trips_installed_scope_only_while_it_lives() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        {
            let _scope = token.install();
            assert!(armed());
            assert!(checkpoint().is_ok());
            token.cancel();
            assert!(token.is_cancelled());
            assert_eq!(checkpoint(), Err(Cancelled));
            assert!(cancelled());
        }
        assert!(checkpoint().is_ok(), "a dropped scope disarms this thread");
    }

    #[test]
    fn deadline_trips_without_an_explicit_cancel() {
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        let _scope = token.install();
        assert!(checkpoint().is_ok(), "not yet expired");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(checkpoint(), Err(Cancelled));
        // An already-past absolute deadline trips immediately.
        let past = CancelToken::with_deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(past.is_cancelled());
    }

    #[test]
    fn nested_scopes_honor_the_outer_token() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        let _outer_scope = outer.install();
        let _inner_scope = inner.install();
        assert_eq!(current().map(|t| t.is_cancelled()), Some(false));
        outer.cancel();
        assert_eq!(checkpoint(), Err(Cancelled), "inner work must see the outer cancellation");
    }

    #[test]
    fn tokens_cross_threads_by_cloning() {
        let token = CancelToken::new();
        let _scope = token.install();
        let handed = current().expect("installed token is current");
        std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    assert!(checkpoint().is_ok(), "fresh thread has no scope");
                    let _worker_scope = handed.install();
                    assert!(checkpoint().is_ok());
                    token.cancel();
                    assert_eq!(checkpoint(), Err(Cancelled));
                })
                .join()
                .unwrap();
        });
    }

    #[test]
    fn scopes_on_one_thread_do_not_arm_token_checks_on_another() {
        // Another thread pays the slow path while this one is armed, but
        // with no token installed there it must still pass.
        let token = CancelToken::new();
        token.cancel();
        let _scope = token.install();
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(checkpoint().is_ok())).join().unwrap();
        });
    }
}
