//! The overhead guard for cancel checkpoints, mirroring the telemetry and
//! faults guards: with no [`isdc_cancel::CancelScope`] installed anywhere,
//! [`isdc_cancel::checkpoint`] must not allocate and must cost no more
//! than a relaxed atomic load plus a branch.
//!
//! Its own test binary, so the counting global allocator cannot affect any
//! other test process. The timing bound is loose (unoptimized test
//! builds); the zero-allocations assertion is the one that regresses first
//! if work sneaks in front of the armed gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

struct CountingAlloc;

std::thread_local! {
    /// Per-thread allocation count: the zero-alloc assertion must not
    /// trip on allocations made concurrently by other threads (the
    /// libtest harness thread allocates while tests run).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may be mid-destruction on thread exit.
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

#[test]
fn disarmed_checkpoints_allocate_nothing() {
    assert!(!isdc_cancel::armed(), "guard assumes no scope is installed");
    const CALLS: u64 = 100_000;
    let before = allocations();
    let t = Instant::now();
    for _ in 0..CALLS {
        assert!(isdc_cancel::checkpoint().is_ok());
        assert!(!isdc_cancel::cancelled());
    }
    let elapsed = t.elapsed();
    let after = allocations();

    assert_eq!(after - before, 0, "disarmed cancel checkpoints must not allocate");

    // 2 checkpoints per iteration; same headroom as the faults guard —
    // loose enough for loaded CI, tight enough to catch a clock read or a
    // thread-local walk moving in front of the armed gate.
    let per_call_ns = elapsed.as_nanos() as u64 / (CALLS * 2);
    assert!(
        per_call_ns < 2_000,
        "disarmed checkpoint cost {per_call_ns}ns/call — hot path regressed"
    );
}
