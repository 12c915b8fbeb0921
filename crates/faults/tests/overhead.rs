//! The overhead guard for fault hooks, mirroring the telemetry guard: when
//! no plan is installed, [`isdc_faults::check`] must not allocate and must
//! cost no more than a relaxed atomic load plus a branch.
//!
//! Its own test binary, so the counting global allocator cannot affect any
//! other test process. The timing bound is loose (unoptimized test
//! builds); the zero-allocations assertion is the one that regresses first
//! if work sneaks in front of the armed check.

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
fn disarmed_hooks_allocate_nothing() {
    isdc_faults::clear();
    const CALLS: u64 = 100_000;
    let before = allocations();
    let t = Instant::now();
    for _ in 0..CALLS {
        assert!(isdc_faults::check("oracle/eval").is_none());
        isdc_faults::fire("cache/insert");
        assert!(isdc_faults::trip("solver/drain").is_ok());
    }
    let elapsed = t.elapsed();
    let after = allocations();

    assert_eq!(after - before, 0, "disarmed fault hooks must not allocate");

    // 3 hooks per iteration; same headroom as the telemetry guard — loose
    // enough for loaded CI, tight enough to catch a lock or a HashMap
    // lookup moving in front of the armed check.
    let per_call_ns = elapsed.as_nanos() as u64 / (CALLS * 3);
    assert!(per_call_ns < 2_000, "disarmed hook cost {per_call_ns}ns/call — hot path regressed");
}
