//! The overhead guard: when tracing is disabled, spans, notes and fault
//! marks must not allocate, and each must cost no more than an
//! uncontended lock, a clock read and a ring-slot write.
//!
//! This file is its own test binary so it can install a counting global
//! allocator without affecting any other test process. The timing bound
//! is deliberately loose (tests run unoptimized under `cargo test`);
//! the precise claim — and the one that regresses first if someone adds
//! work before the enabled check — is the *zero allocations* assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Mutex;
use std::time::Instant;

/// Both tests toggle the global enabled flag; running them in parallel
/// would flip it out from under the measured loop.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

std::thread_local! {
    /// Per-thread allocation count: the zero-alloc assertion must not
    /// trip on allocations made concurrently by other threads (the
    /// libtest harness thread prints results while tests run).
    static THREAD_ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
    THREAD_ALLOCATIONS.with(|c| c.get())
}

#[test]
fn disabled_spans_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    isdc_telemetry::set_enabled(false);
    // Warm up any lazy statics outside the measured window.
    {
        let _s = isdc_telemetry::span("warmup");
    }
    const CALLS: u64 = 100_000;
    let before = allocations();
    let t = Instant::now();
    for i in 0..CALLS {
        let _run = isdc_telemetry::span("run");
        let _iter = isdc_telemetry::span_u64("iteration", "i", i);
        let stage = isdc_telemetry::span_f64("stage", "clock_ps", 2500.0);
        // The solver's drain note: four scalar arguments, inline.
        stage.note(
            "drain_stats",
            &[
                ("dijkstras", isdc_telemetry::ArgValue::U64(i)),
                ("nodes_settled", isdc_telemetry::ArgValue::U64(2 * i)),
                ("paths", isdc_telemetry::ArgValue::U64(3)),
                ("flow_pushed", isdc_telemetry::ArgValue::U64(4)),
            ],
        );
        isdc_telemetry::flight_fault("overhead/site");
    }
    let elapsed = t.elapsed();
    let after = allocations();

    assert_eq!(after - before, 0, "disabled spans, notes and fault marks must not allocate");
    assert!(isdc_telemetry::take_trace().events.is_empty(), "no events recorded while disabled");

    // 5 calls per iteration. Even unoptimized, a lock + clock read +
    // ring write is well under a microsecond; 2µs per call of headroom
    // keeps this safe on loaded CI while still catching formatting or
    // allocation sneaking onto the record path.
    let per_call_ns = elapsed.as_nanos() as u64 / (CALLS * 5);
    assert!(per_call_ns < 2_000, "disabled span cost {per_call_ns}ns/call — hot path regressed");
}

#[test]
fn enabled_span_cost_is_bounded_and_buffers_drain() {
    // Not a benchmark — a sanity bound that the enabled path works at
    // volume from several threads without losing events.
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    isdc_telemetry::set_enabled(true);
    const PER_THREAD: u64 = 1_000;
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            scope.spawn(move || {
                isdc_telemetry::set_thread_track(format!("overhead-worker-{w}"));
                for i in 0..PER_THREAD {
                    let _s = isdc_telemetry::span_u64("work", "i", i);
                }
            });
        }
    });
    isdc_telemetry::set_enabled(false);
    let trace = isdc_telemetry::take_trace();
    assert_eq!(trace.events.len() as u64, 4 * PER_THREAD * 2, "every Begin/End retained");
    trace.validate().expect("well-formed under concurrency");
}
