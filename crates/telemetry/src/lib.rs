//! # isdc-telemetry — unified observability for the ISDC workspace
//!
//! One coherent layer replacing the scattered counters that used to live
//! in four crates: hierarchical **spans** (`session → run → iteration →
//! stage → solver drain phase`) recorded into one per-track **event
//! log**; a **metrics registry** of counters and histograms whose
//! snapshots merge with a deterministic, commutative, associative and
//! idempotent join (the same contract as `DelayCache::merge`, so batch
//! workers record locally and the aggregator folds fleet totals
//! bit-deterministically); and **exporters** to JSON-lines and Chrome
//! `trace_event` format (loadable in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`), plus the workspace's one JSON string escaper
//! ([`escape_json`]).
//!
//! Every span edge, note and fault mark is one `Copy` [`Event`] in its
//! track's log. Tracing is globally off by default; then each track
//! keeps only its last [`FLIGHT_CAPACITY`] events — the post-mortem tail
//! ([`flight_tail`]) attached to batch `JobError`s — with no allocation
//! and no unbounded growth, so instrumented code pays almost nothing in
//! production runs (the overhead-guard test in `tests/overhead.rs`
//! enforces the budget). With [`set_enabled`] on, the log keeps every
//! event until [`take_trace`]; spans are scoped guards, so they cannot be
//! left unbalanced even on early return:
//!
//! ```
//! isdc_telemetry::set_enabled(true);
//! {
//!     let _run = isdc_telemetry::span("run");
//!     let _iter = isdc_telemetry::span_u64("iteration", "i", 0);
//! } // guards close in reverse order
//! let trace = isdc_telemetry::take_trace();
//! isdc_telemetry::set_enabled(false);
//! assert!(trace.validate().is_ok());
//! ```
#![warn(missing_docs)]

mod check;
mod export;
mod registry;
mod report;
mod trace;

pub use check::{validate_events, TraceError, TraceSummary};
pub use export::{
    escape_json, parse_jsonl, render_chrome_trace, render_jsonl, OwnedArg, OwnedEvent,
};
pub use registry::{
    histogram_quantile, Counter, Histogram, MetricKind, MetricValue, MetricsFrame, Registry,
    HISTOGRAM_BUCKETS,
};
pub use report::{attribute, render_attribution, AttributionRow, QuantileRow, RunReport, StageRow};
pub use trace::{
    enabled, flight_fault, flight_tail, flight_tail_current, intern, now_ns, reset, set_enabled,
    set_thread_track, span, span_f64, span_str, span_u64, take_trace, ArgValue, Event, EventKind,
    SpanGuard, Trace, FLIGHT_CAPACITY, MAX_ARGS,
};
