//! # isdc-telemetry — unified observability for the ISDC workspace
//!
//! One coherent layer replacing the scattered counters that used to live
//! in four crates: hierarchical **spans** (`session → run → iteration →
//! stage → solver drain phase`) recorded into one per-track **event
//! log**, which double as the one timer ([`SpanGuard::finish`] returns a
//! span's End − Begin); **metrics frames** ([`MetricsFrame`]) of counters
//! and histograms, the one store a run adds its numbers to and the unit
//! that aggregates by disjoint keys and sums (a batch files each point's
//! frame under its own `job{j}/pt{p}/` prefix, and
//! [`MetricsFrame::totals`] and [`RunReport`] add them up, so fleet
//! totals are bit-deterministic); and **exporters** to JSON-lines and Chrome
//! `trace_event` format (loadable in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`), plus the workspace's one JSON string escaper
//! ([`escape_json`]) and its one JSON reader ([`json`]), which every
//! snapshot, spec, trace, report and bench document is read back with.
//!
//! Every span edge, note and fault mark is one `Copy` [`Event`] in its
//! track's log. Tracing is globally off by default; then each track
//! keeps only its last [`FLIGHT_CAPACITY`] events — the post-mortem tail
//! ([`flight_tail`]) attached to batch `JobError`s, which
//! [`parse_flight_dump`] and [`validate_tail`] read back from the CLI's
//! dumps — with no allocation and no unbounded growth, so instrumented
//! code pays almost nothing in production runs (the overhead-guard test
//! in `tests/overhead.rs` enforces the budget). With [`set_enabled`] on,
//! the log keeps every event until [`take_trace`]; spans are scoped
//! guards, so they cannot be left unbalanced even on early return:
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
pub mod json;
mod registry;
mod report;
mod trace;

pub use check::{validate_events, validate_tail, TraceError, TraceSummary};
pub use export::{
    escape_json, parse_flight_dump, parse_jsonl, render_chrome_trace, render_jsonl, FlightTail,
    OwnedArg, OwnedEvent,
};
pub use registry::{histogram_quantile, MetricValue, MetricsFrame, HISTOGRAM_BUCKETS};
pub use report::{attribute, render_attribution, AttributionRow, QuantileRow, RunReport, StageRow};
pub use trace::{
    enabled, flight_fault, flight_tail, flight_tail_current, intern, now_ns, reset, set_enabled,
    set_thread_track, span, span_f64, span_str, span_u64, take_trace, ArgValue, Event, EventKind,
    SpanGuard, Trace, FLIGHT_CAPACITY, MAX_ARGS,
};
