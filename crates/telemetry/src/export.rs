//! Trace exporters and the JSONL re-importer.
//!
//! Two on-disk formats, both hand-rolled (this crate has zero deps):
//!
//! - **JSON-lines** ([`render_jsonl`]): one event per line, preceded by
//!   one `track` metadata line per registered track. Round-trippable via
//!   [`parse_jsonl`], which is what `isdc-cli trace check` uses. The
//!   CLI's `<out>.flight.jsonl` dumps use the same event lines
//!   ([`Event::render_jsonl_line`]), each job's behind one `job` header
//!   line; [`parse_flight_dump`] reads them back.
//! - **Chrome `trace_event`** ([`render_chrome_trace`]): the JSON-array
//!   form understood by [Perfetto](https://ui.perfetto.dev) and
//!   `chrome://tracing`. Tracks map to threads (`tid`), so each batch
//!   worker renders as its own named row.

use crate::json::{self, Value};
use crate::trace::{ArgValue, Event, EventKind, Trace};
use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character (RFC 8259 §7). The workspace's one string
/// escaper; every hand-rolled JSON writer routes through it.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

fn push_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::I64(n) => out.push_str(&n.to_string()),
        // Debug formatting keeps a trailing `.0` on integral floats so a
        // re-read classifies them as floats again (still valid JSON).
        ArgValue::F64(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
        ArgValue::F64(_) => out.push_str("null"),
        ArgValue::Str(s) => push_str_value(out, s),
    }
}

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_value(out, k);
        out.push(':');
        push_arg_value(out, v);
    }
    out.push('}');
}

impl Event {
    /// Renders the event as one JSONL object line, without the newline:
    /// the event line of [`render_jsonl`] and of the CLI's flight dumps.
    pub fn render_jsonl_line(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"seq\":{},\"track\":{},\"name\":",
            self.kind.code(),
            self.seq,
            self.track
        );
        push_str_value(out, self.name);
        let _ = write!(out, ",\"t_ns\":{}", self.t_ns);
        if !self.args().is_empty() {
            out.push_str(",\"args\":");
            push_args(out, self.args());
        }
        out.push('}');
    }
}

/// Renders a trace as JSON-lines: first one `{"kind":"track",...}` line
/// per registered track, then one line per event in sequence order.
pub fn render_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for (id, name) in trace.tracks.iter().enumerate() {
        out.push_str(&format!("{{\"kind\":\"track\",\"track\":{id},\"name\":"));
        push_str_value(&mut out, name);
        out.push_str("}\n");
    }
    for e in &trace.events {
        e.render_jsonl_line(&mut out);
        out.push('\n');
    }
    out
}

/// Renders a trace in Chrome `trace_event` JSON-array format. Load the
/// file in Perfetto or `chrome://tracing`; each track appears as a
/// named thread under one `isdc` process, and span arguments show in
/// the selection panel. Timestamps are microseconds with nanosecond
/// fraction preserved.
pub fn render_chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"isdc\"}}",
    );
    for (id, name) in trace.tracks.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{id},\"name\":\"thread_name\",\"args\":{{\"name\":"
        ));
        push_str_value(&mut out, name);
        out.push_str("}}");
    }
    for e in &trace.events {
        let ts_us = e.t_ns as f64 / 1000.0;
        out.push_str(&format!(
            ",\n{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"name\":",
            e.kind.code(),
            e.track
        ));
        push_str_value(&mut out, e.name);
        // Instant events need a scope; "t" (thread) keeps them on their
        // track's row in Perfetto.
        if e.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if !e.args().is_empty() {
            out.push_str(",\"args\":");
            push_args(&mut out, e.args());
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// An argument value re-read from a JSONL trace file. JSON numbers do
/// not carry their Rust source type, so integers are normalized: a
/// number that fits `u64` parses as [`OwnedArg::U64`], a negative
/// integer as [`OwnedArg::I64`], anything else as [`OwnedArg::F64`].
/// Non-finite floats render as `null` and re-read as [`OwnedArg::Null`].
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedArg {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Fractional, exponent-form, or out-of-integer-range number.
    F64(f64),
    /// String argument.
    Str(String),
    /// JSON `null` (a non-finite float was rendered).
    Null,
}

impl OwnedArg {
    /// Classifies a JSON number from its source text, mirroring how
    /// [`render_jsonl`] prints the typed [`ArgValue`]s.
    fn classify(text: &str) -> Option<OwnedArg> {
        text.parse()
            .map(OwnedArg::U64)
            .or_else(|_| text.parse().map(OwnedArg::I64))
            .or_else(|_| text.parse().map(OwnedArg::F64))
            .ok()
    }
}

/// An event re-read from a JSONL trace file (names and arguments owned).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Global sequence number.
    pub seq: u64,
    /// Track id.
    pub track: u32,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Span name.
    pub name: String,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Key/value arguments (empty when the line had none).
    pub args: Vec<(String, OwnedArg)>,
}

/// One line of a JSONL file.
enum Line {
    /// A `track` line: id and name.
    Track(u32, String),
    /// A span edge or instant.
    Event(OwnedEvent),
    /// A flight dump's `{"kind":"job",...}` header.
    Job(Value),
}

/// Parses line `n` (1-based) of a JSONL file.
fn parse_line(n: usize, line: &str) -> Result<Line, String> {
    let value = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
    let field = |key: &str| value.get(key).ok_or_else(|| format!("line {n}: missing \"{key}\""));
    let text_field = |key: &str| {
        field(key)?.as_str().ok_or_else(|| format!("line {n}: \"{key}\" is not a string"))
    };
    let int_field =
        |key: &str| field(key)?.as_u64().ok_or_else(|| format!("line {n}: \"{key}\" is not a u64"));
    let track = || {
        let id = int_field("track")?;
        u32::try_from(id).map_err(|_| format!("line {n}: track id {id} does not fit a u32"))
    };
    let kind = match text_field("kind")? {
        "track" => return Ok(Line::Track(track()?, text_field("name")?.to_string())),
        "job" => return Ok(Line::Job(value)),
        "B" => EventKind::Begin,
        "E" => EventKind::End,
        "i" => EventKind::Instant,
        other => return Err(format!("line {n}: unknown event kind {other:?}")),
    };
    let mut args = Vec::new();
    match value.get("args") {
        None => {}
        Some(Value::Object(fields)) => {
            for (key, v) in fields {
                let arg = match v {
                    Value::String(s) => Some(OwnedArg::Str(s.clone())),
                    Value::Number(text) => OwnedArg::classify(text),
                    Value::Null => Some(OwnedArg::Null),
                    _ => None,
                };
                let arg =
                    arg.ok_or_else(|| format!("line {n}: unsupported arg value for \"{key}\""))?;
                args.push((key.clone(), arg));
            }
        }
        Some(_) => return Err(format!("line {n}: \"args\" must be an object")),
    }
    Ok(Line::Event(OwnedEvent {
        seq: int_field("seq")?,
        track: track()?,
        kind,
        name: text_field("name")?.to_string(),
        t_ns: int_field("t_ns")?,
        args,
    }))
}

/// The non-blank lines of `text`, numbered from 1, parsed.
fn parse_lines(text: &str) -> impl Iterator<Item = (usize, Result<Line, String>)> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| (i + 1, parse_line(i + 1, line)))
}

/// Parses a JSONL trace file produced by [`render_jsonl`] back into
/// events and the track-name table. Track lines must number their tracks
/// 0, 1, 2, … in order, as [`render_jsonl`] writes them, and every track
/// id must fit the `u32` of [`Event::track`]. Returns a line-tagged error
/// for anything malformed, and for a flight dump's `job` line (read those
/// with [`parse_flight_dump`]).
pub fn parse_jsonl(text: &str) -> Result<(Vec<OwnedEvent>, Vec<String>), String> {
    let mut events = Vec::new();
    let mut tracks: Vec<String> = Vec::new();
    for (n, line) in parse_lines(text) {
        match line? {
            Line::Track(id, name) => {
                if id as usize != tracks.len() {
                    return Err(format!(
                        "line {n}: track {id} out of order (want track {})",
                        tracks.len()
                    ));
                }
                tracks.push(name);
            }
            Line::Event(event) => events.push(event),
            Line::Job(_) => return Err(format!("line {n}: a job line outside a flight dump")),
        }
    }
    events.sort_by_key(|e| e.seq);
    Ok((events, tracks))
}

/// One failed or timed-out job's tail in a CLI flight dump
/// (`<out>.flight.jsonl`).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightTail {
    /// The job's `{"kind":"job",...}` header line.
    pub job: Value,
    /// The worker's last events, oldest first, as its ring held them when
    /// the job failed. They may begin and end inside open spans; check
    /// them with [`crate::validate_tail`].
    pub events: Vec<OwnedEvent>,
}

/// Parses a flight dump: each `{"kind":"job",...}` line starts one job's
/// tail, and the event lines after it, up to the next job line, are that
/// tail. Returns a line-tagged error for anything malformed, for a track
/// line, and for an event before the first job line.
pub fn parse_flight_dump(text: &str) -> Result<Vec<FlightTail>, String> {
    let mut tails: Vec<FlightTail> = Vec::new();
    for (n, line) in parse_lines(text) {
        match line? {
            Line::Job(job) => tails.push(FlightTail { job, events: Vec::new() }),
            Line::Event(event) => tails
                .last_mut()
                .ok_or_else(|| format!("line {n}: event before the first job line"))?
                .events
                .push(event),
            Line::Track(..) => return Err(format!("line {n}: a track line in a flight dump")),
        }
    }
    Ok(tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let run_args = [("clock_ps", ArgValue::F64(2500.0)), ("design", ArgValue::Str("crc\"32"))];
        Trace {
            events: vec![
                Event::new(0, 0, EventKind::Begin, "run", 1000, &run_args),
                Event::new(1, 0, EventKind::Instant, "mark", 1500, &[("n", ArgValue::U64(7))]),
                Event::new(2, 0, EventKind::End, "run", 2000, &[]),
            ],
            tracks: vec!["main".into()],
        }
    }

    #[test]
    fn jsonl_line_shape() {
        let mut out = String::new();
        let site = [("site", ArgValue::Str("batch/shard"))];
        Event::new(3, 1, EventKind::Instant, "fault", 42, &site).render_jsonl_line(&mut out);
        assert_eq!(
            out,
            "{\"kind\":\"i\",\"seq\":3,\"track\":1,\"name\":\"fault\",\"t_ns\":42,\
             \"args\":{\"site\":\"batch/shard\"}}"
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let text = render_jsonl(&trace);
        let (events, tracks) = parse_jsonl(&text).expect("own output parses");
        assert_eq!(tracks, vec!["main".to_string()]);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "run");
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[2].kind, EventKind::End);
        assert_eq!(events[1].t_ns, 1500);
        assert_eq!(
            events[0].args,
            vec![
                ("clock_ps".to_string(), OwnedArg::F64(2500.0)),
                ("design".to_string(), OwnedArg::Str("crc\"32".to_string())),
            ]
        );
        assert_eq!(events[1].args, vec![("n".to_string(), OwnedArg::U64(7))]);
        assert!(events[2].args.is_empty());
        crate::validate_events(events.iter().map(|e| (e.track, e.kind, e.name.as_str(), e.t_ns)))
            .expect("round-tripped trace is well-formed");
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let trace = sample_trace();
        // Parse with the workspace's JSON reader: array of objects,
        // metadata first, microsecond timestamps.
        let value = json::parse(&render_chrome_trace(&trace)).expect("valid JSON");
        let items = value.as_array().expect("chrome trace must be a JSON array");
        assert_eq!(items.len(), 2 + 3, "process meta + thread meta + 3 events");
        assert_eq!(items[0].get("ph").and_then(Value::as_str), Some("M"));
        let begin = &items[2];
        assert_eq!(begin.get("ph").and_then(Value::as_str), Some("B"));
        let ts = begin.get("ts").and_then(Value::as_f64).expect("ts");
        assert!((ts - 1.0).abs() < 1e-9, "1000ns = 1.0us");
        assert!(begin.get("args").is_some());
    }

    #[test]
    fn flight_dumps_split_into_job_tails() {
        // A ring that began inside `shard` and `iteration` and was
        // snapshotted inside `shard`, twice, behind job header lines.
        let tail = [
            Event::new(10, 1, EventKind::End, "stage:solve", 100, &[]),
            Event::new(11, 1, EventKind::End, "iteration", 110, &[]),
            Event::new(12, 1, EventKind::Begin, "iteration", 120, &[("i", ArgValue::U64(2))]),
            Event::new(13, 1, EventKind::Instant, "fault", 130, &[("site", ArgValue::Str("x"))]),
            Event::new(14, 1, EventKind::End, "iteration", 140, &[]),
        ];
        let mut dump = String::new();
        for job in 0..2 {
            dump.push_str(&format!("{{\"kind\":\"job\",\"job\":{job},\"design\":\"rrot\"}}\n"));
            for event in &tail {
                event.render_jsonl_line(&mut dump);
                dump.push('\n');
            }
        }
        let tails = parse_flight_dump(&dump).expect("a flight dump");
        assert_eq!(tails.len(), 2);
        for (job, tail) in tails.iter().enumerate() {
            assert_eq!(tail.job.get("job").and_then(Value::as_u64), Some(job as u64));
            assert_eq!(tail.events.len(), 5);
            let events = tail.events.iter().map(|e| (e.track, e.kind, e.name.as_str(), e.t_ns));
            let summary = crate::validate_tail(events.clone()).expect("a well-formed tail");
            assert_eq!((summary.spans, summary.instants), (1, 1));
            assert!(crate::validate_events(events).is_err(), "not a whole trace");
        }
        assert_eq!(
            parse_jsonl(&dump).unwrap_err(),
            "line 1: a job line outside a flight dump",
            "a trace has no job lines"
        );
        let (_, lines) = dump.split_once('\n').unwrap();
        assert_eq!(
            parse_flight_dump(lines).unwrap_err(),
            "line 1: event before the first job line"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("{\"kind\":\"B\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"kind\":\"Z\",\"seq\":0}").is_err());
        let err = parse_jsonl("{\"kind\":\"track\",\"track\":1,\"name\":\"x\"}").unwrap_err();
        assert_eq!(err, "line 1: track 1 out of order (want track 0)");
    }
}
