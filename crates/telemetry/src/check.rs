//! Trace well-formedness checking.
//!
//! A trace is well-formed when, per track: Begin/End events nest as a
//! LIFO with matching names (so every span is closed and every parent
//! opened before its children — nesting plus the global sequence order
//! implies parent-before-child), timestamps never decrease, and no span
//! is left open at the end. [`validate_events`] is generic over the
//! event source so it runs both on live [`crate::Trace`]s and on
//! re-parsed JSONL files (`isdc-cli trace check`). [`validate_tail`]
//! checks a flight tail, the newest events of one track's ring, by the
//! same rules, except that the tail may begin and end inside open spans.

use crate::trace::EventKind;
use std::collections::BTreeMap;
use std::fmt;

/// Summary statistics of a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total events seen (Begin + End + Instant).
    pub events: usize,
    /// Completed spans (matched Begin/End pairs).
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Distinct tracks with at least one event.
    pub tracks: usize,
    /// Deepest nesting level reached on any track.
    pub max_depth: usize,
    /// Span of time covered: latest minus earliest timestamp, ns.
    pub duration_ns: u64,
}

/// A violation of trace well-formedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An `End` arrived on a track with no span open.
    UnmatchedEnd {
        /// Track the stray `End` arrived on.
        track: u32,
        /// Name carried by the stray `End`.
        name: String,
    },
    /// An `End`'s name differs from the innermost open span's.
    NameMismatch {
        /// Track the mismatch occurred on.
        track: u32,
        /// Name of the innermost open span.
        open: String,
        /// Name carried by the closing event.
        closed: String,
    },
    /// Spans still open when the trace ended.
    UnclosedSpans {
        /// Track with open spans.
        track: u32,
        /// Names still open, outermost first.
        open: Vec<String>,
    },
    /// A track's timestamps went backwards.
    NonMonotonicTime {
        /// Track with the regression.
        track: u32,
        /// Name of the offending event.
        name: String,
        /// Timestamp of the previous event on the track.
        prev_ns: u64,
        /// Timestamp of the offending event.
        t_ns: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnmatchedEnd { track, name } => {
                write!(f, "track {track}: End({name:?}) with no span open")
            }
            TraceError::NameMismatch { track, open, closed } => {
                write!(f, "track {track}: End({closed:?}) while {open:?} is innermost")
            }
            TraceError::UnclosedSpans { track, open } => {
                write!(f, "track {track}: {} span(s) left open: {open:?}", open.len())
            }
            TraceError::NonMonotonicTime { track, name, prev_ns, t_ns } => {
                write!(f, "track {track}: {name:?} at {t_ns}ns after {prev_ns}ns")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Validates an event stream (in global sequence order). See the module
/// docs for the rules. Items are `(track, kind, name, t_ns)`.
pub fn validate_events<'a, I>(events: I) -> Result<TraceSummary, TraceError>
where
    I: IntoIterator<Item = (u32, EventKind, &'a str, u64)>,
{
    check(events, false)
}

/// Validates a flight tail like [`validate_events`], except that an `End`
/// with no span open on its track closes a span whose `Begin` the ring
/// had already dropped, and spans still open at the end are allowed: a
/// tail is snapshotted inside the spans that were running.
pub fn validate_tail<'a, I>(events: I) -> Result<TraceSummary, TraceError>
where
    I: IntoIterator<Item = (u32, EventKind, &'a str, u64)>,
{
    check(events, true)
}

fn check<'a, I>(events: I, tail: bool) -> Result<TraceSummary, TraceError>
where
    I: IntoIterator<Item = (u32, EventKind, &'a str, u64)>,
{
    struct TrackState {
        stack: Vec<String>,
        last_ns: u64,
    }
    let mut tracks: BTreeMap<u32, TrackState> = BTreeMap::new();
    let mut summary = TraceSummary::default();
    let mut first_ns: Option<u64> = None;
    let mut last_ns: u64 = 0;

    for (track, kind, name, t_ns) in events {
        summary.events += 1;
        first_ns = Some(first_ns.map_or(t_ns, |f| f.min(t_ns)));
        last_ns = last_ns.max(t_ns);
        let state =
            tracks.entry(track).or_insert_with(|| TrackState { stack: Vec::new(), last_ns: 0 });
        if t_ns < state.last_ns {
            return Err(TraceError::NonMonotonicTime {
                track,
                name: name.to_string(),
                prev_ns: state.last_ns,
                t_ns,
            });
        }
        state.last_ns = t_ns;
        match kind {
            EventKind::Begin => {
                state.stack.push(name.to_string());
                summary.max_depth = summary.max_depth.max(state.stack.len());
            }
            EventKind::End => match state.stack.pop() {
                None if tail => {}
                None => {
                    return Err(TraceError::UnmatchedEnd { track, name: name.to_string() });
                }
                Some(open) if open != name => {
                    return Err(TraceError::NameMismatch { track, open, closed: name.to_string() });
                }
                Some(_) => summary.spans += 1,
            },
            EventKind::Instant => summary.instants += 1,
        }
    }

    for (track, state) in &tracks {
        if !tail && !state.stack.is_empty() {
            return Err(TraceError::UnclosedSpans { track: *track, open: state.stack.clone() });
        }
    }
    summary.tracks = tracks.len();
    summary.duration_ns = last_ns.saturating_sub(first_ns.unwrap_or(0));
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind::{Begin, End, Instant};

    #[test]
    fn accepts_nested_and_interleaved_tracks() {
        let events = vec![
            (0, Begin, "session", 0),
            (0, Begin, "run", 10),
            (1, Begin, "shard", 12),
            (0, Instant, "mark", 15),
            (1, End, "shard", 20),
            (0, End, "run", 30),
            (0, End, "session", 40),
        ];
        let summary = validate_events(events).unwrap();
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.tracks, 2);
        assert_eq!(summary.max_depth, 2);
        assert_eq!(summary.duration_ns, 40);
    }

    #[test]
    fn rejects_unclosed_span() {
        let events = vec![(0, Begin, "run", 0)];
        assert!(matches!(validate_events(events), Err(TraceError::UnclosedSpans { track: 0, .. })));
    }

    #[test]
    fn rejects_mismatched_end() {
        let events = vec![(0, Begin, "a", 0), (0, End, "b", 1)];
        assert!(matches!(validate_events(events), Err(TraceError::NameMismatch { .. })));
    }

    #[test]
    fn rejects_stray_end() {
        let events = vec![(0, End, "a", 0)];
        assert!(matches!(validate_events(events), Err(TraceError::UnmatchedEnd { .. })));
    }

    #[test]
    fn tails_may_begin_and_end_inside_open_spans() {
        let events = vec![
            (0, End, "stage:solve", 0),
            (0, End, "iteration", 1),
            (0, Begin, "iteration", 2),
            (0, Begin, "stage:extract", 3),
        ];
        assert!(matches!(validate_events(events.clone()), Err(TraceError::UnmatchedEnd { .. })));
        let summary = validate_tail(events).unwrap();
        assert_eq!((summary.spans, summary.max_depth), (0, 2));
        // Inside the tail the rules hold as before.
        let mismatch = vec![(0, End, "run", 0), (0, Begin, "a", 1), (0, End, "b", 2)];
        assert!(matches!(validate_tail(mismatch), Err(TraceError::NameMismatch { .. })));
        let backwards = vec![(0, End, "run", 5), (0, Begin, "a", 4)];
        assert!(matches!(validate_tail(backwards), Err(TraceError::NonMonotonicTime { .. })));
    }

    #[test]
    fn rejects_backwards_time_per_track() {
        let events = vec![(0, Begin, "a", 10), (0, End, "a", 5)];
        assert!(matches!(validate_events(events), Err(TraceError::NonMonotonicTime { .. })));
        // Cross-track skew is fine: only per-track order matters.
        let ok = vec![(0, Begin, "a", 10), (1, Begin, "b", 5), (1, End, "b", 6), (0, End, "a", 11)];
        validate_events(ok).unwrap();
    }
}
