//! The event log: one per-track store for spans, notes and fault marks.
//!
//! Every span edge, note and fault mark is one `Copy` [`Event`] appended
//! to its track's log. The tracing switch ([`set_enabled`]) decides what
//! the log keeps:
//!
//! - **tracing off** (the default): each track keeps its last
//!   [`FLIGHT_CAPACITY`] events, the post-mortem tail a failed batch job
//!   carries ([`flight_tail`]). Once a track's ring exists, recording
//!   allocates nothing; `tests/overhead.rs` enforces it.
//! - **tracing on**: every event is kept until [`take_trace`] or
//!   [`reset`]. A full ring spills its oldest event into the track's
//!   trace buffer when that event was traced, and drops it otherwise, so
//!   a traced event survives any number of later untraced ones.
//!
//! A span's `Begin` is traced iff tracing was on when the span opened;
//! its `End` and notes follow the `Begin`, so a mid-span toggle cannot
//! unbalance the trace. The only way to record a `Begin` is to hold a
//! [`SpanGuard`], whose `Drop` records the matching `End`, so early
//! returns and `?` cannot leak an open span.
//!
//! One mutex guards the track names, the logs and the sequence counter.
//! Sequence numbers are taken under it, so every ring is in sequence
//! order. Spans sit at stage and solve granularity (a traced crc32
//! feedback run records a few hundred events), so the lock is
//! uncontended in practice. Timestamps are monotonic nanoseconds since a
//! process-wide epoch (first telemetry touch).

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Events each track keeps with tracing off. A shard run records dozens
/// of events per iteration, so 64 covers the last iteration or two — the
/// part that explains a failure.
pub const FLIGHT_CAPACITY: usize = 64;

/// Most arguments one event carries (the solver's drain note has four).
pub const MAX_ARGS: usize = 4;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static LOG: Mutex<Log> = Mutex::new(Log { tracks: Vec::new(), seq: 0 });
/// Bumped whenever the track table is cleared ([`take_trace`]/[`reset`])
/// so threads holding a cached track id re-register instead of recording
/// onto a reassigned id.
static TRACK_GEN: AtomicU64 = AtomicU64::new(1);
static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

thread_local! {
    /// This thread's `(track generation, track id)`, or `u32::MAX` if
    /// not yet assigned. A stale generation invalidates the cached id.
    static THREAD_TRACK: Cell<(u64, u32)> = const { Cell::new((0, u32::MAX)) };
}

/// A typed event argument. `Copy`, so events are too; runtime strings
/// enter through [`intern`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument (ids, counts).
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument (clock periods, rates).
    F64(f64),
    /// String argument (fault sites, interned design names).
    Str(&'static str),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::I64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(v) => f.write_str(v),
        }
    }
}

/// What an [`Event`] marks: the start of a span, its end, or a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened (Chrome `ph: "B"`).
    Begin,
    /// Span closed (Chrome `ph: "E"`).
    End,
    /// Instantaneous point event (Chrome `ph: "i"`).
    Instant,
}

impl EventKind {
    /// The one-letter code JSONL and Chrome traces use: `B`, `E` or `i`.
    pub(crate) fn code(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        }
    }
}

/// One recorded telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global sequence number: a total order across all tracks.
    pub seq: u64,
    /// Track (≈ thread) the event was recorded on.
    pub track: u32,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Span or note name. Static because instrumentation sites name their
    /// spans with literals; parsed traces use [`crate::OwnedEvent`].
    pub name: &'static str,
    /// Monotonic nanoseconds since the process telemetry epoch.
    pub t_ns: u64,
    args: [(&'static str, ArgValue); MAX_ARGS],
    arg_count: u8,
}

impl Event {
    /// An event carrying `args`.
    ///
    /// # Panics
    ///
    /// Panics if `args` holds more than [`MAX_ARGS`] entries.
    pub fn new(
        seq: u64,
        track: u32,
        kind: EventKind,
        name: &'static str,
        t_ns: u64,
        args: &[(&'static str, ArgValue)],
    ) -> Event {
        let mut event = Event {
            seq,
            track,
            kind,
            name,
            t_ns,
            args: [("", ArgValue::U64(0)); MAX_ARGS],
            arg_count: args.len() as u8,
        };
        event.args[..args.len()].copy_from_slice(args);
        event
    }

    /// Key/value arguments: a span's on its `Begin`, a note's on itself.
    pub fn args(&self) -> &[(&'static str, ArgValue)] {
        &self.args[..usize::from(self.arg_count)]
    }
}

impl fmt::Display for Event {
    /// Compact form for status tables: `name(B)`, `name(E)`,
    /// `name(i k=v)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}", self.name, self.kind.code())?;
        for (key, value) in self.args() {
            write!(f, " {key}={value}")?;
        }
        f.write_str(")")
    }
}

/// A drained trace: every traced event recorded since the last
/// [`take_trace`] or [`reset`], in global sequence order, plus the
/// track-name table.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in ascending `seq` order.
    pub events: Vec<Event>,
    /// Track names; index = track id.
    pub tracks: Vec<String>,
}

impl Trace {
    /// Checks well-formedness: per-track LIFO nesting with name-matched
    /// ends, monotone timestamps, and no span left open.
    pub fn validate(&self) -> Result<crate::TraceSummary, crate::TraceError> {
        crate::validate_events(self.events.iter().map(|e| (e.track, e.kind, e.name, e.t_ns)))
    }

    /// Name of `track`, or a synthesized placeholder if unregistered.
    pub fn track_name(&self, track: u32) -> String {
        self.tracks.get(track as usize).cloned().unwrap_or_else(|| format!("track-{track}"))
    }
}

/// One track: its name and its event log.
struct Track {
    name: String,
    /// The newest events (at most [`FLIGHT_CAPACITY`]), oldest first,
    /// each flagged with whether the trace keeps it.
    ring: VecDeque<(Event, bool)>,
    /// Traced events pushed out of the full ring, oldest first.
    spilled: Vec<Event>,
}

impl Track {
    fn new(name: String) -> Track {
        Track { name, ring: VecDeque::with_capacity(FLIGHT_CAPACITY), spilled: Vec::new() }
    }

    fn push(&mut self, event: Event, traced: bool) {
        if self.ring.len() == FLIGHT_CAPACITY {
            if let Some((oldest, true)) = self.ring.pop_front() {
                self.spilled.push(oldest);
            }
        }
        self.ring.push_back((event, traced));
    }
}

struct Log {
    /// Registered tracks; a track's id is its index here. Track 0 is
    /// "main".
    tracks: Vec<Track>,
    /// The one sequence counter. Never reset, so it orders every event the
    /// process records.
    seq: u64,
}

fn lock() -> MutexGuard<'static, Log> {
    // Guards record their `End` while a panic unwinds; a poisoned lock
    // must not turn that into a second panic.
    LOG.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns whether tracing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables tracing. Disabling keeps every event
/// already traced; live guards still trace their `End` so a mid-run
/// toggle cannot unbalance the trace.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Monotonic nanoseconds since the process telemetry epoch.
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Returns a `'static` copy of `s`, storing each distinct string once.
/// Runtime strings (design names, input paths) reach events this way.
/// Interned strings live until the process exits, so intern
/// low-cardinality values only.
pub fn intern(s: &str) -> &'static str {
    let mut set = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = set.get(s) {
        return interned;
    }
    let interned: &'static str = Box::leak(s.into());
    set.insert(interned);
    interned
}

/// Names the calling thread's track (shown as the thread name in
/// Perfetto). Returns the track id. Batch workers call this once at
/// spawn (`batch-worker-{i}`); unnamed threads get `thread-{id}` on
/// their first recorded event.
pub fn set_thread_track(name: impl Into<String>) -> u32 {
    let (generation, id) = register(Some(name.into()));
    THREAD_TRACK.with(|t| t.set((generation, id)));
    id
}

/// Registers a track, returning `(generation, id)` read under the table
/// lock so a concurrent clear cannot hand out an id from the wrong
/// generation. A named track reuses an existing track of that name; an
/// unnamed one gets `thread-{id}`, except that the first thread to touch
/// telemetry claims track 0, "main".
fn register(name: Option<String>) -> (u64, u32) {
    let mut log = lock();
    let generation = TRACK_GEN.load(Ordering::Relaxed);
    if log.tracks.is_empty() {
        log.tracks.push(Track::new("main".to_string()));
        if name.is_none() {
            return (generation, 0);
        }
    }
    let id = match name {
        Some(name) => log.tracks.iter().position(|t| t.name == name).unwrap_or_else(|| {
            log.tracks.push(Track::new(name));
            log.tracks.len() - 1
        }),
        None => {
            let id = log.tracks.len();
            log.tracks.push(Track::new(format!("thread-{id}")));
            id
        }
    };
    (generation, id as u32)
}

/// The calling thread's track id, registering one if needed.
fn current_track() -> u32 {
    THREAD_TRACK.with(|t| {
        let (generation, id) = t.get();
        if id != u32::MAX && generation == TRACK_GEN.load(Ordering::Relaxed) {
            return id;
        }
        let (generation, id) = register(None);
        t.set((generation, id));
        id
    })
}

/// Appends one event to `track`'s log and returns its timestamp. Events
/// on a track the table no longer holds (a guard that outlived a
/// [`take_trace`]) are dropped.
fn record(
    track: u32,
    kind: EventKind,
    name: &'static str,
    args: &[(&'static str, ArgValue)],
    traced: bool,
) -> u64 {
    let mut log = lock();
    let t_ns = now_ns();
    let event = Event::new(log.seq, track, kind, name, t_ns, args);
    log.seq += 1;
    if let Some(track) = log.tracks.get_mut(track as usize) {
        track.push(event, traced);
    }
    t_ns
}

/// A scoped span: records `Begin` on creation and the matching `End` on
/// drop, or at [`finish`](SpanGuard::finish), which also returns the
/// span's duration. Spans are the workspace's one timer: a stage's
/// `stage/{name}/ns` is the sum of its spans' End − Begin.
#[must_use = "a span guard records its End when dropped; binding it to _ closes it immediately"]
pub struct SpanGuard {
    name: &'static str,
    track: u32,
    /// Whether the `Begin` was traced; the `End` and notes follow it.
    traced: bool,
    /// The `Begin` event's timestamp.
    begin_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(self.track, EventKind::End, self.name, &[], self.traced);
    }
}

impl SpanGuard {
    /// Records an instant event inside the span (Chrome `ph: "i"`) with
    /// up to [`MAX_ARGS`] arguments: values only known after the span
    /// opened, such as drain counters.
    pub fn note(&self, name: &'static str, args: &[(&'static str, ArgValue)]) {
        record(self.track, EventKind::Instant, name, args, self.traced);
    }

    /// Closes the span now and returns End − Begin, the difference of the
    /// two timestamps the log records for it.
    pub fn finish(self) -> Duration {
        let end_ns = record(self.track, EventKind::End, self.name, &[], self.traced);
        let elapsed = Duration::from_nanos(end_ns - self.begin_ns);
        // The End is recorded; the guard's fields are plain data, so
        // skipping its `Drop` leaks nothing.
        std::mem::forget(self);
        elapsed
    }
}

fn span_with(name: &'static str, args: &[(&'static str, ArgValue)]) -> SpanGuard {
    let track = current_track();
    let traced = enabled();
    let begin_ns = record(track, EventKind::Begin, name, args, traced);
    SpanGuard { name, track, traced, begin_ns }
}

/// Opens a span named `name` on the calling thread's track.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span with one `u64` argument.
pub fn span_u64(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    span_with(name, &[(key, ArgValue::U64(value))])
}

/// Opens a span with one `f64` argument.
pub fn span_f64(name: &'static str, key: &'static str, value: f64) -> SpanGuard {
    span_with(name, &[(key, ArgValue::F64(value))])
}

/// Opens a span with one runtime string argument, [interned](intern).
pub fn span_str(name: &'static str, key: &'static str, value: &str) -> SpanGuard {
    span_with(name, &[(key, ArgValue::Str(intern(value)))])
}

/// Records an instant `fault` event naming an injected-fault site on the
/// calling thread's track. The fault-injection layer calls this the
/// moment a fault trips, so post-mortem tails name the exact site.
pub fn flight_fault(site: &'static str) {
    let args = [("site", ArgValue::Str(site))];
    record(current_track(), EventKind::Instant, "fault", &args, enabled());
}

/// Snapshots `track`'s newest events (at most [`FLIGHT_CAPACITY`]),
/// oldest first. Allocates: this is the post-mortem read path.
pub fn flight_tail(track: u32) -> Vec<Event> {
    let log = lock();
    log.tracks.get(track as usize).map_or_else(Vec::new, |t| t.ring.iter().map(|e| e.0).collect())
}

/// Snapshots the calling thread's own tail — what the batch engine
/// attaches to a `JobError` right after catching a shard failure.
pub fn flight_tail_current() -> Vec<Event> {
    flight_tail(current_track())
}

/// Empties the track table and returns its tracks, bumping the generation
/// so cached track ids re-register.
fn take_tracks() -> Vec<Track> {
    let mut log = lock();
    TRACK_GEN.fetch_add(1, Ordering::Relaxed);
    std::mem::take(&mut log.tracks)
}

/// Drains every traced event (sorted by sequence number) and the
/// track-name table. The table is cleared (its snapshot lives on in the
/// returned [`Trace`]), so back-to-back in-process runs do not
/// accumulate stale `batch-worker-*`/`thread-*` tracks; long-lived
/// threads re-register lazily on their next event.
pub fn take_trace() -> Trace {
    let mut trace = Trace::default();
    for track in take_tracks() {
        trace.events.extend(track.spilled);
        trace.events.extend(track.ring.into_iter().filter_map(|(e, traced)| traced.then_some(e)));
        trace.tracks.push(track.name);
    }
    trace.events.sort_unstable_by_key(|e| e.seq);
    trace
}

/// Clears the track table and every log without returning them. The
/// epoch and the sequence counter persist.
pub fn reset() {
    take_tracks();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log is global, so tests that enable tracing, drain it, or read
    /// tails must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = serial();
        set_enabled(false);
        reset();
        {
            let _s = span("nothing");
            let _t = span_u64("nested", "i", 3);
        }
        assert!(take_trace().events.is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let _guard = serial();
        set_enabled(false);
        reset();
        set_enabled(true);
        {
            let outer = span("outer");
            outer.note("mark", &[("k", ArgValue::U64(7))]);
            let _inner = span_str("inner", "design", "crc32");
        }
        set_enabled(false);
        let trace = take_trace();
        let kinds: Vec<EventKind> = trace.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Begin,
                EventKind::Instant,
                EventKind::Begin,
                EventKind::End,
                EventKind::End
            ]
        );
        assert_eq!(trace.events[2].args(), &[("design", ArgValue::Str("crc32"))]);
        // Inner closes before outer (LIFO), names match.
        assert_eq!(trace.events[3].name, "inner");
        assert_eq!(trace.events[4].name, "outer");
        let summary = trace.validate().expect("balanced trace");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.max_depth, 2);
    }

    #[test]
    fn mid_span_disable_still_closes() {
        let _guard = serial();
        set_enabled(false);
        reset();
        set_enabled(true);
        let s = span("survivor");
        set_enabled(false);
        drop(s);
        // Untraced events overflow the ring; the traced pair spills.
        for _ in 0..2 * FLIGHT_CAPACITY {
            let _untraced = span("untraced");
        }
        let trace = take_trace();
        assert_eq!(trace.events.len(), 2);
        trace.validate().expect("End recorded despite disable");
    }

    #[test]
    fn finish_returns_the_recorded_span_length() {
        let _guard = serial();
        set_enabled(false);
        reset();
        set_enabled(true);
        let elapsed = span("timed").finish();
        set_enabled(false);
        let trace = take_trace();
        assert_eq!(trace.events.len(), 2, "finish records the End exactly once");
        let (begin, end) = (trace.events[0].t_ns, trace.events[1].t_ns);
        assert_eq!(elapsed, Duration::from_nanos(end - begin));
        trace.validate().expect("a finished span is closed");
    }

    #[test]
    fn threads_get_distinct_tracks() {
        let _guard = serial();
        set_enabled(false);
        reset();
        set_enabled(true);
        let main_span = span("parent");
        std::thread::scope(|scope| {
            for i in 0..3 {
                scope.spawn(move || {
                    set_thread_track(format!("worker-{i}"));
                    let _s = span_u64("work", "i", i);
                });
            }
        });
        drop(main_span);
        set_enabled(false);
        let trace = take_trace();
        let mut tracks: Vec<u32> = trace.events.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        assert_eq!(tracks.len(), 4, "main + 3 workers");
        for i in 0..3 {
            assert!(trace.tracks.iter().any(|t| t == &format!("worker-{i}")));
        }
        trace.validate().expect("per-track balance across threads");
    }

    #[test]
    fn traced_events_survive_more_tracks_than_the_ring_capacity() {
        let _guard = serial();
        set_enabled(false);
        reset();
        set_enabled(true);
        std::thread::scope(|scope| {
            for i in 0..70 {
                scope.spawn(move || {
                    set_thread_track(format!("many-{i}"));
                    let _s = span("many");
                });
            }
        });
        set_enabled(false);
        let trace = take_trace();
        assert_eq!(trace.events.len(), 140, "every traced Begin/End of 70 tracks is kept");
        trace.validate().expect("balanced across 70 tracks");
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let event = |seq| Event::new(seq, 0, EventKind::Instant, "e", 0, &[]);
        let mut untraced = Track::new("untraced".into());
        let mut traced = Track::new("traced".into());
        for seq in 0..(FLIGHT_CAPACITY as u64 + 10) {
            untraced.push(event(seq), false);
            traced.push(event(seq), true);
        }
        for track in [&untraced, &traced] {
            assert_eq!(track.ring.len(), FLIGHT_CAPACITY);
            assert_eq!(track.ring.front().unwrap().0.seq, 10);
            assert_eq!(track.ring.back().unwrap().0.seq, FLIGHT_CAPACITY as u64 + 9);
        }
        assert!(untraced.spilled.is_empty(), "untraced events are dropped");
        let spilled: Vec<u64> = traced.spilled.iter().map(|e| e.seq).collect();
        assert_eq!(spilled, (0..10).collect::<Vec<u64>>(), "traced events spill in order");
    }

    #[test]
    fn disabled_tracing_still_records_a_tail() {
        let _guard = serial();
        set_enabled(false);
        // Runs on its own named thread so other tests' events (the log is
        // global) cannot interleave into the ring under test.
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let id = set_thread_track("recorder-test");
                    {
                        let _outer = span("flight-outer");
                        let _inner = span_u64("flight-inner", "i", 7);
                    }
                    flight_fault("test/site");
                    let tail = flight_tail(id);
                    let names: Vec<&str> = tail.iter().map(|e| e.name).collect();
                    let outer = names.iter().position(|n| *n == "flight-outer").unwrap();
                    assert_eq!(
                        &names[outer..outer + 5],
                        &["flight-outer", "flight-inner", "flight-inner", "flight-outer", "fault"]
                    );
                    let fault = tail.last().unwrap();
                    assert_eq!(fault.args(), &[("site", ArgValue::Str("test/site"))]);
                    assert_eq!(fault.to_string(), "fault(i site=test/site)");
                    assert_eq!(
                        tail[outer + 1].args(),
                        &[("i", ArgValue::U64(7))],
                        "span argument survives into the ring"
                    );
                })
                .join()
                .unwrap();
        });
    }
}
