//! Property-based tests for the metrics registry: the algebraic laws of
//! [`MetricsFrame::merge`] (the `DelayCache::merge` contract —
//! commutative, associative, idempotent, with the empty frame as
//! identity) and the partition-invariance that makes batch fleet totals
//! bit-identical across thread counts.

use isdc_telemetry::{
    parse_jsonl, render_jsonl, ArgValue, Event, EventKind, MetricValue, MetricsFrame, OwnedArg,
    Trace, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// Deterministic helper RNG (same recipe the sibling crates' proptests use).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// A random frame: a handful of keys drawn from a small shared pool (so
/// two frames collide on some keys and differ on others), with values
/// of random kinds — including deliberate kind mismatches across
/// frames, which the join must still resolve lawfully.
fn arbitrary_frame() -> impl Strategy<Value = MetricsFrame> {
    any::<u64>().prop_map(|seed| {
        let mut state = seed;
        let mut frame = MetricsFrame::new();
        let keys = ["cache/hits", "drain/paths", "run/iterations", "points", "shard0/points"];
        let entries = 1 + lcg(&mut state) as usize % keys.len();
        for _ in 0..entries {
            let key = keys[lcg(&mut state) as usize % keys.len()];
            let value = match lcg(&mut state) % 3 {
                0 => MetricValue::Counter(lcg(&mut state)),
                1 => MetricValue::Histogram(
                    (0..HISTOGRAM_BUCKETS).map(|_| lcg(&mut state) % 16).collect(),
                ),
                // Short histogram: exercises the zero-padding in join.
                _ => MetricValue::Histogram((0..7).map(|_| lcg(&mut state) % 16).collect()),
            };
            frame.insert(key, value);
        }
        frame
    })
}

/// Span-name and argument pools. [`Event`] holds names and string
/// arguments as `&'static str`, so random traces draw from literal pools; the string
/// pools deliberately include every escape class the JSONL renderer
/// handles (quotes, backslashes, newlines, tabs, control chars, and
/// multi-byte UTF-8).
const SPAN_NAMES: [&str; 5] = ["run", "solve", "mark", "fault", "emit \"q\""];
const ARG_KEYS: [&str; 5] = ["n", "delta", "rate", "site", "design"];
const ARG_STRS: [&str; 5] = ["crc\"32", "line\nbreak", "back\\slash\there", "ctl\u{1}", "πlain μs"];
const TRACK_NAMES: [&str; 4] = ["main", "batch-worker-0", "worker \"τ\"", "t\n2"];

/// A random arg value covering every [`ArgValue`] kind, including
/// negative/positive integers, fractional/huge/negative floats, and the
/// non-finite floats that render as `null`.
fn arbitrary_arg(state: &mut u64) -> ArgValue {
    match lcg(state) % 8 {
        0 => ArgValue::U64(lcg(state)),
        1 => ArgValue::I64(-((lcg(state) % (1 << 40)) as i64)),
        // Non-negative I64: renders identically to a U64 and must
        // re-classify as one.
        2 => ArgValue::I64((lcg(state) % (1 << 40)) as i64),
        3 => ArgValue::F64(lcg(state) as f64 / 256.0 - (1 << 22) as f64),
        // Integral-valued float: must stay a float through the trip.
        4 => ArgValue::F64((lcg(state) % 10_000) as f64),
        5 => ArgValue::F64(if lcg(state).is_multiple_of(2) { f64::INFINITY } else { f64::NAN }),
        6 => ArgValue::F64(1e300 * if lcg(state).is_multiple_of(2) { 1.0 } else { -1.0 }),
        _ => ArgValue::Str(ARG_STRS[lcg(state) as usize % ARG_STRS.len()]),
    }
}

/// A random multi-track trace with notes (instant events) mixed in.
fn arbitrary_trace() -> impl Strategy<Value = Trace> {
    any::<u64>().prop_map(|seed| {
        let mut state = seed;
        let num_tracks = 1 + lcg(&mut state) as usize % 3;
        let tracks: Vec<String> =
            (0..num_tracks).map(|i| TRACK_NAMES[i % TRACK_NAMES.len()].to_string()).collect();
        let mut t_ns = 0u64;
        let events: Vec<Event> = (0..1 + lcg(&mut state) % 24)
            .map(|seq| {
                t_ns += lcg(&mut state) % 1000;
                let kind = match lcg(&mut state) % 3 {
                    0 => EventKind::Begin,
                    1 => EventKind::End,
                    _ => EventKind::Instant,
                };
                let args: Vec<_> = (0..lcg(&mut state) % 3)
                    .map(|i| (ARG_KEYS[i as usize], arbitrary_arg(&mut state)))
                    .collect();
                let track = (lcg(&mut state) as usize % num_tracks) as u32;
                let name = SPAN_NAMES[lcg(&mut state) as usize % SPAN_NAMES.len()];
                Event::new(seq, track, kind, name, t_ns, &args)
            })
            .collect();
        Trace { events, tracks }
    })
}

/// What [`parse_jsonl`] must hand back for a rendered [`ArgValue`]: JSON
/// numbers don't carry their Rust source type, so non-negative signed
/// integers normalize to `U64` and non-finite floats to `Null`;
/// everything else round-trips exactly (floats via shortest-round-trip
/// formatting).
fn expected_arg(v: &ArgValue) -> OwnedArg {
    match v {
        ArgValue::U64(n) => OwnedArg::U64(*n),
        ArgValue::I64(n) if *n >= 0 => OwnedArg::U64(*n as u64),
        ArgValue::I64(n) => OwnedArg::I64(*n),
        ArgValue::F64(x) if !x.is_finite() => OwnedArg::Null,
        ArgValue::F64(x) => OwnedArg::F64(*x),
        ArgValue::Str(s) => OwnedArg::Str(s.to_string()),
    }
}

fn merged(a: &MetricsFrame, b: &MetricsFrame) -> MetricsFrame {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// merge(A, B) == merge(B, A): the batch aggregator folds shard
    /// frames in slot order, but the result must not depend on it.
    #[test]
    fn merge_is_commutative((a, b) in (arbitrary_frame(), arbitrary_frame())) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// (A ∨ B) ∨ C == A ∨ (B ∨ C): folding is grouping-insensitive, so
    /// hierarchical aggregation (per-job, then fleet) matches flat.
    #[test]
    fn merge_is_associative((a, b, c) in (arbitrary_frame(), arbitrary_frame(), arbitrary_frame())) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// A ∨ A == A, and re-folding an already-folded frame is a no-op —
    /// republishing a shard snapshot must not double-count.
    #[test]
    fn merge_is_idempotent((a, b) in (arbitrary_frame(), arbitrary_frame())) {
        let ab = merged(&a, &b);
        prop_assert_eq!(merged(&ab, &a), ab.clone());
        prop_assert_eq!(merged(&ab, &b), ab.clone());
        prop_assert_eq!(merged(&a, &a), a);
    }

    /// The empty frame is the identity element.
    #[test]
    fn empty_frame_is_identity(a in arbitrary_frame()) {
        prop_assert_eq!(merged(&a, &MetricsFrame::new()), a.clone());
        prop_assert_eq!(merged(&MetricsFrame::new(), &a), a);
    }

    /// Fleet totals are partition-invariant: take a fixed list of
    /// per-point counter contributions (what a deterministic scheduler
    /// produces), shard it any way, snapshot each shard under a
    /// disjoint scope, fold in any of several orders — the summed
    /// totals are bit-identical to the serial (single-shard) fold.
    /// This is the algebraic core of the batch engine's cross-thread-
    /// count determinism test.
    #[test]
    fn totals_are_partition_invariant((seed, points) in (any::<u64>(), 1usize..40)) {
        let mut state = seed;
        let contributions: Vec<(u64, u64)> =
            (0..points).map(|_| (lcg(&mut state) % 1000, lcg(&mut state) % 2)).collect();

        let fleet_totals = |shards: usize| {
            let mut fleet = MetricsFrame::new();
            // Round-robin sharding: shard boundaries differ per count.
            for s in 0..shards {
                let mut shard = MetricsFrame::new();
                let mut bits = 0u64;
                let mut feasible = 0u64;
                for (i, (b, f)) in contributions.iter().enumerate() {
                    if i % shards == s {
                        bits += b;
                        feasible += f;
                    }
                }
                shard.insert(format!("shard{s}/register_bits"), MetricValue::Counter(bits));
                shard.insert(format!("shard{s}/feasible"), MetricValue::Counter(feasible));
                fleet.merge(&shard);
            }
            fleet.totals()
        };

        let serial = fleet_totals(1);
        for shards in [2usize, 3, 4, 7] {
            prop_assert_eq!(fleet_totals(shards), serial.clone(), "shards = {}", shards);
        }
    }

    /// `parse_jsonl(render_jsonl(trace))` is lossless for every event
    /// field and every [`ArgValue`] kind (up to the documented number
    /// normalization), across multiple tracks and instant-event notes.
    #[test]
    fn jsonl_round_trips_arbitrary_traces(trace in arbitrary_trace()) {
        let text = render_jsonl(&trace);
        let (events, tracks) = parse_jsonl(&text).expect("own output must parse");
        prop_assert_eq!(&tracks, &trace.tracks);
        prop_assert_eq!(events.len(), trace.events.len());
        for (got, want) in events.iter().zip(&trace.events) {
            prop_assert_eq!(got.seq, want.seq);
            prop_assert_eq!(got.track, want.track);
            prop_assert_eq!(got.kind, want.kind);
            prop_assert_eq!(&got.name, want.name);
            prop_assert_eq!(got.t_ns, want.t_ns);
            let expected: Vec<(String, OwnedArg)> =
                want.args().iter().map(|(k, v)| (k.to_string(), expected_arg(v))).collect();
            prop_assert_eq!(&got.args, &expected);
        }
    }

    /// Cutting the rendered text anywhere strictly inside its final line
    /// must be rejected with an error naming that line — a truncated
    /// flight dump or trace file fails loudly, not by silently dropping
    /// the tail.
    #[test]
    fn jsonl_rejects_truncation_with_the_line_number((trace, cut_seed) in (arbitrary_trace(), any::<u64>())) {
        let text = render_jsonl(&trace);
        // Pick a line, then a cut point strictly inside it: past the
        // opening `{` (so the line is non-empty) and before the closing
        // `}` (so what remains cannot be a complete object).
        let lines: Vec<&str> = text.lines().collect();
        let mut state = cut_seed;
        let line_idx = lcg(&mut state) as usize % lines.len();
        let line = lines[line_idx];
        let offset = 1 + lcg(&mut state) as usize % (line.len() - 1);
        let line_start = lines[..line_idx].iter().map(|l| l.len() + 1).sum::<usize>();
        // Back off to a UTF-8 boundary; the line opens with an ASCII
        // `{`, so the cut stays strictly past the line start.
        let mut cut = line_start + offset;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(cut > line_start && cut < line_start + line.len());
        let truncated = &text[..cut];
        let err = parse_jsonl(truncated).expect_err("truncated input must not parse");
        let tag = format!("line {}:", line_idx + 1);
        prop_assert!(err.starts_with(&tag), "error {:?} should start with {:?}", err, tag);
    }
}
