//! Run reports and regression attribution.
//!
//! A [`RunReport`] is the structured summary of one run (or one fleet):
//! per-stage wall-clock, cache hit rate, LP emission mix, drain stats,
//! and histogram quantiles — extracted from [`MetricsFrame`]s and
//! rendered as text (the CLI `--profile` table) or JSON (the `isdc
//! report` artifact). [`attribute`] then answers "why is this run slower
//! than that one": it diffs two flat metric maps and ranks per-stage and
//! per-metric deltas by their contribution to the total wall-clock
//! delta, which is also what `bench_gate` prints when a floor fails.
//!
//! Frames arrive in two shapes and both are handled by suffix matching:
//! a list of per-point frames from a sweep (keys like `stage/solve/ns`),
//! or one fleet frame whose keys carry per-job scopes
//! (`job3/pt1/stage/solve/ns`). Counters are **summed** across frames
//! and scopes (each frame is an independent run snapshot), histogram
//! buckets likewise.

use crate::registry::{histogram_quantile, MetricValue, MetricsFrame};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Key groups that identify a metric regardless of its fleet scope
/// prefix. A key's canonical name is its suffix starting at the first
/// segment-aligned occurrence of one of these.
const GROUPS: [&str; 8] = ["stage/", "cache/", "drain/", "lp/", "run/", "solve/", "fault/", "job/"];

fn canonical(key: &str) -> Option<&str> {
    for group in GROUPS {
        if let Some(pos) = key.find(group) {
            if pos == 0 || key.as_bytes()[pos - 1] == b'/' {
                return Some(&key[pos..]);
            }
        }
    }
    None
}

/// One row of the per-stage wall-clock table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Stage name (`extract`, `solve`, ...).
    pub name: String,
    /// Total nanoseconds spent in the stage.
    pub ns: u64,
    /// Number of stage invocations.
    pub calls: u64,
}

/// Histogram quantile summary for one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileRow {
    /// Canonical metric name (e.g. `solve/ns`).
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Estimated p50 (see [`histogram_quantile`] for the error bound).
    pub p50: u64,
    /// Estimated p95.
    pub p95: u64,
    /// Estimated p99.
    pub p99: u64,
}

/// A structured per-run (or per-fleet) report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per-stage wall-clock rows, descending by time.
    pub stages: Vec<StageRow>,
    /// Total scheduling wall-clock in nanoseconds: `run/total_ns` when
    /// recorded, otherwise the sum of stage times.
    pub total_ns: u64,
    /// All summed counters by canonical name (the raw material of the
    /// sections below, kept for JSON export and attribution).
    pub counters: BTreeMap<String, u64>,
    /// Histogram quantiles by canonical name.
    pub quantiles: Vec<QuantileRow>,
}

impl RunReport {
    /// Builds a report from one frame (a single run, or a fleet frame
    /// with per-job scopes).
    pub fn from_frame(frame: &MetricsFrame) -> RunReport {
        Self::from_frames([frame])
    }

    /// Builds a report from independent per-run frames (e.g. one per
    /// sweep point): counters and histogram buckets are summed.
    pub fn from_frames<'a, I>(frames: I) -> RunReport
    where
        I: IntoIterator<Item = &'a MetricsFrame>,
    {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for frame in frames {
            for (key, value) in &frame.metrics {
                let Some(name) = canonical(key) else { continue };
                match value {
                    MetricValue::Counter(v) => *counters.entry(name.to_string()).or_insert(0) += v,
                    MetricValue::Histogram(buckets) => {
                        let acc = histograms.entry(name.to_string()).or_default();
                        if acc.len() < buckets.len() {
                            acc.resize(buckets.len(), 0);
                        }
                        for (a, b) in acc.iter_mut().zip(buckets) {
                            *a += b;
                        }
                    }
                }
            }
        }

        let mut stages: Vec<StageRow> = Vec::new();
        for (key, &ns) in &counters {
            if let Some(name) = key.strip_prefix("stage/").and_then(|r| r.strip_suffix("/ns")) {
                let calls = counters.get(&format!("stage/{name}/calls")).copied().unwrap_or(0);
                stages.push(StageRow { name: name.to_string(), ns, calls });
            }
        }
        stages.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.name.cmp(&b.name)));

        let total_ns = match counters.get("run/total_ns") {
            Some(&t) if t > 0 => t,
            _ => stages.iter().map(|s| s.ns).sum(),
        };

        let quantiles = histograms
            .iter()
            .filter_map(|(name, buckets)| {
                let count: u64 = buckets.iter().sum();
                Some(QuantileRow {
                    name: name.clone(),
                    count,
                    p50: histogram_quantile(buckets, 0.50)?,
                    p95: histogram_quantile(buckets, 0.95)?,
                    p99: histogram_quantile(buckets, 0.99)?,
                })
            })
            .collect();

        RunReport { stages, total_ns, counters, quantiles }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Cache hit rate in `[0, 1]`, or `None` when no lookups happened.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = self.counter("cache/hits");
        let total = hits + self.counter("cache/misses");
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Renders the human-readable report (the `--profile` table).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: total {} | iterations {} | subgraphs {} ({} reused)",
            fmt_ns(self.total_ns),
            self.counter("run/iterations"),
            self.counter("run/subgraphs_evaluated"),
            self.counter("run/subgraphs_reused"),
        );
        if !self.stages.is_empty() {
            let _ = writeln!(out, "  {:<14} {:>12} {:>7} {:>9}", "stage", "time", "%", "calls");
            for s in &self.stages {
                let pct = if self.total_ns > 0 {
                    100.0 * s.ns as f64 / self.total_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:<14} {:>12} {:>6.1}% {:>9}",
                    s.name,
                    fmt_ns(s.ns),
                    pct,
                    s.calls
                );
            }
        }
        let _ = write!(
            out,
            "  cache: hits {} misses {} inserts {}",
            self.counter("cache/hits"),
            self.counter("cache/misses"),
            self.counter("cache/inserts"),
        );
        match self.cache_hit_rate() {
            Some(rate) => {
                let _ = writeln!(out, " (hit rate {:.1}%)", 100.0 * rate);
            }
            None => {
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(
            out,
            "  lp: pairs_scanned {} emitted {} pruned {}",
            self.counter("lp/pairs_scanned"),
            self.counter("lp/constraints_emitted"),
            self.counter("lp/pruned"),
        );
        let _ = writeln!(
            out,
            "  drain: dijkstras {} paths {} nodes_settled {} flow_pushed {}",
            self.counter("drain/dijkstras"),
            self.counter("drain/paths"),
            self.counter("drain/nodes_settled"),
            self.counter("drain/flow_pushed"),
        );
        for q in &self.quantiles {
            let _ = writeln!(
                out,
                "  {}: n {} p50 {} p95 {} p99 {}",
                q.name,
                q.count,
                fmt_ns(q.p50),
                fmt_ns(q.p95),
                fmt_ns(q.p99),
            );
        }
        out
    }

    /// Renders the report as a JSON object (one `isdc report` artifact).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"kind\": \"isdc_report\",\n");
        let _ = writeln!(out, "  \"total_ns\": {},", self.total_ns);
        out.push_str("  \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"ns\": {}, \"calls\": {}}}",
                crate::escape_json(&s.name),
                s.ns,
                s.calls
            );
        }
        out.push_str("\n  ],\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", crate::escape_json(name));
        }
        out.push_str("\n  },\n  \"quantiles\": [");
        for (i, q) in self.quantiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                crate::escape_json(&q.name),
                q.count,
                q.p50,
                q.p95,
                q.p99
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Formats nanoseconds with a readable unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// One ranked row of a regression attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Flat metric key (e.g. `stage/solve/ns`, `cache/hits`).
    pub key: String,
    /// Baseline value.
    pub old: f64,
    /// Current value.
    pub new: f64,
    /// `new - old`.
    pub delta: f64,
    /// For wall-clock keys: this key's fraction of the total wall-clock
    /// delta (signed; can exceed 1 when other keys moved the other
    /// way). `None` for non-time metrics, which are ranked by relative
    /// change instead.
    pub share: Option<f64>,
}

/// Whether a flat key measures wall-clock nanoseconds (contributes to
/// the total-delta denominator). Only `ns` keys qualify so the
/// denominator never mixes units; a bare `ends_with("ns")` would also
/// match keys like `run/iterations`.
fn is_time_key(key: &str) -> bool {
    let last = key.rsplit('/').next().unwrap_or(key);
    last == "ns" || last.ends_with("_ns")
}

/// Whether a time key is a per-component contributor rather than an
/// aggregate total (totals are excluded from the denominator fallback so
/// components are not double counted).
fn is_component_time_key(key: &str) -> bool {
    is_time_key(key) && !key.rsplit('/').next().unwrap_or(key).contains("total")
}

/// Diffs two flat metric maps (`key → value`) and ranks the deltas by
/// contribution to the total wall-clock delta.
///
/// The total is taken from a key whose leaf contains `total` and ends in
/// a time suffix when both maps carry one (preferring `total_ns`);
/// otherwise it is the summed delta of all component time keys.
/// Wall-clock keys are ranked first, by absolute delta; other metrics
/// follow, ranked by relative change. Keys present in only one map
/// contribute with the missing side as 0.
///
/// Returns `(total_wall_clock_delta_ns_like, ranked_rows)`.
pub fn attribute(
    old: &BTreeMap<String, f64>,
    new: &BTreeMap<String, f64>,
) -> (f64, Vec<AttributionRow>) {
    let mut keys: Vec<&String> = old.keys().chain(new.keys()).collect();
    keys.sort();
    keys.dedup();

    let total_key = {
        let mut candidates: Vec<&String> = keys
            .iter()
            .copied()
            .filter(|k| {
                is_time_key(k)
                    && k.rsplit('/').next().unwrap_or(k).contains("total")
                    && old.contains_key(*k)
                    && new.contains_key(*k)
            })
            .collect();
        // Prefer the shortest (least scoped) total, then `_ns` totals.
        candidates.sort_by_key(|k| (k.len(), !k.ends_with("ns")));
        candidates.first().copied()
    };
    let total_delta = match total_key {
        Some(k) => new[k] - old[k],
        None => keys
            .iter()
            .filter(|k| is_component_time_key(k))
            .map(|k| new.get(*k).copied().unwrap_or(0.0) - old.get(*k).copied().unwrap_or(0.0))
            .sum(),
    };

    let mut rows: Vec<AttributionRow> = keys
        .into_iter()
        .map(|key| {
            let o = old.get(key).copied().unwrap_or(0.0);
            let n = new.get(key).copied().unwrap_or(0.0);
            let delta = n - o;
            let share = if is_time_key(key) && total_delta != 0.0 {
                Some(delta / total_delta)
            } else if is_time_key(key) {
                Some(0.0)
            } else {
                None
            };
            AttributionRow { key: key.clone(), old: o, new: n, delta, share }
        })
        .filter(|row| row.delta != 0.0)
        .collect();
    rows.sort_by(|a, b| {
        let rank = |r: &AttributionRow| if r.share.is_some() { 0u8 } else { 1u8 };
        rank(a).cmp(&rank(b)).then_with(|| {
            let weight = |r: &AttributionRow| {
                if r.share.is_some() {
                    r.delta.abs()
                } else {
                    r.delta.abs() / r.old.abs().max(1.0)
                }
            };
            weight(b).partial_cmp(&weight(a)).unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    (total_delta, rows)
}

/// Renders an attribution as a ranked text table (what `isdc report
/// --baseline` prints, and what `bench_gate` prints on a red floor).
pub fn render_attribution(total_delta: f64, rows: &[AttributionRow], limit: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "attribution: total wall-clock delta {}{}",
        if total_delta >= 0.0 { "+" } else { "-" },
        fmt_ns(total_delta.abs() as u64)
    );
    if rows.is_empty() {
        let _ = writeln!(out, "  (no metric moved)");
        return out;
    }
    for row in rows.iter().take(limit) {
        match row.share {
            Some(share) => {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>12} -> {:>12}  {}{:<12} {:>6.1}% of delta",
                    row.key,
                    fmt_ns(row.old as u64),
                    fmt_ns(row.new as u64),
                    if row.delta >= 0.0 { "+" } else { "-" },
                    fmt_ns(row.delta.abs() as u64),
                    100.0 * share,
                );
            }
            None => {
                let rel = 100.0 * row.delta / row.old.abs().max(1.0);
                let _ = writeln!(
                    out,
                    "  {:<32} {:>12} -> {:>12}  ({rel:+.1}%)",
                    row.key, row.old, row.new,
                );
            }
        }
    }
    if rows.len() > limit {
        let _ = writeln!(out, "  ... {} more unchanged-or-smaller deltas", rows.len() - limit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(entries: &[(&str, u64)]) -> MetricsFrame {
        let mut f = MetricsFrame::new();
        for (k, v) in entries {
            f.insert(*k, MetricValue::Counter(*v));
        }
        f
    }

    #[test]
    fn report_sums_counters_across_frames_and_scopes() {
        let a = frame(&[
            ("stage/solve/ns", 800),
            ("stage/solve/calls", 2),
            ("cache/hits", 3),
            ("run/total_ns", 1000),
        ]);
        // A fleet-scoped frame: the same canonical keys under job/pt.
        let b = frame(&[
            ("job0/pt1/stage/solve/ns", 200),
            ("job0/pt1/stage/solve/calls", 1),
            ("job0/pt1/cache/hits", 1),
            ("job0/pt1/cache/misses", 4),
            ("job0/pt1/run/total_ns", 500),
        ]);
        let report = RunReport::from_frames(&[a, b]);
        assert_eq!(report.total_ns, 1500);
        assert_eq!(report.stages, vec![StageRow { name: "solve".into(), ns: 1000, calls: 3 }]);
        assert_eq!(report.counter("cache/hits"), 4);
        assert!((report.cache_hit_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_joins_histograms_and_estimates_quantiles() {
        let mut a = MetricsFrame::new();
        let mut buckets = vec![0u64; crate::HISTOGRAM_BUCKETS];
        buckets[4] = 10; // ten samples in [8, 16)
        a.insert("solve/ns", MetricValue::Histogram(buckets.clone()));
        let mut b = MetricsFrame::new();
        b.insert("job1/pt0/solve/ns", MetricValue::Histogram(buckets));
        let report = RunReport::from_frames(&[a, b]);
        assert_eq!(report.quantiles.len(), 1);
        let q = &report.quantiles[0];
        assert_eq!((q.name.as_str(), q.count), ("solve/ns", 20));
        assert_eq!((q.p50, q.p95, q.p99), (8, 8, 8));
    }

    #[test]
    fn text_and_json_renders_contain_the_sections() {
        let report = RunReport::from_frame(&frame(&[
            ("stage/extract/ns", 250),
            ("stage/extract/calls", 5),
            ("run/iterations", 5),
            ("run/subgraphs_evaluated", 40),
            ("run/subgraphs_reused", 12),
        ]));
        let text = report.render_text();
        assert!(text.contains("| iterations 5 | subgraphs 40 (12 reused)\n"), "{text}");
        assert!(text.contains("stage"));
        assert!(text.contains("extract"));
        assert!(text.contains("lp:"));
        assert!(text.contains("drain:"));
        let json = report.render_json();
        assert!(json.contains("\"kind\": \"isdc_report\""));
        assert!(json.contains("\"stage/extract/ns\": 250"));
    }

    #[test]
    fn attribution_ranks_by_contribution_to_wall_clock_delta() {
        let mut old = BTreeMap::new();
        let mut new = BTreeMap::new();
        old.insert("total_ns".to_string(), 1000.0);
        new.insert("total_ns".to_string(), 2000.0);
        old.insert("stage/solve/ns".to_string(), 600.0);
        new.insert("stage/solve/ns".to_string(), 1500.0);
        old.insert("stage/extract/ns".to_string(), 400.0);
        new.insert("stage/extract/ns".to_string(), 500.0);
        old.insert("cache/hits".to_string(), 100.0);
        new.insert("cache/hits".to_string(), 10.0);

        let (total, rows) = attribute(&old, &new);
        assert_eq!(total, 1000.0);
        // total_ns itself is a time key and ranks first (|delta| 1000),
        // then solve (900, 90% of the delta), then extract.
        let keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, vec!["total_ns", "stage/solve/ns", "stage/extract/ns", "cache/hits"]);
        let solve = &rows[1];
        assert!((solve.share.unwrap() - 0.9).abs() < 1e-12);
        assert!(rows[3].share.is_none(), "counters carry no wall-clock share");

        let text = render_attribution(total, &rows, 10);
        assert!(text.contains("stage/solve/ns"));
        assert!(text.contains("90.0% of delta"));
    }

    #[test]
    fn attribution_without_a_total_key_sums_component_time_keys() {
        let mut old = BTreeMap::new();
        let mut new = BTreeMap::new();
        old.insert("stage/solve/ns".to_string(), 100.0);
        new.insert("stage/solve/ns".to_string(), 300.0);
        old.insert("stage/feedback/ns".to_string(), 50.0);
        new.insert("stage/feedback/ns".to_string(), 50.0);
        let (total, rows) = attribute(&old, &new);
        assert_eq!(total, 200.0);
        assert_eq!(rows.len(), 1, "unchanged keys are dropped");
        assert_eq!(rows[0].key, "stage/solve/ns");
        assert!((rows[0].share.unwrap() - 1.0).abs() < 1e-12);
    }
}
