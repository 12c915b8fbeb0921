//! The metrics registry: counters and histograms, and the frames that
//! carry their values out of a run.
//!
//! A [`Registry`] hands out cheap clonable handles ([`Counter`],
//! [`Histogram`]) backed by atomics; recording is lock-free.
//! [`Registry::snapshot`] freezes the current values into a
//! [`MetricsFrame`] — an ordered name → value map.
//!
//! Frames aggregate one way: **by disjoint keys, then sums.** A batch
//! files each point's frame under a key prefix unique to that point
//! (`job3/pt1/run/iterations`), so no two values ever share a key, and
//! [`MetricsFrame::totals`] then *sums* counters grouped by leaf name to
//! produce fleet totals. Determinism across thread counts holds exactly
//! for counters whose per-point values are themselves deterministic
//! (scheduled points, register bits, iterations). Which run of a fleet
//! hits the shared cache first, and the drain work that follows, depend
//! on interleaving and are reported, not asserted; but each run counts
//! only its own cache lookups, so the runs' hits and misses sum to the
//! fleet's.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two buckets in a [`Histogram`]: bucket 0 counts
/// zeros, bucket `k ≥ 1` counts values with bit length `k` (i.e. in
/// `[2^(k-1), 2^k)`), up to the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

enum Cell {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<Buckets>),
}

impl Cell {
    fn value(&self) -> MetricValue {
        match self {
            Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
            Cell::Histogram(h) => {
                MetricValue::Histogram(h.0.iter().map(|b| b.load(Ordering::Relaxed)).collect())
            }
        }
    }
}

struct Buckets([AtomicU64; HISTOGRAM_BUCKETS]);

/// A monotonically increasing counter handle. Clones share the cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful as a default).
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A power-of-two bucketed histogram handle. Clones share the cell.
#[derive(Clone)]
pub struct Histogram(Arc<Buckets>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0 .0[Self::bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket index for a value: 0 for 0, else the bit length.
    pub fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0 .0.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram(n={})", self.count())
    }
}

/// A frozen metric value inside a [`MetricsFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Histogram bucket counts, [`HISTOGRAM_BUCKETS`] long.
    Histogram(Vec<u64>),
}

impl MetricValue {
    /// Counter reading, if this value is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

/// An ordered snapshot of metric names to frozen values. Frames are the
/// unit of aggregation: each run snapshots its own registry, and a batch
/// files every point's values under disjoint keys for
/// [`totals`](Self::totals) to sum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsFrame {
    /// Name → value, in deterministic (lexicographic) order.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsFrame {
    /// The empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any earlier value.
    pub fn insert(&mut self, name: impl Into<String>, value: MetricValue) {
        self.metrics.insert(name.into(), value);
    }

    /// Counter reading under exactly `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).and_then(MetricValue::as_counter)
    }

    /// Counter reading under exactly `name`, or 0.
    pub fn counter_or_zero(&self, name: &str) -> u64 {
        self.counter(name).unwrap_or(0)
    }

    /// Sums counters grouped by leaf name (the part after the last
    /// `/`). Fleet frames file each point under its own key prefix
    /// (`job3/pt1/run/iterations`), so this is the fleet-wide *sum* per
    /// metric. Deterministic whenever each point's own counters are.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for (name, value) in &self.metrics {
            if let MetricValue::Counter(v) = value {
                let leaf = name.rsplit('/').next().unwrap_or(name);
                *totals.entry(leaf.to_string()).or_insert(0) += v;
            }
        }
        totals
    }

    /// Sums counters whose name ends with `/{leaf}` (or equals `leaf`).
    pub fn total_of(&self, leaf: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(name, _)| name.as_str() == leaf || name.ends_with(&format!("/{leaf}")))
            .filter_map(|(_, v)| v.as_counter())
            .sum()
    }
}

/// Estimates the `q`-quantile (`0.0 ..= 1.0`) of a power-of-two bucketed
/// histogram (see [`HISTOGRAM_BUCKETS`] for the bucket layout).
///
/// The estimate is the **lower bound** of the bucket containing the
/// rank-`max(1, ⌈q·n⌉)` sample: `0` for the zero bucket, else
/// `2^(k-1)` for bucket `k`.
///
/// **Error bound:** the true rank-`⌈q·n⌉` sample lies in the same
/// bucket, i.e. in `[estimate, 2·estimate)` — the estimate never
/// overshoots and undershoots by strictly less than 2×. When every
/// sample is an exact power of two (a bucket boundary) the estimate is
/// exact. Returns `None` for an empty histogram.
pub fn histogram_quantile(buckets: &[u64], q: f64) -> Option<u64> {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let mut cum = 0u64;
    for (k, &count) in buckets.iter().enumerate() {
        cum += count;
        if cum >= rank {
            return Some(if k == 0 { 0 } else { 1u64 << (k - 1) });
        }
    }
    None
}

/// A collection of named metric cells. Handle registration takes a
/// short-lived lock; recording through handles is lock-free.
#[derive(Default)]
pub struct Registry {
    cells: Mutex<BTreeMap<String, Cell>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers the counter `name`. Panics if `name` is
    /// already registered as a histogram (a code bug: metric names are
    /// static within one build).
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.cells.lock().unwrap();
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Counter(Arc::new(AtomicU64::new(0))))
        {
            Cell::Counter(c) => Counter(Arc::clone(c)),
            Cell::Histogram(_) => panic!("metric {name:?} already registered as a histogram"),
        }
    }

    /// Gets or registers the histogram `name`. Panics if `name` is
    /// already registered as a counter.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut cells = self.cells.lock().unwrap();
        match cells.entry(name.to_string()).or_insert_with(|| {
            Cell::Histogram(Arc::new(Buckets(std::array::from_fn(|_| AtomicU64::new(0)))))
        }) {
            Cell::Histogram(h) => Histogram(Arc::clone(h)),
            Cell::Counter(_) => panic!("metric {name:?} already registered as a counter"),
        }
    }

    /// Freezes all cells into a frame.
    pub fn snapshot(&self) -> MetricsFrame {
        let cells = self.cells.lock().unwrap();
        let metrics = cells.iter().map(|(name, cell)| (name.clone(), cell.value())).collect();
        MetricsFrame { metrics }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells = self.cells.lock().unwrap();
        write!(f, "Registry({} cells)", cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells() {
        let reg = Registry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.add(2);
        b.incr();
        assert_eq!(reg.snapshot().counter("hits"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _c = reg.counter("x");
        let _h = reg.histogram("x");
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        let h = Registry::new().histogram("h");
        h.record(0);
        h.record(7);
        h.record(8);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn scoped_totals_sum_by_leaf() {
        // Built the way a batch files its points: each run's snapshot
        // under its own `job{j}/pt{p}/` prefix.
        let mut fleet = MetricsFrame::new();
        for point in 0..3u64 {
            let reg = Registry::new();
            reg.counter("points").add(point + 1);
            reg.counter("feasible").add(1);
            for (name, value) in reg.snapshot().metrics {
                fleet.insert(format!("job0/pt{point}/{name}"), value);
            }
        }
        assert_eq!(fleet.totals()["points"], 6);
        assert_eq!(fleet.totals()["feasible"], 3);
        assert_eq!(fleet.total_of("points"), 6);
    }

    /// Exact rank-`⌈q·n⌉` quantile of a sample set, the reference the
    /// bucketed estimator is compared against.
    fn exact_quantile(samples: &mut [u64], q: f64) -> u64 {
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1]
    }

    #[test]
    fn quantiles_are_exact_at_bucket_boundaries() {
        // Every sample is a power of two (a bucket boundary) — the
        // lower-bound estimator is exact by construction. Duplicate some
        // samples so bucket counts exceed one.
        let mut samples: Vec<u64> = (0..20).map(|j| 1u64 << j).collect();
        samples.extend([1u64, 8, 8, 1 << 19]);
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for &s in &samples {
            buckets[Histogram::bucket(s)] += 1;
        }
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                histogram_quantile(&buckets, q),
                Some(exact_quantile(&mut samples, q)),
                "q = {q}"
            );
        }
    }

    #[test]
    fn quantiles_stay_within_the_documented_bound() {
        let mut samples: Vec<u64> = vec![0, 3, 5, 6, 7, 100, 1000, 1001, 4095, 4096, 70000];
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for &s in &samples {
            buckets[Histogram::bucket(s)] += 1;
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let est = histogram_quantile(&buckets, q).unwrap();
            let exact = exact_quantile(&mut samples, q);
            if exact == 0 {
                assert_eq!(est, 0, "q = {q}");
            } else {
                assert!(est <= exact && exact < 2 * est, "q = {q}: est {est}, exact {exact}");
            }
        }
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(histogram_quantile(&[], 0.5), None);
        assert_eq!(histogram_quantile(&vec![0u64; HISTOGRAM_BUCKETS], 0.5), None);
        // All zeros: every quantile is the zero bucket.
        let mut zeros = vec![0u64; HISTOGRAM_BUCKETS];
        zeros[0] = 5;
        assert_eq!(histogram_quantile(&zeros, 0.99), Some(0));
        // Top bucket: values with bit length 64.
        let mut top = vec![0u64; HISTOGRAM_BUCKETS];
        top[64] = 1;
        assert_eq!(histogram_quantile(&top, 0.5), Some(1u64 << 63));
    }
}
