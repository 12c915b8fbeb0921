//! The metrics registry: counters and histograms with a
//! deterministic, commutative, associative, idempotent snapshot merge.
//!
//! A [`Registry`] hands out cheap clonable handles ([`Counter`],
//! [`Histogram`]) backed by atomics; recording is lock-free.
//! [`Registry::snapshot`] freezes the current values into a
//! [`MetricsFrame`] — an ordered name → value map — and frames combine
//! with [`MetricsFrame::merge`], which follows the same contract as
//! `DelayCache::merge`: a semilattice join, so folding any number of
//! frames in any order and with any duplication yields bit-identical
//! results. Concretely, same-kind values join elementwise by `max` and a
//! kind mismatch (impossible between frames produced by one codebase,
//! but the join must still be lawful) resolves to the higher-ranked
//! kind's value.
//!
//! Because `max` is the join, **fleet aggregation uses disjoint keys**:
//! each batch worker snapshots under a scope prefix unique to its shard
//! (`job3/shard1/points`), so the fold is a disjoint union and
//! [`MetricsFrame::totals`] then *sums* counters grouped by leaf name to
//! produce fleet totals. Determinism across thread counts holds exactly
//! for counters whose per-shard values are themselves deterministic
//! (scheduled points, register bits, iterations) — cache hits and drain
//! work are honest measurements that depend on interleaving and are
//! reported, not asserted.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two buckets in a [`Histogram`]: bucket 0 counts
/// zeros, bucket `k ≥ 1` counts values with bit length `k` (i.e. in
/// `[2^(k-1), 2^k)`), up to the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The kind of a metric cell. Order defines the mismatch-resolution
/// rank used by [`MetricValue::join`] (highest wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Power-of-two bucketed distribution of `u64` samples.
    Histogram,
}

enum Cell {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<Buckets>),
}

impl Cell {
    fn kind(&self) -> MetricKind {
        match self {
            Cell::Counter(_) => MetricKind::Counter,
            Cell::Histogram(_) => MetricKind::Histogram,
        }
    }

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
    /// A histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram(Arc::new(Buckets(std::array::from_fn(|_| AtomicU64::new(0)))))
    }

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
    /// Histogram bucket counts (normally [`HISTOGRAM_BUCKETS`] long;
    /// the join pads shorter vectors with zeros).
    Histogram(Vec<u64>),
}

impl MetricValue {
    /// The value's kind (and join rank).
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }

    /// Semilattice join of two values: same-kind values join
    /// elementwise by `max`; on a kind mismatch the higher-ranked kind
    /// wins outright. Commutative, associative, idempotent — proven by
    /// the proptests in `tests/proptests.rs`.
    pub fn join(&self, other: &MetricValue) -> MetricValue {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => MetricValue::Counter(*a.max(b)),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                let n = a.len().max(b.len());
                MetricValue::Histogram(
                    (0..n)
                        .map(|i| a.get(i).copied().unwrap_or(0).max(b.get(i).copied().unwrap_or(0)))
                        .collect(),
                )
            }
            _ => {
                if self.kind() >= other.kind() {
                    self.clone()
                } else {
                    other.clone()
                }
            }
        }
    }

    /// Counter reading, if this value is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

/// An ordered snapshot of metric names to frozen values. Frames are the
/// unit of aggregation: workers snapshot locally (under a scope prefix)
/// and the aggregator folds them with [`merge`](Self::merge).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsFrame {
    /// Name → value, in deterministic (lexicographic) order.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsFrame {
    /// The empty frame (identity element of [`merge`](Self::merge)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other` into `self` key by key with [`MetricValue::join`].
    /// Commutative, associative, idempotent; the empty frame is the
    /// identity — the `DelayCache::merge` contract.
    pub fn merge(&mut self, other: &MetricsFrame) {
        for (name, value) in &other.metrics {
            match self.metrics.get_mut(name) {
                Some(mine) => *mine = mine.join(value),
                None => {
                    self.metrics.insert(name.clone(), value.clone());
                }
            }
        }
    }

    /// Inserts (or joins onto an existing) value under `name`.
    pub fn insert(&mut self, name: impl Into<String>, value: MetricValue) {
        let name = name.into();
        match self.metrics.get_mut(&name) {
            Some(mine) => *mine = mine.join(&value),
            None => {
                self.metrics.insert(name, value);
            }
        }
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
    /// `/`). Because fleet frames use disjoint per-shard scope prefixes
    /// (`job3/shard1/points`), this turns the max-join fold back into
    /// the fleet-wide *sum* per metric. Deterministic whenever each
    /// shard's own counters are.
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
    /// already registered as a different kind (a code bug: metric names
    /// are static within one build).
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.cells.lock().unwrap();
        match cells
            .entry(name.to_string())
            .or_insert_with(|| Cell::Counter(Arc::new(AtomicU64::new(0))))
        {
            Cell::Counter(c) => Counter(Arc::clone(c)),
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Gets or registers the histogram `name`. Panics on kind mismatch.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut cells = self.cells.lock().unwrap();
        match cells.entry(name.to_string()).or_insert_with(|| {
            Cell::Histogram(Arc::new(Buckets(std::array::from_fn(|_| AtomicU64::new(0)))))
        }) {
            Cell::Histogram(h) => Histogram(Arc::clone(h)),
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Freezes all cells into a frame.
    pub fn snapshot(&self) -> MetricsFrame {
        self.snapshot_scoped("")
    }

    /// Freezes all cells into a frame with every name prefixed by
    /// `scope` + `/` (no prefix when `scope` is empty). Batch shards
    /// snapshot under disjoint scopes so fleet folds are disjoint
    /// unions; see [`MetricsFrame::totals`].
    pub fn snapshot_scoped(&self, scope: &str) -> MetricsFrame {
        let cells = self.cells.lock().unwrap();
        let mut frame = MetricsFrame::new();
        for (name, cell) in cells.iter() {
            let key = if scope.is_empty() { name.clone() } else { format!("{scope}/{name}") };
            frame.metrics.insert(key, cell.value());
        }
        frame
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
        let h = Histogram::detached();
        h.record(0);
        h.record(7);
        h.record(8);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn scoped_totals_sum_by_leaf() {
        let mut fleet = MetricsFrame::new();
        for shard in 0..3u64 {
            let reg = Registry::new();
            reg.counter("points").add(shard + 1);
            reg.counter("feasible").add(1);
            fleet.merge(&reg.snapshot_scoped(&format!("job0/shard{shard}")));
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

    #[test]
    fn merge_is_idempotent_on_equal_frames() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        reg.histogram("c").record(9);
        let frame = reg.snapshot();
        let mut twice = frame.clone();
        twice.merge(&frame);
        assert_eq!(twice, frame);
    }
}
