//! Metrics frames: the one counter store a run records into, and the
//! unit batches aggregate.
//!
//! A [`MetricsFrame`] is an ordered name → value map. A run owns one and
//! adds to it directly ([`MetricsFrame::add`], [`MetricsFrame::record`]):
//! every record site runs on the thread that owns the run, so no cell is
//! shared and no lock or atomic is needed.
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

/// Number of power-of-two buckets in a histogram value: bucket 0 counts
/// zeros, bucket `k ≥ 1` counts values with bit length `k` (i.e. in
/// `[2^(k-1), 2^k)`), up to the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The histogram bucket of a sample: 0 for 0, else its bit length.
fn histogram_bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A metric value inside a [`MetricsFrame`].
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

/// An ordered map of metric names to values. Frames are the unit of
/// aggregation: each run records into its own, and a batch files every
/// point's values under disjoint keys for [`totals`](Self::totals) to
/// sum.
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

    /// Adds `n` to the counter `name`, which starts at zero.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a histogram (a code bug: metric names are
    /// static within one build).
    pub fn add(&mut self, name: &str, n: u64) {
        match self.metrics.get_mut(name) {
            Some(MetricValue::Counter(v)) => *v += n,
            Some(MetricValue::Histogram(_)) => panic!("metric {name:?} is a histogram"),
            None => {
                self.metrics.insert(name.to_string(), MetricValue::Counter(n));
            }
        }
    }

    /// Records one sample into the histogram `name`, which starts empty.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a counter.
    pub fn record(&mut self, name: &str, sample: u64) {
        let bucket = histogram_bucket(sample);
        match self.metrics.get_mut(name) {
            Some(MetricValue::Histogram(buckets)) => buckets[bucket] += 1,
            Some(MetricValue::Counter(_)) => panic!("metric {name:?} is a counter"),
            None => {
                let mut buckets = vec![0; HISTOGRAM_BUCKETS];
                buckets[bucket] = 1;
                self.metrics.insert(name.to_string(), MetricValue::Histogram(buckets));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(histogram_bucket(0), 0);
        assert_eq!(histogram_bucket(1), 1);
        assert_eq!(histogram_bucket(2), 2);
        assert_eq!(histogram_bucket(3), 2);
        assert_eq!(histogram_bucket(4), 3);
        assert_eq!(histogram_bucket(u64::MAX), 64);
        let mut frame = MetricsFrame::new();
        frame.record("h", 0);
        frame.record("h", 7);
        frame.record("h", 8);
        let Some(MetricValue::Histogram(buckets)) = frame.metrics.get("h") else {
            panic!("a histogram: {frame:?}")
        };
        assert_eq!(buckets.iter().sum::<u64>(), 3);
        assert_eq!((buckets[0], buckets[3], buckets[4]), (1, 1, 1));
    }

    #[test]
    fn counters_start_at_zero_and_add() {
        let mut frame = MetricsFrame::new();
        frame.add("hits", 2);
        frame.add("hits", 1);
        frame.add("misses", 0);
        assert_eq!(frame.counter("hits"), Some(3));
        assert_eq!(frame.counter("misses"), Some(0), "adding zero creates the key");
    }

    #[test]
    #[should_panic(expected = "is a histogram")]
    fn adding_to_a_histogram_panics() {
        let mut frame = MetricsFrame::new();
        frame.record("x", 1);
        frame.add("x", 1);
    }

    #[test]
    fn scoped_totals_sum_by_leaf() {
        // Built the way a batch files its points: each run's frame under
        // its own `job{j}/pt{p}/` prefix.
        let mut fleet = MetricsFrame::new();
        for point in 0..3u64 {
            let mut run = MetricsFrame::new();
            run.add("points", point + 1);
            run.add("feasible", 1);
            for (name, value) in run.metrics {
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
            buckets[histogram_bucket(s)] += 1;
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
            buckets[histogram_bucket(s)] += 1;
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
