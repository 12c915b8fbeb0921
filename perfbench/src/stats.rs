//! Sample statistics and the process clocks the benchmark reads.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail sample and where it sits: the value, its nearest-rank
/// percentile, and the number of samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The highest nearest-rank percentile that still has at least `beyond`
/// samples above it, never lower than the median.
///
/// With `n` sorted samples, the sample at 0-based rank `k` has `n - 1 - k`
/// samples beyond it, so the rank is `n - 1 - beyond`. While that rank
/// falls below the median (fewer than `2 * beyond + 1` samples) the tail
/// is the median itself, so the reported tail never undercuts the typical
/// pass and moves smoothly as the sample count grows.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64], beyond: usize) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median_rank = (n - 1) / 2;
    match (n - 1).checked_sub(beyond) {
        Some(rank) if rank > median_rank => Tail {
            value: sorted[rank],
            percentile: 100.0 * (rank + 1) as f64 / n as f64,
            samples: n,
        },
        _ => Tail { value: median(values), percentile: 50.0, samples: n },
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + system, all threads) in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux), and the clock id is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing `{line}`: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&values, 10);
        // Rank 19 (value 20) has exactly ten samples, 21..=30, above it.
        assert_eq!(t.value, 20.0);
        assert!((t.percentile - 100.0 * 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(t.samples, 30);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_never_undercuts_the_median() {
        let values: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&values, 10);
        assert_eq!((t.value, t.percentile), (8.0, 50.0));
        let few = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(tail(&few, 10).value, median(&few));
        // Just past the median, the literal rank takes over again.
        let values: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&values, 10).value, 12.0);
    }

    #[test]
    fn process_clocks_read_sensibly() {
        let before = process_cpu_s();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i * i));
        }
        std::hint::black_box(acc);
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
