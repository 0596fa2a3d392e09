//! Order statistics shared by every metric the benchmark reports.

/// The percentile ladder the tail rule climbs, in percent.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `pct` in `[0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of percentile `pct` among `n` samples. The
/// small slack keeps ladder values like 99.9 from rounding one rank up.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64) - 1e-9)
        .ceil()
        .clamp(1.0, n as f64) as usize
}

/// Median of unsorted samples (the mean of the middle pair for even
/// counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail rule: the highest ladder percentile with at least ten
/// samples beyond it, as `(percentile, value)`. With fewer than twenty
/// samples no tail qualifies and the median percentile (50) is
/// reported, so the caller always has a number and its rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    (pct, percentile(&v, pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 19 samples: p50 leaves 9 beyond — nothing qualifies.
        assert_eq!(tail(&v(19)).0, 50.0);
        assert_eq!(tail(&v(20)), (50.0, 10.0));
        // 100 samples: p90 leaves exactly 10; p99 leaves 1.
        assert_eq!(tail(&v(100)), (90.0, 90.0));
        assert_eq!(tail(&v(999)).0, 90.0);
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        assert_eq!(tail(&v(10_000)).0, 99.9);
    }
}
