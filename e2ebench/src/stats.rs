//! The benchmark's own arithmetic: percentiles, the tail rule, the
//! geometric mean, `table1_err`, and the metric-name charset.

use afft_bench::paper::TABLE1;

/// Candidate tail percentiles, highest first. The tail rule picks the
/// first one with at least [`TAIL_BEYOND`] samples above it: p99 when
/// the run has 1000 samples or more, a lower percentile otherwise. The
/// ladder stops at p99 because rarer tails swing from run to run by
/// more than any bound a change could be held to.
pub const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: f64 = 10.0;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] of `count` samples beyond it, or `None` when even
/// the median has fewer than that above it.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|p| count as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND - 1e-9)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the two middle ones for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

/// Marks the `keep` slices that did the most work (earlier slices win
/// ties).
pub fn top_slices(work: &[f64], keep: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..work.len()).collect();
    order.sort_by(|&a, &b| work[b].total_cmp(&work[a]).then(a.cmp(&b)));
    let mut mask = vec![false; work.len()];
    for &i in order.iter().take(keep) {
        mask[i] = true;
    }
    mask
}

/// The smallest value (infinity for none).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The percentile the tail rule chose.
    pub tail_p: f64,
    /// The sample at `tail_p`.
    pub tail: f64,
}

/// Reduces raw samples by the tail rule. `None` for fewer than 20
/// samples (no percentile has ten samples beyond it).
pub fn tail(samples: &mut [f64]) -> Option<Tail> {
    let tail_p = tail_percentile(samples.len())?;
    samples.sort_by(f64::total_cmp);
    Some(Tail {
        count: samples.len(),
        p50: percentile_sorted(samples, 50.0),
        tail_p,
        tail: percentile_sorted(samples, tail_p),
    })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty() && values.iter().all(|v| *v > 0.0), "geomean needs positives");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Max over the paper's Table I rows of |ISS cycles / paper cycles - 1|.
/// `cycles` pairs each simulated size with its cycle count; every
/// Table I size must be present.
pub fn table1_err(cycles: &[(usize, u64)]) -> f64 {
    TABLE1
        .iter()
        .map(|row| {
            let ours = cycles
                .iter()
                .find(|(n, _)| *n == row.n)
                .unwrap_or_else(|| panic!("no ISS run at Table I size {}", row.n))
                .1;
            (ours as f64 / row.cycles as f64 - 1.0).abs()
        })
        .fold(0.0, f64::max)
}

/// Whether a metric name fits the result schema: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.0));
        for count in [20, 57, 100, 433, 1000, 5000, 123_456] {
            let p = tail_percentile(count).expect("enough samples");
            assert!(count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "{count} at p{p}");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 500.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 990.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 1000.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        let mut samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&mut samples).expect("1000 samples");
        assert_eq!((t.count, t.p50, t.tail_p, t.tail), (1000, 500.0, 99.0, 990.0));
        // Exactly ten samples (991..=1000) lie beyond the reported tail.
        assert_eq!(samples.iter().filter(|v| **v > t.tail).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn top_slices_keeps_the_busiest() {
        assert_eq!(top_slices(&[1.0, 5.0, 3.0, 5.0], 2), [false, true, false, true]);
        assert_eq!(top_slices(&[2.0, 2.0, 2.0], 1), [true, false, false]);
        assert_eq!(top_slices(&[4.0, 1.0], 5), [true, true]);
        assert_eq!(min(&[3.0, -1.0, 2.0]), -1.0);
    }

    #[test]
    fn geomean_matches_closed_form() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5e8; 8]) - 5e8).abs() < 1e-3);
    }

    #[test]
    fn table1_err_is_the_worst_row() {
        let exact: Vec<(usize, u64)> = TABLE1.iter().map(|r| (r.n, r.cycles)).collect();
        assert_eq!(table1_err(&exact), 0.0);
        // The ISS cycle counts at the seed of this benchmark.
        let iss = [(64, 413), (128, 832), (256, 1730), (512, 3527), (1024, 7279)];
        let want = 413.0 / 197.0 - 1.0;
        assert!((table1_err(&iss) - want).abs() < 1e-12);
        // A row below the paper counts by its magnitude too.
        let mut low = exact.clone();
        low[2].1 = 851 / 4;
        assert!((table1_err(&low) - (1.0 - 212.0 / 851.0)).abs() < 1e-12);
    }

    #[test]
    fn metric_names_use_the_schema_charset() {
        for ok in ["setup_s", "core.execute_ns.n1024", "net.overhead_ns.w16", "0x-a_b.c"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "p99 latency", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
