//! The log-bucketed latency histogram: HdrHistogram's bucketing idea
//! (a linear sub-scale inside every power-of-two octave) rebuilt
//! std-only, sized for nanosecond latencies.
//!
//! # Bucketing
//!
//! Values below [`SUB_BUCKETS`] (32) get one bucket each — exact.
//! Every octave `[2^e, 2^(e+1))` above that is split into 32 linear
//! buckets of width `2^(e-5)`, so a bucket never spans more than 1/32
//! (~3.1%) of its lower edge and the *midpoint* representative a
//! percentile query returns is within ~1.6% (< 2%) of any value the
//! bucket holds. The top octave ends at `2^40` ns (~18 minutes);
//! larger values are clamped into the last bucket and tallied in
//! [`Histogram::saturated`] so the clipping is observable, never
//! silent.
//!
//! `min`/`max` are derived from the occupied bucket edges (exact below
//! 32, bucket-quantised above) rather than tracked per record, so a
//! record is one index computation and three adds.

/// Number of linear sub-buckets per octave (and the exact-value range:
/// values `< SUB_BUCKETS` get a bucket each).
pub const SUB_BUCKETS: u64 = 32;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;

/// Exponent of the first value past the top bucket: records at or
/// above `2^SATURATION_BITS` (~18 minutes in nanoseconds) clamp into
/// the last bucket and count as saturated.
pub const SATURATION_BITS: u32 = 40;

/// Total bucket count: 32 exact buckets plus 32 per octave for
/// exponents 5..=39.
pub const BUCKETS: usize =
    (SUB_BUCKETS + (SATURATION_BITS as u64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Maps a value to its bucket index, flagging saturation.
#[inline]
pub(crate) fn bucket_index(v: u64) -> (usize, bool) {
    if v < SUB_BUCKETS {
        return (v as usize, false);
    }
    if v >= 1 << SATURATION_BITS {
        return (BUCKETS - 1, true);
    }
    let e = 63 - u64::from(v.leading_zeros());
    let idx = (e - u64::from(SUB_BITS) + 1) * SUB_BUCKETS + ((v >> (e - u64::from(SUB_BITS))) & 31);
    (idx as usize, false)
}

/// Lower edge of bucket `i` (the smallest value it can hold).
#[inline]
pub(crate) fn bucket_lo(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let e = i / SUB_BUCKETS + u64::from(SUB_BITS) - 1;
    let s = i % SUB_BUCKETS;
    (SUB_BUCKETS + s) << (e - u64::from(SUB_BITS))
}

/// Exclusive upper edge of bucket `i`.
#[inline]
pub(crate) fn bucket_hi(i: usize) -> u64 {
    if (i as u64) < SUB_BUCKETS {
        return i as u64 + 1;
    }
    let e = i as u64 / SUB_BUCKETS + u64::from(SUB_BITS) - 1;
    bucket_lo(i) + (1 << (e - u64::from(SUB_BITS)))
}

/// The representative value a query reports for bucket `i`: the
/// midpoint, within ~1.6% of anything the bucket holds.
#[inline]
fn bucket_mid(i: usize) -> u64 {
    let lo = bucket_lo(i);
    lo + (bucket_hi(i) - lo - 1) / 2
}

/// A log-bucketed histogram of `u64` samples (conventionally
/// nanoseconds). ~2% relative error, fixed 9 KiB footprint, no
/// allocation after construction. See the [module docs](self) for the
/// bucketing scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    saturated: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS], count: 0, sum: 0, saturated: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value in one step.
    pub fn record_n(&mut self, value: u64, n: u64) {
        let (idx, sat) = bucket_index(value);
        self.counts[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        if sat {
            self.saturated += n;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Samples clamped into the top bucket (value >= 2^40).
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Arithmetic mean of the recorded values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, bucket-quantised (exact below 32, the
    /// occupied bucket's lower edge above). `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.counts.iter().position(|&c| c > 0).map(bucket_lo)
    }

    /// Largest recorded value, bucket-quantised (exact below 32, the
    /// occupied bucket's inclusive upper edge above). `None` when
    /// empty.
    pub fn max(&self) -> Option<u64> {
        self.counts.iter().rposition(|&c| c > 0).map(|i| bucket_hi(i) - 1)
    }

    /// The value at percentile `p` (0..=100, clamped): the midpoint of
    /// the bucket holding the sample of rank `ceil(p/100 * count)`,
    /// clamped into `[min, max]`. Monotone non-decreasing in `p`.
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = bucket_mid(i);
                return Some(mid.clamp(self.min().unwrap_or(mid), self.max().unwrap_or(mid)));
            }
        }
        self.max()
    }

    /// Median shorthand: `percentile(50.0)`.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Tail shorthand: `percentile(99.0)`.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Folds another histogram into this one (bucket-wise add): the
    /// result equals one histogram that recorded both sample sets.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.saturated += other.saturated;
    }
}

impl core::fmt::Display for Histogram {
    /// One human summary line: count, mean, p50/p90/p99/p99.9, max.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_empty() {
            return write!(f, "count 0");
        }
        let q = |p: f64| crate::export::fmt_ns(self.percentile(p).unwrap_or(0));
        write!(
            f,
            "count {} | mean {} | p50 {} | p90 {} | p99 {} | p99.9 {} | max {}{}",
            self.count,
            crate::export::fmt_ns(self.mean() as u64),
            q(50.0),
            q(90.0),
            q(99.0),
            q(99.9),
            crate::export::fmt_ns(self.max().unwrap_or(0)),
            if self.saturated > 0 {
                format!(" | saturated {}", self.saturated)
            } else {
                String::new()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_exact_below_32_and_within_error_above() {
        for v in 0..SUB_BUCKETS {
            let (i, sat) = bucket_index(v);
            assert!(!sat);
            assert_eq!(bucket_lo(i), v);
            assert_eq!(bucket_hi(i), v + 1);
        }
        // Probe across the full range: each value lands in a bucket
        // whose span contains it and stays within 1/32 of the value.
        let mut v = SUB_BUCKETS;
        while v < 1 << SATURATION_BITS {
            let (i, sat) = bucket_index(v);
            assert!(!sat, "v={v}");
            assert!(bucket_lo(i) <= v && v < bucket_hi(i), "v={v} bucket {i}");
            assert!(bucket_hi(i) - bucket_lo(i) <= v / 16 + 1, "v={v} too wide");
            v = v.saturating_mul(7) / 3 + 1;
        }
    }

    #[test]
    fn bucket_edges_tile_the_range() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_hi(i), bucket_lo(i + 1), "gap or overlap after bucket {i}");
        }
        assert_eq!(bucket_hi(BUCKETS - 1), 1 << SATURATION_BITS);
    }

    #[test]
    fn record_and_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.02, "p50={p50}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.02, "p99={p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn saturation_is_counted_not_lost() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record_n(1 << SATURATION_BITS, 2);
        h.record(7);
        assert_eq!(h.count(), 4);
        assert_eq!(h.saturated(), 3);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some((1 << SATURATION_BITS) - 1));
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 40, 41, 1 << 20, 5] {
            whole.record(v);
        }
        a.record(3);
        a.record(40);
        b.record(41);
        b.record(1 << 20);
        b.record(5);
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn display_summarises() {
        let mut h = Histogram::new();
        assert_eq!(h.to_string(), "count 0");
        h.record_n(1000, 10);
        let line = h.to_string();
        assert!(line.contains("count 10"), "{line}");
        assert!(line.contains("p99"), "{line}");
    }
}
