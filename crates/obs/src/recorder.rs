//! Concurrent recording: per-shard atomic histograms aggregated into
//! plain [`Histogram`]s on snapshot.
//!
//! The design follows the sharded-counter idiom: every writer (a
//! stream worker, the delivery thread) owns a shard and records with
//! **two relaxed atomic adds and an array index** — no locks, no
//! compare-and-swap loops, no cross-writer cache-line traffic on the
//! hot path. Readers pay instead: [`Recorder::snapshot`] walks every
//! shard and merges the bucket counts into one [`Histogram`] per
//! series. That asymmetry is the point — recording happens per symbol,
//! snapshots happen per stats call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::export::Snapshot;
use crate::hist::{bucket_index, Histogram, BUCKETS};

/// One concurrent histogram: atomic bucket counters plus a sum and a
/// saturation tally. `record` is wait-free; min/max/percentiles come
/// from [`AtomicHistogram::snapshot`], bucket-quantised exactly like
/// the plain [`Histogram`].
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    saturated: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty concurrent histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }

    /// Records one sample: an index computation plus two relaxed
    /// `fetch_add`s (a third only on the rare saturating sample).
    #[inline]
    pub fn record(&self, value: u64) {
        let (idx, sat) = bucket_index(value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if sat {
            self.saturated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the current contents into a plain [`Histogram`].
    /// Concurrent records may straddle the copy (a count landing
    /// without its sum or vice versa); each tally is individually
    /// consistent, which is all a latency summary needs.
    pub fn snapshot(&self) -> Histogram {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        Histogram::from_parts(
            counts,
            self.sum.load(Ordering::Relaxed),
            self.saturated.load(Ordering::Relaxed),
        )
    }
}

/// The inner shard table: `shards[shard][series]`.
#[derive(Debug)]
struct Shards {
    series: Vec<String>,
    table: Vec<Vec<AtomicHistogram>>,
}

/// A sharded, multi-series recorder: `shards` independent writers (one
/// per worker thread, by convention) over `series` named histograms
/// (one per channel×stage, by convention). Writers never contend;
/// [`Recorder::snapshot`] merges shard-wise.
///
/// Cloning a `Recorder` clones the `Arc` — all clones record into the
/// same table.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Shards>,
}

impl Recorder {
    /// A recorder with `shards` independent writer slots over the
    /// given series names (`shards` clamped to at least 1).
    pub fn new(shards: usize, series: Vec<String>) -> Self {
        let shards = shards.max(1);
        let table = (0..shards)
            .map(|_| (0..series.len()).map(|_| AtomicHistogram::new()).collect())
            .collect();
        Recorder { inner: Arc::new(Shards { series, table }) }
    }

    /// Number of writer shards.
    pub fn shards(&self) -> usize {
        self.inner.table.len()
    }

    /// Number of series per shard.
    pub fn series_count(&self) -> usize {
        self.inner.series.len()
    }

    /// Records into `series` on `shard` — the hot path. Out-of-range
    /// indices panic (they are construction bugs, not data).
    #[inline]
    pub fn record(&self, shard: usize, series: usize, value: u64) {
        self.inner.table[shard][series].record(value);
    }

    /// Merges every shard per series into plain histograms, returned
    /// as a named [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let series = self
            .inner
            .series
            .iter()
            .enumerate()
            .map(|(s, name)| {
                let mut merged = Histogram::new();
                for shard in &self.inner.table {
                    merged.merge(&shard[s].snapshot());
                }
                (name.clone(), merged)
            })
            .collect();
        Snapshot::from_series(series)
    }

    /// Merged histogram for one series index.
    pub fn series_histogram(&self, series: usize) -> Histogram {
        let mut merged = Histogram::new();
        for shard in &self.inner.table {
            merged.merge(&shard[series].snapshot());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_snapshot_matches_plain_recording() {
        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for v in [0u64, 1, 31, 32, 1000, 1 << 30, u64::MAX] {
            atomic.record(v);
            plain.record(v);
        }
        let got = atomic.snapshot();
        // Sums saturate differently only past u64::MAX totals; these
        // inputs wrap the atomic sum, so compare the shape fields.
        assert_eq!(got.count(), plain.count());
        assert_eq!(got.saturated(), plain.saturated());
        assert_eq!(got.min(), plain.min());
        assert_eq!(got.max(), plain.max());
        assert_eq!(got.percentile(50.0), plain.percentile(50.0));
    }

    #[test]
    fn recorder_merges_shards_per_series() {
        let rec = Recorder::new(3, vec!["a".into(), "b".into()]);
        rec.record(0, 0, 10);
        rec.record(1, 0, 20);
        rec.record(2, 1, 30);
        rec.record(0, 1, 40);
        let snap = rec.snapshot();
        assert_eq!(snap.series().len(), 2);
        assert_eq!(snap.series()[0].1.count(), 2);
        assert_eq!(snap.series()[1].1.count(), 2);
        assert_eq!(rec.series_histogram(0).min(), Some(10));
        assert_eq!(rec.series_histogram(1).max(), Some(40));
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let rec = Recorder::new(4, vec!["lat".into()]);
        std::thread::scope(|scope| {
            for shard in 0..4 {
                let rec = &rec;
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        rec.record(shard, 0, v);
                    }
                });
            }
        });
        let hist = rec.series_histogram(0);
        assert_eq!(hist.count(), 4000);
        assert_eq!(hist.sum(), 4 * (999 * 1000 / 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_shard_panics() {
        let rec = Recorder::new(1, vec!["x".into()]);
        rec.record(5, 0, 1);
    }
}
