//! Histogram edge cases and properties: empty snapshots, single
//! samples, saturation past the top bucket, merge of disjoint shards,
//! and percentile monotonicity under proptest.

use afft_obs::hist::SATURATION_BITS;
use afft_obs::{Histogram, Snapshot};
use proptest::prelude::*;

#[test]
fn empty_snapshot_reports_nothing() {
    let h = Histogram::new();
    assert!(h.is_empty());
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
    assert_eq!(h.percentile(50.0), None);
    assert_eq!(h.mean(), 0.0);
    // A snapshot of empty series is empty but keeps its series.
    let snap = Snapshot::from_series(vec![("a".into(), h.clone()), ("b".into(), h)]);
    assert!(snap.is_empty());
    assert_eq!(snap.series().len(), 2);
}

#[test]
fn single_sample_pins_every_statistic() {
    for v in [0u64, 1, 31, 32, 1_000, 123_456_789] {
        let mut h = Histogram::new();
        h.record(v);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), v);
        assert_eq!(h.mean(), v as f64);
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        assert!(min <= v && v <= max, "value {v} outside [{min}, {max}]");
        // Every percentile of a one-sample histogram is that sample's
        // bucket, within the ~2% quantisation contract.
        for p in [0.0, 50.0, 99.0, 100.0] {
            let got = h.percentile(p).unwrap();
            assert!(min <= got && got <= max, "p{p} of single sample {v} gave {got}");
            assert!((got as f64 - v as f64).abs() <= (v as f64) * 0.02 + 1.0, "p{p}: {got} vs {v}");
        }
    }
}

#[test]
fn saturating_records_clamp_into_the_top_bucket() {
    let mut h = Histogram::new();
    let limit = 1u64 << SATURATION_BITS;
    h.record(limit - 1); // last representable value: not saturated
    assert_eq!(h.saturated(), 0);
    h.record(limit);
    h.record(u64::MAX);
    assert_eq!(h.count(), 3);
    assert_eq!(h.saturated(), 2);
    // The clamped samples are counted at the top, never dropped.
    assert_eq!(h.max(), Some(limit - 1));
    let p100 = h.percentile(100.0).unwrap();
    assert!(h.min().unwrap() <= p100 && p100 < limit, "p100 {p100} escaped the top bucket");
    // Merging carries the clamp tally along.
    let mut merged = Histogram::new();
    merged.merge(&h);
    assert_eq!((merged.count(), merged.saturated()), (3, 2));
}

#[test]
fn merge_of_disjoint_shards_equals_whole_recording() {
    // Two shards covering disjoint value ranges (low latencies on one
    // side, tail spikes on another) must merge into exactly the
    // histogram a single recording would have built.
    let (mut low, mut high, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
    for v in 0..500u64 {
        low.record(v);
        whole.record(v);
    }
    for k in 0..64u64 {
        let v = 1_000_000 + k * 10_000;
        high.record(v);
        whole.record(v);
    }
    let mut merged = Histogram::new();
    merged.merge(&low);
    merged.merge(&high);
    assert_eq!(merged, whole);
    // Merging empties is a no-op.
    let mut empty = Histogram::new();
    empty.merge(&Histogram::new());
    assert!(empty.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_are_monotone_and_bounded(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = h.percentile(lo).expect("non-empty");
        let b = h.percentile(hi).expect("non-empty");
        prop_assert!(a <= b, "percentile({lo}) = {a} > percentile({hi}) = {b}");
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        prop_assert!(min <= a && b <= max, "percentiles escaped [{min}, {max}]");
    }

    #[test]
    fn merge_commutes_with_recording(
        left in proptest::collection::vec(0u64..1_000_000_000, 0..64),
        right in proptest::collection::vec(0u64..1_000_000_000, 0..64),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for &v in &left {
            a.record(v);
            whole.record(v);
        }
        for &v in &right {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    #[test]
    fn recorded_values_stay_within_quantisation_error(v in 0u64..(1 << SATURATION_BITS)) {
        let mut h = Histogram::new();
        h.record(v);
        let p = h.percentile(50.0).unwrap();
        // ~2% relative error contract (exact below 32).
        let tol = if v < 32 { 0 } else { v / 32 + 1 };
        prop_assert!(
            p.abs_diff(v) <= tol,
            "midpoint {p} too far from {v} (tol {tol})"
        );
    }
}
