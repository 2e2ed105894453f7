//! Exporters: the named-series [`Snapshot`] with its human `Display`
//! table, JSON rendering for histograms and snapshots (built on
//! [`json`]), and duration formatting helpers.

use crate::hist::Histogram;
use crate::json;

/// Formats nanoseconds at human scale: `850ns`, `12.3us`, `4.56ms`,
/// `1.20s`.
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Renders one histogram as a JSON summary object:
/// `{"count":..,"mean_ns":..,"p50_ns":..,"p90_ns":..,"p99_ns":..,
/// "p999_ns":..,"min_ns":..,"max_ns":..,"saturated":..}` (percentile
/// fields `null` when empty).
pub fn histogram_json(h: &Histogram) -> String {
    let q = |p: f64| h.percentile(p).map_or("null".to_string(), |v| json::num(v as f64));
    json::Obj::new()
        .num("count", h.count() as f64)
        .num("mean_ns", h.mean())
        .raw("p50_ns", q(50.0))
        .raw("p90_ns", q(90.0))
        .raw("p99_ns", q(99.0))
        .raw("p999_ns", q(99.9))
        .raw("min_ns", h.min().map_or("null".to_string(), |v| json::num(v as f64)))
        .raw("max_ns", h.max().map_or("null".to_string(), |v| json::num(v as f64)))
        .num("saturated", h.saturated() as f64)
        .finish()
}

/// A point-in-time set of named histograms — what the planner's
/// `calibration_snapshot` returns, and what the exporters consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    series: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Wraps named series into a snapshot.
    pub fn from_series(series: Vec<(String, Histogram)>) -> Self {
        Snapshot { series }
    }

    /// The named series, in construction order.
    pub fn series(&self) -> &[(String, Histogram)] {
        &self.series
    }

    /// Whether every series is empty.
    pub fn is_empty(&self) -> bool {
        self.series.iter().all(|(_, h)| h.is_empty())
    }

    /// The series named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Renders the snapshot as a JSON array of
    /// `{"series":name, ...histogram summary}` objects.
    pub fn to_json(&self) -> String {
        json::arr(self.series.iter().map(|(name, h)| {
            // Splice the series name into the summary object.
            let summary = histogram_json(h);
            format!("{{{}:{},{}", json::esc("series"), json::esc(name), &summary[1..])
        }))
    }
}

impl core::fmt::Display for Snapshot {
    /// A fixed-width table: series, count, mean, p50, p90, p99, p99.9,
    /// max (empty series render a dash row).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name_w = self.series.iter().map(|(n, _)| n.len()).max().unwrap_or(6).max(6);
        writeln!(
            f,
            "{:<name_w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            "series", "count", "mean", "p50", "p90", "p99", "p99.9", "max",
        )?;
        for (name, h) in &self.series {
            if h.is_empty() {
                writeln!(
                    f,
                    "{name:<name_w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                    0, "-", "-", "-", "-", "-", "-",
                )?;
                continue;
            }
            let q = |p: f64| fmt_ns(h.percentile(p).unwrap_or(0));
            writeln!(
                f,
                "{name:<name_w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                h.count(),
                fmt_ns(h.mean() as u64),
                q(50.0),
                q(90.0),
                q(99.0),
                q(99.9),
                fmt_ns(h.max().unwrap_or(0)),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(12_345), "12.345us");
        assert_eq!(fmt_ns(4_560_000), "4.560ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }

    #[test]
    fn histogram_json_has_the_schema_fields() {
        let mut h = Histogram::new();
        h.record_n(1000, 100);
        let doc = histogram_json(&h);
        for key in ["\"count\"", "\"p50_ns\"", "\"p99_ns\"", "\"max_ns\"", "\"saturated\""] {
            assert!(doc.contains(key), "{doc} missing {key}");
        }
        let empty = histogram_json(&Histogram::new());
        assert!(empty.contains("\"p50_ns\":null"), "{empty}");
    }

    #[test]
    fn snapshot_table_and_json() {
        let mut h = Histogram::new();
        h.record(5_000);
        let snap = Snapshot::from_series(vec![
            ("ch0/deliver".into(), h),
            ("idle".into(), Histogram::new()),
        ]);
        assert!(!snap.is_empty());
        assert!(snap.get("ch0/deliver").is_some());
        assert!(snap.get("missing").is_none());
        let table = snap.to_string();
        assert!(table.contains("ch0/deliver"), "{table}");
        assert!(table.contains("p99"), "{table}");
        let doc = snap.to_json();
        assert!(doc.starts_with('[') && doc.ends_with(']'), "{doc}");
        assert!(doc.contains("\"series\":\"ch0/deliver\""), "{doc}");
        assert!(doc.contains("\"series\":\"idle\""), "{doc}");
    }
}
