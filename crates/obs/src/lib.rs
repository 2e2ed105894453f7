//! **afft-obs** — the workspace's zero-dependency observability layer:
//! log-bucketed latency histograms, the saturating span between two
//! clock stamps, and table/JSON exporters. In the spirit of
//! HdrHistogram and `tracing`, rebuilt std-only so the runtime stack
//! (stream pipeline, planner, benches) can measure itself without
//! pulling a dependency into the hot path.
//!
//! Three pieces:
//!
//! * [`Histogram`] — a log-bucketed (~2% relative error) `u64`
//!   histogram with `record`/`merge`/`percentile` and saturation
//!   accounting, 9 KiB fixed footprint. Its owner decides how it is
//!   shared: the stream pipeline keeps each channel's four stage
//!   histograms under the lock that already guards the channel;
//! * [`ns_between`] — the saturating span between two stamps, which
//!   the stream pipeline records for its queue-wait / transform /
//!   reorder-park / end-to-end stages;
//! * exporters — [`Snapshot`] `Display` tables, [`histogram_json`],
//!   and the dependency-free [`json`] writer (shared with the bench
//!   artifacts — `afft_bench::json` re-exports it).
//!
//! # Quickstart
//!
//! ```
//! use afft_obs::{Histogram, Snapshot};
//!
//! let mut h = Histogram::new();
//! for v in [120u64, 340, 95_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 3);
//! assert!(h.percentile(50.0).unwrap() >= 120);
//!
//! // Histograms recorded apart merge bucket-wise:
//! let mut other = Histogram::new();
//! other.record(2_000);
//! h.merge(&other);
//! assert_eq!(h.count(), 4);
//!
//! let snapshot = Snapshot::from_series(vec![("latency".into(), h)]);
//! println!("{snapshot}"); // fixed-width percentile table
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod json;
pub mod stage;

pub use export::{fmt_ns, histogram_json, Snapshot};
pub use hist::Histogram;
pub use stage::ns_between;
