//! Pipeline observability: cumulative counters, queue pressure, and
//! per-channel latency histograms with the queue-wait / transform /
//! reorder-park / deliver stage breakdown, all copied in one critical
//! section by
//! [`StreamPipeline::stats`](crate::StreamPipeline::stats).

use std::time::Duration;

use afft_obs::{fmt_ns, histogram_json, Histogram};

/// Cumulative counters for one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Symbols accepted onto the channel.
    pub submitted: u64,
    /// Symbols workers and caller runs have finished (delivered or
    /// awaiting delivery).
    pub completed: u64,
    /// Symbols handed to the caller, in order.
    pub delivered: u64,
}

/// Latency histograms for one channel, decomposing a delivered
/// symbol's life into queue-wait, transform and reorder-park, plus the
/// end-to-end latency they add up to.
///
/// The histograms hold the *sampled* symbols: those whose per-channel
/// sequence number is a multiple of
/// [`SAMPLE_EVERY`](crate::SAMPLE_EVERY). All four spans of a sampled
/// symbol are recorded together, under the pipeline's lock, when the
/// symbol is delivered in order (by a receive, a caller run, or
/// [`shutdown`](crate::StreamPipeline::shutdown)'s drain of what is
/// left). So in every snapshot each of the four counts equals the
/// channel's `delivered.div_ceil(SAMPLE_EVERY)`, and a completion that
/// is never delivered, such as one parked behind the lost symbol of a
/// poisoned pipeline, appears in no histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelObs {
    /// Submission to the start of the transform: time spent in the
    /// bounded queue waiting for a free worker.
    pub queue_wait: Histogram,
    /// The transform itself, engine `execute_into` plus the OFDM
    /// front-end when the channel runs one.
    pub transform: Histogram,
    /// Worker finish to caller pop: time parked in the reorder ring
    /// waiting for its turn (includes time the caller simply hadn't
    /// asked yet).
    pub reorder_park: Histogram,
    /// **The** per-channel latency: submission to in-order delivery,
    /// end to end.
    pub latency: Histogram,
}

impl ChannelObs {
    /// The stage histograms paired with their names, in stage order
    /// (`deliver` is the end-to-end [`latency`](Self::latency)).
    pub fn stages(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("queue_wait", &self.queue_wait),
            ("transform", &self.transform),
            ("reorder_park", &self.reorder_park),
            ("deliver", &self.latency),
        ]
    }
}

/// Per-channel latency histograms for a whole pipeline, as carried by
/// [`StreamStats::obs`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamObs {
    /// Stage histograms per channel, in registration order.
    pub per_channel: Vec<ChannelObs>,
}

impl StreamObs {
    /// Renders every channel as a JSON array of
    /// `{"channel":i,"latency":{..},"queue_wait":{..},...}` objects.
    pub fn to_json(&self) -> String {
        afft_obs::json::arr(self.per_channel.iter().enumerate().map(|(i, chan)| {
            let mut obj = afft_obs::json::Obj::new().num("channel", i as f64);
            for (stage, h) in chan.stages() {
                let key = if stage == "deliver" { "latency" } else { stage };
                obj = obj.raw(key, histogram_json(h));
            }
            obj.finish()
        }))
    }
}

impl core::fmt::Display for StreamObs {
    /// One row per channel: latency p50/p99 plus the stage p50s that
    /// explain where the time went.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{:<7}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            "channel", "samples", "p50", "p99", "queue p50", "xform p50", "park p50",
        )?;
        for (i, chan) in self.per_channel.iter().enumerate() {
            let q = |h: &Histogram, p: f64| h.percentile(p).map_or_else(|| "-".to_string(), fmt_ns);
            writeln!(
                f,
                "ch{i:<5}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                chan.latency.count(),
                q(&chan.latency, 50.0),
                q(&chan.latency, 99.0),
                q(&chan.queue_wait, 50.0),
                q(&chan.transform, 50.0),
                q(&chan.reorder_park, 50.0),
            )?;
        }
        Ok(())
    }
}

/// A point-in-time snapshot of a
/// [`StreamPipeline`](crate::StreamPipeline)'s counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Total symbols accepted across all channels.
    pub submitted: u64,
    /// Total symbols finished, by workers and caller runs:
    /// `worker_transforms` plus `caller_transforms`.
    pub completed: u64,
    /// Total symbols delivered to the caller.
    pub delivered: u64,
    /// Submissions refused with
    /// [`SubmitError::QueueFull`](crate::SubmitError::QueueFull) — the
    /// backpressure events observed so far.
    pub rejected: u64,
    /// Symbols currently waiting in the submission queue.
    pub in_queue: usize,
    /// Symbols currently being transformed by a worker.
    pub in_flight: usize,
    /// Capacity of the bounded submission queue.
    pub queue_capacity: usize,
    /// Deepest the submission queue has ever been — how close the
    /// stream has come to backpressure (equals `queue_capacity` once
    /// any submission has been refused or blocked).
    pub queue_high_water: usize,
    /// Transforms finished per worker, in spawn order — the pool's
    /// load balance.
    pub worker_transforms: Vec<u64>,
    /// Transforms finished on the calling thread by
    /// [`StreamPipeline::try_run`](crate::StreamPipeline::try_run).
    pub caller_transforms: u64,
    /// Per-channel counters, in channel registration order.
    pub per_channel: Vec<ChannelStats>,
    /// Per-channel stage histograms, copied in the same critical
    /// section as the counters.
    pub obs: StreamObs,
    /// Time since the pipeline was built.
    pub elapsed: Duration,
}

impl StreamStats {
    /// Sustained completion rate since the pipeline was built,
    /// symbols/sec (zero for an empty or instantaneous snapshot).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Each worker's share of finished transforms, in percent. All
    /// zeros (never `NaN`) before any symbol has completed.
    pub fn worker_shares(&self) -> Vec<f64> {
        let total: u64 = self.worker_transforms.iter().sum();
        self.worker_transforms
            .iter()
            .map(|&w| if total == 0 { 0.0 } else { w as f64 / total as f64 * 100.0 })
            .collect()
    }

    /// Renders the snapshot as one JSON object carrying the same
    /// figures as the [`Display`](core::fmt::Display) line — global
    /// counters, queue pressure, and the scheduler block (per-worker
    /// and caller-run transforms) — plus per-channel counters and the
    /// stage histograms of [`StreamObs::to_json`] under `channels`.
    pub fn to_json(&self) -> String {
        use afft_obs::json;
        json::Obj::new()
            .num("submitted", self.submitted as f64)
            .num("completed", self.completed as f64)
            .num("delivered", self.delivered as f64)
            .num("rejected", self.rejected as f64)
            .num("in_queue", self.in_queue as f64)
            .num("in_flight", self.in_flight as f64)
            .num("queue_capacity", self.queue_capacity as f64)
            .num("queue_high_water", self.queue_high_water as f64)
            .raw(
                "scheduler",
                json::Obj::new()
                    .raw(
                        "worker_transforms",
                        json::arr(self.worker_transforms.iter().map(|v| json::num(*v as f64))),
                    )
                    .num("caller_transforms", self.caller_transforms as f64)
                    .finish(),
            )
            .raw(
                "per_channel",
                json::arr(self.per_channel.iter().enumerate().map(|(i, c)| {
                    json::Obj::new()
                        .num("channel", i as f64)
                        .num("submitted", c.submitted as f64)
                        .num("completed", c.completed as f64)
                        .num("delivered", c.delivered as f64)
                        .finish()
                })),
            )
            .raw("channels", self.obs.to_json())
            .finish()
    }
}

impl core::fmt::Display for StreamStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "submitted {} | completed {} ({:.0}/s) | delivered {} | rejected {} | \
             queue {}/{} (hwm {}) | caller runs {} | workers [",
            self.submitted,
            self.completed,
            self.throughput(),
            self.delivered,
            self.rejected,
            self.in_queue,
            self.queue_capacity,
            self.queue_high_water,
            self.caller_transforms,
        )?;
        // Guard the share computation against an idle pipeline: with no
        // finished transforms every share is 0%, never NaN%.
        for (i, (count, share)) in
            self.worker_transforms.iter().zip(self.worker_shares()).enumerate()
        {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{count} ({share:.0}%)")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamStats {
        StreamStats {
            submitted: 10,
            completed: 8,
            delivered: 6,
            rejected: 2,
            in_queue: 1,
            in_flight: 1,
            queue_capacity: 4,
            queue_high_water: 4,
            worker_transforms: vec![5, 3],
            caller_transforms: 0,
            per_channel: vec![ChannelStats { submitted: 10, completed: 8, delivered: 6 }],
            obs: StreamObs { per_channel: vec![ChannelObs::default()] },
            elapsed: Duration::from_secs(2),
        }
    }

    #[test]
    fn throughput_is_completions_over_elapsed() {
        let stats = sample();
        assert!((stats.throughput() - 4.0).abs() < 1e-12);
        let instant = StreamStats { elapsed: Duration::ZERO, ..sample() };
        assert_eq!(instant.throughput(), 0.0);
    }

    #[test]
    fn display_summarises_the_counters() {
        let line = sample().to_string();
        assert!(line.contains("submitted 10"));
        assert!(line.contains("rejected 2"));
        assert!(line.contains("queue 1/4 (hwm 4)"));
        assert!(line.contains("caller runs 0"), "{line}");
        assert!(line.ends_with("workers [5 (62%), 3 (38%)]"), "{line}");
    }

    #[test]
    fn to_json_schema_matches_the_display_figures() {
        // Regression: the JSON export and the Display line must carry
        // the same scheduler figures — a field renamed or dropped in
        // one place shows up here.
        let stats = sample();
        let doc = stats.to_json();
        assert!(doc.contains("\"submitted\":10"), "{doc}");
        assert!(doc.contains("\"queue_high_water\":4"), "{doc}");
        assert!(
            doc.contains("\"scheduler\":{\"worker_transforms\":[5,3],\"caller_transforms\":0}"),
            "{doc}"
        );
        assert!(doc.contains("\"per_channel\":[{\"channel\":0"), "{doc}");
        assert!(doc.contains("\"channels\":[{\"channel\":0,\"queue_wait\":{\"count\":0"), "{doc}");
        let line = stats.to_string();
        assert!(line.contains("(hwm 4)") && doc.contains("\"queue_high_water\":4"));
        assert!(line.contains("[5 (62%), 3 (38%)]") && doc.contains("[5,3]"));
        assert!(line.contains("caller runs 0") && doc.contains("\"caller_transforms\":0"));
    }

    #[test]
    fn idle_pipeline_shows_zero_percent_not_nan() {
        // Regression: with completed == 0 the per-worker share is a
        // 0/0 — it must render as 0%, never NaN%.
        let idle = StreamStats {
            submitted: 0,
            completed: 0,
            delivered: 0,
            rejected: 0,
            in_queue: 0,
            in_flight: 0,
            worker_transforms: vec![0, 0, 0],
            per_channel: vec![ChannelStats { submitted: 0, completed: 0, delivered: 0 }],
            ..sample()
        };
        assert_eq!(idle.worker_shares(), vec![0.0, 0.0, 0.0]);
        let line = idle.to_string();
        assert!(!line.contains("NaN"), "{line}");
        assert!(line.contains("[0 (0%), 0 (0%), 0 (0%)]"), "{line}");
    }

    #[test]
    fn stream_obs_snapshot_json_and_table() {
        let mut latency = Histogram::new();
        latency.record_n(10_000, 100);
        let chan = ChannelObs { latency, ..ChannelObs::default() };
        let obs = StreamObs { per_channel: vec![chan] };
        let doc = obs.to_json();
        assert!(doc.contains("\"channel\":0"), "{doc}");
        assert!(doc.contains("\"latency\":{\"count\":100"), "{doc}");
        let table = obs.to_string();
        assert!(table.contains("ch0"), "{table}");
        assert!(table.contains("p99"), "{table}");
    }
}
