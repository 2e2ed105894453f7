//! Stage decomposition: the named segments of a symbol's life inside
//! an execution pipeline, and the saturating span between two stamps
//! that measures them.

use std::time::Instant;

/// The segments a streamed symbol's end-to-end latency decomposes
/// into. The stream pipeline records one histogram per
/// `(channel, stage)`:
///
/// * [`Stage::QueueWait`] — submission accepted → a worker starts the
///   transform (time spent in the bounded queue and in a worker's
///   claimed batch);
/// * [`Stage::Transform`] — the engine's `execute_into` (service
///   time);
/// * [`Stage::ReorderPark`] — transform finished → popped by the
///   caller in order (reorder-ring residence plus the caller's own
///   delay in calling `recv`);
/// * [`Stage::Deliver`] — the end-to-end span, submission → in-order
///   delivery. This is *the* per-channel latency histogram; the first
///   three stages are its decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Queue residence: accepted → transform start.
    QueueWait,
    /// Service time: the transform itself.
    Transform,
    /// Reorder-ring residence: finished → in-order pop.
    ReorderPark,
    /// End-to-end latency: accepted → delivered.
    Deliver,
}

impl Stage {
    /// Every stage, in recording order — `Stage::ALL[s.index()] == s`.
    pub const ALL: [Stage; 4] =
        [Stage::QueueWait, Stage::Transform, Stage::ReorderPark, Stage::Deliver];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable series-index offset of this stage.
    pub fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Transform => 1,
            Stage::ReorderPark => 2,
            Stage::Deliver => 3,
        }
    }

    /// Stable lowercase identifier (series names, JSON keys).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Transform => "transform",
            Stage::ReorderPark => "reorder_park",
            Stage::Deliver => "deliver",
        }
    }
}

impl core::fmt::Display for Stage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Nanoseconds between two [`Instant`]s, saturating at zero — stamps
/// taken on different threads must never panic the recorder.
#[inline]
pub fn ns_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_index_and_names_are_stable() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(Stage::ALL[stage.index()], *stage);
        }
        assert_eq!(Stage::QueueWait.as_str(), "queue_wait");
        assert_eq!(Stage::Deliver.to_string(), "deliver");
        assert_eq!(Stage::COUNT, 4);
    }

    #[test]
    fn ns_between_saturates_backwards() {
        let later = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let earlier = Instant::now();
        assert_eq!(ns_between(earlier, later), 0);
    }
}
