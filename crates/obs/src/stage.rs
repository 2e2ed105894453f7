//! Stage spans: the saturating distance between two clock stamps, the
//! value every stage histogram records.

use std::time::Instant;

/// Nanoseconds between two [`Instant`]s, saturating at zero — stamps
/// taken on different threads must never panic the recording side.
#[inline]
pub fn ns_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_between_saturates_backwards() {
        let later = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let earlier = Instant::now();
        assert_eq!(ns_between(earlier, later), 0);
    }
}
