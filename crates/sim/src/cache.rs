//! Set-associative data-cache timing model.
//!
//! A tag-only model (data stays in [`Memory`](crate::mem::Memory)): each
//! access classifies as hit or miss, maintains LRU state and dirty bits
//! (write-back, write-allocate), and counts everything the paper's
//! Table II reports — loads, stores and data-cache misses.

/// Configuration of a data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// The base PISA core's cache in the paper: 32 KB (we model it
    /// 4-way with 64-byte lines).
    pub fn pisa_32k() -> Self {
        CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 4 }
    }

    /// A small 4 KB L1D approximating the TI C6713's on-chip L1D.
    pub fn ti_4k() -> Self {
        CacheConfig { size_bytes: 4 * 1024, line_bytes: 32, ways: 2 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::pisa_32k()
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the line was already present.
    pub hit: bool,
    /// Whether a dirty line was evicted (write-back traffic).
    pub evicted_dirty: bool,
}

/// Event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// Misses on read accesses.
    pub read_misses: u64,
    /// Misses on write accesses.
    pub write_misses: u64,
    /// Dirty evictions (write-backs to memory).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 1.0 for an unused cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            1.0 - (self.misses as f64 / self.accesses as f64)
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
    lru: u64, // last-use stamp
}

/// The cache model.
///
/// # Examples
///
/// ```
/// use afft_sim::cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 16, ways: 2 });
/// assert!(!c.access(0, false).hit);  // cold miss
/// assert!(c.access(4, false).hit);   // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    // log2 of the line size and of the set count, so an access splits
    // its address with shifts and a mask.
    line_shift: u32,
    set_shift: u32,
    lines: Vec<Line>, // sets x ways
    stats: CacheStats,
    clock: u64,
}

impl Cache {
    /// Builds a cache for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics unless size, line size and ways are powers of two that
    /// divide consistently.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.ways >= 1, "need at least one way");
        assert!(
            cfg.size_bytes.is_multiple_of(cfg.line_bytes * cfg.ways),
            "size must be a multiple of line*ways"
        );
        assert!(cfg.sets().is_power_of_two(), "set count must be a power of two");
        let lines = vec![Line::default(); (cfg.sets() * cfg.ways) as usize];
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: cfg.sets().trailing_zeros(),
            lines,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line and clears statistics.
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.stats = CacheStats::default();
        self.clock = 0;
    }

    /// Performs one access at byte address `addr` (`write` selects the
    /// store path). Accesses are classified per line; an access spanning
    /// two lines (never generated by the aligned ISA) touches only the
    /// first.
    pub fn access(&mut self, addr: u32, write: bool) -> Access {
        self.clock += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & ((1 << self.set_shift) - 1)) as usize;
        let tag = line_addr >> self.set_shift;
        let base = set * self.cfg.ways as usize;
        let ways = &mut self.lines[base..base + self.cfg.ways as usize];

        if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = self.clock;
            if write {
                l.dirty = true;
            }
            return Access { hit: true, evicted_dirty: false };
        }

        // Miss: fill into LRU way (write-allocate).
        self.stats.misses += 1;
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("at least one way");
        let evicted_dirty = victim.valid && victim.dirty;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line { valid: true, dirty: write, tag, lru: self.clock };
        Access { hit: false, evicted_dirty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        Cache::new(CacheConfig { size_bytes: 128, line_bytes: 16, ways: 2 })
    }

    #[test]
    fn cold_miss_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x40, false).hit);
        for off in (0..16).step_by(4) {
            assert!(c.access(0x40 + off, false).hit, "offset {off}");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 5);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addr multiples of 4 sets*16B = 64B).
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // touch line 0 so line 64 is LRU
        c.access(128, false); // evicts 64
        assert!(c.access(0, false).hit);
        assert!(!c.access(64, false).hit);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(64, false);
        c.access(128, false); // evicts one of them (0, the LRU) -> writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_miss_classified() {
        let mut c = tiny();
        c.access(0, true);
        c.access(4, true);
        let s = c.stats();
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.read_misses, 0);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn hit_rate_and_flush() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 1.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        c.flush();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn pisa_config_geometry() {
        let cfg = CacheConfig::pisa_32k();
        assert_eq!(cfg.sets(), 128);
        let c = Cache::new(cfg);
        assert_eq!(c.config().ways, 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(CacheConfig { size_bytes: 96, line_bytes: 12, ways: 2 });
    }
}
