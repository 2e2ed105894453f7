//! Execution statistics: the observables Tables I and II report.

use crate::cache::CacheStats;

/// Instruction-class and timing counters accumulated by a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Elapsed clock cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instrs: u64,
    /// Base-ISA ALU/shift/compare instructions.
    pub alu: u64,
    /// Multiplies.
    pub mul: u64,
    /// Base-ISA load instructions (`lw`/`lh`/`lhu`).
    pub loads: u64,
    /// Base-ISA store instructions (`sw`/`sh`).
    pub stores: u64,
    /// Branch instructions executed.
    pub branches: u64,
    /// Branches taken.
    pub branches_taken: u64,
    /// Jumps (`j`/`jal`/`jr`/`jalr`).
    pub jumps: u64,
    /// `BUT4` operations.
    pub but4: u64,
    /// `LDIN` operations (each moves two points).
    pub ldin: u64,
    /// `STOUT` operations (each moves two points).
    pub stout: u64,
    /// `MTFFT` configuration writes.
    pub mtfft: u64,
    /// Hardware pre-rotation coefficient fetches issued by `STOUT`.
    pub coef_fetches: u64,
    /// Data-cache counters.
    pub cache: CacheStats,
}

impl Stats {
    /// Load *instructions* as the paper counts them for Table II:
    /// base-ISA loads plus `LDIN`s.
    pub fn table_loads(&self) -> u64 {
        self.loads + self.ldin
    }

    /// Store instructions as the paper counts them: base stores plus
    /// `STOUT`s.
    pub fn table_stores(&self) -> u64 {
        self.stores + self.stout
    }

    /// Data-cache miss count (the paper's fourth Table II row).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }

    /// Cycles per retired instruction.
    pub fn cpi(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instrs as f64
        }
    }

    /// The paper's throughput metric in Mbps.
    ///
    /// Back-derived from Table I, the paper's figures correspond to 6
    /// bits per sample at a 300 MHz clock:
    /// `throughput = 6 * N * f / cycles` (the `table1` bench bin prints
    /// it beside the paper's figures).
    pub fn throughput_mbps(&self, n: usize, clock_mhz: f64) -> f64 {
        throughput_mbps(n, self.cycles, clock_mhz)
    }
}

/// The paper's throughput metric from a bare cycle count (6 bits per
/// sample; see [`Stats::throughput_mbps`]). Used by harnesses that
/// only hold the cycle observable of an
/// `FftEngine`.
pub fn throughput_mbps(n: usize, cycles: u64, clock_mhz: f64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        6.0 * n as f64 * clock_mhz / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_accessors_combine_custom_ops() {
        let s = Stats { loads: 30, ldin: 1024, stores: 10, stout: 1024, ..Stats::default() };
        assert_eq!(s.table_loads(), 1054);
        assert_eq!(s.table_stores(), 1034);
    }

    #[test]
    fn throughput_matches_paper_rows() {
        // Table I: 64-point, 197 cycles -> 584.7 Mbps at 300 MHz.
        let s = Stats { cycles: 197, ..Stats::default() };
        let t = s.throughput_mbps(64, 300.0);
        assert!((t - 584.77).abs() < 0.1, "got {t}");
        // 1024-point, 4168 cycles -> 442.2 Mbps (paper rounds 440.6).
        let s = Stats { cycles: 4168, ..Stats::default() };
        let t = s.throughput_mbps(1024, 300.0);
        assert!((t - 442.3).abs() < 0.5, "got {t}");
    }

    #[test]
    fn cpi_guards_divide_by_zero() {
        assert_eq!(Stats::default().cpi(), 0.0);
        assert_eq!(Stats::default().throughput_mbps(64, 300.0), 0.0);
        let s = Stats { cycles: 10, instrs: 5, ..Stats::default() };
        assert_eq!(s.cpi(), 2.0);
    }
}
