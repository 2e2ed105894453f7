//! The paper's published numbers plus the registry-driven measurement
//! harness: every report is produced by iterating the
//! [`FftEngine`](afft_core::engine::FftEngine) registry — no
//! backend-specific call sites — and printed next to the paper's
//! figures.

use afft_asip::engine::registry_with_asip;
use afft_core::cached::MemTraffic;
use afft_core::engine::Cost;
use afft_core::reference::max_error;
use afft_core::{Direction, FftError};

use crate::workload::random_signal;

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// FFT size.
    pub n: usize,
    /// Total cycle count.
    pub cycles: u64,
    /// Data throughput in Mbps (6 bit/sample at 300 MHz; the `table1`
    /// bench bin prints the ISS's figure beside it).
    pub throughput_mbps: f64,
}

/// The paper's Table I.
pub const TABLE1: [Table1Row; 5] = [
    Table1Row { n: 64, cycles: 197, throughput_mbps: 584.7 },
    Table1Row { n: 128, cycles: 402, throughput_mbps: 572.2 },
    Table1Row { n: 256, cycles: 851, throughput_mbps: 540.9 },
    Table1Row { n: 512, cycles: 1828, throughput_mbps: 502.2 },
    Table1Row { n: 1024, cycles: 4168, throughput_mbps: 440.6 },
];

/// One implementation column of the paper's Table II (1024 points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Col {
    /// Implementation name.
    pub name: &'static str,
    /// Total cycles.
    pub cycles: u64,
    /// Load instructions (`None` where the paper reports "-").
    pub loads: Option<u64>,
    /// Store instructions.
    pub stores: Option<u64>,
    /// Data-cache misses.
    pub misses: u64,
}

/// The paper's Table II.
pub const TABLE2: [Table2Col; 4] = [
    Table2Col {
        name: "Imple1 standard SW",
        cycles: 3_611_551,
        loads: Some(91_675),
        stores: Some(91_677),
        misses: 114_575,
    },
    Table2Col { name: "Imple2 TI DSP", cycles: 24_976, loads: None, stores: None, misses: 9_944 },
    Table2Col {
        name: "Imple3 Xtensa ASIP",
        cycles: 9_705,
        loads: Some(5_494),
        stores: Some(5_301),
        misses: 284,
    },
    Table2Col {
        name: "Imple4 array ASIP",
        cycles: 4_168,
        loads: Some(1_059),
        stores: Some(1_192),
        misses: 106,
    },
];

/// Section IV synthesis results.
pub mod hw {
    /// BU + AC gate count.
    pub const BU_AC_GATES: u64 = 17_324;
    /// CRF + coefficient ROM gate count.
    pub const CRF_ROM_GATES: u64 = 15_764;
    /// BU + AC power at 300 MHz, mW.
    pub const BU_AC_POWER_MW: f64 = 17.68;
    /// BU critical path, ns.
    pub const BU_CRITICAL_NS: f64 = 3.2;
    /// Base PISA core gates (with 32 KB cache).
    pub const PISA_GATES: u64 = 106_000;
}

/// One engine's measurement from a registry survey.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Engine name ([`FftEngine::name`](afft_core::engine::FftEngine::name)).
    pub name: String,
    /// Transform size surveyed.
    pub n: usize,
    /// Maximum deviation from the registry's golden reference,
    /// relative to the spectrum peak.
    pub relative_error: f64,
    /// The engine's declared tolerance for that deviation.
    pub tolerance: f64,
    /// The catalog row's main-memory traffic, where its cost model has
    /// one.
    pub traffic: Option<MemTraffic>,
    /// Cycle count, on cycle-accurate backends.
    pub cycles: Option<u64>,
}

impl EngineReport {
    /// Whether the measured deviation is inside the declared tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.relative_error < self.tolerance
    }
}

/// Runs every registered backend (software models plus the
/// cycle-accurate ASIP ISS) on one random signal and reports each
/// engine's deviation and cycles, beside its row's traffic.
///
/// The first registered engine — the naive DFT — is the golden
/// reference the others are measured against; everything is reached
/// through the [`FftEngine`](afft_core::engine::FftEngine) trait.
///
/// # Errors
///
/// Returns [`FftError`] for unsupported sizes or backend failures.
pub fn survey(n: usize, seed: u64) -> Result<Vec<EngineReport>, FftError> {
    let mut registry = registry_with_asip(n)?;
    let x = random_signal(n, seed);
    let golden = registry
        .get_mut("dft_naive")
        .expect("standard registry always carries the golden reference")
        .execute(&x, Direction::Forward)?;
    let peak = golden.iter().map(|c| c.abs()).fold(f64::MIN_POSITIVE, f64::max);

    // One reusable spectrum buffer for the whole survey: every engine
    // executes through the allocation-free `_into` path.
    let mut spectrum = vec![afft_num::Complex::zero(); n];
    let mut reports = Vec::with_capacity(registry.len());
    let costs: Vec<Cost> = registry.specs().map(|spec| (spec.cost)(n)).collect();
    for (engine, cost) in registry.engines_mut().zip(costs) {
        // The golden reference already ran; reuse it rather than pay
        // the O(N^2) naive DFT a second time per survey.
        if engine.name() == "dft_naive" {
            spectrum.copy_from_slice(&golden);
        } else {
            engine.execute_into(&x, &mut spectrum, Direction::Forward)?;
        }
        reports.push(EngineReport {
            name: engine.name().to_string(),
            n,
            relative_error: max_error(&spectrum, &golden) / peak,
            tolerance: engine.tolerance(),
            traffic: cost.traffic(),
            cycles: engine.cycles(),
        });
    }
    Ok(reports)
}

/// Renders a [`survey`] as an aligned text table.
pub fn render_survey(reports: &[EngineReport]) -> String {
    let widths = [12usize, 6, 12, 10, 10, 10];
    let mut out = crate::row(
        &[
            "engine".into(),
            "N".into(),
            "rel err".into(),
            "loads".into(),
            "stores".into(),
            "cycles".into(),
        ],
        &widths,
    );
    out.push('\n');
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
    for r in reports {
        out.push_str(&crate::row(
            &[
                r.name.clone(),
                r.n.to_string(),
                format!("{:.2e}", r.relative_error),
                opt(r.traffic.map(|t| t.loads as u64)),
                opt(r.traffic.map(|t| t.stores as u64)),
                opt(r.cycles),
            ],
            &widths,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_factors_reproduce_paper_header() {
        // 866.5X, 5.9X, 2.3X over Imple 1..3.
        let ours = TABLE2[3].cycles as f64;
        assert!((TABLE2[0].cycles as f64 / ours - 866.5).abs() < 0.1);
        assert!((TABLE2[1].cycles as f64 / ours - 5.99).abs() < 0.1);
        assert!((TABLE2[2].cycles as f64 / ours - 2.33).abs() < 0.05);
    }

    #[test]
    fn table1_throughput_consistent_with_6bit_constant() {
        for r in TABLE1 {
            let implied = 6.0 * r.n as f64 * 300.0 / r.cycles as f64;
            let rel = (implied - r.throughput_mbps).abs() / r.throughput_mbps;
            assert!(rel < 0.01, "n={}: implied {implied} vs {}", r.n, r.throughput_mbps);
        }
    }

    #[test]
    fn survey_covers_all_backends_at_1024() {
        let reports = survey(1024, 7).expect("survey");
        assert!(reports.len() >= 5, "got {} backends", reports.len());
        assert!(reports.iter().all(EngineReport::within_tolerance));
        // The cycle-accurate backend reports cycles and traffic.
        let asip = reports.iter().find(|r| r.name == "asip_iss").expect("asip registered");
        assert!(asip.cycles.expect("cycles") > 0);
        assert_eq!(asip.traffic.expect("traffic").total(), 4 * 1024);
        let rendered = render_survey(&reports);
        assert!(rendered.contains("asip_iss") && rendered.contains("array_fft"));
    }

    #[test]
    fn survey_works_below_the_array_threshold() {
        let reports = survey(16, 1).expect("survey");
        let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        // The SIMD tier joins the survey exactly when the host detects
        // a vector unit.
        let expected: &[&str] = if afft_core::simd::active_level().is_simd() {
            &[
                "dft_naive",
                "radix2_dit",
                "radix4_dit",
                "radix4_simd",
                "mcfft",
                "mixed_radix",
                "bluestein",
            ]
        } else {
            &["dft_naive", "radix2_dit", "radix4_dit", "mcfft", "mixed_radix", "bluestein"]
        };
        assert_eq!(names, expected);
        assert!(reports.iter().all(EngineReport::within_tolerance));
    }
}
