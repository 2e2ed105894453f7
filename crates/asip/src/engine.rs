//! [`FftEngine`] adapter over the cycle-accurate ASIP ISS: the
//! simulated hardware as just another backend in the registry.
//!
//! An [`AsipEngine`] is planned once, like the software engines: it owns
//! one [`ArrayFftRunner`] for its size, which holds the generated
//! program of each direction (generated on first use), one machine whose
//! data memory is the layout's footprint
//! ([`Layout::mem_bytes`](crate::Layout)), the pre-rotation table and
//! the output permutation, plus the engine's own Q15 staging buffers.
//! [`AsipEngine::execute_into`](afft_core::FftEngine::execute_into)
//! quantises the `f64` input into the Q15 wire format (auto-scaled to
//! 50% of full scale at the input peak), restarts the machine and runs
//! the Algorithm-1 program on it, and rescales the output back to the
//! unnormalised-DFT contract of the trait. Once each direction has run,
//! a call does no heap work, and its output and statistics are those
//! of a fresh machine ([`run_array_fft`](crate::run_array_fft)).
//! Execution statistics of the most recent run (cycles, instruction
//! classes, cache counters, the measured `LDIN`/`STOUT` beats) are
//! retained and exposed through [`AsipEngine::last_stats`]; the
//! [`ASIP_ISS`] row states the closed-form cost (`2N` points each way),
//! which the measured beats match, two points per beat.
//!
//! # Examples
//!
//! ```
//! use afft_asip::engine::AsipEngine;
//! use afft_core::{Direction, FftEngine};
//! use afft_num::Complex;
//!
//! let mut engine = AsipEngine::new(64)?;
//! let x = vec![Complex::new(1.0, 0.0); 64];
//! let spectrum = engine.execute(&x, Direction::Forward)?;
//! assert!((spectrum[0].re - 64.0).abs() < 0.5);
//! assert!(engine.last_stats().expect("ran").cycles > 0);
//! # Ok::<(), afft_core::FftError>(())
//! ```

use crate::runner::{ArrayFftRunner, AsipConfig, AsipError};
use afft_core::cached::MemTraffic;
use afft_core::engine::{check_io, Cost, EngineRegistry, EngineSpec, FftEngine};
use afft_core::{Direction, FftError, Split};
use afft_num::{Complex, C64, Q15};
use afft_sim::Stats;

/// Fraction of Q15 full scale the input peak is normalised to before
/// quantisation: headroom against the intermediate growth the per-stage
/// halving does not fully absorb.
const QUANT_AMPLITUDE: f64 = 0.5;

/// The cycle-accurate ASIP ISS behind the [`FftEngine`] interface.
pub struct AsipEngine {
    n: usize,
    runner: ArrayFftRunner,
    last_stats: Option<Stats>,
    // Q15 staging for the wire-format input and the natural-order output.
    quant_in: Vec<Complex<Q15>>,
    quant_out: Vec<Complex<Q15>>,
}

impl AsipEngine {
    /// Plans an ASIP run of size `n` (power of two, `>= 64`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Self::with_config(n, AsipConfig::default())
    }

    /// Plans with explicit run configuration (timing model, program
    /// options, cycle budget).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] for unsupported sizes.
    pub fn with_config(n: usize, cfg: AsipConfig) -> Result<Self, FftError> {
        Ok(AsipEngine {
            n,
            runner: ArrayFftRunner::new(n, cfg)?,
            last_stats: None,
            quant_in: vec![Complex::zero(); n],
            quant_out: vec![Complex::zero(); n],
        })
    }

    /// Execution statistics of the most recent transform, or `None`
    /// before the first run.
    pub fn last_stats(&self) -> Option<Stats> {
        self.last_stats
    }

    /// Cycle count of the most recent run, or `None` before the first.
    pub fn last_cycles(&self) -> Option<u64> {
        self.last_stats().map(|s| s.cycles)
    }
}

impl core::fmt::Debug for AsipEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AsipEngine")
            .field("n", &self.n)
            .field("last_cycles", &self.last_cycles())
            .finish()
    }
}

impl FftEngine for AsipEngine {
    fn name(&self) -> &str {
        "asip_iss"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        check_io(self.n, input, output)?;
        // Normalise the peak component to QUANT_AMPLITUDE of full scale
        // so arbitrary-magnitude inputs survive quantisation.
        let peak = input.iter().map(|c| c.re.abs().max(c.im.abs())).fold(0.0, f64::max);
        let scale = if peak > 0.0 { QUANT_AMPLITUDE / peak } else { 1.0 };
        for (slot, &c) in self.quant_in.iter_mut().zip(input) {
            *slot = Complex::from_c64(c * scale);
        }

        let stats = self.runner.run_into(&self.quant_in, &mut self.quant_out, dir).map_err(
            |e| match e {
                AsipError::Fft(e) => e,
                other => FftError::Backend { engine: "asip_iss".into(), reason: other.to_string() },
            },
        )?;
        self.last_stats = Some(stats);

        // The datapath scales by 1/N; undo that and the input scaling
        // to meet the unnormalised-DFT contract.
        let restore = self.n as f64 / scale;
        for (slot, q) in output.iter_mut().zip(&self.quant_out) {
            *slot = q.to_c64() * restore;
        }
        Ok(())
    }

    fn tolerance(&self) -> f64 {
        // 16-bit datapath with per-stage rounding: a few percent of the
        // spectrum peak in the worst case.
        0.08
    }

    fn cycles(&self) -> Option<u64> {
        self.last_cycles()
    }
}

/// The ASIP's catalog row. Its cost is the closed-form cycle model of
/// the array datapath: `N log2 N / 8` butterfly issues, `2N` streaming
/// beats and a fixed startup, moving `2N` points each way (`N/2` beats
/// per epoch, two epochs, two points per beat).
pub const ASIP_ISS: EngineSpec = EngineSpec {
    name: "asip_iss",
    supports: |n| Split::for_size(n).is_ok(),
    build: |n| Ok(Box::new(AsipEngine::new(n)?)),
    cost: |n| {
        let cycles = n * n.ilog2() as usize / 8 + 2 * n + 64;
        Cost::Cycles(cycles as u64, Some(MemTraffic { loads: 2 * n, stores: 2 * n }))
    },
};

/// [`EngineRegistry::standard`] plus the [`ASIP_ISS`] row (for sizes
/// the array structure supports; other sizes — composite, prime,
/// arbitrary — pass through with the software registry only, since the
/// array structure is power-of-two by construction).
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] unless `EngineRegistry::supports`
/// holds for `n` (any `n >= 2`).
///
/// # Examples
///
/// ```
/// let registry = afft_asip::engine::registry_with_asip(1024)?;
/// assert!(registry.names().contains(&"asip_iss"));
/// assert!(registry.len() >= 5);
/// # Ok::<(), afft_core::FftError>(())
/// ```
pub fn registry_with_asip(n: usize) -> Result<EngineRegistry, FftError> {
    Ok(EngineRegistry::standard(n)?.with(ASIP_ISS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn asip_engine_matches_naive_dft_within_tolerance() {
        let n = 128;
        let mut engine = AsipEngine::new(n).unwrap();
        let x = random_signal(n, 1);
        let got = engine.execute(&x, Direction::Forward).unwrap();
        let want = dft_naive(&x, Direction::Forward).unwrap();
        let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
        let err = max_error(&got, &want) / peak;
        assert!(err < engine.tolerance(), "relative error {err}");
    }

    #[test]
    fn stats_and_traffic_reflect_the_run() {
        for n in [64usize, 128, 256, 512, 1024] {
            let mut engine = AsipEngine::new(n).unwrap();
            assert!(engine.last_stats().is_none());
            engine.execute(&random_signal(n, 2), Direction::Forward).unwrap();
            let stats = engine.last_stats().expect("stats retained");
            assert!(stats.cycles > 0);
            // The measured traffic, two points per LDIN/STOUT beat, is
            // what the row states.
            let measured =
                MemTraffic { loads: 2 * stats.ldin as usize, stores: 2 * stats.stout as usize };
            assert_eq!(Some(measured), (ASIP_ISS.cost)(n).traffic(), "n={n}");
            // The canonical program is deterministic: another input
            // costs the same cycles.
            engine.execute(&random_signal(n, 4), Direction::Forward).unwrap();
            assert_eq!(engine.last_cycles(), Some(stats.cycles), "n={n}");
        }
    }

    #[test]
    fn arbitrary_magnitude_inputs_are_normalised() {
        let n = 64;
        let mut engine = AsipEngine::new(n).unwrap();
        // Values far outside [-1, 1): naive quantisation would saturate.
        let x: Vec<C64> = random_signal(n, 3).iter().map(|&c| c * 1000.0).collect();
        let got = engine.execute(&x, Direction::Forward).unwrap();
        let want = dft_naive(&x, Direction::Forward).unwrap();
        let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
        assert!(max_error(&got, &want) / peak < engine.tolerance());
    }

    #[test]
    fn rejects_unsupported_sizes_and_lengths() {
        assert!(AsipEngine::new(32).is_err());
        assert!(AsipEngine::new(96).is_err());
        let mut engine = AsipEngine::new(64).unwrap();
        assert!(matches!(
            engine.execute(&random_signal(32, 1), Direction::Forward),
            Err(FftError::LengthMismatch { expected: 64, got: 32 })
        ));
    }

    #[test]
    fn registry_with_asip_gates_on_size() {
        let small = registry_with_asip(16).unwrap();
        assert!(!small.names().contains(&"asip_iss"));
        let full = registry_with_asip(64).unwrap();
        assert_eq!(full.names().last().copied(), Some("asip_iss"));
        assert!(full.len() >= 6);
        // The row prices the engine without building it: the closed
        // form at N = 1024, moving 2N points each way.
        let cost = (ASIP_ISS.cost)(1024);
        assert!(matches!(cost, Cost::Cycles(3392, _)), "{cost:?}");
        assert_eq!(cost.traffic().unwrap().total(), 4 * 1024);
    }
}
