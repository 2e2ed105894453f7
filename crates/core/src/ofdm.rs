//! OFDM symbol processing: the system context the paper's introduction
//! motivates (MB-UWB 802.15.3a, WiMAX 802.16).
//!
//! The FFT is the kernel of an OFDM modem; this module supplies the
//! surrounding machinery — QPSK mapping, IFFT modulation with cyclic
//! prefix, CP removal + FFT demodulation, single-tap equalisation —
//! over the array FFT, so receiver-level examples and tests exercise
//! the transform in its real role.

use crate::array::ArrayFft;
use crate::engine::FftEngine;
use crate::error::FftError;
use crate::reference::Direction;
use afft_num::{Complex, C64};

/// QPSK constellation mapping: 2 bits per subcarrier, Gray-coded,
/// unit energy.
pub fn qpsk_map(bits: &[(bool, bool)]) -> Vec<C64> {
    bits.iter()
        .map(|&(b0, b1)| {
            let re = if b0 { 1.0 } else { -1.0 };
            let im = if b1 { 1.0 } else { -1.0 };
            Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2
        })
        .collect()
}

/// Hard-decision QPSK demapping.
pub fn qpsk_demap(symbols: &[C64]) -> Vec<(bool, bool)> {
    symbols.iter().map(|s| (s.re >= 0.0, s.im >= 0.0)).collect()
}

/// An OFDM modulator/demodulator over any `N`-subcarrier
/// [`FftEngine`] with a cyclic prefix of `cp` samples.
///
/// [`Ofdm::new`] plans over the array-FFT golden model;
/// [`Ofdm::with_engine`] accepts whichever backend a planner selected
/// (see the `afft_planner` crate), so the modem runs on the winning
/// engine without per-symbol dispatch.
///
/// The modem owns a persistent time-domain work buffer (plus the
/// engine's own scratch), so the `_into` variants
/// ([`Ofdm::modulate_into`] / [`Ofdm::demodulate_into`]) process a
/// steady symbol stream with **zero heap allocation per symbol**.
///
/// # Examples
///
/// ```
/// use afft_core::ofdm::{Ofdm, qpsk_map, qpsk_demap};
///
/// let mut ofdm = Ofdm::new(128, 32)?;
/// let bits: Vec<(bool, bool)> = (0..128).map(|i| (i % 2 == 0, i % 3 == 0)).collect();
/// let tx = ofdm.modulate(&qpsk_map(&bits))?;
/// assert_eq!(tx.len(), 160); // N + CP
/// let rx = ofdm.demodulate(&tx)?;
/// assert_eq!(qpsk_demap(&rx), bits);
/// # Ok::<(), afft_core::FftError>(())
/// ```
pub struct Ofdm {
    engine: Box<dyn FftEngine>,
    cp: usize,
    // Persistent IFFT output staging for the modulator: reused across
    // symbols so the zero-allocation path never touches the heap.
    work: Vec<C64>,
}

impl core::fmt::Debug for Ofdm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ofdm")
            .field("engine", &self.engine.name())
            .field("n", &self.engine.len())
            .field("cp", &self.cp)
            .finish()
    }
}

impl Ofdm {
    /// Plans an OFDM engine with `n` subcarriers and `cp` cyclic-prefix
    /// samples over the array-FFT golden model.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] for unsupported `n`, or an
    /// [`FftError::InvalidDecomposition`] if `cp >= n`.
    pub fn new(n: usize, cp: usize) -> Result<Self, FftError> {
        Self::with_engine(Box::new(ArrayFft::<f64>::new(n)?), cp)
    }

    /// Plans over an already-selected backend — typically the winner a
    /// planner took out of the registry.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidDecomposition`] if
    /// `cp >= engine.len()`.
    pub fn with_engine(engine: Box<dyn FftEngine>, cp: usize) -> Result<Self, FftError> {
        let n = engine.len();
        if cp >= n {
            return Err(FftError::InvalidDecomposition {
                reason: format!("cyclic prefix {cp} must be shorter than the symbol {n}"),
            });
        }
        let work = vec![Complex::zero(); n];
        Ok(Ofdm { engine, cp, work })
    }

    /// The FFT backend the modem runs on.
    pub fn engine(&self) -> &dyn FftEngine {
        self.engine.as_ref()
    }

    /// Number of subcarriers.
    pub fn subcarriers(&self) -> usize {
        self.engine.len()
    }

    /// Cyclic-prefix length in samples.
    pub fn cyclic_prefix(&self) -> usize {
        self.cp
    }

    /// Samples per transmitted symbol (`N + CP`).
    pub fn symbol_len(&self) -> usize {
        self.engine.len() + self.cp
    }

    /// Modulates one symbol: IFFT of the subcarrier values (normalised
    /// by `1/N`) with the cyclic prefix prepended.
    ///
    /// Allocates the returned symbol; the transform itself reuses the
    /// modem's persistent work buffer (see [`Ofdm::modulate_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `subcarriers.len() != N`.
    pub fn modulate(&mut self, subcarriers: &[C64]) -> Result<Vec<C64>, FftError> {
        let mut out = vec![Complex::zero(); self.symbol_len()];
        self.modulate_into(subcarriers, &mut out)?;
        Ok(out)
    }

    /// The allocation-free modulator: writes the `N + CP`-sample symbol
    /// into `out`, running the IFFT into the modem's persistent work
    /// buffer (no heap work per symbol once the engine scratch is warm).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `subcarriers.len() != N`
    /// or `out.len() != N + CP`.
    pub fn modulate_into(&mut self, subcarriers: &[C64], out: &mut [C64]) -> Result<(), FftError> {
        let n = self.engine.len();
        if out.len() != n + self.cp {
            return Err(FftError::LengthMismatch { expected: n + self.cp, got: out.len() });
        }
        self.engine.execute_into(subcarriers, &mut self.work, Direction::Inverse)?;
        let scale = 1.0 / n as f64;
        let (prefix, body) = out.split_at_mut(self.cp);
        for (slot, &v) in prefix.iter_mut().zip(&self.work[n - self.cp..]) {
            *slot = v * scale;
        }
        for (slot, &v) in body.iter_mut().zip(&self.work) {
            *slot = v * scale;
        }
        Ok(())
    }

    /// Demodulates one received symbol: strips the cyclic prefix and
    /// runs the forward FFT.
    ///
    /// Allocates the returned spectrum; steady-state receivers should
    /// use [`Ofdm::demodulate_into`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if the input is not
    /// `N + CP` samples.
    pub fn demodulate(&mut self, samples: &[C64]) -> Result<Vec<C64>, FftError> {
        let mut out = vec![Complex::zero(); self.engine.len()];
        self.demodulate_into(samples, &mut out)?;
        Ok(out)
    }

    /// The allocation-free demodulator: strips the cyclic prefix and
    /// runs the forward FFT straight into the caller's `N`-point
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if the input is not
    /// `N + CP` samples or `out` is not `N` points.
    pub fn demodulate_into(&mut self, samples: &[C64], out: &mut [C64]) -> Result<(), FftError> {
        let n = self.engine.len();
        if samples.len() != n + self.cp {
            return Err(FftError::LengthMismatch { expected: n + self.cp, got: samples.len() });
        }
        self.engine.execute_into(&samples[self.cp..], out, Direction::Forward)
    }

    /// Single-tap zero-forcing equalisation: divides each subcarrier by
    /// the channel's frequency response (estimated from a known pilot
    /// symbol, as `rx_pilot[k] / tx_pilot[k]`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or any channel coefficient is zero.
    pub fn equalize(&self, bins: &[C64], channel: &[C64]) -> Vec<C64> {
        assert_eq!(bins.len(), channel.len(), "equalize: length mismatch");
        bins.iter()
            .zip(channel)
            .map(|(&y, &h)| {
                let d = h.norm_sqr();
                assert!(d > 0.0, "equalize: zero channel coefficient");
                // y / h = y * conj(h) / |h|^2
                y * h.conj() * (1.0 / d)
            })
            .collect()
    }
}

/// Applies a time-domain FIR channel (circular-free linear convolution,
/// truncated to the input length) — a multipath test channel for
/// receiver experiments.
pub fn apply_fir_channel(samples: &[C64], taps: &[C64]) -> Vec<C64> {
    let mut out = vec![Complex::zero(); samples.len()];
    for (i, o) in out.iter_mut().enumerate() {
        for (j, &h) in taps.iter().enumerate() {
            if i >= j {
                *o = *o + samples[i - j] * h;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> Vec<(bool, bool)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (rng.gen(), rng.gen())).collect()
    }

    #[test]
    fn clean_channel_roundtrip() {
        let mut ofdm = Ofdm::new(128, 32).unwrap();
        let bits = random_bits(128, 1);
        let tx = ofdm.modulate(&qpsk_map(&bits)).unwrap();
        let rx = ofdm.demodulate(&tx).unwrap();
        assert_eq!(qpsk_demap(&rx), bits);
    }

    #[test]
    fn multipath_within_cp_is_equalizable() {
        let mut ofdm = Ofdm::new(256, 64).unwrap();
        // A 3-tap channel shorter than the CP.
        let taps = vec![Complex::new(1.0, 0.0), Complex::new(0.4, -0.2), Complex::new(-0.1, 0.15)];
        // Channel estimation from a known pilot.
        let pilot_bits = random_bits(256, 2);
        let pilot = qpsk_map(&pilot_bits);
        let tx_pilot = ofdm.modulate(&pilot).unwrap();
        let rx_pilot = ofdm.demodulate(&apply_fir_channel(&tx_pilot, &taps)).unwrap();
        let channel: Vec<C64> = rx_pilot
            .iter()
            .zip(&pilot)
            .map(|(&y, &x)| y * x.conj() * (1.0 / x.norm_sqr()))
            .collect();
        // Data symbol through the same channel.
        let bits = random_bits(256, 3);
        let tx = ofdm.modulate(&qpsk_map(&bits)).unwrap();
        let rx = ofdm.demodulate(&apply_fir_channel(&tx, &taps)).unwrap();
        let eq = ofdm.equalize(&rx, &channel);
        assert_eq!(qpsk_demap(&eq), bits, "multipath must equalise cleanly");
    }

    #[test]
    fn cp_makes_delay_harmless() {
        // A pure 5-sample delay within the CP only rotates subcarriers;
        // QPSK survives after equalisation but raw demap of a delayed
        // frame (without eq) would fail — check the equalised path.
        let mut ofdm = Ofdm::new(128, 16).unwrap();
        let mut taps = vec![Complex::zero(); 6];
        taps[5] = Complex::new(1.0, 0.0);
        let pilot = qpsk_map(&random_bits(128, 4));
        let tx_pilot = ofdm.modulate(&pilot).unwrap();
        let rx_pilot = ofdm.demodulate(&apply_fir_channel(&tx_pilot, &taps)).unwrap();
        let channel: Vec<C64> = rx_pilot
            .iter()
            .zip(&pilot)
            .map(|(&y, &x)| y * x.conj() * (1.0 / x.norm_sqr()))
            .collect();
        let bits = random_bits(128, 5);
        let tx = ofdm.modulate(&qpsk_map(&bits)).unwrap();
        let rx = ofdm.demodulate(&apply_fir_channel(&tx, &taps)).unwrap();
        assert_eq!(qpsk_demap(&ofdm.equalize(&rx, &channel)), bits);
    }

    #[test]
    fn geometry_accessors_and_validation() {
        let mut ofdm = Ofdm::new(128, 32).unwrap();
        assert_eq!(ofdm.subcarriers(), 128);
        assert_eq!(ofdm.cyclic_prefix(), 32);
        assert_eq!(ofdm.symbol_len(), 160);
        assert!(Ofdm::new(128, 128).is_err());
        assert!(Ofdm::new(100, 10).is_err());
        assert!(ofdm.demodulate(&vec![Complex::zero(); 128]).is_err());
    }

    #[test]
    fn qpsk_map_demap_roundtrip() {
        let bits = random_bits(64, 6);
        let symbols = qpsk_map(&bits);
        for c in &symbols {
            assert!((c.abs() - 1.0).abs() < 1e-12, "QPSK symbols have unit energy");
        }
        assert_eq!(qpsk_demap(&symbols), bits);
    }

    #[test]
    fn planned_engine_backend_demodulates_like_the_default() {
        let mut registry = crate::engine::EngineRegistry::standard(128).unwrap();
        let mut ofdm = Ofdm::with_engine(registry.take("radix2_dit").unwrap(), 32).unwrap();
        assert_eq!(ofdm.engine().name(), "radix2_dit");
        assert_eq!(format!("{ofdm:?}"), "Ofdm { engine: \"radix2_dit\", n: 128, cp: 32 }");
        let bits = random_bits(128, 9);
        let tx = ofdm.modulate(&qpsk_map(&bits)).unwrap();
        let rx = ofdm.demodulate(&tx).unwrap();
        assert_eq!(qpsk_demap(&rx), bits);
        // CP validation holds for injected engines too.
        let mut registry = crate::engine::EngineRegistry::standard(128).unwrap();
        assert!(Ofdm::with_engine(registry.take("mcfft").unwrap(), 128).is_err());
    }
}
