//! Real-input FFT over the array structure.
//!
//! OFDM baseband samples are complex, but many front-end tasks
//! (channel sounding, spectral monitoring) transform *real* sample
//! streams. The classic trick computes a `2N`-point real FFT with one
//! `N`-point complex FFT: pack even samples into the real part and odd
//! samples into the imaginary part, transform, then unscramble with a
//! conjugate-symmetric post-butterfly. On the ASIP this halves both
//! cycles and CRF pressure; here it is implemented over the golden
//! model as a library extension.

use crate::array::ArrayFft;
use crate::error::FftError;
use crate::reference::Direction;
use afft_num::{twiddle, Complex, C64};

/// A planned real-input FFT of size `2N` (even, `N >= 64`).
///
/// # Examples
///
/// ```
/// use afft_core::realfft::RealFft;
///
/// let fft = RealFft::new(256)?;
/// let x: Vec<f64> = (0..256).map(|m| (m as f64 * 0.1).sin()).collect();
/// let spectrum = fft.process(&x)?;
/// assert_eq!(spectrum.len(), 129); // bins 0..=N
/// # Ok::<(), afft_core::FftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    inner: ArrayFft<f64>,
    len: usize,
}

impl RealFft {
    /// Plans a real FFT of `len` points (`len = 2N`, `N` a supported
    /// complex size).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `len/2` is a valid
    /// array-FFT size (power of two `>= 64`).
    pub fn new(len: usize) -> Result<Self, FftError> {
        if !len.is_multiple_of(2) {
            return Err(FftError::InvalidSize {
                n: len,
                reason: "real FFT length must be even",
                factor: None,
            });
        }
        Ok(RealFft { inner: ArrayFft::new(len / 2)?, len })
    }

    /// Transform size (`2N`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Real FFTs are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transforms a real signal, returning the `N+1` unique bins
    /// `X[0] ..= X[N]` (the rest follow from conjugate symmetry:
    /// `X[2N-k] = conj(X[k])`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != len`.
    pub fn process(&self, input: &[f64]) -> Result<Vec<C64>, FftError> {
        if input.len() != self.len {
            return Err(FftError::LengthMismatch { expected: self.len, got: input.len() });
        }
        let n = self.len / 2;
        // Pack even/odd samples into one complex vector.
        let packed: Vec<C64> =
            (0..n).map(|m| Complex::new(input[2 * m], input[2 * m + 1])).collect();
        let z = self.inner.process(&packed, Direction::Forward)?;
        let mut out = vec![Complex::zero(); n + 1];
        unscramble(&z, &mut out);
        Ok(out)
    }

    /// Expands the unique bins into the full `2N`-point spectrum using
    /// conjugate symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `bins.len() != len/2 + 1`.
    pub fn expand_full(&self, bins: &[C64]) -> Vec<C64> {
        let n = self.len / 2;
        assert_eq!(bins.len(), n + 1, "expand_full: need N+1 unique bins");
        let mut full = vec![Complex::zero(); self.len];
        full[..=n].copy_from_slice(bins);
        for k in 1..n {
            full[2 * n - k] = bins[k].conj();
        }
        full
    }
}

/// The conjugate-symmetric post-butterfly: `X[k] = E[k] + W_{2N}^k
/// O[k]`, where `E[k] = (Z[k] + conj(Z[N-k]))/2` and `O[k] = -i(Z[k] -
/// conj(Z[N-k]))/2`, for the `N+1` unique bins.
fn unscramble(z: &[C64], out: &mut [C64]) {
    let n = z.len();
    for (k, slot) in out.iter_mut().enumerate() {
        let zk = if k == n { z[0] } else { z[k] };
        let zc = if k == 0 { z[0].conj() } else { z[n - k].conj() };
        let e = (zk + zc) * 0.5;
        let o = (zk - zc).mul_neg_i() * 0.5;
        *slot = e + o * twiddle(2 * n, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_real(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn matches_complex_dft_of_real_signal() {
        for len in [128usize, 256, 2048] {
            let x = random_real(len, len as u64);
            let fft = RealFft::new(len).unwrap();
            let bins = fft.process(&x).unwrap();
            let full = fft.expand_full(&bins);
            let complex_in: Vec<C64> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let want = dft_naive(&complex_in, Direction::Forward).unwrap();
            assert!(max_error(&full, &want) < 1e-7 * len as f64, "len={len}");
        }
    }

    #[test]
    fn real_cosine_peaks_at_its_bin() {
        let len = 256;
        let tone = 12;
        let x: Vec<f64> = (0..len)
            .map(|m| (2.0 * std::f64::consts::PI * tone as f64 * m as f64 / len as f64).cos())
            .collect();
        let fft = RealFft::new(len).unwrap();
        let bins = fft.process(&x).unwrap();
        for (k, bin) in bins.iter().enumerate() {
            let expect = if k == tone { len as f64 / 2.0 } else { 0.0 };
            assert!((bin.abs() - expect).abs() < 1e-8, "bin {k}");
        }
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let len = 128;
        let x = random_real(len, 3);
        let fft = RealFft::new(len).unwrap();
        let bins = fft.process(&x).unwrap();
        assert!(bins[0].im.abs() < 1e-9, "DC must be real");
        assert!(bins[len / 2].im.abs() < 1e-9, "Nyquist must be real");
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(RealFft::new(127).is_err());
        assert!(RealFft::new(64).is_err()); // N = 32 below array minimum
        let fft = RealFft::new(128).unwrap();
        assert!(fft.process(&vec![0.0; 64]).is_err());
        assert_eq!(fft.len(), 128);
        assert!(!fft.is_empty());
    }
}
