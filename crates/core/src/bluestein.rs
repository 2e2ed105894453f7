//! Bluestein's chirp-Z FFT: **any** transform size `n >= 2` as one
//! cyclic convolution at the next power of two `>= 2n - 1`, computed by
//! the workspace's own SIMD radix-4 kernel at the host's dispatch level.
//!
//! The identity `km = (k² + m² - (k-m)²) / 2` rewrites the DFT as
//!
//! ```text
//! X[k] = w[k] · Σ_m (x[m]·w[m]) · conj(w[k-m]),   w[j] = W_{2n}^{j²}
//! ```
//!
//! i.e. a linear convolution of the *chirped* input `a[m] = x[m]·w[m]`
//! with the conjugate chirp `b[j] = conj(w[j])`, followed by one more
//! chirp multiply. Because `b` is only ever evaluated at lags
//! `-(n-1)..=n-1`, the linear convolution embeds exactly in a cyclic
//! convolution of any length `M >= 2n - 1`; choosing the next power of
//! two lets the engine run it as three `M`-point
//! [`Radix4SimdEngine`] FFTs — two at execute time (the kernel spectrum
//! is fixed at plan time), always power-of-two, so the recursion
//! trivially terminates regardless of how adversarial `n`'s
//! factorisation is.
//!
//! Plan-time state: the length-`n` chirp table (exact-angle twiddles:
//! `w[j]` is computed as `W_{2n}^{j² mod 2n}`, never by accumulating
//! phase, so the chirp does not decohere at large `n`), the forward and
//! inverse kernel spectra (`M` points each), and the two `M`-point
//! scratch arenas the convolution ping-pongs through — so
//! [`BluesteinEngine`] performs **zero heap allocation per transform**,
//! the same `execute_into` contract every other kernel in the crate
//! honours.

use crate::engine::{check_io, FftEngine};
use crate::error::FftError;
use crate::reference::Direction;
use crate::simd::Radix4SimdEngine;
use afft_num::{twiddle, Complex, C64};

/// Bluestein's chirp-Z FFT as an engine: **any** `n >= 2` through one
/// power-of-two cyclic convolution — the registry's universal fallback
/// that closes the size domain (primes, 5G NR DFT-s-OFDM sizes,
/// arbitrary user requests). It holds the chirp table, the kernel
/// spectra for both directions, the inner power-of-two engine and the
/// scratch arenas of the allocation-free execute path.
#[derive(Debug, Clone)]
pub struct BluesteinEngine {
    n: usize,
    /// Convolution length: the next power of two `>= 2n - 1`.
    m: usize,
    /// `chirp[j] = W_{2n}^{j²}` (the forward chirp; the inverse
    /// conjugates on the fly).
    chirp: Vec<C64>,
    /// `FFT_M` of the wrapped conjugate chirp — the fixed half of the
    /// convolution, per direction.
    kernel_fwd: Vec<C64>,
    kernel_inv: Vec<C64>,
    inner: Radix4SimdEngine,
    buf_a: Vec<C64>,
    buf_b: Vec<C64>,
}

/// The chirp `w[j] = W_{2n}^{j² mod 2n}` with the square reduced in
/// `u128`, so the exact twiddle angle survives any `n` that fits memory.
fn chirp_at(n: usize, j: usize) -> C64 {
    let two_n = 2 * n as u128;
    twiddle(2 * n, ((j as u128 * j as u128) % two_n) as usize)
}

impl BluesteinEngine {
    /// Plans a chirp-Z FFT of size `n` — any `n >= 2`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] for `n < 2`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        if n < 2 {
            return Err(FftError::InvalidSize { n, reason: "must be at least 2", factor: None });
        }
        let m = (2 * n - 1).next_power_of_two();
        let mut inner = Radix4SimdEngine::new(m)?;
        let chirp: Vec<C64> = (0..n).map(|j| chirp_at(n, j)).collect();

        // The convolution kernel, wrapped cyclically: b[j] = conj(w[j])
        // for lags 0..n, and the negative lags j in 1..n alias to M - j.
        let mut buf_a = vec![Complex::zero(); m];
        let buf_b = vec![Complex::zero(); m];
        let mut kernel_fwd = vec![Complex::zero(); m];
        let mut kernel_inv = vec![Complex::zero(); m];
        for (j, &w) in chirp.iter().enumerate() {
            buf_a[j] = w.conj();
            if j > 0 {
                buf_a[m - j] = w.conj();
            }
        }
        inner.execute_into(&buf_a, &mut kernel_fwd, Direction::Forward)?;
        // The inverse DFT is the same convolution under the conjugated
        // chirp; its kernel spectrum is precomputed too, so direction
        // switches cost nothing at execute time.
        for slot in buf_a.iter_mut() {
            *slot = slot.conj();
        }
        inner.execute_into(&buf_a, &mut kernel_inv, Direction::Forward)?;
        Ok(BluesteinEngine { n, m, chirp, kernel_fwd, kernel_inv, inner, buf_a, buf_b })
    }
}

impl FftEngine for BluesteinEngine {
    fn name(&self) -> &str {
        "bluestein"
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
        let n = self.n;
        check_io(n, input, output)?;
        let forward = dir == Direction::Forward;
        let kernel = if forward { &self.kernel_fwd } else { &self.kernel_inv };

        // Chirp the input into the convolution buffer and zero the
        // padding tail — the previous call's inverse pass dirtied the
        // whole arena, and a stale tail would alias into the
        // convolution result.
        for (slot, (&x, &w)) in self.buf_a.iter_mut().zip(input.iter().zip(&self.chirp)) {
            *slot = if forward { x * w } else { x * w.conj() };
        }
        for slot in self.buf_a[n..].iter_mut() {
            *slot = Complex::zero();
        }

        // Cyclic convolution by the convolution theorem: two power-of-two
        // radix-4 runs around one pointwise multiply. The inner inverse
        // is unnormalised (returns M times the convolution); the 1/M
        // fold rides the final chirp multiply below.
        self.inner.execute_into(&self.buf_a, &mut self.buf_b, Direction::Forward)?;
        for (slot, &k) in self.buf_b.iter_mut().zip(kernel) {
            *slot = *slot * k;
        }
        self.inner.execute_into(&self.buf_b, &mut self.buf_a, Direction::Inverse)?;

        let scale = 1.0 / self.m as f64;
        for (k, (slot, &w)) in output.iter_mut().zip(&self.chirp).enumerate() {
            let c = self.buf_a[k] * scale;
            *slot = if forward { c * w } else { c * w.conj() };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn matches_naive_at_prime_composite_and_power_of_two_sizes() {
        // Primes, non-5-smooth composites, a 5-smooth size, a power of
        // two: the chirp path must not care about the factorisation.
        for n in [2usize, 3, 7, 11, 17, 31, 97, 101, 64, 60, 77, 126, 251] {
            let x = random_signal(n, n as u64);
            let mut engine = BluesteinEngine::new(n).unwrap();
            let mut got = vec![Complex::zero(); n];
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = dft_naive(&x, dir).unwrap();
                let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
                engine.execute_into(&x, &mut got, dir).unwrap();
                let err = max_error(&got, &want) / peak;
                assert!(err < 1e-10, "n={n} {dir:?}: {err}");
            }
        }
    }

    #[test]
    fn round_trips_within_tolerance() {
        let n = 97;
        let x = random_signal(n, 5);
        let mut engine = BluesteinEngine::new(n).unwrap();
        let mut spec = vec![Complex::zero(); n];
        let mut back = vec![Complex::zero(); n];
        engine.execute_into(&x, &mut spec, Direction::Forward).unwrap();
        engine.execute_into(&spec, &mut back, Direction::Inverse).unwrap();
        let scaled: Vec<C64> = back.iter().map(|&v| v * (1.0 / n as f64)).collect();
        assert!(max_error(&scaled, &x) < 1e-10);
    }

    #[test]
    fn convolution_length_is_next_pow2_of_2n_minus_1() {
        for (n, m) in [(2usize, 4usize), (7, 16), (97, 256), (1009, 2048), (1344, 4096)] {
            assert_eq!(BluesteinEngine::new(n).unwrap().m, m, "n={n}");
        }
    }

    #[test]
    fn repeated_calls_reuse_a_clean_arena() {
        // The zero-padding contract: stale convolution state from one
        // call must never leak into the next (also across directions).
        let n = 31;
        let mut engine = BluesteinEngine::new(n).unwrap();
        let x = random_signal(n, 1);
        let y = random_signal(n, 2);
        let mut first = vec![Complex::zero(); n];
        let mut again = vec![Complex::zero(); n];
        engine.execute_into(&x, &mut first, Direction::Forward).unwrap();
        engine.execute_into(&y, &mut again, Direction::Inverse).unwrap();
        engine.execute_into(&x, &mut again, Direction::Forward).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn rejects_degenerate_sizes_and_length_mismatch() {
        assert!(matches!(BluesteinEngine::new(0), Err(FftError::InvalidSize { .. })));
        assert!(matches!(BluesteinEngine::new(1), Err(FftError::InvalidSize { .. })));
        let mut engine = BluesteinEngine::new(7).unwrap();
        let x = random_signal(7, 3);
        let mut short = vec![Complex::zero(); 6];
        assert!(matches!(
            engine.execute_into(&x, &mut short, Direction::Forward),
            Err(FftError::LengthMismatch { expected: 7, got: 6 })
        ));
        let mut ok = vec![Complex::zero(); 7];
        assert!(matches!(
            engine.execute_into(&x[..6], &mut ok, Direction::Forward),
            Err(FftError::LengthMismatch { expected: 7, got: 6 })
        ));
    }

    #[test]
    fn chirp_angles_are_exact_at_large_indices() {
        // j² overflows naive usize arithmetic well below interesting
        // sizes on 32-bit hosts; the u128 reduction keeps the angle
        // exact. Spot-check against the mathematical definition.
        let n = 1009;
        for j in [0usize, 1, 500, 1008] {
            let theta = -std::f64::consts::PI * ((j * j) % (2 * n)) as f64 / n as f64;
            let want = Complex::new(theta.cos(), theta.sin());
            assert!(chirp_at(n, j).dist(want) < 1e-12, "j={j}");
        }
    }
}
