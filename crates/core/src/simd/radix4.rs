//! The SIMD radix-4 DIT engine: interleaved `C64` at the trait
//! boundary, split real/imag planes inside.
//!
//! The plan owns everything the hot path needs — the base-4
//! digit-reversal gather order, per-stage twiddle tables in split
//! (structure-of-arrays) form, and the two scratch planes — so
//! `execute_into` does zero heap work per transform. The first stage
//! (`len = 4`, all twiddles 1) is fused into the deinterleaving
//! gather; every later stage runs 4 (AVX2) or 2 (NEON) butterflies per
//! iteration, falling back to the scalar split-plane kernel when no
//! vector unit is active.
//!
//! Every power of two is served by the same stages. At odd `log₂ n`
//! the gather puts the even samples in the first half of the planes
//! and the odd samples in the second half, each half in its own
//! base-4 digit-reversed order; the radix-4 stages then run over both
//! halves unchanged, and one portable radix-2 pass with `W_n^j`
//! twiddles, fused into the interleave, finishes the transform.

use crate::engine::{check_io, FftEngine};
use crate::error::FftError;
use crate::radix4::digit_reverse_base4;
use crate::reference::Direction;
use crate::simd::kernels::{self, R4Twiddles};
use crate::simd::SimdLevel;
use afft_num::{twiddle, C64};

/// Radix-4 DIT FFT over split-plane scratch with vectorized stages
/// (every power of two `>= 4`). Registered as `radix4_simd` on powers
/// of two `>= 16` when the host exposes a vector unit; see the
/// [module docs](crate::simd) for the dispatch and layout story.
#[derive(Debug, Clone)]
pub struct Radix4SimdEngine {
    n: usize,
    level: SimdLevel,
    /// The gather order: slot `h·q + i` of the planes takes sample
    /// `s·rev4(i) + h`, where `q` is the radix-4 length (`n`, or `n/2`
    /// at odd `log₂ n`), `s = n / q` and `rev4` is base-4 digit
    /// reversal.
    rev: Vec<usize>,
    /// Per stage (size 16, 64, ..., q) split twiddle tables; the
    /// `len = 4` stage is twiddle-free and fused into the gather.
    stages: Vec<R4Twiddles>,
    /// `W_n^j` for `j in 0..n/2` at odd `log₂ n` (the closing radix-2
    /// pass); empty at powers of four.
    radix2: Vec<C64>,
    /// Engine-owned split scratch planes (the FFTW plan idiom).
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Radix4SimdEngine {
    /// Plans a SIMD radix-4 FFT of size `n` (a power of two, `>= 4`) at
    /// the host's [`active_level`](crate::simd::active_level).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Self::with_level(n, crate::simd::active_level())
    }

    /// Plans at an explicit dispatch level — the A/B hook the
    /// equivalence tests and benches use. The level is clamped to what
    /// the host supports ([`SimdLevel::clamp_to_host`]), so a forced
    /// vector level on a host without the feature soundly degrades to
    /// the scalar split-plane path.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `n` is a power of two
    /// `>= 4`.
    pub fn with_level(n: usize, level: SimdLevel) -> Result<Self, FftError> {
        if !n.is_power_of_two() || n < 4 {
            return Err(FftError::InvalidSize {
                n,
                reason: "not a power of two >= 4",
                factor: None,
            });
        }
        let odd = n.trailing_zeros() % 2 == 1;
        let q = if odd { n / 2 } else { n };
        let digits = q.trailing_zeros() / 2;
        let rev = (0..n).map(|i| n / q * digit_reverse_base4(i % q, digits) + i / q).collect();
        let mut stages = Vec::new();
        let mut len = 16usize;
        while len <= q {
            stages.push(R4Twiddles::for_stage(len));
            len *= 4;
        }
        let radix2 = if odd { (0..n / 2).map(|j| twiddle(n, j)).collect() } else { Vec::new() };
        Ok(Radix4SimdEngine {
            n,
            level: level.clamp_to_host(),
            rev,
            stages,
            radix2,
            re: vec![0.0; n],
            im: vec![0.0; n],
        })
    }

    /// The dispatch level the plan executes at (post-clamp).
    pub fn level(&self) -> SimdLevel {
        self.level
    }
}

impl FftEngine for Radix4SimdEngine {
    fn name(&self) -> &str {
        "radix4_simd"
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
        let forward = dir == Direction::Forward;
        let sign = if forward { 1.0 } else { -1.0 };
        // Deinterleave, gather and the twiddle-free first stage in one
        // pass: each group of 4 digit-reversed points becomes a 4-point
        // DFT written straight into the split planes.
        for g in (0..self.n).step_by(4) {
            let a = input[self.rev[g]];
            let b = input[self.rev[g + 1]];
            let c = input[self.rev[g + 2]];
            let e = input[self.rev[g + 3]];
            let t0 = a + c;
            let t1 = a - c;
            let t2 = b + e;
            let t3 = b - e;
            let r = if forward { t3.mul_neg_i() } else { t3.mul_i() };
            let (o0, o1, o2, o3) = (t0 + t2, t1 + r, t0 - t2, t1 - r);
            self.re[g] = o0.re;
            self.im[g] = o0.im;
            self.re[g + 1] = o1.re;
            self.im[g + 1] = o1.im;
            self.re[g + 2] = o2.re;
            self.im[g + 2] = o2.im;
            self.re[g + 3] = o3.re;
            self.im[g + 3] = o3.im;
        }
        let mut len = 16usize;
        for tw in &self.stages {
            match self.level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: level == Avx2Fma only after clamp_to_host
                // confirmed the host detects avx2 + fma; plane lengths
                // and `len / 4 % 4 == 0` hold by construction.
                SimdLevel::Avx2Fma => unsafe {
                    crate::simd::x86::radix4_stage_avx2(
                        &mut self.re,
                        &mut self.im,
                        tw,
                        len,
                        forward,
                    );
                },
                #[cfg(target_arch = "aarch64")]
                // SAFETY: level == Neon only after clamp_to_host
                // confirmed the host detects neon; plane lengths and
                // `len / 4 % 2 == 0` hold by construction.
                SimdLevel::Neon => unsafe {
                    crate::simd::neon::radix4_stage_neon(
                        &mut self.re,
                        &mut self.im,
                        tw,
                        len,
                        forward,
                    );
                },
                _ => kernels::radix4_stage_scalar(&mut self.re, &mut self.im, tw, len, sign),
            }
            len *= 4;
        }
        if self.radix2.is_empty() {
            kernels::interleave(&self.re, &self.im, output);
        } else {
            kernels::radix2_interleave(&self.re, &self.im, &self.radix2, sign, output);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dft_naive, max_error};
    use afft_num::Complex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn matches_naive_at_every_level_and_direction() {
        // Every power of two the plan takes, odd log2 n included.
        for n in (2..=12).map(|k| 1usize << k) {
            let x = random_signal(n, 31 + n as u64);
            let mut got = vec![Complex::zero(); n];
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = dft_naive(&x, dir).unwrap();
                let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
                for level in [SimdLevel::Scalar, crate::simd::detect_host()] {
                    let mut engine = Radix4SimdEngine::with_level(n, level).unwrap();
                    engine.execute_into(&x, &mut got, dir).unwrap();
                    assert!(max_error(&got, &want) / peak < 1e-12, "n={n} level={level:?} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn round_trip_recovers_input() {
        let n = 256;
        let mut engine = Radix4SimdEngine::new(n).unwrap();
        let x = random_signal(n, 7);
        let mut spec = vec![Complex::zero(); n];
        let mut back = vec![Complex::zero(); n];
        engine.execute_into(&x, &mut spec, Direction::Forward).unwrap();
        engine.execute_into(&spec, &mut back, Direction::Inverse).unwrap();
        let scaled: Vec<C64> = back.iter().map(|&v| v * (1.0 / n as f64)).collect();
        assert!(max_error(&scaled, &x) < 1e-10);
    }

    #[test]
    fn rejects_unsupported_sizes() {
        // Below the 4-point gather, and anything not a power of two.
        for n in [0usize, 1, 2, 3, 6, 12, 48, 96, 1000] {
            assert!(matches!(Radix4SimdEngine::new(n), Err(FftError::InvalidSize { .. })), "{n}");
        }
    }

    #[test]
    fn length_mismatch_is_reported() {
        let mut engine = Radix4SimdEngine::new(16).unwrap();
        let x = random_signal(16, 1);
        let mut short = vec![Complex::zero(); 8];
        assert!(matches!(
            engine.execute_into(&x, &mut short, Direction::Forward),
            Err(FftError::LengthMismatch { expected: 16, got: 8 })
        ));
    }

    #[test]
    fn forced_level_is_clamped_to_the_host() {
        // Whichever of these the host can't run must degrade to scalar.
        for level in [SimdLevel::Avx2Fma, SimdLevel::Neon] {
            let engine = Radix4SimdEngine::with_level(64, level).unwrap();
            assert!(
                engine.level() == SimdLevel::Scalar || engine.level() == crate::simd::detect_host()
            );
        }
    }
}
