//! General mixed-radix Cooley-Tukey FFT over radix {2, 3, 4, 5}
//! stages: the engine that serves the composite transform sizes real
//! OFDM traffic demands (LTE-1536, LTE-1200, the 60- and 120-point
//! control formats) which no power-of-two kernel can touch.
//!
//! [`factorize`] decomposes `N` into a stage list drawn from
//! `{4, 2, 3, 5}` (largest power-of-two radix first, then the odd
//! primes); any `N` whose prime factors exceed 5 is reported
//! unsupported rather than silently mishandled. Each recursion level
//! decimates by its stage radix `r`, transforms the `r` sub-sequences,
//! applies one plan-time twiddle table (`W_{n_level}^{i·s}`), and
//! combines with a hardcoded `r`-point butterfly (the radix-3 and
//! radix-5 butterflies use the classic constant-rotation forms; radix-4
//! uses only `±i` rotations). Execution reads the input through an
//! `(offset, stride)` view and works in an engine-owned `2N` scratch
//! arena: zero heap allocation per transform.

use crate::engine::{check_io, FftEngine};
use crate::error::FftError;
use crate::reference::Direction;
use afft_num::{twiddle, Complex, C64};

/// cos(2π/3) imaginary companion: sin(2π/3) = √3/2.
const SIN_2PI_3: f64 = 0.866_025_403_784_438_6;
/// cos(2π/5) and cos(4π/5).
const COS_2PI_5: f64 = 0.309_016_994_374_947_45;
const COS_4PI_5: f64 = -0.809_016_994_374_947_4;
/// sin(2π/5) and sin(4π/5).
const SIN_2PI_5: f64 = 0.951_056_516_295_153_5;
const SIN_4PI_5: f64 = 0.587_785_252_292_473_1;

/// Factorises `n` into a mixed-radix stage list over `{4, 2, 3, 5}`
/// (4s first, then at most one 2, then 3s, then 5s), or `None` when a
/// prime factor beyond 5 makes `n` unsupported. `n < 2` is `None`.
pub fn factorize(n: usize) -> Option<Vec<usize>> {
    if n < 2 {
        return None;
    }
    let mut rest = n;
    let mut radices = Vec::new();
    while rest.is_multiple_of(4) {
        radices.push(4);
        rest /= 4;
    }
    if rest.is_multiple_of(2) {
        radices.push(2);
        rest /= 2;
    }
    while rest.is_multiple_of(3) {
        radices.push(3);
        rest /= 3;
    }
    while rest.is_multiple_of(5) {
        radices.push(5);
        rest /= 5;
    }
    if rest != 1 {
        return None;
    }
    Some(radices)
}

/// The smallest prime factor of `n` beyond 5 — the factor that makes
/// `n` unsupported here, named in the [`FftError::InvalidSize`] the
/// planner returns so "why exactly was 14 refused?" is answerable from
/// the message alone. `None` when `n` is 5-smooth or `n < 2`.
pub fn smallest_rough_factor(n: usize) -> Option<usize> {
    let mut rest = n;
    for p in [2usize, 3, 5] {
        while rest > 1 && rest.is_multiple_of(p) {
            rest /= p;
        }
    }
    if rest <= 1 {
        return None;
    }
    let mut candidate = 7usize;
    while candidate * candidate <= rest {
        if rest.is_multiple_of(candidate) {
            return Some(candidate);
        }
        candidate += 2;
    }
    Some(rest)
}

/// One recursion level of the plan: the sub-transform size at this
/// depth, its stage radix, and the inter-stage twiddle table.
#[derive(Debug, Clone)]
struct Level {
    /// Transform size at this level (`radix * m`).
    size: usize,
    /// The stage radix `r ∈ {2, 3, 4, 5}`.
    radix: usize,
    /// `tw[(i-1)*m + s] = W_size^{i*s}` for `i in 1..radix`,
    /// `s in 0..m` — forward; the inverse conjugates on the fly.
    tw: Vec<C64>,
}

/// The general mixed-radix FFT as an engine: any `n >= 2` with prime
/// factors in {2, 3, 5} — the only registry backend that serves
/// composite OFDM sizes like 60, 1200 and 1536. It holds the per-level
/// stage structure with twiddle tables and the recursion scratch arena.
#[derive(Debug, Clone)]
pub struct MixedRadixEngine {
    n: usize,
    levels: Vec<Level>,
    scratch: Vec<C64>,
}

impl MixedRadixEngine {
    /// Plans a mixed-radix FFT of size `n` (`n >= 2` with prime factors
    /// in {2, 3, 5}).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        let radices = factorize(n).ok_or(FftError::InvalidSize {
            n,
            reason: "prime factors beyond {2, 3, 5}",
            factor: smallest_rough_factor(n),
        })?;
        let mut levels = Vec::with_capacity(radices.len());
        let mut size = n;
        for &radix in &radices {
            let m = size / radix;
            let mut tw = Vec::with_capacity((radix - 1) * m);
            for i in 1..radix {
                for s in 0..m {
                    tw.push(twiddle(size, i * s % size));
                }
            }
            levels.push(Level { size, radix, tw });
            size = m;
        }
        Ok(MixedRadixEngine { n, levels, scratch: vec![Complex::zero(); 2 * n] })
    }
}

impl FftEngine for MixedRadixEngine {
    fn name(&self) -> &str {
        "mixed_radix"
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
        rec(&self.levels, input, 0, 1, output, &mut self.scratch, dir == Direction::Forward);
        Ok(())
    }
}

/// One recursion level: the DFT of `x[offset + stride*t]` for
/// `t in 0..levels[0].size`, written to `out`.
fn rec(
    levels: &[Level],
    input: &[C64],
    offset: usize,
    stride: usize,
    out: &mut [C64],
    scratch: &mut [C64],
    forward: bool,
) {
    let level = &levels[0];
    let r = level.radix;
    let m = level.size / r;
    if m == 1 {
        // Leaf: one bare r-point DFT straight off the strided input.
        let mut y = [Complex::zero(); 5];
        for (i, slot) in y[..r].iter_mut().enumerate() {
            *slot = input[offset + stride * i];
        }
        butterfly(&y, out, m, 0, r, forward);
        return;
    }
    let (cur, rest) = scratch.split_at_mut(level.size);
    for i in 0..r {
        rec(
            &levels[1..],
            input,
            offset + stride * i,
            stride * r,
            &mut cur[i * m..(i + 1) * m],
            rest,
            forward,
        );
    }
    // Combine: for each output column s, twiddle the r sub-spectra and
    // run the r-point butterfly across them, scattering to s + q*m.
    let mut y = [Complex::zero(); 5];
    for s in 0..m {
        y[0] = cur[s];
        for i in 1..r {
            let w = level.tw[(i - 1) * m + s];
            let w = if forward { w } else { w.conj() };
            y[i] = cur[i * m + s] * w;
        }
        butterfly(&y, out, m, s, r, forward);
    }
}

/// The hardcoded `r`-point DFT across `y[..r]`, scattered to
/// `out[s + q*m]` for `q in 0..r`.
#[inline]
fn butterfly(y: &[C64; 5], out: &mut [C64], m: usize, s: usize, r: usize, forward: bool) {
    match r {
        2 => {
            out[s] = y[0] + y[1];
            out[s + m] = y[0] - y[1];
        }
        3 => {
            // X1/X2 = (y0 - t1/2) ∓ i·(√3/2)(y1 - y2).
            let t1 = y[1] + y[2];
            let t2 = y[0] - t1 * 0.5;
            let t3 = (y[1] - y[2]) * SIN_2PI_3;
            let rot = if forward { t3.mul_neg_i() } else { t3.mul_i() };
            out[s] = y[0] + t1;
            out[s + m] = t2 + rot;
            out[s + 2 * m] = t2 - rot;
        }
        4 => {
            let t0 = y[0] + y[2];
            let t1 = y[0] - y[2];
            let t2 = y[1] + y[3];
            let t3 = y[1] - y[3];
            let t3r = if forward { t3.mul_neg_i() } else { t3.mul_i() };
            out[s] = t0 + t2;
            out[s + m] = t1 + t3r;
            out[s + 2 * m] = t0 - t2;
            out[s + 3 * m] = t1 - t3r;
        }
        5 => {
            // Classic constant-rotation radix-5 (cos/sin of 2π/5, 4π/5).
            let t1 = y[1] + y[4];
            let t2 = y[2] + y[3];
            let t3 = y[1] - y[4];
            let t4 = y[2] - y[3];
            let ma = y[0] + t1 * COS_2PI_5 + t2 * COS_4PI_5;
            let mb = y[0] + t1 * COS_4PI_5 + t2 * COS_2PI_5;
            let sa = t3 * SIN_2PI_5 + t4 * SIN_4PI_5;
            let sb = t3 * SIN_4PI_5 - t4 * SIN_2PI_5;
            let (ra, rb) =
                if forward { (sa.mul_neg_i(), sb.mul_neg_i()) } else { (sa.mul_i(), sb.mul_i()) };
            out[s] = y[0] + t1 + t2;
            out[s + m] = ma + ra;
            out[s + 2 * m] = mb + rb;
            out[s + 3 * m] = mb - rb;
            out[s + 4 * m] = ma - ra;
        }
        _ => unreachable!("radix {r} outside {{2, 3, 4, 5}}"),
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
    fn factorization_covers_five_smooth_sizes() {
        assert_eq!(factorize(60), Some(vec![4, 3, 5]));
        assert_eq!(factorize(1536), Some(vec![4, 4, 4, 4, 2, 3]));
        assert_eq!(factorize(1200), Some(vec![4, 4, 3, 5, 5]));
        assert_eq!(factorize(243), Some(vec![3, 3, 3, 3, 3]));
        assert_eq!(factorize(2), Some(vec![2]));
        assert_eq!(factorize(5), Some(vec![5]));
        for n in [0usize, 1, 7, 14, 77, 1234] {
            assert_eq!(factorize(n), None, "{n}");
        }
        // Every stage list multiplies back to n.
        for n in 2..2000usize {
            if let Some(radices) = factorize(n) {
                assert_eq!(radices.iter().product::<usize>(), n);
                assert!(radices.iter().all(|r| [2, 3, 4, 5].contains(r)));
            }
        }
    }

    #[test]
    fn matches_naive_on_composite_sizes_both_directions() {
        for n in [2usize, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60, 120, 243, 600] {
            let mut engine = MixedRadixEngine::new(n).unwrap();
            let x = random_signal(n, 31 + n as u64);
            let mut got = vec![Complex::zero(); n];
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = dft_naive(&x, dir).unwrap();
                engine.execute_into(&x, &mut got, dir).unwrap();
                let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
                assert!(max_error(&got, &want) / peak < 1e-11, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn matches_naive_on_power_of_two_sizes() {
        for n in [8usize, 64, 256] {
            let mut engine = MixedRadixEngine::new(n).unwrap();
            let x = random_signal(n, 7 + n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let mut got = vec![Complex::zero(); n];
            engine.execute_into(&x, &mut got, Direction::Forward).unwrap();
            let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
            assert!(max_error(&got, &want) / peak < 1e-12, "n={n}");
        }
    }

    #[test]
    fn acceptance_sizes_match_naive() {
        // The PR's acceptance list verbatim: every OFDM-relevant
        // composite size against the golden reference (forward; both
        // directions are covered for the smaller sizes above and by
        // the round-trip test below).
        for n in [60usize, 120, 600, 1200, 1536] {
            let mut engine = MixedRadixEngine::new(n).unwrap();
            let x = random_signal(n, 97 + n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let mut got = vec![Complex::zero(); n];
            engine.execute_into(&x, &mut got, Direction::Forward).unwrap();
            let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
            assert!(max_error(&got, &want) / peak < 1e-11, "n={n}");
        }
    }

    #[test]
    fn round_trip_recovers_input_at_lte_sizes() {
        for n in [60usize, 1200, 1536] {
            let mut engine = MixedRadixEngine::new(n).unwrap();
            let x = random_signal(n, n as u64);
            let mut spec = vec![Complex::zero(); n];
            let mut back = vec![Complex::zero(); n];
            engine.execute_into(&x, &mut spec, Direction::Forward).unwrap();
            engine.execute_into(&spec, &mut back, Direction::Inverse).unwrap();
            let scaled: Vec<C64> = back.iter().map(|&v| v * (1.0 / n as f64)).collect();
            assert!(max_error(&scaled, &x) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn rejects_unsupported_sizes() {
        for n in [0usize, 1, 7, 14, 49, 77] {
            assert!(matches!(MixedRadixEngine::new(n), Err(FftError::InvalidSize { .. })), "{n}");
        }
    }

    /// Regression: the rejection must name the offending prime factor,
    /// not just the size — `n = 14` is refused *because of the 7*.
    #[test]
    fn rejection_names_the_offending_prime_factor() {
        for (n, factor) in
            [(14usize, 7usize), (49, 7), (77, 7), (1022, 7), (1009, 1009), (2026, 1013)]
        {
            let err = MixedRadixEngine::new(n).unwrap_err();
            assert!(
                matches!(err, FftError::InvalidSize { factor: Some(f), .. } if f == factor),
                "n={n}: {err:?}"
            );
            assert!(
                err.to_string().contains(&format!("offending prime factor {factor}")),
                "n={n}: {err}"
            );
        }
        // Structural rejections carry no factor.
        for n in [0usize, 1] {
            let err = MixedRadixEngine::new(n).unwrap_err();
            assert!(matches!(err, FftError::InvalidSize { factor: None, .. }), "n={n}: {err:?}");
        }
    }

    #[test]
    fn smallest_rough_factor_finds_the_first_prime_beyond_five() {
        assert_eq!(smallest_rough_factor(14), Some(7));
        assert_eq!(smallest_rough_factor(1344), Some(7)); // 2^6 * 3 * 7
        assert_eq!(smallest_rough_factor(121), Some(11));
        assert_eq!(smallest_rough_factor(1200), None);
        assert_eq!(smallest_rough_factor(1), None);
        assert_eq!(smallest_rough_factor(97), Some(97));
    }

    #[test]
    fn length_mismatch_is_reported() {
        let mut engine = MixedRadixEngine::new(60).unwrap();
        let x = random_signal(60, 1);
        let mut short = vec![Complex::zero(); 30];
        assert!(matches!(
            engine.execute_into(&x, &mut short, Direction::Forward),
            Err(FftError::LengthMismatch { expected: 60, got: 30 })
        ));
    }
}
