//! Reference transforms: the naive DFT and the classic radix-2
//! Cooley-Tukey FFT (both decimations).
//!
//! These serve three purposes:
//!
//! 1. **Golden results** — every other transform in the workspace is
//!    checked against [`dft_naive`].
//! 2. **The paper's Imple 1 baseline** — the "standard software FFT" run
//!    on the base core is this radix-2 algorithm; the ASIP program
//!    generator mirrors [`fft_radix2_dit_f64`] loop-for-loop.
//! 3. **Prior-art structure** — the in-place DIF stage ([`dif_stage`])
//!    is the mathematical object the array structure re-wires; exposing
//!    it lets the address-algebra tests compare stage by stage.

use crate::bits::bit_reverse;
use crate::error::FftError;
use afft_num::{twiddle, Complex, C64};

/// Direction of a transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Forward DFT (`W_N = exp(-2*pi*i/N)`).
    #[default]
    Forward,
    /// Inverse DFT without the `1/N` normalisation (caller scales).
    Inverse,
}

impl Direction {
    /// Twiddle for this direction: conjugated for the inverse transform.
    pub fn twiddle(self, n: usize, k: usize) -> C64 {
        let w = twiddle(n, k);
        match self {
            Direction::Forward => w,
            Direction::Inverse => w.conj(),
        }
    }
}

/// Naive `O(N^2)` DFT. The golden reference for every test in the
/// workspace.
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] if `input` is empty.
///
/// # Examples
///
/// ```
/// use afft_core::reference::{dft_naive, Direction};
/// use afft_num::Complex;
///
/// let x = vec![Complex::new(1.0, 0.0); 4];
/// let y = dft_naive(&x, Direction::Forward)?;
/// assert!((y[0].re - 4.0).abs() < 1e-12); // DC bin
/// assert!(y[1].abs() < 1e-12);
/// # Ok::<(), afft_core::FftError>(())
/// ```
pub fn dft_naive(input: &[C64], dir: Direction) -> Result<Vec<C64>, FftError> {
    let mut out = vec![Complex::zero(); input.len()];
    dft_naive_into(input, &mut out, dir)?;
    Ok(out)
}

/// Naive `O(N^2)` DFT written into a caller-provided buffer — the
/// allocation-free primitive behind [`dft_naive`].
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] if `input` is empty, or
/// [`FftError::LengthMismatch`] if `output.len() != input.len()`.
pub fn dft_naive_into(input: &[C64], output: &mut [C64], dir: Direction) -> Result<(), FftError> {
    let n = input.len();
    if n == 0 {
        return Err(FftError::InvalidSize { n, reason: "empty input", factor: None });
    }
    if output.len() != n {
        return Err(FftError::LengthMismatch { expected: n, got: output.len() });
    }
    for (k, out) in output.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (m, &x) in input.iter().enumerate() {
            acc = acc + x * dir.twiddle(n, (k * m) % n);
        }
        *out = acc;
    }
    Ok(())
}

/// Permutes `data` into bit-reversed order in place.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute<T: Copy>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "bit_reverse_permute: len {n} not a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            data.swap(i, j);
        }
    }
}

/// In-place radix-2 decimation-in-time FFT over `f64`, natural-order
/// input and output (a bit-reversal permutation runs first).
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] unless the length is a power of two
/// and at least 2.
pub fn fft_radix2_dit_f64(data: &mut [C64], dir: Direction) -> Result<(), FftError> {
    let n = data.len();
    check_pow2(n)?;
    bit_reverse_permute(data);
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = dir.twiddle(len, k);
                let a = data[start + k];
                let b = data[start + k + half] * w;
                data[start + k] = a + b;
                data[start + k + half] = a - b;
            }
        }
        len *= 2;
    }
    Ok(())
}

/// In-place radix-2 decimation-in-frequency FFT over `f64`:
/// natural-order input, **bit-reversed output** (call
/// [`bit_reverse_permute`] afterwards for natural order).
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] unless the length is a power of two
/// and at least 2.
pub fn fft_radix2_dif_f64(data: &mut [C64], dir: Direction) -> Result<(), FftError> {
    let n = data.len();
    check_pow2(n)?;
    let stages = n.trailing_zeros();
    for j in 1..=stages {
        dif_stage(data, j, dir);
    }
    Ok(())
}

/// Executes DIF stage `j` (1-indexed) in place on the whole array.
///
/// Stage `j` pairs elements at distance `2^(p-j)` where `p = log2 N`, and
/// applies the twiddle `W_N^((a mod 2^(p-j)) * 2^(j-1))` on the difference
/// path. This is the `B_j` operator of the paper's Fig. 3.
///
/// # Panics
///
/// Panics if the length is not a power of two or `j` is out of
/// `1..=log2(N)`.
pub fn dif_stage(data: &mut [C64], j: u32, dir: Direction) {
    let n = data.len();
    assert!(n.is_power_of_two(), "dif_stage: len {n} not a power of two");
    let p = n.trailing_zeros();
    assert!(j >= 1 && j <= p, "dif_stage: stage {j} out of 1..={p}");
    let dist = 1usize << (p - j);
    let block = dist * 2;
    for start in (0..n).step_by(block) {
        for a in start..start + dist {
            let e = (a % dist) << (j - 1);
            let w = dir.twiddle(n, e);
            let x0 = data[a];
            let x1 = data[a + dist];
            data[a] = x0 + x1;
            data[a + dist] = (x0 - x1) * w;
        }
    }
}

pub(crate) fn check_pow2(n: usize) -> Result<(), FftError> {
    if !n.is_power_of_two() {
        return Err(FftError::InvalidSize { n, reason: "not a power of two", factor: None });
    }
    if n < 2 {
        return Err(FftError::InvalidSize { n, reason: "must be at least 2", factor: None });
    }
    Ok(())
}

/// Maximum absolute element-wise deviation between two complex vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_error(a: &[C64], b: &[C64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_error: length mismatch");
    a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Complex::zero(); 8];
        x[0] = Complex::new(1.0, 0.0);
        let y = dft_naive(&x, Direction::Forward).unwrap();
        for bin in y {
            assert!(bin.dist(Complex::new(1.0, 0.0)) < 1e-12);
        }
    }

    #[test]
    fn dft_of_single_tone_peaks_at_bin() {
        let n = 16;
        let tone = 3;
        let x: Vec<C64> = (0..n).map(|m| twiddle(n, (tone * m) % n).conj()).collect();
        let y = dft_naive(&x, Direction::Forward).unwrap();
        for (k, bin) in y.iter().enumerate() {
            let expect = if k == tone { n as f64 } else { 0.0 };
            assert!((bin.abs() - expect).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn dft_rejects_empty() {
        assert!(matches!(dft_naive(&[], Direction::Forward), Err(FftError::InvalidSize { .. })));
    }

    #[test]
    fn dit_matches_naive() {
        for n in [2usize, 4, 8, 16, 64, 256] {
            let x = random_signal(n, 42 + n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let mut got = x.clone();
            fft_radix2_dit_f64(&mut got, Direction::Forward).unwrap();
            assert!(max_error(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn dif_matches_naive_after_reorder() {
        for n in [4usize, 8, 32, 128] {
            let x = random_signal(n, 7 + n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let mut got = x.clone();
            fft_radix2_dif_f64(&mut got, Direction::Forward).unwrap();
            bit_reverse_permute(&mut got);
            assert!(max_error(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn forward_then_inverse_recovers_input() {
        let n = 64;
        let x = random_signal(n, 1);
        let mut y = x.clone();
        fft_radix2_dit_f64(&mut y, Direction::Forward).unwrap();
        fft_radix2_dit_f64(&mut y, Direction::Inverse).unwrap();
        let scaled: Vec<C64> = y.iter().map(|&v| v * (1.0 / n as f64)).collect();
        assert!(max_error(&scaled, &x) < 1e-10);
    }

    #[test]
    fn dif_stage_composition_equals_full_dif() {
        let n = 32;
        let x = random_signal(n, 9);
        let mut whole = x.clone();
        fft_radix2_dif_f64(&mut whole, Direction::Forward).unwrap();
        let mut staged = x;
        for j in 1..=5 {
            dif_stage(&mut staged, j, Direction::Forward);
        }
        assert!(max_error(&whole, &staged) < 1e-12);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex::zero(); 12];
        assert!(fft_radix2_dit_f64(&mut x, Direction::Forward).is_err());
        let mut x = vec![Complex::zero(); 1];
        assert!(fft_radix2_dit_f64(&mut x, Direction::Forward).is_err());
    }

    #[test]
    fn bit_reverse_permute_is_involution() {
        let x: Vec<usize> = (0..64).collect();
        let mut y = x.clone();
        bit_reverse_permute(&mut y);
        bit_reverse_permute(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn linearity_of_dft() {
        let n = 32;
        let a = random_signal(n, 10);
        let b = random_signal(n, 11);
        let sum: Vec<C64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = dft_naive(&a, Direction::Forward).unwrap();
        let fb = dft_naive(&b, Direction::Forward).unwrap();
        let fsum = dft_naive(&sum, Direction::Forward).unwrap();
        let want: Vec<C64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert!(max_error(&fsum, &want) < 1e-9);
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 64;
        let x = random_signal(n, 12);
        let y = dft_naive(&x, Direction::Forward).unwrap();
        let ex: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|c| c.norm_sqr()).sum();
        assert!((ey - ex * n as f64).abs() < 1e-7 * ex * n as f64);
    }
}
