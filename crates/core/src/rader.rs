//! Rader's prime-length FFT: an `N`-point DFT at prime `N` as one
//! `(N-1)`-point cyclic convolution through the generator permutation
//! of the multiplicative group mod `N`.
//!
//! For prime `p` the units mod `p` form a cyclic group: fixing a
//! primitive root `g`, the substitution `k = g^{-q}`, `m = g^{r}` turns
//! the non-zero part of the DFT sum into
//!
//! ```text
//! X[g^{-q}] = x[0] + Σ_r x[g^r] · W_p^{g^{r-q}}  =  x[0] + (a ⊛ b)_q
//! ```
//!
//! a cyclic convolution of `a_r = x[g^r]` with the fixed sequence
//! `b_s = W_p^{g^{-s}}`, both of length `p - 1` (`X[0]` is the plain
//! input sum). The convolution runs on the 5-smooth `mixed_radix`
//! kernel, so Rader serves exactly the odd primes whose `p - 1` factors
//! over {2, 3, 5} (every power of two included). Every other prime is
//! Bluestein's: a Rader convolution through Bluestein costs about twice
//! a plain Bluestein transform at the same prime.
//!
//! Plan-time state: the generator permutation and its inverse, the
//! forward/inverse kernel spectra (`FFT_{p-1}` of `b`), the inner
//! [`MixedRadixEngine`] and two `(p-1)`-point scratch arenas, honouring
//! the crate-wide zero-allocation `execute_into` contract.

use crate::engine::{check_io, FftEngine};
use crate::error::FftError;
use crate::mixed::{smallest_rough_factor, MixedRadixEngine};
use crate::reference::Direction;
use afft_num::{twiddle, Complex, C64};

/// Deterministic primality check by trial division — plan-time only,
/// and fast for any size a transform plan could plausibly hold.
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// `base^exp mod modulus` with `u128` intermediates.
fn pow_mod(base: usize, mut exp: usize, modulus: usize) -> usize {
    let m = modulus as u128;
    let mut acc: u128 = 1;
    let mut b = base as u128 % m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        exp >>= 1;
    }
    acc as usize
}

/// The distinct prime factors of `n`, by trial division (plan time).
fn prime_factors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// The smallest primitive root mod prime `p`: the generator whose
/// powers enumerate every unit, i.e. whose order is exactly `p - 1`
/// (checked via `g^{(p-1)/q} != 1` for every prime `q | p - 1`).
fn primitive_root(p: usize) -> usize {
    let m = p - 1;
    let factors = prime_factors(m);
    (2..p)
        .find(|&g| factors.iter().all(|&q| pow_mod(g, m / q, p) != 1))
        .expect("every prime has a primitive root")
}

/// Rader's prime-length FFT as an engine: an odd prime `p` whose
/// `p - 1` is 5-smooth, through the `(p-1)`-point generator-permutation
/// cyclic convolution on `mixed_radix`.
#[derive(Debug, Clone)]
pub struct RaderEngine {
    p: usize,
    /// `g_pow[q] = g^q mod p` — the input gather order.
    g_pow: Vec<usize>,
    /// `g_inv_pow[q] = g^{-q} mod p` — the output scatter order.
    g_inv_pow: Vec<usize>,
    /// `FFT_{p-1}` of `b_s = W_p^{g^{-s}}`, per direction.
    kernel_fwd: Vec<C64>,
    kernel_inv: Vec<C64>,
    inner: MixedRadixEngine,
    buf_a: Vec<C64>,
    buf_b: Vec<C64>,
}

impl RaderEngine {
    /// Plans a Rader FFT of prime size `p >= 3` with 5-smooth `p - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `p` is an odd prime
    /// (the even prime 2 has a trivial unit group and is served by
    /// every power-of-two kernel already), or when `p - 1` has a prime
    /// factor beyond 5, which the error names.
    pub fn new(p: usize) -> Result<Self, FftError> {
        if p < 3 || !is_prime(p) {
            return Err(FftError::InvalidSize {
                n: p,
                reason: "Rader needs an odd prime size",
                factor: None,
            });
        }
        let m = p - 1;
        if let Some(rough) = smallest_rough_factor(m) {
            return Err(FftError::InvalidSize {
                n: p,
                reason: "Rader needs a 5-smooth p - 1",
                factor: Some(rough),
            });
        }
        let g = primitive_root(p);
        let g_inv = pow_mod(g, m - 1, p); // g^{p-2} = g^{-1} mod p
        let mut g_pow = Vec::with_capacity(m);
        let mut g_inv_pow = Vec::with_capacity(m);
        let (mut fwd, mut inv) = (1usize, 1usize);
        for _ in 0..m {
            g_pow.push(fwd);
            g_inv_pow.push(inv);
            fwd = fwd * g % p;
            inv = inv * g_inv % p;
        }

        let mut inner = MixedRadixEngine::new(m)?;
        let mut buf_a = vec![Complex::zero(); m];
        let buf_b = vec![Complex::zero(); m];
        let mut kernel_fwd = vec![Complex::zero(); m];
        let mut kernel_inv = vec![Complex::zero(); m];
        for (slot, &e) in buf_a.iter_mut().zip(&g_inv_pow) {
            *slot = twiddle(p, e);
        }
        inner.execute_into(&buf_a, &mut kernel_fwd, Direction::Forward)?;
        // Inverse DFT: same convolution with the conjugated twiddles.
        for slot in buf_a.iter_mut() {
            *slot = slot.conj();
        }
        inner.execute_into(&buf_a, &mut kernel_inv, Direction::Forward)?;
        Ok(RaderEngine { p, g_pow, g_inv_pow, kernel_fwd, kernel_inv, inner, buf_a, buf_b })
    }
}

impl FftEngine for RaderEngine {
    fn name(&self) -> &str {
        "rader"
    }

    fn len(&self) -> usize {
        self.p
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        let p = self.p;
        check_io(p, input, output)?;
        let m = p - 1;
        let kernel = match dir {
            Direction::Forward => &self.kernel_fwd,
            Direction::Inverse => &self.kernel_inv,
        };

        // Gather the non-zero input points in generator order.
        for (slot, &idx) in self.buf_a.iter_mut().zip(&self.g_pow) {
            *slot = input[idx];
        }

        // (a ⊛ b) by the convolution theorem over the inner engine; the
        // inner inverse is unnormalised, folded by 1/m at the scatter.
        self.inner.execute_into(&self.buf_a, &mut self.buf_b, Direction::Forward)?;
        for (slot, &k) in self.buf_b.iter_mut().zip(kernel) {
            *slot = *slot * k;
        }
        self.inner.execute_into(&self.buf_b, &mut self.buf_a, Direction::Inverse)?;

        // X[0] is the plain sum; every other bin scatters through g^{-q}.
        let x0 = input[0];
        let mut sum = Complex::zero();
        for &x in input {
            sum = sum + x;
        }
        output[0] = sum;
        let scale = 1.0 / m as f64;
        for (q, &idx) in self.g_inv_pow.iter().enumerate() {
            output[idx] = x0 + self.buf_a[q] * scale;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineRegistry;
    use crate::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn primality_and_primitive_roots() {
        assert!(is_prime(2) && is_prime(3) && is_prime(97) && is_prime(1009));
        assert!(!is_prime(0) && !is_prime(1) && !is_prime(91) && !is_prime(1001));
        // Known smallest primitive roots.
        for (p, g) in [(3usize, 2usize), (5, 2), (7, 3), (17, 3), (97, 5), (251, 6)] {
            assert_eq!(primitive_root(p), g, "p={p}");
        }
    }

    #[test]
    fn generator_permutation_covers_every_nonzero_residue() {
        for p in [7usize, 17, 97, 251] {
            let engine = RaderEngine::new(p).unwrap();
            let mut seen = vec![false; p];
            for &v in &engine.g_pow {
                assert!(v >= 1 && v < p && !seen[v]);
                seen[v] = true;
            }
            // And the inverse order really is the inverse permutation.
            for (q, &v) in engine.g_inv_pow.iter().enumerate() {
                assert_eq!(v * engine.g_pow[q] % p, 1, "p={p} q={q}");
            }
        }
    }

    #[test]
    fn serves_exactly_the_smooth_primes_and_matches_naive_there() {
        // The registry lists Rader exactly at odd primes whose p - 1
        // has no prime factor beyond 5.
        let smooth = |mut m: usize| {
            for f in [2, 3, 5] {
                while m.is_multiple_of(f) {
                    m /= f;
                }
            }
            m == 1
        };
        for p in 2..=4100usize {
            let listed = EngineRegistry::standard(p).unwrap().names().contains(&"rader");
            assert_eq!(listed, p % 2 == 1 && is_prime(p) && smooth(p - 1), "p={p}");
        }
        // A rough prime is refused, naming the factor that makes p - 1
        // rough: 1008 = 2^4·3^2·7, 22 = 2·11, 46 = 2·23.
        for (p, rough) in [(1009usize, 7usize), (23, 11), (47, 23)] {
            assert_eq!(smallest_rough_factor(p - 1), Some(rough));
            match RaderEngine::new(p) {
                Err(FftError::InvalidSize { n, factor, .. }) => {
                    assert_eq!((n, factor), (p, Some(rough)), "p={p}");
                }
                other => panic!("p={p}: expected InvalidSize, got {other:?}"),
            }
        }
        // Smooth primes it serves match the naive DFT both ways, from
        // the smallest inner lengths (2, 4) up.
        for p in [
            3usize, 5, 7, 11, 13, 17, 31, 61, 97, 181, 241, 251, 257, 401, 577, 641, 769, 1153,
            1297, 1601,
        ] {
            let mut engine = RaderEngine::new(p).unwrap();
            let x = random_signal(p, p as u64);
            let mut got = vec![Complex::zero(); p];
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = dft_naive(&x, dir).unwrap();
                let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
                engine.execute_into(&x, &mut got, dir).unwrap();
                let err = max_error(&got, &want) / peak;
                assert!(err < 1e-10, "p={p} {dir:?}: {err}");
            }
        }
    }

    #[test]
    fn round_trips_within_tolerance() {
        let p = 251;
        let x = random_signal(p, 9);
        let mut engine = RaderEngine::new(p).unwrap();
        let mut spec = vec![Complex::zero(); p];
        let mut back = vec![Complex::zero(); p];
        engine.execute_into(&x, &mut spec, Direction::Forward).unwrap();
        engine.execute_into(&spec, &mut back, Direction::Inverse).unwrap();
        let scaled: Vec<C64> = back.iter().map(|&v| v * (1.0 / p as f64)).collect();
        assert!(max_error(&scaled, &x) < 1e-10);
    }

    #[test]
    fn rejects_composites_the_even_prime_and_mismatched_buffers() {
        for n in [0usize, 1, 2, 4, 9, 91, 1344] {
            assert!(matches!(RaderEngine::new(n), Err(FftError::InvalidSize { .. })), "{n}");
        }
        let mut engine = RaderEngine::new(7).unwrap();
        let x = random_signal(7, 3);
        let mut short = vec![Complex::zero(); 6];
        assert!(matches!(
            engine.execute_into(&x, &mut short, Direction::Forward),
            Err(FftError::LengthMismatch { expected: 7, got: 6 })
        ));
    }
}
