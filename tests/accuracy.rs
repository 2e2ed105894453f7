//! Numerical-accuracy floor at large prime sizes: every engine the
//! standard registry offers at N = 251, 1009 and 1153, measured as RMS
//! error against the f64 naive DFT.
//!
//! # Why RMS, and why these bounds
//!
//! The conformance suites bound the **worst bin**; this suite bounds
//! the **root-mean-square** over all bins, which is what accumulating
//! roundoff actually moves. For an f64 FFT built from unit-modulus
//! twiddles, per-bin error grows like `c · ε · √(log₂ M)` relative to
//! the spectrum's RMS level, with `ε = 2⁻⁵² ≈ 2.2e-16` and `c` a
//! small constant per butterfly flavour. The engines at these primes
//! (`dft_naive` is the reference itself; `rader` through its
//! mixed-radix `p − 1` convolution, `bluestein`) route through at most
//! three inner FFT passes of `M ≤ 4096` points plus O(1) chirp or
//! permutation multiplies per point, so the expected relative RMS error
//! sits near `10⁻¹⁵`.
//!
//! The asserted bound of **1e-12** is therefore ~2–3 orders of
//! magnitude above the expected floor: loose enough never to flake on
//! a different FMA/rounding regime (`AFFT_NO_SIMD=1`, other hosts),
//! tight enough that any *structural* defect — a wrong chirp angle, a
//! stale convolution arena, an off-by-one in the generator
//! permutation — shows up as an O(1) relative error and fails by ten
//! orders of magnitude.

use afft::core::engine::EngineRegistry;
use afft::core::reference::dft_naive;
use afft::core::Direction;
use afft::num::{Complex, C64};

/// Deterministic unit-variance-ish random signal (xorshift, seeded by
/// the size — same generator family as the golden-vector suite).
fn random_input(n: usize) -> Vec<C64> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15 ^ ((n as u64) << 21);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

/// RMS of a complex vector.
fn rms(v: &[C64]) -> f64 {
    (v.iter().map(|c| c.norm_sqr()).sum::<f64>() / v.len() as f64).sqrt()
}

/// RMS error of `got` against `want`, relative to the RMS level of
/// `want` — scale-free, so the bound means the same thing at any N.
fn relative_rms_error(got: &[C64], want: &[C64]) -> f64 {
    let err: f64 = got.iter().zip(want).map(|(&g, &w)| g.dist(w).powi(2)).sum();
    (err / want.len() as f64).sqrt() / rms(want)
}

/// The documented accuracy floor (see the module docs for the
/// derivation): ~2–3 orders above the expected `10⁻¹⁵..10⁻¹⁴` f64
/// roundoff level, ~10 orders below any structural failure.
const RMS_BOUND: f64 = 1e-12;

#[test]
fn every_engine_meets_the_rms_floor_at_large_prime_sizes() {
    // 251 and 1153 bring in Rader (250 = 2·5³, 1152 = 2⁷·3²); at 1009
    // the rough 1008 = 2⁴·3²·7 leaves the prime to Bluestein alone.
    for n in [251usize, 1009, 1153] {
        let x = random_input(n);
        let mut registry = EngineRegistry::standard(n).expect("prime sizes are supported");
        for dir in [Direction::Forward, Direction::Inverse] {
            let want = dft_naive(&x, dir).expect("reference");
            for engine in registry.engines_mut() {
                if engine.name() == "dft_naive" {
                    continue; // the reference itself
                }
                let got = engine.execute(&x, dir).expect("execute");
                let err = relative_rms_error(&got, &want);
                assert!(
                    err < RMS_BOUND,
                    "{} n={n} {dir:?}: relative RMS error {err:.3e} exceeds {RMS_BOUND:.0e}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn rms_floor_holds_for_the_convolution_engines_specifically() {
    // The two engines by name, so a registry reordering can never
    // silently drop them from the assertion above: Rader at the primes
    // with 5-smooth p − 1, Bluestein at every prime.
    let both: &[&str] = &["rader", "bluestein"];
    for (n, names) in [(251usize, both), (1009, &["bluestein"]), (1153, both)] {
        let x = random_input(n);
        let want = dft_naive(&x, Direction::Forward).expect("reference");
        let mut registry = EngineRegistry::standard(n).expect("supported");
        for &name in names {
            let engine = registry.get_mut(name).expect("registered at this prime");
            let got = engine.execute(&x, Direction::Forward).expect("execute");
            let err = relative_rms_error(&got, &want);
            assert!(err < RMS_BOUND, "{name} n={n}: {err:.3e}");
        }
    }
}
