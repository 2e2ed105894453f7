//! Property-based tests over the core invariants: address algebra,
//! fixed-point datapath, coefficient compression, and transform
//! identities.

use afft::core::address::{
    butterfly_at, epoch0_load_addr, epoch0_store_addr, epoch1_load_addr, epoch1_store_addr,
    natural_bin_to_transposed, sigma, transposed_to_natural_bin,
};
use afft::core::bits::{bit_reverse, BitPerm};
use afft::core::engine::EngineRegistry;
use afft::core::reference::{dft_naive, max_error, Direction};
use afft::core::rom::{resolve_prerot, PrerotTable};
use afft::core::{ArrayFft, Split};
use afft::num::{twiddle, Complex, C64, Q15};
use proptest::prelude::*;

/// The size grid the engine-family law tests sample: powers of two,
/// the composite 5-smooth sizes the mixed-radix engine adds, odd
/// primes (rader + bluestein) and the rough composites (14 = 2·7,
/// 77 = 7·11) only the chirp-Z fallback serves — the DFT laws must
/// hold for every registered engine at arbitrary `n`.
const ENGINE_LAW_SIZES: [usize; 14] = [7, 8, 12, 14, 16, 17, 20, 30, 31, 60, 64, 77, 97, 120];

/// Deterministic random signal for the engine-law tests.
fn law_signal(n: usize, seed: u64) -> Vec<C64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

proptest! {
    #[test]
    fn bit_reverse_is_an_involution(bits in 1u32..16, x in 0usize..65536) {
        let x = x & ((1 << bits) - 1);
        prop_assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
    }

    #[test]
    fn bit_reverse_preserves_popcount(bits in 1u32..16, x in 0usize..65536) {
        let x = x & ((1 << bits) - 1);
        prop_assert_eq!(bit_reverse(x, bits).count_ones(), x.count_ones());
    }

    #[test]
    fn sigma_is_a_bijection(p in 3u32..8, j in 1u32..8) {
        let j = 1 + (j - 1) % p;
        let s = sigma(p, j);
        let mut seen = vec![false; 1 << p];
        for x in 0..(1usize << p) {
            let y = s.apply(x);
            prop_assert!(!seen[y]);
            seen[y] = true;
        }
    }

    #[test]
    fn bitperm_inverse_composes_to_identity(seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut map: Vec<u32> = (0..6).collect();
        map.shuffle(&mut rng);
        let perm = BitPerm::from_map(map);
        let inv = perm.inverse();
        for x in 0..64 {
            prop_assert_eq!(inv.apply(perm.apply(x)), x);
        }
    }

    #[test]
    fn butterflies_partition_the_crf(p in 3u32..8, j in 1u32..8) {
        let j = 1 + (j - 1) % p;
        let mut seen = vec![false; 1 << p];
        for c in 0..(1usize << (p - 1)) {
            let bf = butterfly_at(p, j, c);
            prop_assert!(!seen[bf.addr_a] && !seen[bf.addr_b]);
            seen[bf.addr_a] = true;
            seen[bf.addr_b] = true;
            prop_assert_eq!(bf.addr_b - bf.addr_a, 1 << (p - j));
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn epoch_maps_are_bijections(log_n in 6u32..13) {
        let n = 1usize << log_n;
        let split = Split::for_size(n).expect("valid");
        let mut seen = vec![false; n];
        for l in 0..split.q_size {
            for m in 0..split.p_size {
                let a = epoch0_load_addr(&split, l, m);
                prop_assert!(!seen[a]);
                seen[a] = true;
            }
        }
        // Store map of epoch 0 equals load map of epoch 1.
        for l in 0..split.q_size {
            for s in 0..split.p_size {
                prop_assert_eq!(
                    epoch0_store_addr(&split, l, s),
                    epoch1_load_addr(&split, s, l)
                );
            }
        }
        let mut seen = vec![false; n];
        for s in 0..split.p_size {
            for t in 0..split.q_size {
                let a = epoch1_store_addr(&split, s, t);
                prop_assert!(!seen[a]);
                seen[a] = true;
            }
        }
    }

    #[test]
    fn transposed_layout_roundtrip(log_n in 6u32..13, k in 0usize..8192) {
        let n = 1usize << log_n;
        let split = Split::for_size(n).expect("valid");
        let k = k % n;
        prop_assert_eq!(
            transposed_to_natural_bin(&split, natural_bin_to_transposed(&split, k)),
            k
        );
    }

    #[test]
    fn prerot_resolution_is_exact(log_n in 3u32..12, e in 0usize..100_000) {
        let n = 1usize << log_n;
        let table: PrerotTable<f64> = PrerotTable::new(n).expect("table");
        let got = table.coefficient(e);
        let want = twiddle(n, e % n);
        prop_assert!(got.dist(want) < 1e-12);
        // And the resolved index always fits the compressed table.
        let r = resolve_prerot(n, e);
        prop_assert!(r.index <= n / 8);
    }

    #[test]
    fn q15_addition_never_wraps(a in -32768i32..=32767, b in -32768i32..=32767) {
        let qa = Q15::from_bits(a as i16);
        let qb = Q15::from_bits(b as i16);
        let sum = (qa + qb).to_f64();
        let exact = qa.to_f64() + qb.to_f64();
        // Saturating: result is the exact sum clamped to [-1, 1).
        let clamped = exact.clamp(-1.0, 32767.0 / 32768.0);
        prop_assert!((sum - clamped).abs() < 1e-9);
    }

    #[test]
    fn q15_multiply_error_is_half_lsb(a in -32768i32..=32767, b in -32768i32..=32767) {
        let qa = Q15::from_bits(a as i16);
        let qb = Q15::from_bits(b as i16);
        let got = (qa * qb).to_f64();
        let exact = (qa.to_f64() * qb.to_f64()).clamp(-1.0, 32767.0 / 32768.0);
        prop_assert!((got - exact).abs() <= 0.5 / 32768.0 + 1e-12);
    }

    #[test]
    fn scalar_add_half_is_exact(a in -32768i32..=32767, b in -32768i32..=32767) {
        use afft::num::Scalar;
        let qa = Q15::from_bits(a as i16);
        let qb = Q15::from_bits(b as i16);
        let got = qa.add_half(qb).to_f64();
        let exact = (qa.to_f64() + qb.to_f64()) / 2.0;
        // Floor rounding of the arithmetic shift: error < 1 LSB.
        prop_assert!((got - exact).abs() < 1.0 / 32768.0);
    }

    #[test]
    fn array_fft_matches_naive_on_random_signals(
        log_n in 6u32..10,
        seed in 0u64..50,
    ) {
        let n = 1usize << log_n;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Complex<f64>> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let fft: ArrayFft<f64> = ArrayFft::new(n).expect("plan");
        let got = fft.process(&x, Direction::Forward).expect("fft");
        let want = dft_naive(&x, Direction::Forward).expect("naive");
        prop_assert!(max_error(&got, &want) < 1e-7 * n as f64);
    }

    /// DFT linearity, for **every** registry engine at power-of-two and
    /// composite sizes alike: `F(a·x + b·y) = a·F(x) + b·F(y)` within
    /// the engine's own tolerance.
    #[test]
    fn dft_linearity_holds_for_every_engine(
        size_idx in 0usize..ENGINE_LAW_SIZES.len(),
        seed in 0u64..1000,
        ar in -2.0f64..2.0, ai in -2.0f64..2.0,
        br in -2.0f64..2.0, bi in -2.0f64..2.0,
    ) {
        let n = ENGINE_LAW_SIZES[size_idx];
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        let x = law_signal(n, seed);
        let y = law_signal(n, seed ^ 0xdead_beef);
        let combo: Vec<C64> =
            x.iter().zip(&y).map(|(&xv, &yv)| xv * a + yv * b).collect();
        let mut registry = EngineRegistry::standard(n).expect("supported size");
        for engine in registry.engines_mut() {
            let fx = engine.execute(&x, Direction::Forward).unwrap();
            let fy = engine.execute(&y, Direction::Forward).unwrap();
            let fc = engine.execute(&combo, Direction::Forward).unwrap();
            let want: Vec<C64> =
                fx.iter().zip(&fy).map(|(&u, &v)| u * a + v * b).collect();
            // Guard the denominator: a near-cancelling (a, b) draw must
            // not turn roundoff into a huge relative error.
            let peak =
                want.iter().map(|c| c.abs()).fold(0.0, f64::max).max(1e-3 * n as f64);
            let err = max_error(&fc, &want) / peak;
            prop_assert!(
                err < 4.0 * engine.tolerance(),
                "{} linearity at n={}: {}", engine.name(), n, err
            );
        }
    }

    /// Parseval energy conservation for every registry engine:
    /// `sum |X[k]|^2 = N · sum |x[m]|^2` (unnormalised forward DFT).
    #[test]
    fn parseval_holds_for_every_engine(
        size_idx in 0usize..ENGINE_LAW_SIZES.len(),
        seed in 0u64..1000,
    ) {
        let n = ENGINE_LAW_SIZES[size_idx];
        let x = law_signal(n, seed.wrapping_add(77));
        let ex: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let mut registry = EngineRegistry::standard(n).expect("supported size");
        for engine in registry.engines_mut() {
            let fx = engine.execute(&x, Direction::Forward).unwrap();
            let ey: f64 = fx.iter().map(|c| c.norm_sqr()).sum();
            let rel = (ey - ex * n as f64).abs() / (ex * n as f64);
            prop_assert!(
                rel < 100.0 * engine.tolerance(),
                "{} parseval at n={}: {}", engine.name(), n, rel
            );
        }
    }

    /// Time-shift ↔ phase-ramp duality for every registry engine:
    /// `x((m + s) mod N) ↔ X[k] · conj(W_N^{ks})`.
    #[test]
    fn time_shift_phase_ramp_duality_holds_for_every_engine(
        size_idx in 0usize..ENGINE_LAW_SIZES.len(),
        raw_shift in 1usize..4096,
        seed in 0u64..1000,
    ) {
        let n = ENGINE_LAW_SIZES[size_idx];
        let shift = 1 + raw_shift % (n - 1);
        let x = law_signal(n, seed.wrapping_add(131));
        let shifted: Vec<C64> = (0..n).map(|m| x[(m + shift) % n]).collect();
        let mut registry = EngineRegistry::standard(n).expect("supported size");
        for engine in registry.engines_mut() {
            let fx = engine.execute(&x, Direction::Forward).unwrap();
            let fs = engine.execute(&shifted, Direction::Forward).unwrap();
            let want: Vec<C64> = fx
                .iter()
                .enumerate()
                .map(|(k, &v)| v * twiddle(n, k * shift % n).conj())
                .collect();
            let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max).max(1.0);
            let err = max_error(&fs, &want) / peak;
            prop_assert!(
                err < 4.0 * engine.tolerance(),
                "{} shift duality at n={} s={}: {}", engine.name(), n, shift, err
            );
        }
    }

    #[test]
    fn supports_matches_planability_on_random_sizes(n in 0usize..4096) {
        // The registry's support claim and its constructor must agree
        // at any size a property draw can produce — including far
        // beyond the exhaustive sweep below.
        prop_assert_eq!(EngineRegistry::supports(n), EngineRegistry::standard(n).is_ok());
    }

    #[test]
    fn time_shift_multiplies_spectrum_by_twiddle(shift in 1usize..63, seed in 0u64..20) {
        let n = 64usize;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Complex<f64>> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let shifted: Vec<Complex<f64>> = (0..n).map(|m| x[(m + shift) % n]).collect();
        let fft: ArrayFft<f64> = ArrayFft::new(n).expect("plan");
        let fx = fft.process(&x, Direction::Forward).expect("fft");
        let fs = fft.process(&shifted, Direction::Forward).expect("fft");
        for k in 0..n {
            // x(m + s) <-> X(k) * W^{-ks}
            let want = fx[k] * twiddle(n, (k * shift) % n).conj();
            prop_assert!(fs[k].dist(want) < 1e-8, "k={k}");
        }
    }
}

/// The any-N guarantee, exhaustively: `supports(n)` is true and the
/// standard registry builds for **every** `n` in `2..=2048` — no prime,
/// no rough composite, no adversarial factorisation falls through. The
/// degenerate sizes 0 and 1 are the only rejections.
#[test]
fn every_size_up_to_2048_is_supported_and_plans() {
    assert!(!EngineRegistry::supports(0));
    assert!(!EngineRegistry::supports(1));
    assert!(EngineRegistry::standard(0).is_err());
    assert!(EngineRegistry::standard(1).is_err());
    for n in 2..=2048usize {
        assert!(EngineRegistry::supports(n), "supports({n}) must hold");
        let mut registry =
            EngineRegistry::standard(n).unwrap_or_else(|e| panic!("standard({n}) must plan: {e}"));
        // Every registry carries the naive reference and the universal
        // chirp-Z fallback; nothing is ever near-empty.
        let names = registry.names();
        assert!(names.contains(&"dft_naive") && names.contains(&"bluestein"), "n={n}");
        // And every row it lists builds at that size.
        assert!(registry.engines_mut().all(|engine| engine.len() == n), "n={n}");
    }
}
