//! Property tests: the soft-float specification is bit-exact against
//! the host FPU for all normal values, and the fixed-point types obey
//! their algebraic contracts.

use afft_num::{ieee754, Complex, Q15, Q31};
use proptest::prelude::*;

/// Strategy for finite, normal (or zero) f32 values: the domain the
/// DSP soft-float library defines (subnormals flush).
fn normal_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(|bits| {
        let exp = (bits >> 23) & 0xff;
        let v = f32::from_bits(bits);
        if exp == 0 {
            // Subnormal or zero: snap to a signed zero.
            if bits >> 31 == 1 {
                -0.0
            } else {
                0.0
            }
        } else if exp == 0xff {
            // Inf/NaN: fold into a large normal.
            f32::from_bits((bits & 0x807f_ffff) | (0xfe << 23))
        } else {
            v
        }
    })
}

/// Strategy for `[-1.1, 1.1]`: uniform draws, and values on or one ulp
/// either side of a half-LSB rounding tie, which uniform draws miss.
fn q15_domain() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.1f64..1.1,
        (-36045i32..36045, 0u8..3).prop_map(|(k, side)| {
            let tie = (f64::from(k) + 0.5) / 32768.0;
            [tie.next_down(), tie, tie.next_up()][usize::from(side)]
        }),
    ]
}

/// `Q15::from_f64` as it was written with `f64::round`: round half away
/// from zero, then saturate.
fn q15_by_round(v: f64) -> Q15 {
    let scaled = (v * 32768.0).round();
    if scaled >= f64::from(i16::MAX) {
        Q15::ONE_MINUS_EPS
    } else if scaled <= f64::from(i16::MIN) {
        Q15::NEG_ONE
    } else {
        Q15::from_bits(scaled as i16)
    }
}

fn result_is_flushed(host: f32) -> bool {
    // The spec flushes subnormal *results* to zero; the host does not.
    host != 0.0 && host.is_finite() && host.abs() < f32::MIN_POSITIVE
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn add_matches_host_fpu(a in normal_f32(), b in normal_f32()) {
        let host = a + b;
        prop_assume!(!result_is_flushed(host));
        let got = ieee754::add(a.to_bits(), b.to_bits());
        prop_assert_eq!(
            got, host.to_bits(),
            "add({}, {}) = {:#010x}, host {:#010x}", a, b, got, host.to_bits()
        );
    }

    #[test]
    fn mul_matches_host_fpu(a in normal_f32(), b in normal_f32()) {
        let host = a * b;
        prop_assume!(!result_is_flushed(host));
        let got = ieee754::mul(a.to_bits(), b.to_bits());
        prop_assert_eq!(
            got, host.to_bits(),
            "mul({}, {}) = {:#010x}, host {:#010x}", a, b, got, host.to_bits()
        );
    }

    #[test]
    fn sub_is_add_of_negated(a in normal_f32(), b in normal_f32()) {
        let via_sub = ieee754::sub(a.to_bits(), b.to_bits());
        let via_add = ieee754::add(a.to_bits(), ieee754::neg(b.to_bits()));
        prop_assert_eq!(via_sub, via_add);
    }

    #[test]
    fn add_is_commutative(a in normal_f32(), b in normal_f32()) {
        prop_assert_eq!(
            ieee754::add(a.to_bits(), b.to_bits()),
            ieee754::add(b.to_bits(), a.to_bits())
        );
    }

    #[test]
    fn mul_is_commutative(a in normal_f32(), b in normal_f32()) {
        prop_assert_eq!(
            ieee754::mul(a.to_bits(), b.to_bits()),
            ieee754::mul(b.to_bits(), a.to_bits())
        );
    }

    #[test]
    fn q15_roundtrip_through_bits(bits in any::<i16>()) {
        let q = Q15::from_bits(bits);
        prop_assert_eq!(q.to_bits(), bits);
        prop_assert_eq!(Q15::from_f64(q.to_f64()), q);
    }

    #[test]
    fn q15_from_f64_rounds_like_f64_round(v in q15_domain()) {
        prop_assert_eq!(Q15::from_f64(v), q15_by_round(v), "v = {:e}", v);
    }

    #[test]
    fn q15_widen_narrow_is_lossless(bits in any::<i16>()) {
        let q = Q15::from_bits(bits);
        prop_assert_eq!(q.widen().narrow(), q);
    }

    #[test]
    fn q31_add_is_commutative_and_monotone(a in any::<i32>(), b in any::<i32>()) {
        let qa = Q31::from_bits(a);
        let qb = Q31::from_bits(b);
        prop_assert_eq!(qa + qb, qb + qa);
        // Saturating add is monotone in each argument.
        let bigger = Q31::from_bits(b.saturating_add(1).max(b));
        prop_assert!((qa + bigger) >= (qa + qb));
    }

    #[test]
    fn complex_mul_matches_f64_within_rounding(
        ar in -0.7f64..0.7, ai in -0.7f64..0.7,
        br in -0.7f64..0.7, bi in -0.7f64..0.7,
    ) {
        let a = Complex::new(Q15::from_f64(ar), Q15::from_f64(ai));
        let b = Complex::new(Q15::from_f64(br), Q15::from_f64(bi));
        let got = (a * b).to_c64();
        let want = a.to_c64() * b.to_c64();
        // 2 products + 1 add per component: error < 2 LSB.
        prop_assert!(got.dist(want) < 3.0 / 32768.0);
    }

    #[test]
    fn conjugate_is_involutive_and_norm_preserving(
        re in -1.0f64..1.0, im in -1.0f64..1.0
    ) {
        let c = Complex::new(re, im);
        prop_assert_eq!(c.conj().conj(), c);
        prop_assert!((c.conj().abs() - c.abs()).abs() < 1e-15);
    }
}
