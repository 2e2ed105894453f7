//! Signed fixed-point types modelling the ASIP's 16-bit datapath.
//!
//! [`Q15`] is the Q1.15 format (1 sign bit, 15 fractional bits) used for
//! FFT samples and twiddle coefficients; [`Q31`] is the double-width
//! accumulator format. Arithmetic is *saturating* and multiplication
//! *rounds to nearest* (adding the half-LSB before the shift), which is
//! the conventional behaviour of DSP MAC units and what the VHDL butterfly
//! unit of the paper would synthesise to.

use crate::scalar::Scalar;
use core::fmt;
use core::ops::{Add, Mul, Neg, Sub};

/// Q1.15 signed fixed point: the 16-bit sample format of the ASIP datapath.
///
/// Representable range is `[-1.0, 1.0 - 2^-15]`. All arithmetic saturates
/// at the range ends instead of wrapping, matching a hardware datapath
/// with saturation logic.
///
/// # Examples
///
/// ```
/// use afft_num::Q15;
///
/// let half = Q15::from_f64(0.5);
/// assert_eq!((half + half), Q15::ONE_MINUS_EPS); // saturates just below 1.0
/// assert_eq!((half * half).to_f64(), 0.25);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q15(i16);

/// Q1.31 signed fixed point: the wide accumulator format.
///
/// Used by the golden model of the butterfly unit when checking that no
/// intermediate overflow escapes the 16-bit datapath, and by the
/// pre-rotation multiply-on-store path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q31(i32);

impl Q15 {
    /// Number of fractional bits.
    pub const FRAC_BITS: u32 = 15;

    /// The value zero.
    pub const ZERO: Self = Q15(0);

    /// The largest representable value, `1.0 - 2^-15`.
    pub const ONE_MINUS_EPS: Self = Q15(i16::MAX);

    /// The smallest representable value, `-1.0`.
    pub const NEG_ONE: Self = Q15(i16::MIN);

    /// Creates a `Q15` from its raw two's-complement bit pattern.
    ///
    /// # Examples
    ///
    /// ```
    /// use afft_num::Q15;
    /// assert_eq!(Q15::from_bits(0x4000).to_f64(), 0.5);
    /// ```
    #[inline]
    pub const fn from_bits(bits: i16) -> Self {
        Q15(bits)
    }

    /// Returns the raw two's-complement bit pattern.
    #[inline]
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Quantises an `f64` with round-to-nearest (ties away from zero)
    /// and saturation.
    ///
    /// Values outside `[-1.0, 1.0)` saturate to the range ends, and NaN
    /// quantises to zero.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        // Just under a half, `0.5 - 2^-54`.
        const HALF_DOWN: f64 = 0.5 - f64::EPSILON / 4.0;
        let scaled = v * f64::from(1i32 << Self::FRAC_BITS);
        // Adding `HALF_DOWN` with the value's sign, then truncating,
        // rounds half away from zero: a tie `k + 1/2` sums to within
        // 2^-54 of `k + 1` and the addition rounds up to it, while a
        // value below the tie sums to below `k + 1` (a plain 0.5 would
        // round `0.5 - 2^-54` itself up to 1). The `as` cast truncates,
        // clamps to the `i16` range and sends NaN to 0.
        Q15((scaled + HALF_DOWN.copysign(scaled)) as i16)
    }

    /// Converts exactly to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / f64::from(1i32 << Self::FRAC_BITS)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Q15(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Q15(self.0.saturating_sub(rhs.0))
    }

    /// Fixed-point multiply with round-to-nearest and saturation.
    ///
    /// The only overflow case after the rounding shift is
    /// `-1.0 * -1.0 = +1.0`, which saturates to [`Q15::ONE_MINUS_EPS`].
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = i32::from(self.0) * i32::from(rhs.0);
        // Round to nearest: add half an LSB before the arithmetic shift.
        let rounded = (wide + (1 << (Self::FRAC_BITS - 1))) >> Self::FRAC_BITS;
        Q15(clamp_i16(rounded))
    }

    /// Arithmetic shift right by `n` bits (divide by `2^n` toward minus
    /// infinity), the per-stage scaling operation of the BU datapath.
    ///
    /// (Named like the operator deliberately: it *is* the datapath's
    /// shift, but takes a bit count rather than implementing the trait
    /// to keep the fallible contract explicit.)
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, n: u32) -> Self {
        assert!(n < 16, "Q15::shr: shift of {n} out of range");
        Q15(self.0 >> n)
    }

    /// Widens to the accumulator format without loss.
    #[inline]
    pub fn widen(self) -> Q31 {
        Q31(i32::from(self.0) << 16)
    }
}

impl Q31 {
    /// Number of fractional bits.
    pub const FRAC_BITS: u32 = 31;

    /// The value zero.
    pub const ZERO: Self = Q31(0);

    /// The largest representable value, `1.0 - 2^-31`.
    pub const ONE_MINUS_EPS: Self = Q31(i32::MAX);

    /// The smallest representable value, `-1.0`.
    pub const NEG_ONE: Self = Q31(i32::MIN);

    /// Creates a `Q31` from its raw two's-complement bit pattern.
    #[inline]
    pub const fn from_bits(bits: i32) -> Self {
        Q31(bits)
    }

    /// Returns the raw two's-complement bit pattern.
    #[inline]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Quantises an `f64` with round-to-nearest and saturation.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        let scaled = (v * f64::from(1u32 << 31)).round();
        if scaled >= i32::MAX as f64 {
            Self::ONE_MINUS_EPS
        } else if scaled <= i32::MIN as f64 {
            Self::NEG_ONE
        } else {
            Q31(scaled as i32)
        }
    }

    /// Converts exactly to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / f64::from(1u32 << 31)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Q31(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Q31(self.0.saturating_sub(rhs.0))
    }

    /// Fixed-point multiply with round-to-nearest and saturation.
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = i64::from(self.0) * i64::from(rhs.0);
        let rounded = (wide + (1 << (Self::FRAC_BITS - 1))) >> Self::FRAC_BITS;
        Q31(clamp_i32(rounded))
    }

    /// Narrows to [`Q15`] with round-to-nearest and saturation, the
    /// final truncation at the output of a MAC chain.
    #[inline]
    pub fn narrow(self) -> Q15 {
        let rounded = (i64::from(self.0) + (1 << 15)) >> 16;
        Q15(clamp_i16_from_i64(rounded))
    }
}

#[inline]
fn clamp_i16(v: i32) -> i16 {
    if v > i32::from(i16::MAX) {
        i16::MAX
    } else if v < i32::from(i16::MIN) {
        i16::MIN
    } else {
        v as i16
    }
}

#[inline]
fn clamp_i16_from_i64(v: i64) -> i16 {
    if v > i64::from(i16::MAX) {
        i16::MAX
    } else if v < i64::from(i16::MIN) {
        i16::MIN
    } else {
        v as i16
    }
}

#[inline]
fn clamp_i32(v: i64) -> i32 {
    if v > i64::from(i32::MAX) {
        i32::MAX
    } else if v < i64::from(i32::MIN) {
        i32::MIN
    } else {
        v as i32
    }
}

impl Add for Q15 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl Sub for Q15 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl Mul for Q15 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl Neg for Q15 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        // -(-1.0) saturates to ONE_MINUS_EPS, like the hardware negator.
        Q15(self.0.checked_neg().unwrap_or(i16::MAX))
    }
}

impl Add for Q31 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl Sub for Q31 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl Mul for Q31 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl Neg for Q31 {
    type Output = Self;
    fn neg(self) -> Self {
        Q31(self.0.checked_neg().unwrap_or(i32::MAX))
    }
}

impl Scalar for Q15 {
    const ZERO: Self = Q15::ZERO;

    #[inline]
    fn from_f64(v: f64) -> Self {
        Q15::from_f64(v)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        Q15::to_f64(self)
    }

    #[inline]
    fn add_half(self, rhs: Self) -> Self {
        // Wide add then arithmetic shift: a 17-bit intermediate with one
        // guard bit, as the scaled BU datapath implements it.
        Q15(((i32::from(self.0) + i32::from(rhs.0)) >> 1) as i16)
    }

    #[inline]
    fn sub_half(self, rhs: Self) -> Self {
        Q15(((i32::from(self.0) - i32::from(rhs.0)) >> 1) as i16)
    }
}

impl Scalar for Q31 {
    const ZERO: Self = Q31::ZERO;

    fn from_f64(v: f64) -> Self {
        Q31::from_f64(v)
    }

    fn to_f64(self) -> f64 {
        Q31::to_f64(self)
    }
}

impl fmt::Debug for Q15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q15({:+.6} /0x{:04x})", self.to_f64(), self.0 as u16)
    }
}

impl fmt::Display for Q15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6}", self.to_f64())
    }
}

impl fmt::Debug for Q31 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q31({:+.9} /0x{:08x})", self.to_f64(), self.0 as u32)
    }
}

impl fmt::Display for Q31 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.9}", self.to_f64())
    }
}

impl From<Q15> for Q31 {
    fn from(v: Q15) -> Self {
        v.widen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q15_roundtrip_exact_values() {
        for v in [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75] {
            assert_eq!(Q15::from_f64(v).to_f64(), v, "roundtrip {v}");
        }
    }

    #[test]
    fn q15_from_f64_saturates() {
        assert_eq!(Q15::from_f64(2.0), Q15::ONE_MINUS_EPS);
        assert_eq!(Q15::from_f64(1.0), Q15::ONE_MINUS_EPS);
        assert_eq!(Q15::from_f64(-2.0), Q15::NEG_ONE);
        assert_eq!(Q15::from_f64(-1.0), Q15::NEG_ONE);
    }

    /// `lsb` LSBs (`lsb / 2^15`) and the values one ulp either side.
    fn around(lsb: f64) -> [f64; 3] {
        let v = lsb / 32768.0;
        [v.next_down(), v, v.next_up()]
    }

    #[test]
    fn q15_ties_round_away_from_zero() {
        for (lsb, below, tie, above) in [(0.5, 0, 1, 1), (1.5, 1, 2, 2), (2.5, 2, 3, 3)] {
            let [lo, at, hi] = around(lsb);
            let got = [lo, at, hi].map(|v| Q15::from_f64(v).to_bits());
            assert_eq!(got, [below, tie, above], "+{lsb} LSB");
            let got = [-hi, -at, -lo].map(|v| Q15::from_f64(v).to_bits());
            assert_eq!(got, [-above, -tie, -below], "-{lsb} LSB");
        }
    }

    #[test]
    fn q15_saturation_thresholds() {
        let got = around(32766.5).map(|v| Q15::from_f64(v).to_bits());
        assert_eq!(got, [32766, i16::MAX, i16::MAX]);
        let got = around(-32767.5).map(|v| Q15::from_f64(v).to_bits());
        assert_eq!(got, [i16::MIN, i16::MIN, -32767]);
    }

    #[test]
    fn q15_from_f64_special_values() {
        assert_eq!(Q15::from_f64(0.0), Q15::ZERO);
        assert_eq!(Q15::from_f64(-0.0), Q15::ZERO);
        assert_eq!(Q15::from_f64(f64::NAN), Q15::ZERO);
        assert_eq!(Q15::from_f64(f64::INFINITY), Q15::ONE_MINUS_EPS);
        assert_eq!(Q15::from_f64(f64::NEG_INFINITY), Q15::NEG_ONE);
    }

    #[test]
    fn q15_add_saturates_both_ends() {
        let big = Q15::from_f64(0.75);
        assert_eq!(big + big, Q15::ONE_MINUS_EPS);
        let small = Q15::from_f64(-0.75);
        assert_eq!(small + small, Q15::NEG_ONE);
    }

    #[test]
    fn q15_mul_rounds_to_nearest() {
        // 3/32768 * 0.5 = 1.5/32768, rounds to 2/32768.
        let a = Q15::from_bits(3);
        let b = Q15::from_f64(0.5);
        assert_eq!((a * b).to_bits(), 2);
        // -3/32768 * 0.5 = -1.5/32768 -> rounds to -1 (ties toward +inf
        // under the add-half-then-shift convention).
        let c = Q15::from_bits(-3);
        assert_eq!((c * b).to_bits(), -1);
    }

    #[test]
    fn q15_mul_neg_one_squared_saturates() {
        assert_eq!(Q15::NEG_ONE * Q15::NEG_ONE, Q15::ONE_MINUS_EPS);
    }

    #[test]
    fn q15_neg_saturates_at_min() {
        assert_eq!(-Q15::NEG_ONE, Q15::ONE_MINUS_EPS);
        assert_eq!(-Q15::from_f64(0.5), Q15::from_f64(-0.5));
    }

    #[test]
    fn q15_shr_is_arithmetic() {
        assert_eq!(Q15::from_f64(0.5).shr(1).to_f64(), 0.25);
        assert_eq!(Q15::from_f64(-0.5).shr(1).to_f64(), -0.25);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn q15_shr_rejects_large_shift() {
        let _ = Q15::ZERO.shr(16);
    }

    #[test]
    fn q31_narrow_round_trips_q15() {
        for bits in [-32768i16, -1, 0, 1, 12345, 32767] {
            let q = Q15::from_bits(bits);
            assert_eq!(q.widen().narrow(), q, "widen/narrow {bits}");
        }
    }

    #[test]
    fn q31_mul_matches_f64_closely() {
        let a = Q31::from_f64(0.123456789);
        let b = Q31::from_f64(-0.987654321);
        let got = (a * b).to_f64();
        let want = 0.123456789 * -0.987654321;
        assert!((got - want).abs() < 1e-8, "got {got}, want {want}");
    }

    #[test]
    fn q31_saturation_ends() {
        assert_eq!(Q31::NEG_ONE * Q31::NEG_ONE, Q31::ONE_MINUS_EPS);
        let big = Q31::from_f64(0.75);
        assert_eq!(big + big, Q31::ONE_MINUS_EPS);
    }

    #[test]
    fn debug_repr_is_nonempty() {
        assert!(!format!("{:?}", Q15::ZERO).is_empty());
        assert!(!format!("{:?}", Q31::ZERO).is_empty());
    }

    #[test]
    fn q15_ordering_matches_value_ordering() {
        let mut vals: Vec<Q15> =
            [-0.5, 0.25, -1.0, 0.75, 0.0].iter().map(|&v| Q15::from_f64(v)).collect();
        vals.sort();
        let f: Vec<f64> = vals.iter().map(|q| q.to_f64()).collect();
        assert_eq!(f, vec![-1.0, -0.5, 0.0, 0.25, 0.75]);
    }
}
