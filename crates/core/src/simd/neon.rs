//! NEON (aarch64 Advanced SIMD) back-end: 2 × f64 lanes over split
//! real/imag planes.
//!
//! The 2-lane mirror of the AVX2 back-end: same split-plane loop
//! structure, fused multiply-add complex arithmetic, no shuffles.
//! Direction handling multiplies by a ±1.0 sign vector instead of the
//! x86 XOR-mask trick — multiplication by ±1.0 is exact in IEEE-754,
//! so the two back-ends stay arithmetically identical to the scalar
//! reference's sign algebra.
//!
//! `unsafe` here follows the same contract as `x86.rs`: NEON is
//! verified at plan time (`SimdLevel::clamp_to_host`; it is baseline
//! on aarch64), and raw load/store bounds are debug-asserted and
//! guaranteed by the callers' loop structure.

use super::kernels::R4Twiddles;
use core::arch::aarch64::{
    float64x2_t, vaddq_f64, vdupq_n_f64, vfmaq_f64, vfmsq_f64, vld1q_f64, vmulq_f64, vst1q_f64,
    vsubq_f64,
};

/// Loads 2 lanes from `p[i..i + 2]`.
///
/// # Safety
///
/// Caller must guarantee `i + 2 <= p.len()` (debug-asserted).
#[inline]
#[target_feature(enable = "neon")]
unsafe fn ld(p: &[f64], i: usize) -> float64x2_t {
    debug_assert!(i + 2 <= p.len());
    // SAFETY: in-bounds per the caller contract above.
    unsafe { vld1q_f64(p.as_ptr().add(i)) }
}

/// Stores 2 lanes to `p[i..i + 2]`.
///
/// # Safety
///
/// Caller must guarantee `i + 2 <= p.len()` (debug-asserted).
#[inline]
#[target_feature(enable = "neon")]
unsafe fn st(p: &mut [f64], i: usize, v: float64x2_t) {
    debug_assert!(i + 2 <= p.len());
    // SAFETY: in-bounds per the caller contract above.
    unsafe { vst1q_f64(p.as_mut_ptr().add(i), v) }
}

/// Lane-wise complex multiply over split planes:
/// `(are + i·aim) * (bre + i·bim)`.
#[inline]
#[target_feature(enable = "neon")]
fn cmul(
    are: float64x2_t,
    aim: float64x2_t,
    bre: float64x2_t,
    bim: float64x2_t,
) -> (float64x2_t, float64x2_t) {
    // vfmsq(a, b, c) = a - b*c; vfmaq(a, b, c) = a + b*c.
    let re = vfmsq_f64(vmulq_f64(are, bre), aim, bim);
    let im = vfmaq_f64(vmulq_f64(are, bim), aim, bre);
    (re, im)
}

/// One full radix-4 DIT stage of size `len`, 2 butterflies per
/// iteration — the NEON mirror of `kernels::radix4_stage_scalar`.
///
/// # Safety
///
/// The host must support NEON (verified at plan time). `re`/`im` must
/// be equal-length planes with `re.len()` a multiple of `len`, and
/// `len / 4` a multiple of 2.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn radix4_stage_neon(
    re: &mut [f64],
    im: &mut [f64],
    tw: &R4Twiddles,
    len: usize,
    forward: bool,
) {
    let n = re.len();
    let quarter = len / 4;
    debug_assert!(im.len() == n && n % len == 0 && quarter % 2 == 0);
    let sign = vdupq_n_f64(if forward { 1.0 } else { -1.0 });
    let neg_sign = vdupq_n_f64(if forward { -1.0 } else { 1.0 });
    for base in (0..n).step_by(len) {
        for j in (0..quarter).step_by(2) {
            let i0 = base + j;
            let i1 = i0 + quarter;
            let i2 = i0 + 2 * quarter;
            let i3 = i0 + 3 * quarter;
            // SAFETY: i3 + 2 <= base + len <= n, twiddle planes are
            // `quarter` long — every access below is in bounds.
            unsafe {
                let w1re = ld(&tw.w1re, j);
                let w1im = vmulq_f64(ld(&tw.w1im, j), sign);
                let w2re = ld(&tw.w2re, j);
                let w2im = vmulq_f64(ld(&tw.w2im, j), sign);
                let w3re = ld(&tw.w3re, j);
                let w3im = vmulq_f64(ld(&tw.w3im, j), sign);
                let (are, aim) = (ld(re, i0), ld(im, i0));
                let (bre, bim) = cmul(ld(re, i1), ld(im, i1), w1re, w1im);
                let (cre, cim) = cmul(ld(re, i2), ld(im, i2), w2re, w2im);
                let (ere, eim) = cmul(ld(re, i3), ld(im, i3), w3re, w3im);
                let (t0re, t0im) = (vaddq_f64(are, cre), vaddq_f64(aim, cim));
                let (t1re, t1im) = (vsubq_f64(are, cre), vsubq_f64(aim, cim));
                let (t2re, t2im) = (vaddq_f64(bre, ere), vaddq_f64(bim, eim));
                let (t3re, t3im) = (vsubq_f64(bre, ere), vsubq_f64(bim, eim));
                // r = t3 * (-i) forward / (+i) inverse:
                // r_re = sign * t3_im, r_im = -sign * t3_re.
                let rre = vmulq_f64(t3im, sign);
                let rim = vmulq_f64(t3re, neg_sign);
                st(re, i0, vaddq_f64(t0re, t2re));
                st(im, i0, vaddq_f64(t0im, t2im));
                st(re, i1, vaddq_f64(t1re, rre));
                st(im, i1, vaddq_f64(t1im, rim));
                st(re, i2, vsubq_f64(t0re, t2re));
                st(im, i2, vsubq_f64(t0im, t2im));
                st(re, i3, vsubq_f64(t1re, rre));
                st(im, i3, vsubq_f64(t1im, rim));
            }
        }
    }
}
