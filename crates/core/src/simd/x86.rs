//! AVX2 + FMA back-end: 4 × f64 lanes over split real/imag planes.
//!
//! Mirrors `kernels::radix4_stage_scalar` lane-parallel. Because the
//! data lives in split planes, a vector
//! complex multiply is two FMAs and two multiplies — no shuffles
//! anywhere — and twiddle loads are contiguous. Direction handling is
//! branch-free: the imag twiddle plane and the `∓i` rotation are
//! sign-flipped by XOR masks chosen once per call.
//!
//! All `unsafe` in this file is either a `#[target_feature]` call
//! boundary (callers must have verified AVX2 + FMA at plan time; see
//! `SimdLevel::clamp_to_host`) or a raw unaligned load/store whose
//! bounds are asserted in debug builds and guaranteed by the callers'
//! loop structure (`quarter % 4 == 0`, indices `< n`).

use super::kernels::R4Twiddles;
use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_fmadd_pd, _mm256_fmsub_pd, _mm256_loadu_pd, _mm256_mul_pd,
    _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd,
};

/// Loads 4 lanes from `p[i..i + 4]`.
///
/// # Safety
///
/// Caller must have AVX2 enabled and guarantee `i + 4 <= p.len()`
/// (debug-asserted).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ld(p: &[f64], i: usize) -> __m256d {
    debug_assert!(i + 4 <= p.len());
    // SAFETY: in-bounds per the caller contract above.
    unsafe { _mm256_loadu_pd(p.as_ptr().add(i)) }
}

/// Stores 4 lanes to `p[i..i + 4]`.
///
/// # Safety
///
/// Caller must have AVX2 enabled and guarantee `i + 4 <= p.len()`
/// (debug-asserted).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn st(p: &mut [f64], i: usize, v: __m256d) {
    debug_assert!(i + 4 <= p.len());
    // SAFETY: in-bounds per the caller contract above.
    unsafe { _mm256_storeu_pd(p.as_mut_ptr().add(i), v) }
}

/// Lane-wise complex multiply over split planes:
/// `(are + i·aim) * (bre + i·bim)`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn cmul(are: __m256d, aim: __m256d, bre: __m256d, bim: __m256d) -> (__m256d, __m256d) {
    let re = _mm256_fmsub_pd(are, bre, _mm256_mul_pd(aim, bim));
    let im = _mm256_fmadd_pd(are, bim, _mm256_mul_pd(aim, bre));
    (re, im)
}

/// The three sign masks one direction needs: conjugation of the loaded
/// twiddle imag plane, and the two halves of the `∓i` rotation
/// (`r_re = ±diff_im`, `r_im = ∓diff_re`).
#[inline]
#[target_feature(enable = "avx2")]
fn masks(forward: bool) -> (__m256d, __m256d, __m256d) {
    let neg = _mm256_set1_pd(-0.0);
    let zero = _mm256_setzero_pd();
    if forward {
        (zero, zero, neg)
    } else {
        (neg, neg, zero)
    }
}

/// One full radix-4 DIT stage of size `len`, 4 butterflies per
/// iteration — the AVX2 mirror of `kernels::radix4_stage_scalar`.
///
/// # Safety
///
/// The host must support AVX2 + FMA (verified at plan time via
/// `SimdLevel::clamp_to_host`). `re`/`im` must be equal-length planes
/// with `re.len()` a multiple of `len`, and `len / 4` a multiple of 4.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn radix4_stage_avx2(
    re: &mut [f64],
    im: &mut [f64],
    tw: &R4Twiddles,
    len: usize,
    forward: bool,
) {
    let n = re.len();
    let quarter = len / 4;
    debug_assert!(im.len() == n && n.is_multiple_of(len) && quarter.is_multiple_of(4));
    let (m_conj, m_rot_re, m_rot_im) = masks(forward);
    for base in (0..n).step_by(len) {
        for j in (0..quarter).step_by(4) {
            let i0 = base + j;
            let i1 = i0 + quarter;
            let i2 = i0 + 2 * quarter;
            let i3 = i0 + 3 * quarter;
            // SAFETY: i3 + 4 <= base + len <= n, twiddle planes are
            // `quarter` long — every access below is in bounds.
            unsafe {
                let w1re = ld(&tw.w1re, j);
                let w1im = _mm256_xor_pd(ld(&tw.w1im, j), m_conj);
                let w2re = ld(&tw.w2re, j);
                let w2im = _mm256_xor_pd(ld(&tw.w2im, j), m_conj);
                let w3re = ld(&tw.w3re, j);
                let w3im = _mm256_xor_pd(ld(&tw.w3im, j), m_conj);
                let (are, aim) = (ld(re, i0), ld(im, i0));
                let (bre, bim) = cmul(ld(re, i1), ld(im, i1), w1re, w1im);
                let (cre, cim) = cmul(ld(re, i2), ld(im, i2), w2re, w2im);
                let (ere, eim) = cmul(ld(re, i3), ld(im, i3), w3re, w3im);
                let (t0re, t0im) = (_mm256_add_pd(are, cre), _mm256_add_pd(aim, cim));
                let (t1re, t1im) = (_mm256_sub_pd(are, cre), _mm256_sub_pd(aim, cim));
                let (t2re, t2im) = (_mm256_add_pd(bre, ere), _mm256_add_pd(bim, eim));
                let (t3re, t3im) = (_mm256_sub_pd(bre, ere), _mm256_sub_pd(bim, eim));
                let rre = _mm256_xor_pd(t3im, m_rot_re);
                let rim = _mm256_xor_pd(t3re, m_rot_im);
                st(re, i0, _mm256_add_pd(t0re, t2re));
                st(im, i0, _mm256_add_pd(t0im, t2im));
                st(re, i1, _mm256_add_pd(t1re, rre));
                st(im, i1, _mm256_add_pd(t1im, rim));
                st(re, i2, _mm256_sub_pd(t0re, t2re));
                st(im, i2, _mm256_sub_pd(t0im, t2im));
                st(re, i3, _mm256_sub_pd(t1re, rre));
                st(im, i3, _mm256_sub_pd(t1im, rim));
            }
        }
    }
}
