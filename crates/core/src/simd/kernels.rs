//! The portable split-plane kernels: the interleaving layout pass (and
//! its fused odd-size radix-2 variant), twiddle tables in
//! structure-of-arrays form, and the scalar reference implementation
//! of the vectorized radix-4 butterfly.
//!
//! Everything here is safe code over `f64` planes. The architecture
//! back-ends (`x86`/`neon`) mirror these loops lane-parallel; the
//! equivalence suite holds them to this reference.

use afft_num::{twiddle, C64};

/// Recombines real/imag planes into interleaved complex points.
pub(crate) fn interleave(re: &[f64], im: &[f64], dst: &mut [C64]) {
    debug_assert!(dst.len() == re.len() && dst.len() == im.len());
    for ((c, r), i) in dst.iter_mut().zip(re.iter()).zip(im.iter()) {
        c.re = *r;
        c.im = *i;
    }
}

/// The closing radix-2 pass of an odd-`log₂` transform, fused with the
/// interleave: the first half of `re`/`im` holds the even samples'
/// spectrum `E`, the second half the odd samples' `O`, and
/// `dst[j] = E[j] + w·O[j]`, `dst[j + n/2] = E[j] - w·O[j]` with
/// `w = tw[j] = W_n^j`. `sign` is `+1.0` forward, `-1.0` inverse
/// (conjugated twiddles).
pub(crate) fn radix2_interleave(re: &[f64], im: &[f64], tw: &[C64], sign: f64, dst: &mut [C64]) {
    let half = tw.len();
    let (ere, ore) = re.split_at(half);
    let (eim, oim) = im.split_at(half);
    let (lo, hi) = dst.split_at_mut(half);
    for j in 0..half {
        let (wre, wim) = (tw[j].re, sign * tw[j].im);
        let tre = ore[j] * wre - oim[j] * wim;
        let tim = ore[j] * wim + oim[j] * wre;
        lo[j] = C64::new(ere[j] + tre, eim[j] + tim);
        hi[j] = C64::new(ere[j] - tre, eim[j] - tim);
    }
}

/// One radix-4 stage's twiddle triples in split (structure-of-arrays)
/// form: `w1 = W_len^j`, `w2 = W_len^{2j}`, `w3 = W_len^{3j}` for
/// `j in 0..len/4`, each as separate re/im planes so a vector lane
/// loads contiguously. Stored forward; the inverse negates the imag
/// plane on load.
#[derive(Debug, Clone)]
pub(crate) struct R4Twiddles {
    pub w1re: Vec<f64>,
    pub w1im: Vec<f64>,
    pub w2re: Vec<f64>,
    pub w2im: Vec<f64>,
    pub w3re: Vec<f64>,
    pub w3im: Vec<f64>,
}

impl R4Twiddles {
    /// The split twiddle table of one radix-4 stage of size `len`.
    pub(crate) fn for_stage(len: usize) -> Self {
        let quarter = len / 4;
        let mut t = R4Twiddles {
            w1re: Vec::with_capacity(quarter),
            w1im: Vec::with_capacity(quarter),
            w2re: Vec::with_capacity(quarter),
            w2im: Vec::with_capacity(quarter),
            w3re: Vec::with_capacity(quarter),
            w3im: Vec::with_capacity(quarter),
        };
        for j in 0..quarter {
            let w1 = twiddle(len, j);
            let w2 = twiddle(len, 2 * j % len);
            let w3 = twiddle(len, 3 * j % len);
            t.w1re.push(w1.re);
            t.w1im.push(w1.im);
            t.w2re.push(w2.re);
            t.w2im.push(w2.im);
            t.w3re.push(w3.re);
            t.w3im.push(w3.im);
        }
        t
    }
}

/// One full radix-4 DIT stage of size `len` over the whole `re`/`im`
/// planes, in place — the scalar reference of the vector stage
/// kernels. `sign` is `+1.0` forward, `-1.0` inverse (conjugated
/// twiddles, `+i` rotation).
pub(crate) fn radix4_stage_scalar(
    re: &mut [f64],
    im: &mut [f64],
    tw: &R4Twiddles,
    len: usize,
    sign: f64,
) {
    let n = re.len();
    let quarter = len / 4;
    for base in (0..n).step_by(len) {
        for j in 0..quarter {
            let w1re = tw.w1re[j];
            let w1im = sign * tw.w1im[j];
            let w2re = tw.w2re[j];
            let w2im = sign * tw.w2im[j];
            let w3re = tw.w3re[j];
            let w3im = sign * tw.w3im[j];
            let i0 = base + j;
            let i1 = i0 + quarter;
            let i2 = i0 + 2 * quarter;
            let i3 = i0 + 3 * quarter;
            let (are, aim) = (re[i0], im[i0]);
            let (bre, bim) = (re[i1] * w1re - im[i1] * w1im, re[i1] * w1im + im[i1] * w1re);
            let (cre, cim) = (re[i2] * w2re - im[i2] * w2im, re[i2] * w2im + im[i2] * w2re);
            let (ere, eim) = (re[i3] * w3re - im[i3] * w3im, re[i3] * w3im + im[i3] * w3re);
            let (t0re, t0im) = (are + cre, aim + cim);
            let (t1re, t1im) = (are - cre, aim - cim);
            let (t2re, t2im) = (bre + ere, bim + eim);
            let (t3re, t3im) = (bre - ere, bim - eim);
            // The 4-point DFT's only rotation: -i forward, +i inverse.
            let (rre, rim) = (sign * t3im, -sign * t3re);
            re[i0] = t0re + t2re;
            im[i0] = t0im + t2im;
            re[i1] = t1re + rre;
            im[i1] = t1im + rim;
            re[i2] = t0re - t2re;
            im[i2] = t0im - t2im;
            re[i3] = t1re - rre;
            im[i3] = t1im - rim;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_num::Complex;

    #[test]
    fn layout_passes_round_trip() {
        let src: Vec<C64> = (0..9).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let re: Vec<f64> = src.iter().map(|c| c.re).collect();
        let im: Vec<f64> = src.iter().map(|c| c.im).collect();
        let mut back = vec![Complex::zero(); 9];
        interleave(&re, &im, &mut back);
        assert_eq!(src, back);
    }

    #[test]
    fn twiddle_tables_match_the_scalar_twiddles() {
        let t = R4Twiddles::for_stage(16);
        for j in 0..4 {
            assert_eq!(Complex::new(t.w1re[j], t.w1im[j]), twiddle(16, j));
            assert_eq!(Complex::new(t.w2re[j], t.w2im[j]), twiddle(16, 2 * j));
            assert_eq!(Complex::new(t.w3re[j], t.w3im[j]), twiddle(16, 3 * j));
        }
    }
}
