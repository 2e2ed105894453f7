//! Multi-epoch (variable-length-epoch) cached FFT — the MCFFT extension
//! of Atak et al. (ICASSP 2006), reference \[13\] of the paper.
//!
//! Where Baas fixes two epochs of equal length, the MCFFT generalises to
//! `E` epochs of arbitrary power-of-two factor sizes
//! `N = N_1 * N_2 * ... * N_E`, trading cache size against the number of
//! cache load/dump passes. We implement the general recursive four-step
//! decomposition; each recursion level is one epoch, so main-memory
//! traffic is `E * N` loads and `E * N` stores.

use crate::cached::MemTraffic;
use crate::engine::check_io;
use crate::error::FftError;
use crate::reference::{fft_radix2_dit_f64, Direction};
use afft_num::{Complex, C64};

/// A validated multi-epoch decomposition of a transform size.
///
/// # Examples
///
/// ```
/// use afft_core::mcfft::Epochs;
///
/// let e = Epochs::new(512, &[8, 8, 8])?;
/// assert_eq!(e.epoch_count(), 3);
/// assert_eq!(e.traffic().loads, 3 * 512);
/// # Ok::<(), afft_core::FftError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epochs {
    n: usize,
    factors: Vec<usize>,
}

impl Epochs {
    /// Validates a factor list for size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidDecomposition`] unless every factor is
    /// a power of two `>= 2` and the product equals `n`.
    pub fn new(n: usize, factors: &[usize]) -> Result<Self, FftError> {
        if factors.is_empty() {
            return Err(FftError::InvalidDecomposition { reason: "no factors".into() });
        }
        let mut prod = 1usize;
        for &f in factors {
            if !f.is_power_of_two() || f < 2 {
                return Err(FftError::InvalidDecomposition {
                    reason: format!("factor {f} is not a power of two >= 2"),
                });
            }
            prod = prod.checked_mul(f).ok_or_else(|| FftError::InvalidDecomposition {
                reason: "factor product overflows".into(),
            })?;
        }
        if prod != n {
            return Err(FftError::InvalidDecomposition {
                reason: format!("factors multiply to {prod}, not {n}"),
            });
        }
        Ok(Epochs { n, factors: factors.to_vec() })
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The factor list.
    pub fn factors(&self) -> &[usize] {
        &self.factors
    }

    /// Number of epochs `E`.
    pub fn epoch_count(&self) -> usize {
        self.factors.len()
    }

    /// Largest factor: the cache (CRF) capacity this decomposition needs.
    pub fn cache_points(&self) -> usize {
        *self.factors.iter().max().expect("validated non-empty")
    }

    /// Main-memory traffic of the multi-epoch schedule: every epoch
    /// loads and stores all `N` points once.
    pub fn traffic(&self) -> MemTraffic {
        MemTraffic { loads: self.epoch_count() * self.n, stores: self.epoch_count() * self.n }
    }
}

/// Reusable work buffers for [`mcfft_into`]: one arena of per-recursion
/// level buffers (staging array, epoch group, sub-transform input and
/// output), lazily sized on first use and stable across transforms, so
/// a warm scratch set makes every subsequent transform allocation-free.
#[derive(Debug, Clone, Default)]
pub struct McfftScratch {
    levels: Vec<Vec<C64>>,
}

impl McfftScratch {
    /// An empty scratch arena; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Four buffers per splitting recursion level.
    fn level_bufs(&mut self, depth: usize) -> &mut [Vec<C64>] {
        let need = 4 * depth;
        if self.levels.len() < need {
            self.levels.resize_with(need, Vec::new);
        }
        &mut self.levels[..need]
    }
}

/// Runs the multi-epoch cached FFT, returning the spectrum in natural
/// bin order.
///
/// This is the allocating path; steady-state callers should reuse
/// buffers through [`mcfft_into`].
///
/// # Errors
///
/// Returns [`FftError::LengthMismatch`] if the input length differs
/// from the decomposition size.
pub fn mcfft(input: &[C64], epochs: &Epochs, dir: Direction) -> Result<Vec<C64>, FftError> {
    let mut out = vec![Complex::zero(); epochs.n];
    let mut scratch = McfftScratch::new();
    mcfft_into(input, &mut out, epochs, dir, &mut scratch)?;
    Ok(out)
}

/// The allocation-free primitive behind [`mcfft`]: writes the
/// natural-order spectrum into `output`, reusing the caller's
/// [`McfftScratch`] arena across the recursive epoch decomposition.
///
/// # Errors
///
/// Returns [`FftError::LengthMismatch`] if `input` or `output` differ
/// from the decomposition size.
pub fn mcfft_into(
    input: &[C64],
    output: &mut [C64],
    epochs: &Epochs,
    dir: Direction,
    scratch: &mut McfftScratch,
) -> Result<(), FftError> {
    check_io(epochs.n, input, output)?;
    let depth = epochs.factors.len().saturating_sub(1);
    four_step_into(input, output, &epochs.factors, dir, scratch.level_bufs(depth))
}

fn four_step_into(
    x: &[C64],
    out: &mut [C64],
    factors: &[usize],
    dir: Direction,
    scratch: &mut [Vec<C64>],
) -> Result<(), FftError> {
    let n = x.len();
    if factors.len() == 1 {
        out.copy_from_slice(x);
        return fft_radix2_dit_f64(out, dir);
    }
    let p = factors[0];
    let r = n / p;
    let (mine, deeper) = scratch.split_at_mut(4);
    let [mid, group, sub_in, sub_out] = mine else { unreachable!("split_at_mut(4)") };
    mid.resize(n, Complex::zero());
    group.resize(p, Complex::zero());
    sub_in.resize(r, Complex::zero());
    sub_out.resize(r, Complex::zero());

    // Epoch: P-point FFT over each residue class, then pre-rotation.
    for l in 0..r {
        for (m, slot) in group.iter_mut().take(p).enumerate() {
            *slot = x[l + r * m];
        }
        fft_radix2_dit_f64(&mut group[..p], dir)?;
        for (s, &z) in group.iter().take(p).enumerate() {
            let w = dir.twiddle(n, (s * l) % n);
            mid[s + p * l] = z * w;
        }
    }
    // Remaining epochs: recursive R-point transforms.
    for s in 0..p {
        for (l, slot) in sub_in.iter_mut().take(r).enumerate() {
            *slot = mid[s + p * l];
        }
        four_step_into(&sub_in[..r], &mut sub_out[..r], &factors[1..], dir, deeper)?;
        for (t, &v) in sub_out.iter().take(r).enumerate() {
            out[s + p * t] = v;
        }
    }
    Ok(())
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
    fn three_epoch_512_matches_reference() {
        let n = 512;
        let e = Epochs::new(n, &[8, 8, 8]).unwrap();
        let x = random_signal(n, 1);
        let want = dft_naive(&x, Direction::Forward).unwrap();
        let got = mcfft(&x, &e, Direction::Forward).unwrap();
        assert!(max_error(&got, &want) < 1e-8);
    }

    #[test]
    fn unequal_epochs_match_reference() {
        let n = 1024;
        for factors in [vec![64, 16], vec![4, 16, 16], vec![2, 2, 256], vec![1024]] {
            let e = Epochs::new(n, &factors).unwrap();
            let x = random_signal(n, 7);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let got = mcfft(&x, &e, Direction::Forward).unwrap();
            assert!(max_error(&got, &want) < 1e-7, "factors {factors:?}");
        }
    }

    #[test]
    fn traffic_scales_with_epoch_count() {
        let two = Epochs::new(1024, &[32, 32]).unwrap();
        let three = Epochs::new(1024, &[16, 8, 8]).unwrap();
        assert_eq!(two.traffic().total(), 4096);
        assert_eq!(three.traffic().total(), 6144);
        // But the cache requirement shrinks: the MCFFT trade-off.
        assert_eq!(two.cache_points(), 32);
        assert_eq!(three.cache_points(), 16);
    }

    #[test]
    fn rejects_invalid_decompositions() {
        assert!(Epochs::new(512, &[8, 8]).is_err());
        assert!(Epochs::new(512, &[3, 171]).is_err());
        assert!(Epochs::new(512, &[]).is_err());
    }

    #[test]
    fn inverse_round_trip() {
        let n = 256;
        let e = Epochs::new(n, &[16, 4, 4]).unwrap();
        let x = random_signal(n, 9);
        let y = mcfft(&x, &e, Direction::Forward).unwrap();
        let z = mcfft(&y, &e, Direction::Inverse).unwrap();
        let scaled: Vec<C64> = z.iter().map(|&v| v * (1.0 / n as f64)).collect();
        assert!(max_error(&scaled, &x) < 1e-9);
    }

    #[test]
    fn length_mismatch_is_reported() {
        let e = Epochs::new(64, &[8, 8]).unwrap();
        assert!(matches!(
            mcfft(&[Complex::zero(); 32], &e, Direction::Forward),
            Err(FftError::LengthMismatch { .. })
        ));
    }
}
