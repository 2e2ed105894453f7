//! The array-structured FFT: the paper's primary contribution as a
//! software golden model.
//!
//! [`ArrayFft`] executes exactly the data flow of the ASIP — two epochs
//! of CRF-resident groups, the fixed BU module per stage, pre-rotation
//! on the epoch-0 store path, transposed output layout — in plain Rust.
//! The instruction-set simulator's FFT program is verified point-for-
//! point against this model.

use crate::address::{
    epoch0_load_addr, epoch0_store_addr, epoch1_load_addr, epoch1_store_addr, module_butterflies,
    prerot_exponent, transposed_to_natural_bin, Butterfly,
};
use crate::bits::bit_reverse;
use crate::engine::check_io;
use crate::error::FftError;
use crate::plan::Split;
use crate::reference::Direction;
use crate::rom::{CoefRom, PrerotTable};
use crate::stage::{butterfly_dif, run_group, Scaling};
use afft_num::{Complex, Scalar};

/// A planned array-structured FFT of a fixed size `N`.
///
/// Construction precomputes the epoch split, the `P/2`-entry coefficient
/// ROM and the `N/8 + 1`-entry pre-rotation table; [`ArrayFft::process`]
/// then runs in `O(N log N)` with no allocation beyond the output and
/// one CRF-sized scratch buffer. For steady-state traffic the plan also
/// owns reusable scratch: [`ArrayFft::process_into`] writes into a
/// caller buffer and performs **zero heap allocation** per transform
/// after the first call.
///
/// # Examples
///
/// ```
/// use afft_core::{ArrayFft, Direction};
/// use afft_num::Complex;
///
/// let fft: ArrayFft<f64> = ArrayFft::new(64)?;
/// let mut x = vec![Complex::zero(); 64];
/// x[0] = Complex::new(1.0, 0.0);
/// let y = fft.process(&x, Direction::Forward)?;
/// assert!(y.iter().all(|b| (b.re - 1.0).abs() < 1e-9)); // flat spectrum
/// # Ok::<(), afft_core::FftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArrayFft<T> {
    split: Split,
    rom: CoefRom<T>,
    prerot: PrerotTable<T>,
    scaling: Scaling,
    // Reusable per-plan work buffers for the allocation-free path:
    // the inter-epoch staging array and the CRF group buffer. Lazily
    // sized on the first `process_into`, stable thereafter.
    mid_scratch: Vec<Complex<T>>,
    crf_scratch: Vec<Complex<T>>,
    // Compiled lazily on the first `process_into`, like the scratch:
    // symbolic-path-only consumers never pay for it.
    sched: Option<CompiledSchedule<T>>,
}

/// The plan-compiled hot-path schedule behind [`ArrayFft::process_into`]:
/// the AC unit's symbolic address algebra and the coefficient-ROM
/// octant reconstruction, evaluated once at plan time into flat tables.
/// The per-transform loops then run pure gathers, butterflies and
/// scatters — same operations in the same order as the symbolic path
/// (the transforms are bit-identical), with none of the per-point
/// address arithmetic. Forward coefficients are stored; the inverse
/// direction conjugates at use, exactly as the ROM read path does.
#[derive(Debug, Clone)]
struct CompiledSchedule<T> {
    /// Flattened stage-major butterfly list of the `P`-point group,
    /// each with its reconstructed forward twiddle.
    p_group: Vec<(Butterfly, Complex<T>)>,
    /// Likewise for the `Q`-point group of epoch 1.
    q_group: Vec<(Butterfly, Complex<T>)>,
    /// Forward pre-rotation coefficient per epoch-0 store, `[l][bin]`.
    prerot: Vec<Complex<T>>,
    /// `bit_reverse(bin, p_stages)` per output bin of a `P` group.
    rev_p: Vec<usize>,
    /// `bit_reverse(t, q_stages)` per output point of a `Q` group.
    rev_q: Vec<usize>,
}

impl<T: Scalar> CompiledSchedule<T> {
    fn new(split: &Split, rom: &CoefRom<T>, prerot: &PrerotTable<T>) -> Self {
        let group = |g_size: usize, stages: u32| -> Vec<(Butterfly, Complex<T>)> {
            let mut bfs = Vec::with_capacity((g_size / 2) * stages as usize);
            for j in 1..=stages {
                for i in 1..=(g_size / 8) {
                    for bf in module_butterflies(stages, j, i) {
                        bfs.push((bf, rom.group_twiddle(g_size, bf.rom_addr, Direction::Forward)));
                    }
                }
            }
            bfs
        };
        CompiledSchedule {
            p_group: group(split.p_size, split.p_stages),
            q_group: group(split.q_size, split.q_stages),
            prerot: (0..split.q_size)
                .flat_map(|l| (0..split.p_size).map(move |bin| prerot_exponent(split, l, bin)))
                .map(|e| prerot.coefficient(e))
                .collect(),
            rev_p: (0..split.p_size).map(|bin| bit_reverse(bin, split.p_stages)).collect(),
            rev_q: (0..split.q_size).map(|t| bit_reverse(t, split.q_stages)).collect(),
        }
    }
}

/// Runs a compiled group schedule in place: the same butterfly sequence
/// [`run_group`] walks symbolically, off the flat table.
fn run_group_compiled<T: Scalar>(
    crf: &mut [Complex<T>],
    bfs: &[(Butterfly, Complex<T>)],
    dir: Direction,
    scaling: Scaling,
) {
    match dir {
        Direction::Forward => {
            for &(bf, w) in bfs {
                butterfly_dif(crf, bf, w, scaling);
            }
        }
        Direction::Inverse => {
            for &(bf, w) in bfs {
                butterfly_dif(crf, bf, w.conj(), scaling);
            }
        }
    }
}

impl<T: Scalar> ArrayFft<T> {
    /// Plans an `N`-point transform with no per-stage scaling (exact
    /// DFT amplitudes; the right choice for `f64`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `N` is a power of two
    /// `>= 64` (see [`Split::for_size`]).
    pub fn new(n: usize) -> Result<Self, FftError> {
        Self::with_scaling(n, Scaling::None)
    }

    /// Plans an `N`-point transform with explicit datapath scaling.
    ///
    /// Use [`Scaling::HalfPerStage`] for fixed-point element types: the
    /// output is then the DFT divided by `N`, and no stage can overflow.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `N` is a power of two
    /// `>= 64`.
    pub fn with_scaling(n: usize, scaling: Scaling) -> Result<Self, FftError> {
        Self::with_split(Split::for_size(n)?, scaling)
    }

    /// Plans with an explicit `N = P * Q` factorisation (used by the
    /// ablation experiments probing non-canonical splits).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidDecomposition`] for invalid factors,
    /// including `Q > P` (the coefficient ROM is sized for `P`, the
    /// larger epoch-0 group, and cannot serve a wider epoch-1 group).
    pub fn with_split(split: Split, scaling: Scaling) -> Result<Self, FftError> {
        if split.q_size > split.p_size {
            return Err(FftError::InvalidDecomposition {
                reason: format!(
                    "epoch-1 group Q={} exceeds the ROM's group size P={}",
                    split.q_size, split.p_size
                ),
            });
        }
        Ok(ArrayFft {
            rom: CoefRom::new(split.p_size)?,
            prerot: PrerotTable::new(split.n)?,
            split,
            scaling,
            mid_scratch: Vec::new(),
            crf_scratch: Vec::new(),
            sched: None,
        })
    }

    /// The epoch decomposition in use.
    pub fn split(&self) -> &Split {
        &self.split
    }

    /// The intra-epoch coefficient ROM.
    pub fn rom(&self) -> &CoefRom<T> {
        &self.rom
    }

    /// The inter-epoch pre-rotation table.
    pub fn prerot(&self) -> &PrerotTable<T> {
        &self.prerot
    }

    /// The configured datapath scaling.
    pub fn scaling(&self) -> Scaling {
        self.scaling
    }

    /// Transform size `N`.
    pub fn len(&self) -> usize {
        self.split.n
    }

    /// Never true for a planned transform; provided alongside
    /// [`ArrayFft::len`] for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Runs the transform, leaving the result in the **hardware layout**:
    /// FFT bin `s + P*t` at output address `t + Q*s` (the paper's
    /// `AO1 = [AL][AH]` order). This is bit-exact what the ASIP's memory
    /// holds after `STOUT` of epoch 1.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != N`.
    pub fn process_transposed(
        &self,
        input: &[Complex<T>],
        dir: Direction,
    ) -> Result<Vec<Complex<T>>, FftError> {
        let s = &self.split;
        if input.len() != s.n {
            return Err(FftError::LengthMismatch { expected: s.n, got: input.len() });
        }
        let mut out = vec![Complex::zero(); s.n];
        let mut mid = vec![Complex::zero(); s.n];
        let mut crf = vec![Complex::zero(); s.p_size];
        run_epochs(
            s,
            &self.rom,
            &self.prerot,
            self.scaling,
            input,
            &mut out,
            &mut mid,
            &mut crf,
            dir,
            false,
        );
        Ok(out)
    }

    /// Runs the transform and gathers the result into **natural bin
    /// order** (`out[k] = X(k)`), the convenient library-level view.
    ///
    /// This is the allocating path: it builds the output and per-call
    /// work buffers on every invocation. Steady-state callers should
    /// prefer [`ArrayFft::process_into`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != N`.
    pub fn process(
        &self,
        input: &[Complex<T>],
        dir: Direction,
    ) -> Result<Vec<Complex<T>>, FftError> {
        let s = &self.split;
        if input.len() != s.n {
            return Err(FftError::LengthMismatch { expected: s.n, got: input.len() });
        }
        let mut out = vec![Complex::zero(); s.n];
        let mut mid = vec![Complex::zero(); s.n];
        let mut crf = vec![Complex::zero(); s.p_size];
        run_epochs(
            s,
            &self.rom,
            &self.prerot,
            self.scaling,
            input,
            &mut out,
            &mut mid,
            &mut crf,
            dir,
            true,
        );
        Ok(out)
    }

    /// Runs the transform into a caller-provided **natural-bin-order**
    /// buffer, reusing the plan's own scratch: after the first call the
    /// transform performs **no heap allocation**, and the epoch-1 store
    /// path scatters straight into `output` (the hardware-layout
    /// staging pass of [`ArrayFft::process`] is fused away).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != N` or
    /// `output.len() != N`.
    pub fn process_into(
        &mut self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        dir: Direction,
    ) -> Result<(), FftError> {
        let s = &self.split;
        check_io(s.n, input, output)?;
        self.mid_scratch.resize(s.n, Complex::zero());
        self.crf_scratch.resize(s.p_size, Complex::zero());
        if self.sched.is_none() {
            self.sched = Some(CompiledSchedule::new(&self.split, &self.rom, &self.prerot));
        }
        let (p, q) = (self.split.p_size, self.split.q_size);
        let mid = &mut self.mid_scratch[..];
        let crf = &mut self.crf_scratch[..];
        let sched = self.sched.as_ref().expect("compiled above");

        // Epoch 0: Q groups of P points, pre-rotated on the store path.
        for l in 0..q {
            for (m, slot) in crf.iter_mut().enumerate() {
                *slot = input[l + q * m];
            }
            run_group_compiled(crf, &sched.p_group, dir, self.scaling);
            let row = &sched.prerot[l * p..(l + 1) * p];
            let mid_row = &mut mid[l * p..(l + 1) * p];
            for (bin, slot) in mid_row.iter_mut().enumerate() {
                let v = crf[sched.rev_p[bin]];
                let w = match dir {
                    Direction::Forward => row[bin],
                    Direction::Inverse => row[bin].conj(),
                };
                *slot = v * w; // epoch0_store_addr(l, bin) = bin + P*l
            }
        }

        // Epoch 1: P groups of Q points, scattered straight into
        // natural bin order (store address t + Q*g holds bin g + P*t).
        for g in 0..p {
            for (l, slot) in crf.iter_mut().take(q).enumerate() {
                *slot = mid[g + p * l];
            }
            run_group_compiled(&mut crf[..q], &sched.q_group, dir, self.scaling);
            for t in 0..q {
                output[g + p * t] = crf[sched.rev_q[t]];
            }
        }
        Ok(())
    }

    /// Reorders a hardware-layout result into natural bin order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn natural_from_transposed(&self, data: &[Complex<T>]) -> Vec<Complex<T>> {
        assert_eq!(data.len(), self.split.n, "natural_from_transposed: length mismatch");
        let mut out = vec![Complex::zero(); self.split.n];
        for (addr, &v) in data.iter().enumerate() {
            out[transposed_to_natural_bin(&self.split, addr)] = v;
        }
        out
    }
}

/// Both epochs of the array schedule over caller-provided buffers.
/// `natural_order` selects the epoch-1 store mapping: the raw hardware
/// layout (`AO1` addresses), or the fused scatter into natural bin
/// order (one store pass instead of store-then-reorder).
#[allow(clippy::too_many_arguments)]
fn run_epochs<T: Scalar>(
    s: &Split,
    rom: &CoefRom<T>,
    prerot: &PrerotTable<T>,
    scaling: Scaling,
    input: &[Complex<T>],
    out: &mut [Complex<T>],
    mid: &mut [Complex<T>],
    crf: &mut [Complex<T>],
    dir: Direction,
    natural_order: bool,
) {
    // Epoch 0: Q groups of P points.
    for l in 0..s.q_size {
        for m in 0..s.p_size {
            crf[m] = input[epoch0_load_addr(s, l, m)];
        }
        run_group(crf, rom, s.p_size, dir, scaling);
        for bin in 0..s.p_size {
            let v = crf[bit_reverse(bin, s.p_stages)];
            let w = prerot.coefficient_dir(prerot_exponent(s, l, bin), dir);
            mid[epoch0_store_addr(s, l, bin)] = v * w;
        }
    }

    // Epoch 1: P groups of Q points.
    for g in 0..s.p_size {
        for l in 0..s.q_size {
            crf[l] = mid[epoch1_load_addr(s, g, l)];
        }
        run_group(crf, rom, s.q_size, dir, scaling);
        for t in 0..s.q_size {
            let addr = epoch1_store_addr(s, g, t);
            let slot = if natural_order { transposed_to_natural_bin(s, addr) } else { addr };
            out[slot] = crf[bit_reverse(t, s.q_stages)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dft_naive, max_error};
    use afft_num::{C64, Q15};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn matches_reference_for_all_paper_sizes() {
        for n in [64usize, 128, 256, 512, 1024] {
            let fft: ArrayFft<f64> = ArrayFft::new(n).unwrap();
            let x = random_signal(n, n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let got = fft.process(&x, Direction::Forward).unwrap();
            assert!(max_error(&got, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn matches_reference_for_extension_sizes() {
        for n in [2048usize, 4096] {
            let fft: ArrayFft<f64> = ArrayFft::new(n).unwrap();
            let x = random_signal(n, n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let got = fft.process(&x, Direction::Forward).unwrap();
            assert!(max_error(&got, &want) < 1e-7 * n as f64, "n={n}");
        }
    }

    #[test]
    fn transposed_layout_is_the_documented_permutation() {
        let n = 128;
        let fft: ArrayFft<f64> = ArrayFft::new(n).unwrap();
        let x = random_signal(n, 2);
        let nat = fft.process(&x, Direction::Forward).unwrap();
        let tr = fft.process_transposed(&x, Direction::Forward).unwrap();
        for (addr, &v) in tr.iter().enumerate() {
            let k = transposed_to_natural_bin(fft.split(), addr);
            assert!(v.dist(nat[k]) < 1e-12);
        }
    }

    #[test]
    fn process_into_is_bit_identical_to_process() {
        // The compiled hot-path schedule replays exactly the symbolic
        // address algebra: same butterflies, same coefficients, same
        // order — the outputs must match bit for bit, not just within
        // tolerance.
        for n in [64usize, 128, 512, 2048] {
            let mut fft: ArrayFft<f64> = ArrayFft::new(n).unwrap();
            let x = random_signal(n, 77 + n as u64);
            let mut out = vec![Complex::zero(); n];
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = fft.process(&x, dir).unwrap();
                fft.process_into(&x, &mut out, dir).unwrap();
                assert_eq!(want, out, "n={n} {dir:?}");
            }
        }
        // Output length is checked like the input's.
        let mut fft: ArrayFft<f64> = ArrayFft::new(64).unwrap();
        let x = random_signal(64, 1);
        let mut short = vec![Complex::zero(); 32];
        assert!(matches!(
            fft.process_into(&x, &mut short, Direction::Forward),
            Err(FftError::LengthMismatch { expected: 64, got: 32 })
        ));
    }

    #[test]
    fn inverse_round_trip() {
        let n = 256;
        let fft: ArrayFft<f64> = ArrayFft::new(n).unwrap();
        let x = random_signal(n, 3);
        let y = fft.process(&x, Direction::Forward).unwrap();
        let z = fft.process(&y, Direction::Inverse).unwrap();
        let scaled: Vec<C64> = z.iter().map(|&v| v * (1.0 / n as f64)).collect();
        assert!(max_error(&scaled, &x) < 1e-9);
    }

    #[test]
    fn non_canonical_split_still_correct() {
        let split = Split::with_factors(1024, 128, 8).unwrap();
        let fft: ArrayFft<f64> = ArrayFft::with_split(split, Scaling::None).unwrap();
        let x = random_signal(1024, 4);
        let want = dft_naive(&x, Direction::Forward).unwrap();
        let got = fft.process(&x, Direction::Forward).unwrap();
        assert!(max_error(&got, &want) < 1e-7);
    }

    #[test]
    fn wide_epoch1_split_is_rejected_at_plan_time() {
        // Q > P passes Split::with_factors (both groups are legal
        // sizes) but the P-sized coefficient ROM cannot serve the
        // epoch-1 group: the plan must error, not panic later.
        let split = Split::with_factors(512, 8, 64).unwrap();
        assert!(matches!(
            ArrayFft::<f64>::with_split(split, Scaling::None),
            Err(FftError::InvalidDecomposition { .. })
        ));
    }

    #[test]
    fn q15_fixed_point_accuracy() {
        let n = 256;
        let fft: ArrayFft<Q15> = ArrayFft::with_scaling(n, Scaling::HalfPerStage).unwrap();
        let xf = random_signal(n, 5);
        let xq: Vec<Complex<Q15>> = xf.iter().map(|&c| Complex::from_c64(c * 0.9)).collect();
        let exact_in: Vec<C64> = xq.iter().map(|q| q.to_c64()).collect();
        let want = dft_naive(&exact_in, Direction::Forward).unwrap();
        let got = fft.process(&xq, Direction::Forward).unwrap();
        // Output is DFT / N; rescale and compare with a tolerance
        // appropriate for a 16-bit datapath with per-stage rounding.
        let gotf: Vec<C64> = got.iter().map(|q| q.to_c64() * n as f64).collect();
        let err = max_error(&gotf, &want);
        let scale: f64 = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
        assert!(err / scale < 0.02, "relative error {}", err / scale);
    }

    #[test]
    fn rejects_wrong_length() {
        let fft: ArrayFft<f64> = ArrayFft::new(64).unwrap();
        let x = vec![Complex::zero(); 32];
        assert!(matches!(
            fft.process(&x, Direction::Forward),
            Err(FftError::LengthMismatch { expected: 64, got: 32 })
        ));
    }

    #[test]
    fn accessors() {
        let fft: ArrayFft<f64> = ArrayFft::new(64).unwrap();
        assert_eq!(fft.len(), 64);
        assert!(!fft.is_empty());
        assert_eq!(fft.split().p_size, 8);
        assert_eq!(fft.rom().len(), 4);
        assert_eq!(fft.prerot().len(), 9);
        assert_eq!(fft.scaling(), Scaling::None);
    }

    #[test]
    fn single_tone_lands_in_right_bin() {
        let n = 64;
        let fft: ArrayFft<f64> = ArrayFft::new(n).unwrap();
        for tone in [0usize, 1, 7, 31, 63] {
            let x: Vec<C64> = (0..n).map(|m| afft_num::twiddle(n, (tone * m) % n).conj()).collect();
            let y = fft.process(&x, Direction::Forward).unwrap();
            for (k, bin) in y.iter().enumerate() {
                let expect = if k == tone { n as f64 } else { 0.0 };
                assert!((bin.abs() - expect).abs() < 1e-7, "tone={tone} k={k}");
            }
        }
    }
}
