//! Coefficient storage: the on-chip twiddle ROM and the
//! octant-compressed inter-epoch pre-rotation table (Section II-C).

use crate::error::FftError;
use crate::reference::Direction;
use afft_num::{twiddle, Complex, Scalar};

/// The on-chip coefficient ROM holding the `P/2` intra-epoch twiddles
/// `W_P^0 .. W_P^{P/2-1}`.
///
/// Epoch-1 groups (size `Q <= P`) read the same ROM with their exponents
/// scaled by `P/Q`, since `W_Q^e = W_P^{e * P/Q}` — no second ROM is
/// needed, which the paper exploits by sizing one ROM for `P`.
///
/// # Examples
///
/// ```
/// use afft_core::rom::CoefRom;
///
/// let rom: CoefRom<f64> = CoefRom::new(8)?;
/// assert_eq!(rom.len(), 4);
/// let w2 = rom.entry(2); // W_8^2 = -i
/// assert!((w2.im - (-1.0)).abs() < 1e-12);
/// # Ok::<(), afft_core::FftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoefRom<T> {
    p_size: usize,
    entries: Vec<Complex<T>>,
}

impl<T: Scalar> CoefRom<T> {
    /// Builds the ROM for group size `P` (quantising each `W_P^k` into
    /// the element type).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `P` is a power of two of
    /// at least 2.
    pub fn new(p_size: usize) -> Result<Self, FftError> {
        crate::reference::check_pow2(p_size)?;
        let entries = (0..p_size / 2).map(|k| Complex::from_c64(twiddle(p_size, k))).collect();
        Ok(CoefRom { p_size, entries })
    }

    /// Number of ROM entries (`P/2`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROM is empty (only for `P = 2`... never in practice;
    /// provided for `len`/`is_empty` API completeness).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Group size `P` this ROM was built for.
    pub fn p_size(&self) -> usize {
        self.p_size
    }

    /// Reads entry `k`, i.e. `W_P^k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= P/2`.
    #[inline]
    pub fn entry(&self, k: usize) -> Complex<T> {
        self.entries[k]
    }

    /// Reads the twiddle `W_G^e` for a sub-group of size `G <= P`
    /// (`G` a power of two): exponent is rescaled onto the `P`-sized ROM.
    ///
    /// For the forward transform this is `entry(e * P/G)`; the inverse
    /// transform conjugates.
    ///
    /// # Panics
    ///
    /// Panics if `G` does not divide `P` or `e >= G/2`.
    #[inline]
    pub fn group_twiddle(&self, g_size: usize, e: usize, dir: Direction) -> Complex<T> {
        assert!(
            g_size.is_power_of_two() && g_size <= self.p_size,
            "group_twiddle: group size {g_size} incompatible with ROM for {}",
            self.p_size
        );
        assert!(e < g_size / 2, "group_twiddle: exponent {e} out of range for size {g_size}");
        let w = self.entry(e * (self.p_size / g_size));
        match dir {
            Direction::Forward => w,
            Direction::Inverse => w.conj(),
        }
    }
}

/// How the octant expander rebuilds a coefficient from a table entry
/// `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OctantOp {
    /// `(a, b)` — identity.
    Identity,
    /// `(-b, -a)` — swap then negate both.
    NegSwap,
    /// `(b, -a)` — multiply by `-i`.
    MulNegI,
    /// `(-a, b)` — negate real part.
    NegRe,
    /// `(-a, -b)` — negate both.
    Neg,
    /// `(b, a)` — swap.
    Swap,
    /// `(-b, a)` — multiply by `i`.
    MulI,
    /// `(a, -b)` — conjugate.
    Conj,
}

impl OctantOp {
    /// Applies the reconstruction to a table entry.
    pub fn apply<T: Scalar>(self, w: Complex<T>) -> Complex<T> {
        match self {
            OctantOp::Identity => w,
            OctantOp::NegSwap => Complex::new(-w.im, -w.re),
            OctantOp::MulNegI => w.mul_neg_i(),
            OctantOp::NegRe => Complex::new(-w.re, w.im),
            OctantOp::Neg => -w,
            OctantOp::Swap => w.swap(),
            OctantOp::MulI => w.mul_i(),
            OctantOp::Conj => w.conj(),
        }
    }
}

/// A resolved pre-rotation access: which table entry to fetch and how to
/// expand it. This is what the `STOUT` store path's coefficient logic
/// computes; the simulator uses `index` to model the memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrerotRef {
    /// Table index in `0 ..= N/8`.
    pub index: usize,
    /// Octant reconstruction to apply to the fetched `(a, b)`.
    pub op: OctantOp,
}

/// The inter-epoch pre-rotation table: only the first `N/8 + 1`
/// coefficients `W_N^0 .. W_N^{N/8}` are stored (in main memory on the
/// real system); every other `W_N^e` is reconstructed by the circular
/// symmetry of the unit circle — the paper's Section II-C compression.
///
/// # Examples
///
/// ```
/// use afft_core::rom::PrerotTable;
///
/// let t: PrerotTable<f64> = PrerotTable::new(64)?;
/// assert_eq!(t.len(), 64 / 8 + 1);
/// let w = t.coefficient(48); // W_64^48 = +i
/// assert!(w.re.abs() < 1e-12 && (w.im - 1.0).abs() < 1e-12);
/// # Ok::<(), afft_core::FftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrerotTable<T> {
    n: usize,
    entries: Vec<Complex<T>>,
}

impl<T: Scalar> PrerotTable<T> {
    /// Builds the compressed table for transform size `N`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `N` is a power of two of
    /// at least 8 (below 8 the octant structure degenerates).
    pub fn new(n: usize) -> Result<Self, FftError> {
        crate::reference::check_pow2(n)?;
        if n < 8 {
            return Err(FftError::InvalidSize {
                n,
                reason: "pre-rotation table needs N >= 8",
                factor: None,
            });
        }
        let entries = (0..=n / 8).map(|k| Complex::from_c64(twiddle(n, k))).collect();
        Ok(PrerotTable { n, entries })
    }

    /// Number of stored entries (`N/8 + 1`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never, for a valid table).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Transform size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resolves exponent `e` to a table access: index plus octant
    /// reconstruction. This mirrors the paper's addressing rule
    /// ("`(sl) mod (N/8)` when `floor(sl / (N/8))` is even, and
    /// `N/8 - (sl) mod (N/8)` when odd"), extended to all eight octants.
    pub fn resolve(&self, e: usize) -> PrerotRef {
        resolve_prerot(self.n, e)
    }

    /// Fetches and reconstructs `W_N^e` (forward direction).
    pub fn coefficient(&self, e: usize) -> Complex<T> {
        let r = self.resolve(e);
        r.op.apply(self.entries[r.index])
    }

    /// Fetches and reconstructs the coefficient for `dir`: the inverse
    /// transform uses the conjugate `W_N^{-e}`.
    pub fn coefficient_dir(&self, e: usize, dir: Direction) -> Complex<T> {
        match dir {
            Direction::Forward => self.coefficient(e),
            Direction::Inverse => self.coefficient(e).conj(),
        }
    }
}

/// Resolves exponent `e` of `W_N^e` to a compressed-table access
/// (index in `0..=N/8` plus the octant reconstruction); the pure
/// hardware function the `STOUT` coefficient logic implements. It works
/// from `log2 N`: the octant is the top three bits of `e mod N`, the
/// offset inside it the rest.
///
/// # Panics
///
/// Panics unless `n` is a power of two `>= 8`.
#[inline]
pub fn resolve_prerot(n: usize, e: usize) -> PrerotRef {
    assert!(n.is_power_of_two() && n >= 8, "resolve_prerot: invalid n {n}");
    // Even octants read the table forward, odd ones backward from N/8.
    const OPS: [OctantOp; 8] = [
        OctantOp::Identity,
        OctantOp::NegSwap,
        OctantOp::MulNegI,
        OctantOp::NegRe,
        OctantOp::Neg,
        OctantOp::Swap,
        OctantOp::MulI,
        OctantOp::Conj,
    ];
    let eighth_log2 = n.trailing_zeros() - 3;
    let e = e & (n - 1);
    let octant = e >> eighth_log2;
    let r = e & ((1 << eighth_log2) - 1);
    let index = if octant.is_multiple_of(2) { r } else { (1 << eighth_log2) - r };
    PrerotRef { index, op: OPS[octant] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_num::{twiddle_q15, Q15};

    #[test]
    fn rom_entries_are_twiddles() {
        let rom: CoefRom<f64> = CoefRom::new(32).unwrap();
        assert_eq!(rom.len(), 16);
        assert_eq!(rom.p_size(), 32);
        assert!(!rom.is_empty());
        for k in 0..16 {
            let want = twiddle(32, k);
            assert!(rom.entry(k).dist(want) < 1e-12, "k={k}");
        }
    }

    #[test]
    fn rom_group_twiddle_rescales() {
        let rom: CoefRom<f64> = CoefRom::new(32).unwrap();
        for e in 0..4 {
            let want = twiddle(8, e);
            let got = rom.group_twiddle(8, e, Direction::Forward);
            assert!(got.dist(want) < 1e-12, "e={e}");
            let got = rom.group_twiddle(8, e, Direction::Inverse);
            assert!(got.dist(want.conj()) < 1e-12, "inverse e={e}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rom_group_twiddle_bounds() {
        let rom: CoefRom<f64> = CoefRom::new(32).unwrap();
        let _ = rom.group_twiddle(8, 4, Direction::Forward);
    }

    #[test]
    fn rom_q15_quantisation() {
        let rom: CoefRom<Q15> = CoefRom::new(16).unwrap();
        for k in 0..8 {
            let want = twiddle_q15(16, k);
            assert_eq!(rom.entry(k), want, "k={k}");
        }
    }

    #[test]
    fn prerot_table_all_exponents_exact() {
        for n in [8usize, 16, 64, 256, 1024] {
            let t: PrerotTable<f64> = PrerotTable::new(n).unwrap();
            assert_eq!(t.len(), n / 8 + 1);
            for e in 0..2 * n {
                let want = twiddle(n, e % n);
                let got = t.coefficient(e);
                assert!(got.dist(want) < 1e-12, "n={n} e={e}: got {got:?} want {want:?}");
            }
        }
    }

    #[test]
    fn prerot_inverse_direction_conjugates() {
        let t: PrerotTable<f64> = PrerotTable::new(64).unwrap();
        for e in [1usize, 13, 40, 63] {
            let f = t.coefficient_dir(e, Direction::Forward);
            let i = t.coefficient_dir(e, Direction::Inverse);
            assert!(f.conj().dist(i) < 1e-15);
        }
    }

    #[test]
    fn prerot_resolve_matches_paper_rule_in_first_quadrant() {
        // The paper's rule covers the even/odd eighth alternation of the
        // table index; check it for the first two octants explicitly.
        let t: PrerotTable<f64> = PrerotTable::new(64).unwrap();
        let eighth = 8;
        for e in 0..16 {
            let r = t.resolve(e);
            let expect_index = if (e / eighth) % 2 == 0 { e % eighth } else { eighth - e % eighth };
            assert_eq!(r.index, expect_index, "e={e}");
        }
    }

    #[test]
    fn prerot_q15_accuracy() {
        let t: PrerotTable<Q15> = PrerotTable::new(128).unwrap();
        for e in 0..128 {
            let want = twiddle(128, e);
            let got = t.coefficient(e).to_c64();
            assert!(got.dist(want) < 2e-4, "e={e}");
        }
    }

    #[test]
    fn prerot_rejects_tiny_sizes() {
        assert!(PrerotTable::<f64>::new(4).is_err());
        assert!(PrerotTable::<f64>::new(12).is_err());
    }

    #[test]
    fn octant_ops_are_the_eight_symmetries() {
        use OctantOp::*;
        let w = Complex::new(0.6, -0.8);
        let results: Vec<Complex<f64>> = [Identity, NegSwap, MulNegI, NegRe, Neg, Swap, MulI, Conj]
            .iter()
            .map(|op| op.apply(w))
            .collect();
        // All eight images are distinct and have the same magnitude.
        for (i, a) in results.iter().enumerate() {
            assert!((a.abs() - 1.0).abs() < 1e-12);
            for b in &results[i + 1..] {
                assert!(a.dist(*b) > 1e-6);
            }
        }
    }
}
