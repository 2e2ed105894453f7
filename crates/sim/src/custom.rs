//! The custom hardware extension of Fig. 4: butterfly unit (BU), custom
//! register file (CRF), coefficient ROM and address-changing (AC) logic,
//! as one architecturally-visible unit driven by the custom
//! instructions.
//!
//! The unit is deliberately *mechanical*: every `BUT4` recomputes its 8
//! CRF addresses and 4 ROM addresses from `(stage, module)` through the
//! same closed forms the AC decoder hardware implements
//! ([`afft_core::address`]); nothing is cached between instructions.

use crate::error::SimError;
use afft_core::address::module_butterflies;
use afft_core::rom::{resolve_prerot, CoefRom, OctantOp};
use afft_core::stage::{butterfly_dif, Scaling};
use afft_core::{bits::bit_reverse, Direction};
use afft_isa::FftCfg;
use afft_num::{Complex, Q15};

/// One pre-rotation coefficient fetch the store path must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoefFetch {
    /// Byte offset of the `(a, b)` entry inside the compressed table.
    pub table_byte_offset: u32,
    /// Octant reconstruction to apply to the fetched entry.
    pub op: OctantOp,
}

/// One `STOUT` beat prepared by the AC unit: the two (bit-reverse-read)
/// CRF values and, when pre-rotation is enabled, the coefficient
/// fetches the hardware issues before the multiply-on-store.
///
/// A point whose exponent is zero (`W_N^0 = 1`) carries no fetch: the
/// coefficient logic skips trivial rotations entirely, so group 0 and
/// bin 0 cost nothing extra — the `(P-1)(Q-1)` non-trivial rotations
/// are the ones that pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoutBeat {
    /// Raw CRF values for output bins `s` and `s+1`.
    pub values: [Complex<Q15>; 2],
    /// Per-point coefficient fetch (`None` when pre-rotation is off or
    /// the exponent is trivially zero).
    pub coef: [Option<CoefFetch>; 2],
}

/// The custom FFT unit state.
#[derive(Debug, Clone)]
pub struct FftUnit {
    crf: Vec<Complex<Q15>>,
    rom: CoefRom<Q15>,
    scaling: Scaling,
    regs: Regs,
}

/// Every register `MTFFT` can set.
#[derive(Debug, Clone, Copy)]
struct Regs {
    // Configuration registers.
    gsize_log2: u32,
    n_log2: u32,
    group: u32,
    prerot_enable: bool,
    prerot_base: u32,
    inverse: bool,
    load_stride: u32,
    // Auto-increment pointers.
    ldptr: usize,
    stptr: usize,
}

impl Regs {
    /// The power-on values.
    const RESET: Regs = Regs {
        gsize_log2: 3,
        n_log2: 6,
        group: 0,
        prerot_enable: false,
        prerot_base: 0,
        inverse: false,
        load_stride: 1,
        ldptr: 0,
        stptr: 0,
    };
}

impl FftUnit {
    /// Builds a unit with a CRF (and ROM) sized for groups up to
    /// `max_p` points.
    ///
    /// # Panics
    ///
    /// Panics unless `max_p` is a power of two `>= 8`.
    pub fn new(max_p: usize, scaling: Scaling) -> Self {
        assert!(max_p.is_power_of_two() && max_p >= 8, "FftUnit: invalid CRF size {max_p}");
        let mut unit = FftUnit {
            crf: vec![Complex::zero(); max_p],
            rom: CoefRom::new(max_p).expect("validated size"),
            scaling,
            regs: Regs::RESET,
        };
        unit.restart();
        unit
    }

    /// Returns the unit to its power-on state: every CRF point zero and
    /// every register `MTFFT` can set at its reset value. The CRF
    /// capacity, the ROM and the datapath scaling are kept.
    pub(crate) fn restart(&mut self) {
        // Exhaustive on purpose: a field added to `FftUnit` has to be
        // placed here, as kept configuration or as reset state.
        let FftUnit { crf, rom: _, scaling: _, regs } = self;
        crf.fill(Complex::zero());
        *regs = Regs::RESET;
    }

    /// Current `LDIN` gather stride in points.
    pub fn load_stride(&self) -> u32 {
        self.regs.load_stride
    }

    /// CRF capacity in points.
    pub fn capacity(&self) -> usize {
        self.crf.len()
    }

    /// Current group size (`2^gsize_log2`).
    pub fn group_size(&self) -> usize {
        1usize << self.regs.gsize_log2
    }

    /// Direct CRF inspection (testing / tracing).
    pub fn crf(&self) -> &[Complex<Q15>] {
        &self.crf
    }

    /// Transform direction implied by the `inverse` config bit.
    pub fn direction(&self) -> Direction {
        if self.regs.inverse {
            Direction::Inverse
        } else {
            Direction::Forward
        }
    }

    /// Executes an `MTFFT` configuration write.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FftUnit`] for values outside hardware limits
    /// (group larger than the CRF, pointers out of range, ...).
    pub fn mtfft(&mut self, sel: FftCfg, value: u32) -> Result<(), SimError> {
        let err = |reason: String| SimError::FftUnit { reason };
        match sel {
            FftCfg::GroupSizeLog2 => {
                let max = self.crf.len().trailing_zeros();
                if !(3..=max).contains(&value) {
                    return Err(err(format!(
                        "group size 2^{value} outside 8..=CRF {}",
                        self.crf.len()
                    )));
                }
                self.regs.gsize_log2 = value;
                self.regs.ldptr = 0;
                self.regs.stptr = 0;
            }
            FftCfg::NLog2 => {
                if !(3..=26).contains(&value) {
                    return Err(err(format!("n_log2 {value} out of range")));
                }
                self.regs.n_log2 = value;
            }
            FftCfg::GroupId => self.regs.group = value,
            FftCfg::PrerotEnable => self.regs.prerot_enable = value != 0,
            FftCfg::PrerotBase => {
                if !value.is_multiple_of(4) {
                    return Err(err(format!("prerot base {value:#x} must be 4-byte aligned")));
                }
                self.regs.prerot_base = value;
            }
            FftCfg::LoadPtr => {
                if value as usize >= self.group_size() {
                    return Err(err(format!("load pointer {value} outside group")));
                }
                self.regs.ldptr = value as usize;
            }
            FftCfg::StorePtr => {
                if value as usize >= self.group_size() {
                    return Err(err(format!("store pointer {value} outside group")));
                }
                self.regs.stptr = value as usize;
            }
            FftCfg::InverseEnable => self.regs.inverse = value != 0,
            FftCfg::LoadStride => {
                if value == 0 || value > (1 << 20) {
                    return Err(err(format!("load stride {value} out of range")));
                }
                self.regs.load_stride = value;
            }
        }
        Ok(())
    }

    /// Executes one `BUT4`: module `module` of stage `stage` (both
    /// 1-based, straight from the GPR operands) on the current group.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FftUnit`] if stage or module are out of range
    /// for the configured group size.
    pub fn but4(&mut self, stage: u32, module: u32) -> Result<(), SimError> {
        let g = self.group_size();
        let p = self.regs.gsize_log2;
        if stage == 0 || stage > p {
            return Err(SimError::FftUnit { reason: format!("BUT4 stage {stage} out of 1..={p}") });
        }
        let modules = g / 8;
        if module == 0 || module as usize > modules {
            return Err(SimError::FftUnit {
                reason: format!("BUT4 module {module} out of 1..={modules}"),
            });
        }
        let dir = self.direction();
        for bf in module_butterflies(p, stage, module as usize) {
            let w = self.rom.group_twiddle(g, bf.rom_addr, dir);
            butterfly_dif(&mut self.crf, bf, w, self.scaling);
        }
        Ok(())
    }

    /// Executes one `LDIN` beat: writes two points at the auto-
    /// incrementing load pointer (wrapping at the group size).
    pub fn ldin(&mut self, points: [Complex<Q15>; 2]) {
        let g = self.group_size();
        self.crf[self.regs.ldptr] = points[0];
        self.crf[(self.regs.ldptr + 1) % g] = points[1];
        self.regs.ldptr = (self.regs.ldptr + 2) % g;
    }

    /// Prepares one `STOUT` beat: reads output bins `s`, `s+1` through
    /// the bit-reversal (`R`) wiring and advances the store pointer.
    /// When pre-rotation is enabled the beat carries the coefficient
    /// fetches the memory system must service before calling
    /// [`FftUnit::rotate`].
    pub fn stout(&mut self) -> StoutBeat {
        let g = self.group_size();
        let p = self.regs.gsize_log2;
        let s0 = self.regs.stptr;
        let s1 = (self.regs.stptr + 1) % g;
        self.regs.stptr = (self.regs.stptr + 2) % g;
        let values = [self.crf[bit_reverse(s0, p)], self.crf[bit_reverse(s1, p)]];
        let n = 1usize << self.regs.n_log2;
        let fetch = |s: usize| -> Option<CoefFetch> {
            if !self.regs.prerot_enable {
                return None;
            }
            let e = (s * self.regs.group as usize) % n;
            if e == 0 {
                return None; // trivial rotation: W^0 = 1, no fetch
            }
            let r = resolve_prerot(n, e);
            Some(CoefFetch {
                table_byte_offset: self.regs.prerot_base + 4 * r.index as u32,
                op: r.op,
            })
        };
        StoutBeat { values, coef: [fetch(s0), fetch(s1)] }
    }

    /// Applies a fetched pre-rotation coefficient to a raw `STOUT`
    /// value: octant reconstruction, optional conjugation for the
    /// inverse transform, then the complex multiply.
    pub fn rotate(&self, value: Complex<Q15>, entry: Complex<Q15>, op: OctantOp) -> Complex<Q15> {
        let mut w = op.apply(entry);
        if self.regs.inverse {
            w = w.conj();
        }
        value * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::reference::{dft_naive, max_error};
    use afft_core::rom::PrerotTable;
    use afft_num::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit(max_p: usize) -> FftUnit {
        FftUnit::new(max_p, Scaling::None)
    }

    fn random_points(n: usize, seed: u64) -> Vec<Complex<Q15>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Complex::new(
                    Q15::from_f64(rng.gen_range(-0.4..0.4)),
                    Q15::from_f64(rng.gen_range(-0.4..0.4)),
                )
            })
            .collect()
    }

    #[test]
    fn ldin_but4_stout_computes_a_group_dft() {
        // Use the realistic scaled datapath: output is DFT / 16.
        let mut u = FftUnit::new(16, Scaling::HalfPerStage);
        u.mtfft(FftCfg::GroupSizeLog2, 4).unwrap();
        let x = random_points(16, 1);
        for k in (0..16).step_by(2) {
            u.ldin([x[k], x[k + 1]]);
        }
        for j in 1..=4 {
            for i in 1..=2 {
                u.but4(j, i).unwrap();
            }
        }
        let mut out = Vec::new();
        for _ in (0..16).step_by(2) {
            let beat = u.stout();
            assert!(beat.coef.iter().all(Option::is_none));
            out.extend_from_slice(&beat.values);
        }
        let xf: Vec<C64> = x.iter().map(|c| c.to_c64()).collect();
        let want = dft_naive(&xf, Direction::Forward).unwrap();
        let got: Vec<C64> = out.iter().map(|c| c.to_c64() * 16.0).collect();
        assert!(max_error(&got, &want) < 0.05, "unit DFT deviates");
    }

    #[test]
    fn pointers_wrap_at_group_size() {
        let mut u = unit(16);
        u.mtfft(FftCfg::GroupSizeLog2, 3).unwrap(); // group of 8 in a 16-CRF
        let p = Complex::new(Q15::from_f64(0.25), Q15::ZERO);
        for _ in 0..5 {
            u.ldin([p, p]); // 10 points into an 8-group: wraps
        }
        // ldptr wrapped to 2.
        u.mtfft(FftCfg::LoadPtr, 0).unwrap(); // and is writable
        let _ = u.stout();
        let _ = u.stout();
        let _ = u.stout();
        let _ = u.stout();
        let beat = u.stout(); // wrapped back to bins 0,1
        assert_eq!(beat.values[0], u.crf()[0]);
    }

    #[test]
    fn prerot_beat_carries_table_fetches() {
        let mut u = unit(8);
        u.mtfft(FftCfg::GroupSizeLog2, 3).unwrap();
        u.mtfft(FftCfg::NLog2, 6).unwrap();
        u.mtfft(FftCfg::GroupId, 3).unwrap();
        u.mtfft(FftCfg::PrerotEnable, 1).unwrap();
        u.mtfft(FftCfg::PrerotBase, 0x100).unwrap();
        let beat = u.stout();
        // Bin 0: exponent 0 -> trivial rotation, no fetch issued.
        assert!(beat.coef[0].is_none());
        // Bin 1: exponent 3 -> index 3, identity octant (3 < 8 = N/8).
        let f = beat.coef[1].expect("non-trivial exponent fetches");
        assert_eq!(f.table_byte_offset, 0x100 + 12);
        assert_eq!(f.op, OctantOp::Identity);
    }

    #[test]
    fn rotate_matches_table_coefficient() {
        let n = 64;
        let table: PrerotTable<Q15> = PrerotTable::new(n).unwrap();
        let mut u = unit(8);
        u.mtfft(FftCfg::NLog2, 6).unwrap();
        let v = Complex::new(Q15::from_f64(0.5), Q15::from_f64(-0.25));
        for e in [0usize, 5, 13, 40, 63] {
            let r = resolve_prerot(n, e);
            let entry = table_entry(&table, r.index);
            let got = u.rotate(v, entry, r.op).to_c64();
            let want = (v * table.coefficient(e)).to_c64();
            assert!(got.dist(want) < 1e-9, "e={e}");
        }
    }

    fn table_entry(t: &PrerotTable<Q15>, index: usize) -> Complex<Q15> {
        // Emulate the raw memory fetch: entry k is W_N^k itself.
        let n = t.n();
        afft_num::twiddle_q15(n, index)
    }

    #[test]
    fn inverse_bit_conjugates() {
        let mut u = unit(8);
        u.mtfft(FftCfg::NLog2, 6).unwrap();
        u.mtfft(FftCfg::InverseEnable, 1).unwrap();
        assert_eq!(u.direction(), Direction::Inverse);
        let v = Complex::new(Q15::from_f64(0.5), Q15::ZERO);
        let entry = afft_num::twiddle_q15(64, 8);
        let got = u.rotate(v, entry, OctantOp::Identity).to_c64();
        let want = (v.to_c64()) * afft_num::twiddle(64, 8).conj();
        assert!(got.dist(want) < 1e-3);
    }

    #[test]
    fn config_validation() {
        let mut u = unit(16);
        assert!(u.mtfft(FftCfg::GroupSizeLog2, 5).is_err()); // 32 > CRF 16
        assert!(u.mtfft(FftCfg::GroupSizeLog2, 2).is_err()); // below BU min
        assert!(u.mtfft(FftCfg::PrerotBase, 2).is_err()); // misaligned
        assert!(u.mtfft(FftCfg::LoadPtr, 99).is_err());
        assert!(u.mtfft(FftCfg::NLog2, 30).is_err());
    }

    #[test]
    fn but4_range_checks() {
        let mut u = unit(16);
        u.mtfft(FftCfg::GroupSizeLog2, 4).unwrap();
        assert!(u.but4(0, 1).is_err());
        assert!(u.but4(5, 1).is_err());
        assert!(u.but4(1, 0).is_err());
        assert!(u.but4(1, 3).is_err());
        assert!(u.but4(4, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid CRF size")]
    fn rejects_tiny_crf() {
        let _ = FftUnit::new(4, Scaling::None);
    }
}
