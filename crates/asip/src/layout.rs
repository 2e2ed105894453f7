//! Memory map shared by the generated FFT programs.
//!
//! ```text
//! 0x0000_0000 .. : scratch / stack (grows down from stack_top)
//! in_base        : N fixed-point points (4 B each), natural order
//! mid_base       : N points, the inter-epoch Z' buffer
//! out_base       : N points, hardware (transposed) output order
//! table_base     : N/8 + 1 pre-rotation coefficients (4 B each)
//! float_base     : 2 * N f32 words for the soft-float baseline's data
//! ftw_base       : N/2 complex f32 twiddles for the baseline
//! ```
//!
//! Memory ends at [`Layout::mem_bytes`]: the array-FFT runner's machine
//! has exactly that much data memory, so an access outside these
//! regions traps instead of landing in padding.

/// Byte addresses of every region a generated program touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Transform size.
    pub n: usize,
    /// Fixed-point input vector (natural order).
    pub in_base: u32,
    /// Inter-epoch buffer.
    pub mid_base: u32,
    /// Output vector (hardware transposed order).
    pub out_base: u32,
    /// Compressed pre-rotation table.
    pub table_base: u32,
    /// Float data region for the software-FFT baseline (8 B per point).
    pub float_base: u32,
    /// Float twiddle table for the baseline (8 B per entry, N/2 entries).
    pub ftw_base: u32,
    /// Initial stack pointer for generated code that needs a stack.
    pub stack_top: u32,
    /// Total data-memory size this layout requires (the regions above,
    /// each 64-byte aligned).
    pub mem_bytes: usize,
}

impl Layout {
    /// Builds the canonical layout for an `N`-point run.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two `>= 8`.
    pub fn for_size(n: usize) -> Layout {
        assert!(n.is_power_of_two() && n >= 8, "Layout: invalid n {n}");
        let align = |x: u32| (x + 63) & !63;
        let stack_top = 0x1000;
        let in_base = stack_top;
        let mid_base = align(in_base + 4 * n as u32);
        let out_base = align(mid_base + 4 * n as u32);
        let table_base = align(out_base + 4 * n as u32);
        let float_base = align(table_base + 4 * (n as u32 / 8 + 1));
        let ftw_base = align(float_base + 8 * n as u32);
        let end = align(ftw_base + 8 * (n as u32 / 2));
        Layout {
            n,
            in_base,
            mid_base,
            out_base,
            table_base,
            float_base,
            ftw_base,
            stack_top,
            mem_bytes: end as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        for n in [64usize, 128, 1024, 4096] {
            let l = Layout::for_size(n);
            let regions = [
                (l.in_base, 4 * n as u32),
                (l.mid_base, 4 * n as u32),
                (l.out_base, 4 * n as u32),
                (l.table_base, 4 * (n as u32 / 8 + 1)),
                (l.float_base, 8 * n as u32),
                (l.ftw_base, 4 * n as u32),
            ];
            for (i, &(base, len)) in regions.iter().enumerate() {
                assert_eq!(base % 8, 0, "n={n}: region {i} alignment");
                for &(b2, _) in &regions[i + 1..] {
                    assert!(base + len <= b2, "n={n}: regions overlap");
                }
            }
            assert!(l.mem_bytes >= (l.ftw_base + 4 * n as u32) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "invalid n")]
    fn rejects_non_pow2() {
        let _ = Layout::for_size(100);
    }
}
