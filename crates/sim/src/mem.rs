//! Flat little-endian byte-addressable data memory.
//!
//! Complex samples use the ASIP's wire format: 4 bytes per point
//! (`re: i16`, `im: i16`, little-endian), so one 64-bit `LDIN`/`STOUT`
//! beat moves two points.

use crate::error::SimError;
use afft_num::{Complex, Q15};
use core::ops::Range;

/// Data memory of a fixed byte size.
///
/// # Examples
///
/// ```
/// use afft_sim::mem::Memory;
///
/// let mut m = Memory::new(1024);
/// m.write_u32(16, 0xdead_beef)?;
/// assert_eq!(m.read_u32(16)?, 0xdead_beef);
/// assert_eq!(m.read_u16(16)?, 0xbeef); // little endian
/// # Ok::<(), afft_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Allocates `size` bytes of zeroed memory.
    pub fn new(size: usize) -> Self {
        Memory { bytes: vec![0; size] }
    }

    /// Zeroes every byte, as at power-on.
    pub(crate) fn clear(&mut self) {
        self.bytes.fill(0);
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn check(&self, addr: u32, bytes: u32, align: u32) -> Result<usize, SimError> {
        if !addr.is_multiple_of(align) {
            return Err(SimError::Misaligned { addr, align });
        }
        let end = addr as usize + bytes as usize;
        if end > self.bytes.len() {
            return Err(SimError::BadAddress { addr, bytes });
        }
        Ok(addr as usize)
    }

    /// Reads an aligned `u16`.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn read_u16(&self, addr: u32) -> Result<u16, SimError> {
        let i = self.check(addr, 2, 2)?;
        Ok(u16::from_le_bytes([self.bytes[i], self.bytes[i + 1]]))
    }

    /// Writes an aligned `u16`.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), SimError> {
        let i = self.check(addr, 2, 2)?;
        self.bytes[i..i + 2].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Reads an aligned `u32`.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn read_u32(&self, addr: u32) -> Result<u32, SimError> {
        let i = self.check(addr, 4, 4)?;
        Ok(u32::from_le_bytes(self.bytes[i..i + 4].try_into().expect("length checked")))
    }

    /// Writes an aligned `u32`.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), SimError> {
        let i = self.check(addr, 4, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Reads an aligned `u64` (one 64-bit bus beat).
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn read_u64(&self, addr: u32) -> Result<u64, SimError> {
        let i = self.check(addr, 8, 8)?;
        Ok(u64::from_le_bytes(self.bytes[i..i + 8].try_into().expect("length checked")))
    }

    /// Writes an aligned `u64`.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn write_u64(&mut self, addr: u32, v: u64) -> Result<(), SimError> {
        let i = self.check(addr, 8, 8)?;
        self.bytes[i..i + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Reads one complex point in wire format (4 bytes).
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn read_complex(&self, addr: u32) -> Result<Complex<Q15>, SimError> {
        let w = self.read_u32(addr)?;
        Ok(unpack_complex(w))
    }

    /// Writes one complex point in wire format (4 bytes).
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn write_complex(&mut self, addr: u32, v: Complex<Q15>) -> Result<(), SimError> {
        self.write_u32(addr, pack_complex(v))
    }

    /// The byte range of `n` complex points starting at `addr`, checked
    /// as one access.
    fn complex_region(&self, addr: u32, n: usize) -> Result<Range<usize>, SimError> {
        let bytes = n.checked_mul(4).and_then(|b| u32::try_from(b).ok());
        let bytes = bytes.ok_or(SimError::BadAddress { addr, bytes: u32::MAX })?;
        let start = self.check(addr, bytes, 4)?;
        Ok(start..start + bytes as usize)
    }

    /// Bulk-writes a complex vector starting at `addr` (4 bytes/point).
    /// The whole region is checked first, so a failed write changes
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn write_complex_slice(
        &mut self,
        addr: u32,
        data: &[Complex<Q15>],
    ) -> Result<(), SimError> {
        let region = self.complex_region(addr, data.len())?;
        for (word, &v) in self.bytes[region].chunks_exact_mut(4).zip(data) {
            word.copy_from_slice(&pack_complex(v).to_le_bytes());
        }
        Ok(())
    }

    /// Reads `n` complex points starting at `addr`, in address order,
    /// checking the region once.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn read_complex_points(
        &self,
        addr: u32,
        n: usize,
    ) -> Result<impl Iterator<Item = Complex<Q15>> + '_, SimError> {
        let region = self.complex_region(addr, n)?;
        Ok(self.bytes[region].chunks_exact(4).map(|word| {
            unpack_complex(u32::from_le_bytes(word.try_into().expect("4-byte chunks")))
        }))
    }

    /// Bulk-reads `n` complex points starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::BadAddress`].
    pub fn read_complex_slice(&self, addr: u32, n: usize) -> Result<Vec<Complex<Q15>>, SimError> {
        Ok(self.read_complex_points(addr, n)?.collect())
    }
}

/// Packs a complex point into its 32-bit wire format.
pub fn pack_complex(v: Complex<Q15>) -> u32 {
    (u32::from(v.re.to_bits() as u16)) | (u32::from(v.im.to_bits() as u16) << 16)
}

/// Unpacks a complex point from its 32-bit wire format.
pub fn unpack_complex(w: u32) -> Complex<Q15> {
    Complex::new(Q15::from_bits(w as u16 as i16), Q15::from_bits((w >> 16) as u16 as i16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrips() {
        let mut m = Memory::new(64);
        m.write_u16(0, 0x1234).unwrap();
        m.write_u32(4, 0x8765_4321).unwrap();
        m.write_u64(8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u16(0).unwrap(), 0x1234);
        assert_eq!(m.read_u32(4).unwrap(), 0x8765_4321);
        assert_eq!(m.read_u64(8).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(16);
        m.write_u32(0, 0x0403_0201).unwrap();
        assert_eq!(m.read_u16(0).unwrap(), 0x0201);
        assert_eq!(m.read_u16(2).unwrap(), 0x0403);
    }

    #[test]
    fn alignment_and_bounds_enforced() {
        let mut m = Memory::new(16);
        assert!(matches!(m.read_u32(2), Err(SimError::Misaligned { .. })));
        assert!(matches!(m.read_u64(4), Err(SimError::Misaligned { .. })));
        assert!(matches!(m.read_u32(16), Err(SimError::BadAddress { .. })));
        assert!(matches!(m.write_u32(16, 0), Err(SimError::BadAddress { .. })));
        assert!(matches!(m.write_u32(14, 0), Err(SimError::Misaligned { .. })));
    }

    #[test]
    fn complex_wire_format() {
        let v = Complex::new(Q15::from_f64(0.5), Q15::from_f64(-0.25));
        assert_eq!(unpack_complex(pack_complex(v)), v);
        let mut m = Memory::new(64);
        m.write_complex(8, v).unwrap();
        assert_eq!(m.read_complex(8).unwrap(), v);
        // Two consecutive points fit one u64 beat.
        let v2 = Complex::new(Q15::from_f64(-1.0), Q15::from_f64(0.75));
        m.write_complex(12, v2).unwrap();
        let beat = m.read_u64(8).unwrap();
        assert_eq!(unpack_complex(beat as u32), v);
        assert_eq!(unpack_complex((beat >> 32) as u32), v2);
    }

    #[test]
    fn slice_helpers() {
        let mut m = Memory::new(64);
        let data: Vec<Complex<Q15>> =
            (0..8).map(|i| Complex::new(Q15::from_f64(i as f64 / 16.0), Q15::ZERO)).collect();
        m.write_complex_slice(0, &data).unwrap();
        assert_eq!(m.read_complex_slice(0, 8).unwrap(), data);
        for (k, v) in m.read_complex_points(4, 7).unwrap().enumerate() {
            assert_eq!(m.read_complex(4 + 4 * k as u32), Ok(v));
        }
    }

    #[test]
    fn slice_helpers_check_the_whole_region_first() {
        let mut m = Memory::new(64);
        let data = vec![Complex::new(Q15::from_f64(0.5), Q15::ZERO); 8];
        // Points 0..4 fit and point 4 does not: nothing is written.
        assert_eq!(
            m.write_complex_slice(48, &data),
            Err(SimError::BadAddress { addr: 48, bytes: 32 })
        );
        assert_eq!(m.read_complex_slice(48, 4).unwrap(), vec![Complex::zero(); 4]);
        assert_eq!(
            m.write_complex_slice(2, &data),
            Err(SimError::Misaligned { addr: 2, align: 4 })
        );
        assert!(m.read_complex_points(60, 2).is_err());
        assert_eq!(m.read_complex_slice(60, 1).unwrap().len(), 1);
    }
}
