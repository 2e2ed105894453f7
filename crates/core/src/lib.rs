//! The array-structured FFT of Guan, Lin and Fei (DATE 2009): algorithm,
//! address-changing algebra, coefficient storage, and prior-art
//! baselines — the mathematical core of the ASIP reproduction.
//!
//! # Overview
//!
//! The paper restructures an N-point FFT into two *epochs* of
//! register-file-resident groups, each group computed stage-by-stage by
//! a fixed 8-point butterfly module whose operand addresses are derived
//! in hardware by an *address-changing* (AC) rule. This crate is the
//! bit-exact software model of that machine:
//!
//! * [`ArrayFft`] — plan + execute the full transform (over `f64` or the
//!   16-bit fixed point of [`afft_num::Q15`]);
//! * [`address`] — the AC algebra (`sigma_j`, `L_j`, epoch maps);
//! * [`rom`] — the `P/2`-entry coefficient ROM and the octant-compressed
//!   pre-rotation table;
//! * [`matrix`] — the paper's Fig. 3 correctness identity in executable
//!   form;
//! * [`reference`](mod@reference), [`cached`], [`mcfft`] — the naive DFT, radix-2 FFTs,
//!   Baas's cached FFT and the variable-epoch MCFFT, used as golden
//!   references and comparison baselines;
//! * [`radix4`], [`mixed`] — the scalar mixed-radix kernel family:
//!   [`radix4::Radix4DitEngine`] (power-of-4, the reference the SIMD
//!   kernel is tested against) and the general {2, 3, 4, 5}
//!   [`mixed::MixedRadixEngine`] that serves composite OFDM sizes (60,
//!   1200, 1536, ...);
//! * [`bluestein`], [`rader`] — the convolution-based engines that
//!   close the size domain: [`bluestein::BluesteinEngine`] (chirp-Z)
//!   for **any** `n >= 2` and [`rader::RaderEngine`] (the
//!   generator-permutation FFT) for primes with 5-smooth `p - 1`, so 5G
//!   NR DFT-s-OFDM sizes and arbitrary user requests plan instead of
//!   erroring;
//! * [`simd`] — the vectorized kernel tier: one AVX2/NEON radix-4
//!   kernel over split real/imag planes for every power of two (one
//!   portable radix-2 pass closes odd `log₂ N`), behind runtime feature
//!   dispatch (`AFFT_NO_SIMD=1` to suppress);
//! * [`engine`] — the [`FftEngine`] trait, the engine catalog and
//!   [`EngineRegistry`]: every backend above behind one polymorphic
//!   execute interface (the cycle-accurate ISS joins through
//!   `afft_asip`). Each kernel's engine type is its own plan: `new`
//!   builds the tables and scratch, `execute_into` runs on them.
//!
//! # Quickstart
//!
//! ```
//! use afft_core::{ArrayFft, Direction};
//! use afft_num::Complex;
//!
//! let fft: ArrayFft<f64> = ArrayFft::new(1024)?;
//! let input = vec![Complex::new(1.0, 0.0); 1024];
//! let spectrum = fft.process(&input, Direction::Forward)?;
//! assert!((spectrum[0].re - 1024.0).abs() < 1e-6);
//! # Ok::<(), afft_core::FftError>(())
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the `simd` module's architecture back-ends, which need `std::arch`
// intrinsics and raw unaligned loads/stores. Those back-ends carry
// per-call safety contracts and are additionally held to
// `unsafe_op_in_unsafe_fn`: every unsafe operation inside an `unsafe
// fn` still needs its own scoped block and SAFETY justification.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod address;
pub mod array;
pub mod bfp;
pub mod bits;
pub mod bluestein;
pub mod cached;
pub mod engine;
pub mod error;
pub mod matrix;
pub mod mcfft;
pub mod mixed;
pub mod ofdm;
pub mod plan;
pub mod rader;
pub mod radix4;
pub mod realfft;
pub mod reference;
pub mod rom;
pub mod simd;
pub mod snr;
pub mod stage;
pub mod window;

pub use array::ArrayFft;
pub use cached::MemTraffic;
pub use engine::{EngineRegistry, FftEngine};
pub use error::FftError;
pub use plan::Split;
pub use reference::Direction;
pub use stage::Scaling;
