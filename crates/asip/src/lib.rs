//! Program generators and run drivers for the array-FFT ASIP: the glue
//! between the algorithm ([`afft_core`]), the ISA ([`afft_isa`]) and
//! the simulator ([`afft_sim`]).
//!
//! * [`program`] — the custom FFT program of the paper's Algorithm 1;
//! * [`softfloat`] — an IEEE-754 single-precision subroutine library in
//!   the base ISA (the dominant cost of the paper's Imple 1 baseline);
//! * [`swfft`] — the standard software radix-2 FFT compiled against the
//!   soft-float library (Imple 1 itself);
//! * [`runner`] — [`ArrayFftRunner`], planned once per size: it keeps
//!   the generated programs, one machine sized to the [`Layout`], the
//!   pre-rotation table and the output permutation, and reuses them on
//!   every run; [`run_array_fft`] is its one-shot wrapper, used by
//!   examples, integration tests and the experiment binaries;
//! * [`engine`] — the [`afft_core::engine::FftEngine`] adapter that
//!   registers the cycle-accurate ISS alongside the software backends,
//!   planned once like them: it owns one runner.
//!
//! # Examples
//!
//! ```
//! use afft_asip::runner::{quantize_input, run_array_fft, AsipConfig};
//! use afft_core::Direction;
//! use afft_num::Complex;
//!
//! let input = quantize_input(&vec![Complex::new(1.0, 0.0); 64], 0.5);
//! let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default())?;
//! // DC bin = mean of inputs (the datapath scales by 1/N).
//! assert!((run.output[0].re.to_f64() - 0.5).abs() < 0.01);
//! # Ok::<(), afft_asip::runner::AsipError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod layout;
pub mod program;
pub mod runner;
pub mod softfloat;
pub mod swfft;
pub mod swfft_fixed;

pub use engine::{registry_with_asip, AsipEngine, ASIP_ISS};
pub use layout::Layout;
pub use runner::{
    golden_array_fft, quantize_input, run_array_fft, ArrayFftRunner, AsipConfig, AsipError, AsipRun,
};
