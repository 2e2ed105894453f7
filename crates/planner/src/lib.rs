//! **afft-planner** — the autotuning layer over the
//! [`afft_core::engine::EngineRegistry`]: measure (or estimate) every
//! backend for a transform shape, remember the winner as serializable
//! *wisdom*, and build the planned engine — the FFTW planner/wisdom
//! idiom rebuilt natively on the workspace's registry.
//!
//! Two pillars:
//!
//! * [`Planner`] — ranks the registry per `(n, direction)` by
//!   [`Strategy::Estimate`] (each catalog row's cost — operation count
//!   and traffic, or modeled cycles — priced with host constants,
//!   building no engine) or [`Strategy::Measure`] (times a calibration
//!   run of every engine; cycle-accurate backends rank by modeled
//!   hardware cycles instead of simulator wall time), and builds the
//!   winner with [`Planner::engine`];
//! * [`Wisdom`] — a plan cache keyed by `(n, direction, strategy,
//!   backend-set hash)` with a dependency-free line-oriented text
//!   serialization ([`Wisdom::load`] / [`Wisdom::store`] /
//!   [`Wisdom::merge`]), so tuning cost is paid once per machine.
//!
//! Many symbols run either as a loop over the planned engine's
//! `execute_into`, or through an `afft_stream` pipeline channel built
//! from the plan (`ChannelSpec::from_plan`).
//!
//! # Quickstart
//!
//! ```
//! use afft_planner::{Planner, Strategy};
//!
//! // Plan over the standard software registry (pass
//! // `afft_asip::engine::registry_with_asip` via
//! // `Planner::with_factory` to let the cycle-accurate ISS compete).
//! let mut planner = Planner::new();
//! let plan = planner.plan(256, Strategy::Estimate)?;
//! assert!(plan.ranking.len() >= 6); // every registered engine, ranked
//! assert_ne!(plan.best().name, "dft_naive"); // O(N^2) never wins
//!
//! // The plan is remembered: the same request replays from wisdom.
//! let replay = planner.plan(256, Strategy::Estimate)?;
//! assert!(replay.from_wisdom);
//!
//! // A batch is a loop over the winning engine: one engine, one
//! // scratch set, no heap work per symbol.
//! let mut engine = planner.engine(&plan)?;
//! let batch = vec![vec![afft_num::Complex::new(1.0, 0.0); 256]; 8];
//! let mut spectra = vec![vec![afft_num::Complex::zero(); 256]; batch.len()];
//! for (symbol, spectrum) in batch.iter().zip(&mut spectra) {
//!     engine.execute_into(symbol, spectrum, afft_core::Direction::Forward)?;
//! }
//! assert!((spectra[0][0].re - 256.0).abs() < 1e-6);
//! # Ok::<(), afft_core::FftError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod planner;
pub mod wisdom;

pub use planner::{
    calibration_signal, take_engine, EngineRank, Plan, Planner, RegistryFactory, Strategy,
};
pub use wisdom::{backend_set_hash, Wisdom, WisdomEntry, WisdomKey};
