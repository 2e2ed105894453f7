//! **afft-planner** — the autotuning layer over the
//! [`afft_core::engine::EngineRegistry`]: measure (or estimate) every
//! backend for a transform shape, remember the winner as serializable
//! *wisdom*, and execute whole batches of symbols through the planned
//! engine — the FFTW planner/wisdom idiom rebuilt natively on the
//! workspace's registry.
//!
//! Three pillars:
//!
//! * [`Planner`] — ranks the registry per `(n, direction)` by
//!   [`Strategy::Estimate`] (each catalog row's cost — operation count
//!   and traffic, or modeled cycles — priced with host constants,
//!   building no engine) or [`Strategy::Measure`] (times a calibration
//!   run of every engine; cycle-accurate backends rank by modeled
//!   hardware cycles instead of simulator wall time);
//! * [`Wisdom`] — a plan cache keyed by `(n, direction, strategy,
//!   backend-set hash)` with a dependency-free line-oriented text
//!   serialization ([`Wisdom::load`] / [`Wisdom::store`] /
//!   [`Wisdom::merge`]), so tuning cost is paid once per machine;
//! * [`BatchExecutor`] — plans once, then runs `&[Vec<C64>]` batches
//!   through the planned engine, optionally sharded across a
//!   [`std::thread::scope`] worker pool with bit-identical results.
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
//! // Batch execution on the winning engine, optionally threaded.
//! let mut executor = planner.executor(&plan)?;
//! let batch = vec![vec![afft_num::Complex::new(1.0, 0.0); 256]; 8];
//! let spectra = executor.execute_threaded(&batch, afft_core::Direction::Forward, 4)?;
//! assert_eq!(spectra.len(), 8);
//! assert!((spectra[0][0].re - 256.0).abs() < 1e-6);
//! # Ok::<(), afft_core::FftError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod planner;
pub mod wisdom;

pub use batch::{BatchExecutor, RunTiming, ShardTiming};
pub use planner::{
    calibration_signal, take_engine, EngineRank, Plan, Planner, RegistryFactory, Strategy,
};
pub use wisdom::{backend_set_hash, Wisdom, WisdomEntry, WisdomKey};
