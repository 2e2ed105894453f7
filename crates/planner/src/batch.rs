//! Batched execution: plan once, run whole batches of OFDM symbols
//! through the planned engine — sequentially, or sharded across a
//! [`std::thread::scope`] worker pool for throughput workloads.
//!
//! Workers never share an engine instance: each one constructs its own
//! copy of the planned backend from the registry factory, so interior
//! state (e.g. the ISS adapter's statistics cell) stays thread-local
//! and the threaded path is bit-identical to the sequential one.

use std::time::Instant;

use afft_core::engine::FftEngine;
use afft_core::{Direction, FftError};
use afft_num::C64;

use crate::planner::{Plan, RegistryFactory};

/// Wall-clock timing of one shard of a batch run — one worker's
/// contiguous slice of the symbol batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTiming {
    /// Symbols the shard transformed.
    pub symbols: usize,
    /// Shard wall time, transform loop only (engine construction and
    /// thread spawn excluded).
    pub wall_ns: u64,
}

/// Wall-clock timing of one batch run, kept on the executor
/// ([`BatchExecutor::last_run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTiming {
    /// Engine the run executed on.
    pub engine: String,
    /// Total symbols transformed.
    pub symbols: usize,
    /// Worker threads used (1 for the sequential path).
    pub workers: usize,
    /// End-to-end wall time of the run, including shard spawn/join on
    /// the threaded path.
    pub wall_ns: u64,
    /// Per-shard transform timings, in shard order (one entry on the
    /// sequential path) — the threaded path's load-balance evidence.
    pub shards: Vec<ShardTiming>,
}

impl RunTiming {
    /// Symbols per second over the whole run (zero for an empty or
    /// instantaneous run).
    pub fn throughput(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.symbols as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// Executes batches of equal-length symbols on a planned engine.
pub struct BatchExecutor {
    factory: RegistryFactory,
    engine: Box<dyn FftEngine>,
    name: String,
    last_run: Option<RunTiming>,
}

impl core::fmt::Debug for BatchExecutor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BatchExecutor")
            .field("engine", &self.name)
            .field("n", &self.engine.len())
            .finish()
    }
}

impl BatchExecutor {
    /// Builds an executor over the plan's winning engine.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::Backend`] if the planned engine is not in
    /// the factory's registry (wisdom from a different backend set).
    pub fn from_plan(plan: &Plan, factory: RegistryFactory) -> Result<Self, FftError> {
        Self::with_engine_name(plan.n, &plan.best().name, factory)
    }

    /// Builds an executor over an explicitly named engine.
    ///
    /// # Errors
    ///
    /// As [`BatchExecutor::from_plan`].
    pub fn with_engine_name(
        n: usize,
        name: &str,
        factory: RegistryFactory,
    ) -> Result<Self, FftError> {
        let engine = crate::planner::take_engine(factory, n, name)?;
        Ok(BatchExecutor { factory, engine, name: name.to_string(), last_run: None })
    }

    /// Timing of the most recent `execute*` run: total wall time plus
    /// per-shard breakdowns. `None` until a run completes.
    pub fn last_run(&self) -> Option<&RunTiming> {
        self.last_run.as_ref()
    }

    /// The engine the batch runs on.
    pub fn engine(&self) -> &dyn FftEngine {
        self.engine.as_ref()
    }

    /// Transform size every symbol must have.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Never empty for a planned executor.
    pub fn is_empty(&self) -> bool {
        self.engine.len() == 0
    }

    /// Preallocates an output batch shaped for this executor:
    /// `symbols` zeroed `N`-point buffers, ready for the `_into` paths.
    pub fn alloc_output(&self, symbols: usize) -> Vec<Vec<C64>> {
        vec![vec![C64::zero(); self.engine.len()]; symbols]
    }

    /// Transforms every symbol in order on the calling thread.
    ///
    /// Allocates the returned batch once; the per-symbol transforms
    /// run through the allocation-free
    /// [`BatchExecutor::execute_into`].
    ///
    /// # Errors
    ///
    /// Returns the first [`FftError`] any symbol produces.
    pub fn execute(
        &mut self,
        symbols: &[Vec<C64>],
        dir: Direction,
    ) -> Result<Vec<Vec<C64>>, FftError> {
        let mut out = self.alloc_output(symbols.len());
        self.execute_into(symbols, &mut out, dir)?;
        Ok(out)
    }

    /// Transforms every symbol in order into a caller-visible
    /// preallocated output batch (each slot an `N`-point buffer): the
    /// zero-allocation steady-state path — one engine, one scratch
    /// set, no heap work per symbol.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `out.len() !=
    /// symbols.len()` (reported as symbol counts) or any buffer is not
    /// `N` points, and the first [`FftError`] any symbol produces.
    pub fn execute_into(
        &mut self,
        symbols: &[Vec<C64>],
        out: &mut [Vec<C64>],
        dir: Direction,
    ) -> Result<(), FftError> {
        if out.len() != symbols.len() {
            return Err(FftError::LengthMismatch { expected: symbols.len(), got: out.len() });
        }
        let start = Instant::now();
        for (symbol, slot) in symbols.iter().zip(out.iter_mut()) {
            self.engine.execute_into(symbol, slot, dir)?;
        }
        let wall_ns = elapsed_ns(start);
        self.last_run = Some(RunTiming {
            engine: self.name.clone(),
            symbols: symbols.len(),
            workers: 1,
            wall_ns,
            shards: vec![ShardTiming { symbols: symbols.len(), wall_ns }],
        });
        Ok(())
    }

    /// Transforms the batch on `workers` scoped threads, symbols
    /// sharded contiguously. Results are returned in input order and
    /// are bit-identical to [`BatchExecutor::execute`]; `workers <= 1`
    /// (or a batch of one shard) falls back to the sequential path.
    ///
    /// # Errors
    ///
    /// Returns the first [`FftError`] any worker produces.
    ///
    /// # Panics
    ///
    /// Panics only if a worker thread itself panicked.
    pub fn execute_threaded(
        &mut self,
        symbols: &[Vec<C64>],
        dir: Direction,
        workers: usize,
    ) -> Result<Vec<Vec<C64>>, FftError> {
        let mut out = self.alloc_output(symbols.len());
        self.execute_threaded_into(symbols, &mut out, dir, workers)?;
        Ok(out)
    }

    /// The threaded transform into a caller-visible preallocated
    /// output batch: workers write straight into their contiguous
    /// shard of `out` — no placeholder rows, no per-symbol allocation
    /// — and each scoped worker owns one private engine (hence one
    /// scratch set), so results stay bit-identical to
    /// [`BatchExecutor::execute_into`].
    ///
    /// # Errors
    ///
    /// As [`BatchExecutor::execute_into`], from whichever worker hits
    /// it first.
    ///
    /// # Panics
    ///
    /// Panics only if a worker thread itself panicked.
    pub fn execute_threaded_into(
        &mut self,
        symbols: &[Vec<C64>],
        out: &mut [Vec<C64>],
        dir: Direction,
        workers: usize,
    ) -> Result<(), FftError> {
        let workers = workers.min(symbols.len());
        if workers <= 1 {
            return self.execute_into(symbols, out, dir);
        }
        if out.len() != symbols.len() {
            return Err(FftError::LengthMismatch { expected: symbols.len(), got: out.len() });
        }
        let chunk = symbols.len().div_ceil(workers);
        let n = self.engine.len();
        let factory = self.factory;
        let name = self.name.as_str();

        let start = Instant::now();
        let shards = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (shard_in, shard_out) in symbols.chunks(chunk).zip(out.chunks_mut(chunk)) {
                let shard_symbols = shard_in.len();
                let handle = scope.spawn(move || -> Result<u64, FftError> {
                    // A private engine (and scratch set) per worker: no
                    // shared interior state, deterministic per-symbol
                    // arithmetic.
                    let mut engine = crate::planner::take_engine(factory, n, name)?;
                    // Time the transform loop only — engine
                    // construction is plan-time cost, not batch cost.
                    let shard_start = Instant::now();
                    for (symbol, slot) in shard_in.iter().zip(shard_out.iter_mut()) {
                        engine.execute_into(symbol, slot, dir)?;
                    }
                    Ok(elapsed_ns(shard_start))
                });
                handles.push((shard_symbols, handle));
            }
            handles
                .into_iter()
                .map(|(shard_symbols, handle)| {
                    let wall_ns = handle.join().expect("batch worker panicked")?;
                    Ok(ShardTiming { symbols: shard_symbols, wall_ns })
                })
                .collect::<Result<Vec<ShardTiming>, FftError>>()
        })?;
        self.last_run = Some(RunTiming {
            engine: self.name.clone(),
            symbols: symbols.len(),
            workers: shards.len(),
            wall_ns: elapsed_ns(start),
            shards,
        });
        Ok(())
    }
}

/// Saturating nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::engine::EngineRegistry;

    fn batch(n: usize, symbols: usize) -> Vec<Vec<C64>> {
        (0..symbols)
            .map(|s| {
                let mut v = crate::planner::calibration_signal(n);
                // Vary the batch across symbols deterministically.
                v[s % n] = v[s % n] * (1.0 + s as f64);
                v
            })
            .collect()
    }

    #[test]
    fn threaded_matches_sequential_bit_for_bit() {
        let mut exec = BatchExecutor::with_engine_name(128, "radix2_dit", EngineRegistry::standard)
            .expect("executor");
        let symbols = batch(128, 17);
        let seq = exec.execute(&symbols, Direction::Forward).unwrap();
        for workers in [2usize, 3, 8, 64] {
            let par = exec.execute_threaded(&symbols, Direction::Forward, workers).unwrap();
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn worker_counts_beyond_the_batch_are_clamped() {
        let mut exec =
            BatchExecutor::with_engine_name(64, "mcfft", EngineRegistry::standard).unwrap();
        let symbols = batch(64, 2);
        let out = exec.execute_threaded(&symbols, Direction::Inverse, 16).unwrap();
        assert_eq!(out, exec.execute(&symbols, Direction::Inverse).unwrap());
        assert!(exec.execute_threaded(&[], Direction::Forward, 4).unwrap().is_empty());
    }

    #[test]
    fn length_errors_surface_from_workers() {
        let mut exec =
            BatchExecutor::with_engine_name(64, "radix2_dif", EngineRegistry::standard).unwrap();
        let mut symbols = batch(64, 8);
        symbols[5] = vec![C64::new(0.0, 0.0); 32];
        let err = exec.execute_threaded(&symbols, Direction::Forward, 4).unwrap_err();
        assert!(matches!(err, FftError::LengthMismatch { expected: 64, got: 32 }));
    }

    #[test]
    fn run_timings_cover_every_shard() {
        let mut exec =
            BatchExecutor::with_engine_name(64, "radix2_dit", EngineRegistry::standard).unwrap();
        assert!(exec.last_run().is_none(), "no run yet");
        let symbols = batch(64, 10);
        exec.execute(&symbols, Direction::Forward).unwrap();
        let run = exec.last_run().unwrap();
        assert_eq!((run.symbols, run.workers), (10, 1));
        assert_eq!(run.shards.len(), 1);
        assert_eq!(run.engine, "radix2_dit");
        exec.execute_threaded(&symbols, Direction::Forward, 3).unwrap();
        let run = exec.last_run().unwrap();
        assert_eq!(run.workers, 3);
        assert_eq!(run.shards.iter().map(|s| s.symbols).sum::<usize>(), 10);
        assert!(run.wall_ns > 0);
        assert!(run.throughput() > 0.0);
        // The end-to-end run covers its longest shard.
        assert!(run.shards.iter().all(|s| s.wall_ns <= run.wall_ns));
    }

    #[test]
    fn unknown_engine_is_a_backend_error() {
        let err =
            BatchExecutor::with_engine_name(64, "asip_iss", EngineRegistry::standard).unwrap_err();
        assert!(matches!(err, FftError::Backend { .. }));
    }
}
