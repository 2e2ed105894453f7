//! The polymorphic execution layer: every FFT backend in the workspace
//! behind one [`FftEngine`] trait, described by one [`CATALOG`] and
//! enumerable through an [`EngineRegistry`].
//!
//! The paper compares one algorithm across several execution substrates
//! (golden models, prior-art architectures, the cycle-accurate ASIP).
//! Before this layer each backend exposed an ad-hoc signature and every
//! harness carried per-backend glue; now a harness iterates the
//! registry and calls [`FftEngine::execute`].
//!
//! Each [`EngineSpec`] row says what one engine is: its name, the sizes
//! it serves, how to build it, and its [`Cost`], the engine's one cost
//! model (operations and main-memory traffic, or modeled cycles), which
//! Estimate prices and surveys read without building. A registry is
//! the rows that support one size and builds an engine only when asked:
//! [`EngineRegistry::take`] builds one, [`EngineRegistry::engines_mut`]
//! builds them all, and naming or pricing them builds nothing.
//!
//! # Contract
//!
//! For a length-`N` engine, the execution **primitive** is
//! [`FftEngine::execute_into`]: it writes the *unnormalised* DFT
//! `X(k) = sum_m x(m) W_N^{km}` (or, for `Direction::Inverse`, the
//! unnormalised conjugate sum) in natural bin order into a
//! caller-provided `N`-point output buffer, so
//! `Inverse(Forward(x)) == N * x` for every engine. Backends that scale
//! internally (e.g. the per-stage-halving Q15 datapath) rescale to meet
//! this contract; their [`FftEngine::tolerance`] reports the expected
//! deviation relative to the spectrum peak.
//!
//! # Zero-allocation execution
//!
//! `execute_into` takes `&mut self` because every backend owns its
//! scratch buffers (the FFTW plan idiom): the first call sizes them,
//! every later call reuses them, so steady-state traffic does **zero
//! heap work per transform** — the caller brings the output, the engine
//! brings the scratch. [`FftEngine::execute`] is a provided convenience
//! wrapper that allocates one output buffer and delegates; the two
//! paths are bit-identical. Input and output never alias (enforced by
//! the borrow checker), and on error the output buffer's contents are
//! unspecified.
//!
//! This contract is what the upper layers build on: the streaming
//! pipeline's long-lived workers each own one engine instance (and
//! therefore one scratch set) per thread
//! — [`FftEngine`] deliberately carries no `Sync` bound — and drive it
//! through `execute_into` so steady-state throughput work never
//! touches the allocator. It does carry `Send`: an engine may move
//! between threads, one at a time, which is what lets the stream
//! pipeline keep a per-channel engine behind a mutex for whichever
//! connection thread runs that channel's symbol inline.
//!
//! # Examples
//!
//! ```
//! use afft_core::engine::EngineRegistry;
//! use afft_core::Direction;
//! use afft_num::Complex;
//!
//! let mut registry = EngineRegistry::standard(64)?;
//! assert!(registry.len() >= 5);
//! let x = vec![Complex::new(1.0, 0.0); 64];
//! // One reusable output buffer serves every engine: no per-transform
//! // allocation anywhere in the loop.
//! let mut spectrum = vec![Complex::zero(); 64];
//! for engine in registry.engines_mut() {
//!     engine.execute_into(&x, &mut spectrum, Direction::Forward)?;
//!     assert!((spectrum[0].re - 64.0).abs() < 1e-6, "{}", engine.name());
//! }
//! # Ok::<(), afft_core::FftError>(())
//! ```

use crate::array::ArrayFft;
use crate::bluestein::BluesteinEngine;
use crate::cached::{cached_fft_into, plain_fft_traffic, CachedFftScratch, MemTraffic};
use crate::error::FftError;
use crate::mcfft::{mcfft_into, Epochs, McfftScratch};
use crate::mixed::{factorize, MixedRadixEngine};
use crate::plan::Split;
use crate::rader::{is_prime, RaderEngine};
use crate::radix4::{is_power_of_four, Radix4DitEngine};
use crate::reference::{check_pow2, dft_naive_into, fft_radix2_dit_f64, Direction};
use crate::simd::{self, Radix4SimdEngine};
use afft_num::{Complex, C64};

/// A uniform interface over every FFT backend in the workspace.
///
/// See the [module documentation](self) for the execute contract.
/// Engines are `Send` but not `Sync`: one thread drives an engine at a
/// time, and it may be a different thread from one call to the next.
pub trait FftEngine: Send {
    /// Stable snake_case identifier (e.g. `"array_fft"`, `"asip_iss"`).
    fn name(&self) -> &str;

    /// The transform size `N` this engine instance is planned for.
    fn len(&self) -> usize;

    /// Never true for a planned engine; provided alongside
    /// [`FftEngine::len`] for API completeness.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The execution primitive: runs the transform into a
    /// caller-provided output buffer, reusing engine-owned scratch.
    /// Input and output length must both equal [`FftEngine::len`];
    /// after the engine's first transform this performs no heap
    /// allocation. On error the output contents are unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] for wrong input or output
    /// lengths, or a backend-specific error ([`FftError::Backend`])
    /// when the execution substrate fails.
    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError>;

    /// Convenience wrapper over [`FftEngine::execute_into`]: allocates
    /// one output buffer and delegates. Bit-identical to the `_into`
    /// path; steady-state callers should prefer the primitive and
    /// reuse their own buffer.
    ///
    /// # Errors
    ///
    /// As [`FftEngine::execute_into`].
    fn execute(&mut self, input: &[C64], dir: Direction) -> Result<Vec<C64>, FftError> {
        let mut output = vec![Complex::zero(); self.len()];
        self.execute_into(input, &mut output, dir)?;
        Ok(output)
    }

    /// Expected worst-case deviation from the exact DFT, relative to
    /// the spectrum peak. Exact-arithmetic backends keep the default;
    /// quantised datapaths override it.
    fn tolerance(&self) -> f64 {
        1e-8
    }

    /// Cycle count of the most recent [`FftEngine::execute`], on
    /// backends with a cycle-accurate substrate (`None` elsewhere).
    fn cycles(&self) -> Option<u64> {
        None
    }
}

/// Validates an [`FftEngine::execute_into`] buffer pair against the
/// engine's planned size — the one length-check shared by every
/// backend, in this crate and out-of-crate adapters alike, over any
/// sample type.
///
/// # Errors
///
/// Returns [`FftError::LengthMismatch`] if either buffer is not `n`
/// points.
pub fn check_io<T>(n: usize, input: &[T], output: &[T]) -> Result<(), FftError> {
    if input.len() != n {
        return Err(FftError::LengthMismatch { expected: n, got: input.len() });
    }
    if output.len() != n {
        return Err(FftError::LengthMismatch { expected: n, got: output.len() });
    }
    Ok(())
}

/// The naive `O(N^2)` DFT as an engine: the golden reference.
#[derive(Debug, Clone, Copy)]
pub struct NaiveDftEngine {
    n: usize,
}

impl NaiveDftEngine {
    /// Plans a naive DFT of size `n` (any non-zero size).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] for `n == 0`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        if n == 0 {
            return Err(FftError::InvalidSize { n, reason: "empty transform", factor: None });
        }
        Ok(NaiveDftEngine { n })
    }
}

impl FftEngine for NaiveDftEngine {
    fn name(&self) -> &str {
        "dft_naive"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        check_io(self.n, input, output)?;
        dft_naive_into(input, output, dir)
    }
}

/// The classic radix-2 decimation-in-time FFT as an engine.
#[derive(Debug, Clone, Copy)]
pub struct Radix2DitEngine {
    n: usize,
}

impl Radix2DitEngine {
    /// Plans a DIT FFT of size `n` (power of two, `>= 2`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        check_pow2(n)?;
        Ok(Radix2DitEngine { n })
    }
}

impl FftEngine for Radix2DitEngine {
    fn name(&self) -> &str {
        "radix2_dit"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        check_io(self.n, input, output)?;
        output.copy_from_slice(input);
        fft_radix2_dit_f64(output, dir)
    }
}

/// The array-structured FFT golden model is itself an engine; its
/// `_into` path reuses the plan-owned scratch and fuses the natural-
/// order gather into the epoch-1 store (see [`ArrayFft::process_into`]).
impl FftEngine for ArrayFft<f64> {
    fn name(&self) -> &str {
        "array_fft"
    }

    fn len(&self) -> usize {
        ArrayFft::len(self)
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        self.process_into(input, output, dir)
    }
}

/// Baas's two-epoch cached FFT as an engine (with engine-owned
/// staging/cache scratch for the allocation-free path).
#[derive(Debug, Clone)]
pub struct CachedFftEngine {
    n: usize,
    scratch: CachedFftScratch,
}

impl CachedFftEngine {
    /// Plans a cached FFT of size `n` (power of two, `>= 64`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Split::for_size(n)?;
        Ok(CachedFftEngine { n, scratch: CachedFftScratch::new() })
    }
}

impl FftEngine for CachedFftEngine {
    fn name(&self) -> &str {
        "cached_fft"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        check_io(self.n, input, output)?;
        cached_fft_into(input, output, dir, &mut self.scratch)?;
        Ok(())
    }
}

/// The multi-epoch cached FFT (MCFFT) as an engine (with an
/// engine-owned scratch arena for the allocation-free path).
#[derive(Debug, Clone)]
pub struct McfftEngine {
    epochs: Epochs,
    scratch: McfftScratch,
}

impl McfftEngine {
    /// Plans an MCFFT with the canonical decomposition for `n`: epochs
    /// of at most 16 points, mirroring a small-cache configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `n` is a power of two
    /// `>= 2`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        check_pow2(n)?;
        let mut factors = Vec::new();
        let mut bits = n.trailing_zeros();
        while bits > 0 {
            let step = bits.min(4);
            factors.push(1usize << step);
            bits -= step;
        }
        Ok(McfftEngine { epochs: Epochs::new(n, &factors)?, scratch: McfftScratch::new() })
    }

    /// The epoch decomposition in use.
    pub fn epochs(&self) -> &Epochs {
        &self.epochs
    }
}

impl FftEngine for McfftEngine {
    fn name(&self) -> &str {
        "mcfft"
    }

    fn len(&self) -> usize {
        self.epochs.n()
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        check_io(self.epochs.n(), input, output)?;
        mcfft_into(input, output, &self.epochs, dir, &mut self.scratch)
    }
}

/// An engine's cost model: one transform at one size, in physical units
/// the planner prices with its host constants. Both terms carry the
/// main-memory traffic in complex points where the engine models it;
/// an engine's [`EngineSpec::cost`] is the only statement of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cost {
    /// Host arithmetic in scalar issue slots (a vector engine divides
    /// its operation count by its issue width), plus traffic.
    Host(f64, Option<MemTraffic>),
    /// Modeled cycles of a cycle-accurate substrate, hardware time
    /// rather than host time, plus traffic.
    Cycles(u64, Option<MemTraffic>),
}

impl Cost {
    /// The traffic term.
    pub fn traffic(self) -> Option<MemTraffic> {
        match self {
            Cost::Host(_, traffic) | Cost::Cycles(_, traffic) => traffic,
        }
    }
}

/// One catalog row: what an engine is, known without building it.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Stable snake_case identifier, equal to the built engine's
    /// [`FftEngine::name`].
    pub name: &'static str,
    /// Whether the engine serves size `n`.
    pub supports: fn(usize) -> bool,
    /// Plans the engine for a size it supports.
    pub build: fn(usize) -> Result<Box<dyn FftEngine>, FftError>,
    /// The Estimate cost of one transform at a size it supports.
    pub cost: fn(usize) -> Cost,
}

/// One [`CATALOG`] row for an engine type planned by `new(n)`.
macro_rules! row {
    ($name:literal, $supports:expr, $engine:ty, $cost:expr) => {
        EngineSpec {
            name: $name,
            supports: $supports,
            build: |n| Ok(Box::new(<$engine>::new(n)?)),
            cost: $cost,
        }
    };
}

/// Every software engine of this crate, in registration order: the one
/// place that says what each engine is. `afft_asip::engine::ASIP_ISS`
/// is the cycle-accurate simulator's row.
pub static CATALOG: &[EngineSpec] = &[
    row!("dft_naive", |_| true, NaiveDftEngine, dft_naive_cost),
    row!("radix2_dit", usize::is_power_of_two, Radix2DitEngine, radix2_dit_cost),
    row!("radix4_dit", is_power_of_four, Radix4DitEngine, radix4_dit_cost),
    row!("radix4_simd", simd_tier, Radix4SimdEngine, radix4_simd_cost),
    row!("mcfft", usize::is_power_of_two, McfftEngine, mcfft_cost),
    row!("mixed_radix", |n| factorize(n).is_some(), MixedRadixEngine, mixed_radix_cost),
    row!("rader", |n| n >= 3 && is_prime(n) && factorize(n - 1).is_some(), RaderEngine, rader_cost),
    row!("bluestein", |_| true, BluesteinEngine, bluestein_cost),
    // Radix-2 work plus group bookkeeping, over two epochs of traffic
    // through the CRF streaming port.
    row!("array_fft", array_size, ArrayFft::<f64>, |n| two_epoch_cost(1.15, n)),
    row!("cached_fft", array_size, CachedFftEngine, |n| two_epoch_cost(1.2, n)),
];

/// `c · N · log2 N` for a power-of-two `n`.
fn n_log2n(c: f64, n: usize) -> f64 {
    c * n as f64 * n.ilog2() as f64
}

/// `points` loaded and `points` stored.
fn each_way(points: usize) -> Option<MemTraffic> {
    Some(MemTraffic { loads: points, stores: points })
}

fn simd_tier(n: usize) -> bool {
    n.is_power_of_two() && n >= 16 && simd::active_level().is_simd()
}

fn array_size(n: usize) -> bool {
    Split::for_size(n).is_ok()
}

/// One multiply-add and one on-the-fly twiddle per term of the `N^2`
/// sum, from registers.
fn dft_naive_cost(n: usize) -> Cost {
    Cost::Host(n as f64 * n as f64 * (1.0 + TWIDDLE_OPS), None)
}

/// One on-the-fly twiddle per butterfly, `N/2` butterflies per stage;
/// `N log2 N` points of traffic each way.
fn radix2_dit_cost(n: usize) -> Cost {
    Cost::Host(n_log2n(1.0 + TWIDDLE_OPS / 2.0, n), Some(plain_fft_traffic(n)))
}

/// The epoch structures move every point once each way per epoch.
fn two_epoch_cost(c: f64, n: usize) -> Cost {
    Cost::Host(n_log2n(c, n), each_way(2 * n))
}

/// Per-epoch twiddle passes, one pass per epoch of at most 16 points.
fn mcfft_cost(n: usize) -> Cost {
    Cost::Host(n_log2n(1.25, n), each_way(n * n.ilog2().div_ceil(4) as usize))
}

/// ~25% fewer complex multiplies than radix-2, with plan-time twiddles;
/// one in-place pass per radix-4 stage.
fn radix4_dit_cost(n: usize) -> Cost {
    Cost::Host(n_log2n(0.75, n), each_way(n * (n.ilog2() / 2) as usize))
}

/// Vector issue over the radix-4 op count; see `radix4_simd_model`.
fn radix4_simd_cost(n: usize) -> Cost {
    let (ops, points) = radix4_simd_model(n);
    Cost::Host(ops, each_way(points))
}

/// `radix4_simd`'s ops and one-way traffic in points: the scalar radix-4
/// op count retired ~`lanes × 0.75` per issue, one pass per radix-4
/// stage plus the radix-2 pass at odd `log2 n`, and two layout passes,
/// since vectors do not widen the memory bus.
fn radix4_simd_model(n: usize) -> (f64, usize) {
    let issue_width = (simd::active_level().lanes() as f64 * 0.75).max(1.0);
    (n_log2n(0.75, n) / issue_width, n * (n.ilog2().div_ceil(2) + 2) as usize)
}

/// Per-point ops of one mixed-radix stage, by radix: radix-4 has only
/// `±i` rotations, radix-3 and radix-5 pay their constant rotations.
const STAGE_OPS: [f64; 6] = [0.0, 0.0, 1.0, 1.9, 1.7, 3.2];

/// Ops of one twiddle computed on the fly, a `cos` and a `sin`
/// (`afft_num::twiddle`): the engines without plan-time tables pay it
/// per term (`dft_naive`) or per butterfly (`radix2_dit`).
const TWIDDLE_OPS: f64 = 10.0;

/// The mixed-radix op count of a 5-smooth `n` with stage radices
/// `radices`.
fn stage_ops(n: usize, radices: &[usize]) -> f64 {
    n as f64 * radices.iter().map(|&r| STAGE_OPS[r]).sum::<f64>()
}

/// One full load + store pass per {4, 2, 3, 5} factor stage.
fn mixed_radix_cost(n: usize) -> Cost {
    let radices = factorize(n).expect("mixed_radix serves 5-smooth sizes only");
    Cost::Host(stage_ops(n, &radices), each_way(n * radices.len()))
}

/// Two `m = next_pow2(2n - 1)`-point `radix4_simd` passes around the
/// pointwise multiply, plus the `O(n + m)` chirp and fold passes — a
/// multiple of a direct kernel at the same size, so Bluestein only
/// ranks first where nothing structured exists.
fn bluestein_cost(n: usize) -> Cost {
    let m = (2 * n - 1).next_power_of_two();
    let (ops, points) = radix4_simd_model(m);
    Cost::Host(2.0 * ops + (m + 2 * n) as f64, each_way(2 * points + m + 2 * n))
}

/// Two `(p-1)`-point `mixed_radix` passes, plus the generator
/// permutations and the pointwise multiply.
fn rader_cost(p: usize) -> Cost {
    let m = p - 1;
    let radices = factorize(m).expect("rader serves primes with 5-smooth p - 1 only");
    let stages = (m.ilog2() + 1) as usize;
    Cost::Host(
        2.0 * stage_ops(m, &radices) + 4.0 * m as f64 + p as f64,
        each_way(2 * m * stages + 3 * m),
    )
}

/// One catalog row supporting the registry's size, and its engine once
/// something asked for it.
struct Entry {
    spec: EngineSpec,
    engine: Option<Box<dyn FftEngine>>,
}

impl Entry {
    fn engine(&mut self, n: usize) -> Result<&mut (dyn FftEngine + 'static), FftError> {
        let engine = match self.engine.take() {
            Some(engine) => engine,
            None => (self.spec.build)(n)?,
        };
        Ok(self.engine.insert(engine).as_mut())
    }
}

/// The catalog rows that support one size, each engine built on first
/// use.
pub struct EngineRegistry {
    n: usize,
    entries: Vec<Entry>,
}

impl EngineRegistry {
    /// An empty registry for size `n`; rows join through
    /// [`EngineRegistry::with`].
    pub fn new(n: usize) -> Self {
        EngineRegistry { n, entries: Vec::new() }
    }

    /// Whether [`EngineRegistry::standard`] supports size `n`: **every**
    /// `n >= 2`, since `bluestein` serves any size however adversarial
    /// its factorisation. Only the degenerate sizes 0 and 1 are rejected.
    pub fn supports(n: usize) -> bool {
        n >= 2
    }

    /// The [`CATALOG`] rows that support size `n`, in catalog order;
    /// builds nothing. `radix4_simd` joins only on hosts with a
    /// detected vector unit and without `AFFT_NO_SIMD=1` (see
    /// [`simd::active_level`]); because the backend-set hash keys
    /// planner wisdom, suppressing the tier invalidates SIMD-era wisdom
    /// by construction.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless
    /// [`EngineRegistry::supports`] holds for `n` (any `n >= 2`).
    pub fn standard(n: usize) -> Result<Self, FftError> {
        if !Self::supports(n) {
            return Err(FftError::InvalidSize {
                n,
                reason: "no registered backend (need n >= 2)",
                factor: None,
            });
        }
        Ok(CATALOG.iter().fold(Self::new(n), |registry, spec| registry.with(*spec)))
    }

    /// Adds `spec` if it supports the registry's size: the one way an
    /// engine joins a registry. Duplicate names are rejected by debug
    /// assertion.
    #[must_use]
    pub fn with(mut self, spec: EngineSpec) -> Self {
        if (spec.supports)(self.n) {
            debug_assert!(!self.names().contains(&spec.name), "duplicate engine {:?}", spec.name);
            self.entries.push(Entry { spec, engine: None });
        }
        self
    }

    /// The rows in registration order: names and Estimate costs,
    /// nothing built.
    pub fn specs(&self) -> impl Iterator<Item = &EngineSpec> {
        self.entries.iter().map(|e| &e.spec)
    }

    /// Builds every engine not built yet and iterates them mutably in
    /// registration order: the execution view for Measure, surveys and
    /// conformance tests.
    ///
    /// # Panics
    ///
    /// Panics if a row's constructor rejects a size its `supports`
    /// predicate accepted: a catalog bug.
    pub fn engines_mut<'a>(
        &'a mut self,
    ) -> impl Iterator<Item = &'a mut (dyn FftEngine + 'static)> + 'a {
        let n = self.n;
        self.entries.iter_mut().map(move |entry| {
            let name = entry.spec.name;
            entry.engine(n).unwrap_or_else(|e| panic!("catalog row {name} rejected n={n}: {e}"))
        })
    }

    /// Builds (once) the engine named `name`, to execute it in place.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::Backend`] if no row is named `name`, or the
    /// row's constructor error.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut (dyn FftEngine + 'static), FftError> {
        let n = self.n;
        let idx = self.position(name)?;
        self.entries[idx].engine(n)
    }

    /// Removes the row named `name` and returns its engine owned — how a
    /// planner hands the winning backend to a long-lived consumer (an
    /// OFDM modem, a stream worker) without building the others.
    ///
    /// # Errors
    ///
    /// As [`EngineRegistry::get_mut`].
    pub fn take(&mut self, name: &str) -> Result<Box<dyn FftEngine>, FftError> {
        let idx = self.position(name)?;
        let entry = self.entries.remove(idx);
        match entry.engine {
            Some(engine) => Ok(engine),
            None => (entry.spec.build)(self.n),
        }
    }

    fn position(&self, name: &str) -> Result<usize, FftError> {
        self.entries.iter().position(|e| e.spec.name == name).ok_or_else(|| FftError::Backend {
            engine: name.to_string(),
            reason: format!("not in the registry for n = {}", self.n),
        })
    }

    /// The row names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs().map(|s| s.name).collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl core::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineRegistry").field("engines", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dft_naive, max_error};
    use afft_num::Complex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn standard_registry_size_gates() {
        // Powers of two below/above the radix-4 and array thresholds.
        // radix4_dit joins on powers of 4; the SIMD tier joins on every
        // power of two from n >= 16 exactly when the host detects a
        // vector unit.
        let simd = simd::active_level().is_simd();
        for n in (3..=11).map(|k| 1usize << k) {
            let mut want = vec!["dft_naive", "radix2_dit"];
            if is_power_of_four(n) {
                want.push("radix4_dit");
            }
            if simd && n >= 16 {
                want.push("radix4_simd");
            }
            want.extend(["mcfft", "mixed_radix", "bluestein"]);
            if n >= 64 {
                want.extend(["array_fft", "cached_fft"]);
            }
            assert_eq!(EngineRegistry::standard(n).unwrap().names(), want, "n={n}");
        }
        // Composite 5-smooth sizes: the naive reference, mixed_radix
        // and the chirp-Z fallback.
        for n in [60usize, 243, 1200, 1536] {
            let r = EngineRegistry::standard(n).unwrap();
            assert_eq!(r.names(), ["dft_naive", "mixed_radix", "bluestein"], "n={n}");
        }
        // Odd primes with 5-smooth p - 1 add Rader's engine; rough
        // primes (1008 = 2^4·3^2·7) and non-5-smooth composites fall
        // through to the universal chirp-Z fallback alone.
        for n in [7usize, 17, 97, 251] {
            let r = EngineRegistry::standard(n).unwrap();
            assert_eq!(r.names(), ["dft_naive", "rader", "bluestein"], "n={n}");
        }
        for n in [14usize, 77, 1009, 1022, 1344] {
            let r = EngineRegistry::standard(n).unwrap();
            assert_eq!(r.names(), ["dft_naive", "bluestein"], "n={n}");
        }
        assert!(EngineRegistry::standard(0).is_err());
        assert!(EngineRegistry::standard(1).is_err());
    }

    #[test]
    fn simd_tier_registers_exactly_when_detected() {
        let has = |n: usize| EngineRegistry::standard(n).unwrap().names().contains(&"radix4_simd");
        for n in [16usize, 32, 128, 512, 1024, 2048] {
            assert_eq!(has(n), simd::active_level().is_simd(), "n={n}");
        }
        // Below the tier minimum, or not a power of two: never.
        for n in [4usize, 8, 48, 1000] {
            assert!(!has(n), "n={n}");
        }
    }

    #[test]
    fn catalog_names_are_unique_and_match_the_built_engines() {
        let mut names: Vec<&str> = CATALOG.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len(), "duplicate catalog name");
        // Every row builds at every size it claims, under its own name,
        // and prices it with a positive host op count.
        for n in [2usize, 3, 7, 8, 16, 60, 64, 97, 128, 243, 256, 1009, 1022, 1024, 1200] {
            let mut registry = EngineRegistry::standard(n).unwrap();
            let specs: Vec<EngineSpec> = registry.specs().copied().collect();
            for (engine, spec) in registry.engines_mut().zip(specs) {
                assert_eq!((engine.name(), engine.len()), (spec.name, n));
                let cost = (spec.cost)(n);
                assert!(matches!(cost, Cost::Host(ops, _) if ops > 0.0), "{} at n={n}", spec.name);
            }
        }
    }

    #[test]
    fn supported_sizes_are_reported_explicitly() {
        // Every n >= 2 is supported — primes and rough composites
        // included, via the convolution engines. Only the degenerate
        // sizes are rejected.
        for n in [
            2usize, 7, 8, 14, 48, 49, 60, 64, 77, 97, 120, 243, 251, 600, 1009, 1022, 1200, 1344,
            1536,
        ] {
            assert!(EngineRegistry::supports(n), "{n}");
            assert!(EngineRegistry::standard(n).is_ok(), "{n}");
        }
        for n in [0usize, 1] {
            assert!(!EngineRegistry::supports(n), "{n}");
            assert!(
                matches!(EngineRegistry::standard(n), Err(FftError::InvalidSize { .. })),
                "{n}"
            );
        }
    }

    #[test]
    fn composite_registry_engines_agree_with_the_naive_dft() {
        // 5-smooth composites, odd primes (rader + bluestein) and a
        // rough composite (bluestein alone): every registered engine
        // must honour its own tolerance against the naive DFT.
        for n in [48usize, 60, 77, 97, 243, 251, 1200] {
            let mut registry = EngineRegistry::standard(n).unwrap();
            let x = random_signal(n, n as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = dft_naive(&x, dir).unwrap();
                let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
                for engine in registry.engines_mut() {
                    let got = engine.execute(&x, dir).unwrap();
                    let err = max_error(&got, &want) / peak;
                    assert!(err < engine.tolerance(), "{} at n={n} {dir:?}: {err}", engine.name());
                }
            }
        }
    }

    #[test]
    fn all_engines_agree_with_the_naive_dft() {
        for n in [8usize, 64, 256] {
            let mut registry = EngineRegistry::standard(n).unwrap();
            let x = random_signal(n, n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
            for engine in registry.engines_mut() {
                let got = engine.execute(&x, Direction::Forward).unwrap();
                let err = max_error(&got, &want) / peak;
                assert!(err < engine.tolerance(), "{} at n={n}: {err}", engine.name());
            }
        }
    }

    #[test]
    fn every_engine_round_trips() {
        let n = 64;
        let mut registry = EngineRegistry::standard(n).unwrap();
        let x = random_signal(n, 5);
        for engine in registry.engines_mut() {
            let spectrum = engine.execute(&x, Direction::Forward).unwrap();
            let back = engine.execute(&spectrum, Direction::Inverse).unwrap();
            let got: Vec<C64> = back.iter().map(|&v| v * (1.0 / n as f64)).collect();
            assert!(
                max_error(&got, &x) < engine.tolerance() * n as f64,
                "{} round trip",
                engine.name()
            );
        }
    }

    #[test]
    fn execute_into_is_bit_identical_to_execute_and_reuses_the_buffer() {
        for n in [8usize, 128] {
            let mut registry = EngineRegistry::standard(n).unwrap();
            let x = random_signal(n, 21 + n as u64);
            let y = random_signal(n, 22 + n as u64);
            let mut out = vec![Complex::zero(); n];
            for engine in registry.engines_mut() {
                for dir in [Direction::Forward, Direction::Inverse] {
                    // Same buffer reused across inputs and directions:
                    // stale contents must never leak into a result.
                    for signal in [&x, &y] {
                        let alloc = engine.execute(signal, dir).unwrap();
                        engine.execute_into(signal, &mut out, dir).unwrap();
                        assert_eq!(alloc, out, "{} at n={n} {dir:?}", engine.name());
                    }
                }
            }
        }
    }

    #[test]
    fn length_mismatch_is_uniformly_reported() {
        // 64 reaches every power-of-two kernel, 97 `rader` and 1200
        // `mixed_radix`; `bluestein` registers at all three.
        for n in [64usize, 97, 1200] {
            let mut registry = EngineRegistry::standard(n).unwrap();
            let x = random_signal(n / 2, 1);
            let ok = random_signal(n, 2);
            let mismatch = Some(FftError::LengthMismatch { expected: n, got: n / 2 });
            let mut short = vec![Complex::zero(); n / 2];
            for engine in registry.engines_mut() {
                let got = engine.execute(&x, Direction::Forward).err();
                assert_eq!(got, mismatch, "{}", engine.name());
                // The output buffer is length-checked too.
                let got = engine.execute_into(&ok, &mut short, Direction::Forward).err();
                assert_eq!(got, mismatch, "{} output check", engine.name());
            }
        }
    }

    #[test]
    fn traffic_reporting_matches_the_motivating_counts() {
        let n = 1024usize;
        let registry = EngineRegistry::standard(n).unwrap();
        let traffic = |name: &str| {
            let spec = registry.specs().find(|s| s.name == name).unwrap();
            (spec.cost)(n).traffic()
        };
        // The paper's Section II motivation: plain FFT moves N log2 N
        // points each way; the epoch structures move 2N each way.
        assert_eq!(traffic("radix2_dit").unwrap().loads, n * 10);
        assert_eq!(traffic("cached_fft").unwrap().total(), 4 * n);
        assert_eq!(traffic("array_fft").unwrap().total(), 4 * n);
        assert!(traffic("dft_naive").is_none());
    }

    #[test]
    fn registry_lookup_and_registration() {
        let r = EngineRegistry::new(8);
        assert!(r.is_empty());
        // A row joins only at sizes it supports.
        let array_row = *CATALOG.iter().find(|s| s.name == "array_fft").unwrap();
        let mut r = r.with(CATALOG[0]).with(array_row);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get_mut("dft_naive").unwrap().len(), 8);
        assert!(matches!(r.get_mut("missing"), Err(FftError::Backend { .. })));
        assert_eq!(format!("{r:?}"), "EngineRegistry { engines: [\"dft_naive\"] }");
    }

    #[test]
    fn take_removes_and_returns_the_engine_owned() {
        let mut r = EngineRegistry::standard(128).unwrap();
        let before = r.len();
        let engine = r.take("radix2_dit").expect("registered");
        assert_eq!(engine.name(), "radix2_dit");
        assert_eq!(engine.len(), 128);
        assert_eq!(r.len(), before - 1);
        assert!(!r.names().contains(&"radix2_dit"));
        assert!(matches!(r.take("radix2_dit"), Err(FftError::Backend { .. })));
        // An engine already built for execution is handed over as well.
        r.get_mut("mcfft").unwrap().execute(&random_signal(128, 3), Direction::Forward).unwrap();
        assert_eq!(r.take("mcfft").unwrap().name(), "mcfft");
    }
}
