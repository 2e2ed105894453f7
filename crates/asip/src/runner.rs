//! High-level drivers: stage inputs, run a generated program on the
//! ISS, collect outputs and statistics.
//!
//! [`ArrayFftRunner`] is the planned driver: built once for a size and
//! configuration, it keeps the program of each direction, one machine
//! sized to the layout's footprint, the pre-rotation table and the
//! output permutation, so a run costs only its simulation.
//! [`run_array_fft`] and [`run_array_fft_with_machine_config`] are
//! one-shot wrappers: they plan a runner, run it once and drop it.

use crate::layout::Layout;
use crate::program::{generate_array_fft, ProgramOptions};
use afft_core::address::transposed_to_natural_bin;
use afft_core::{ArrayFft, Direction, FftError, Scaling, Split};
use afft_isa::{AsmError, Program};
use afft_num::{twiddle_q15, Complex, C64, Q15};
use afft_sim::{Machine, MachineConfig, SimError, Stats, Timing};
use core::fmt;

/// Error from a high-level ASIP run.
#[derive(Debug)]
#[non_exhaustive]
pub enum AsipError {
    /// Planning/validation failure.
    Fft(FftError),
    /// Program generation failure.
    Asm(AsmError),
    /// Simulator trap.
    Sim(SimError),
}

impl fmt::Display for AsipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsipError::Fft(e) => write!(f, "fft: {e}"),
            AsipError::Asm(e) => write!(f, "asm: {e}"),
            AsipError::Sim(e) => write!(f, "sim: {e}"),
        }
    }
}

impl std::error::Error for AsipError {}

impl From<FftError> for AsipError {
    fn from(e: FftError) -> Self {
        AsipError::Fft(e)
    }
}
impl From<AsmError> for AsipError {
    fn from(e: AsmError) -> Self {
        AsipError::Asm(e)
    }
}
impl From<SimError> for AsipError {
    fn from(e: SimError) -> Self {
        AsipError::Sim(e)
    }
}

/// Result of one simulated transform.
#[derive(Debug, Clone)]
pub struct AsipRun {
    /// The spectrum in natural bin order (scaled by `1/N` by the
    /// per-stage datapath scaling).
    pub output: Vec<Complex<Q15>>,
    /// Execution statistics (cycles, instruction classes, cache).
    pub stats: Stats,
}

/// Configuration of an ASIP run.
#[derive(Debug, Clone, Copy)]
pub struct AsipConfig {
    /// Latency model (shared with the baselines for fair comparison).
    pub timing: Timing,
    /// Program-generation options.
    pub options: ProgramOptions,
    /// Cycle budget before declaring a hang.
    pub max_cycles: u64,
}

impl Default for AsipConfig {
    fn default() -> Self {
        AsipConfig {
            timing: Timing::default(),
            options: ProgramOptions::default(),
            max_cycles: 500_000_000,
        }
    }
}

/// Quantises an `f64` signal into the ASIP's Q15 wire format, scaling
/// by `amplitude` to stay inside `[-1, 1)`.
pub fn quantize_input(input: &[C64], amplitude: f64) -> Vec<Complex<Q15>> {
    input.iter().map(|&c| Complex::from_c64(c * amplitude)).collect()
}

/// One planned array-FFT size on the ISS.
///
/// Built once per size and configuration, a runner holds the split and
/// the layout, the generated program of each direction (generated on
/// first use), one [`Machine`] whose data memory is exactly the layout's
/// footprint ([`Layout::mem_bytes`]; an access outside the regions the
/// layout lists traps), the pre-rotation table words and the permutation
/// from hardware output order to natural order.
///
/// Each [`run_into`](Self::run_into) restarts the machine
/// ([`Machine::restart`]), stages the input and the table, runs to
/// `HALT` and reads the spectrum straight into the caller's slice. Once
/// each direction has run, a run does no heap work, and its output and
/// [`Stats`] equal those of a fresh machine.
///
/// # Examples
///
/// ```
/// use afft_asip::runner::{quantize_input, ArrayFftRunner, AsipConfig};
/// use afft_core::Direction;
/// use afft_num::Complex;
///
/// let mut runner = ArrayFftRunner::new(64, AsipConfig::default())?;
/// let input = quantize_input(&vec![Complex::new(1.0, 0.0); 64], 0.5);
/// let mut spectrum = vec![Complex::zero(); 64];
/// let first = runner.run_into(&input, &mut spectrum, Direction::Forward)?;
/// let again = runner.run_into(&input, &mut spectrum, Direction::Forward)?;
/// assert_eq!(first, again);
/// assert!((spectrum[0].re.to_f64() - 0.5).abs() < 0.01);
/// # Ok::<(), afft_asip::runner::AsipError>(())
/// ```
#[derive(Debug)]
pub struct ArrayFftRunner {
    split: Split,
    layout: Layout,
    cfg: AsipConfig,
    machine: Machine,
    // The direction whose program the machine holds.
    loaded: Option<Direction>,
    // Generated programs not in the machine, indexed by `dir_index`.
    programs: [Option<Program>; 2],
    // The `N/8 + 1` compressed pre-rotation coefficients.
    table: Vec<Complex<Q15>>,
    // `natural[addr]` is the natural bin of hardware-order output `addr`.
    natural: Vec<usize>,
}

impl ArrayFftRunner {
    /// Plans `n`-point runs (power of two, `>= 64`) on the default
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] for unsupported sizes.
    pub fn new(n: usize, cfg: AsipConfig) -> Result<Self, FftError> {
        Self::with_machine_config(n, cfg, &MachineConfig::default())
    }

    /// [`ArrayFftRunner::new`] with explicit machine parameters (cache
    /// geometry, streaming-port ablation flag, ...). The data memory
    /// (`mem_bytes`) and the CRF capacity come from the transform size
    /// and the timing from `cfg`, whatever `machine_cfg` says.
    ///
    /// # Errors
    ///
    /// As for [`ArrayFftRunner::new`].
    pub fn with_machine_config(
        n: usize,
        cfg: AsipConfig,
        machine_cfg: &MachineConfig,
    ) -> Result<Self, FftError> {
        let split = Split::for_size(n)?;
        let layout = Layout::for_size(n);
        let machine = Machine::new(MachineConfig {
            mem_bytes: layout.mem_bytes,
            timing: cfg.timing,
            crf_capacity: split.p_size,
            ..*machine_cfg
        });
        Ok(ArrayFftRunner {
            table: (0..=n / 8).map(|k| twiddle_q15(n, k)).collect(),
            natural: (0..n).map(|addr| transposed_to_natural_bin(&split, addr)).collect(),
            split,
            layout,
            cfg,
            machine,
            loaded: None,
            programs: [None, None],
        })
    }

    /// Runs one transform of `input` (already quantised) and writes the
    /// spectrum, in natural bin order and scaled by `1/N` by the
    /// datapath, into `output`.
    ///
    /// # Errors
    ///
    /// Returns [`AsipError`] for slices of the wrong length, generation
    /// failures or simulator traps. A run after a trap starts from a
    /// restarted machine like any other.
    pub fn run_into(
        &mut self,
        input: &[Complex<Q15>],
        output: &mut [Complex<Q15>],
        dir: Direction,
    ) -> Result<Stats, AsipError> {
        let n = self.split.n;
        for got in [input.len(), output.len()] {
            if got != n {
                return Err(FftError::LengthMismatch { expected: n, got }.into());
            }
        }
        self.load(dir)?;
        self.machine.restart();
        let mem = self.machine.mem_mut();
        mem.write_complex_slice(self.layout.in_base, input)?;
        mem.write_complex_slice(self.layout.table_base, &self.table)?;
        let stats = self.machine.run(self.cfg.max_cycles)?;
        let spectrum = self.machine.mem().read_complex_points(self.layout.out_base, n)?;
        for (point, &bin) in spectrum.zip(&self.natural) {
            output[bin] = point;
        }
        Ok(stats)
    }

    /// Puts `dir`'s program in the machine, generating it on first use.
    fn load(&mut self, dir: Direction) -> Result<(), AsipError> {
        if self.loaded == Some(dir) {
            return Ok(());
        }
        let program = match self.programs[dir_index(dir)].take() {
            Some(program) => program,
            None => {
                let inverse = matches!(dir, Direction::Inverse);
                let options = ProgramOptions { inverse, ..self.cfg.options };
                generate_array_fft(&self.split, &self.layout, options)?
            }
        };
        let replaced = self.machine.load_program(program);
        if let Some(prev) = self.loaded.replace(dir) {
            self.programs[dir_index(prev)] = Some(replaced);
        }
        Ok(())
    }
}

fn dir_index(dir: Direction) -> usize {
    usize::from(matches!(dir, Direction::Inverse))
}

/// Runs the array-FFT ASIP program for `input` (already quantised) once,
/// on a freshly planned [`ArrayFftRunner`].
///
/// # Errors
///
/// Returns [`AsipError`] for invalid sizes, generation failures or
/// simulator traps.
pub fn run_array_fft(
    input: &[Complex<Q15>],
    dir: Direction,
    cfg: &AsipConfig,
) -> Result<AsipRun, AsipError> {
    run_array_fft_with_machine_config(input, dir, cfg, &MachineConfig::default())
}

/// [`run_array_fft`] with explicit machine parameters, as for
/// [`ArrayFftRunner::with_machine_config`]: `machine_cfg.mem_bytes` and
/// its CRF capacity do not apply.
///
/// # Errors
///
/// As for [`run_array_fft`].
pub fn run_array_fft_with_machine_config(
    input: &[Complex<Q15>],
    dir: Direction,
    cfg: &AsipConfig,
    machine_cfg: &MachineConfig,
) -> Result<AsipRun, AsipError> {
    let mut runner = ArrayFftRunner::with_machine_config(input.len(), *cfg, machine_cfg)?;
    let mut output = vec![Complex::zero(); input.len()];
    let stats = runner.run_into(input, &mut output, dir)?;
    Ok(AsipRun { output, stats })
}

/// The golden prediction for [`run_array_fft`]: the `afft-core`
/// software model with the same fixed-point datapath. The ISS result
/// must match this **bit-exactly** (asserted by integration tests).
///
/// # Errors
///
/// Propagates planning errors.
pub fn golden_array_fft(
    input: &[Complex<Q15>],
    dir: Direction,
) -> Result<Vec<Complex<Q15>>, FftError> {
    let fft: ArrayFft<Q15> = ArrayFft::with_scaling(input.len(), Scaling::HalfPerStage)?;
    fft.process(input, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_input(n: usize, seed: u64) -> Vec<Complex<Q15>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Complex::new(
                    Q15::from_f64(rng.gen_range(-0.9..0.9)),
                    Q15::from_f64(rng.gen_range(-0.9..0.9)),
                )
            })
            .collect()
    }

    #[test]
    fn iss_matches_golden_bit_exactly_64() {
        let input = random_input(64, 1);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let golden = golden_array_fft(&input, Direction::Forward).unwrap();
        assert_eq!(run.output, golden, "ISS and software model disagree");
    }

    #[test]
    fn iss_matches_golden_bit_exactly_256() {
        let input = random_input(256, 2);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let golden = golden_array_fft(&input, Direction::Forward).unwrap();
        assert_eq!(run.output, golden);
    }

    #[test]
    fn iss_output_approximates_true_dft() {
        let n = 128;
        let input = random_input(n, 3);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let exact_in: Vec<C64> = input.iter().map(|c| c.to_c64()).collect();
        let want = dft_naive(&exact_in, Direction::Forward).unwrap();
        let got: Vec<C64> = run.output.iter().map(|c| c.to_c64() * n as f64).collect();
        let scale = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
        assert!(max_error(&got, &want) / scale < 0.03);
    }

    #[test]
    fn instruction_counts_match_algorithm_1() {
        let n = 1024;
        let input = random_input(n, 4);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        assert_eq!(run.stats.ldin, 1024);
        assert_eq!(run.stats.stout, 1024);
        assert_eq!(run.stats.but4, 1280);
        // Non-trivial pre-rotations only: (P-1)(Q-1) = 31*31.
        assert_eq!(run.stats.coef_fetches, 961);
        // Table-II-style counts: loads ~ N, stores ~ N.
        assert_eq!(run.stats.table_loads(), 1024);
        assert_eq!(run.stats.table_stores(), 1024);
    }

    #[test]
    fn ablation_configurations_stay_inside_the_layout() {
        // The machine's memory ends where the layout does, so a stray
        // access in any of these programs would trap.
        use crate::program::UnrollStyle;
        for n in [64, 1024] {
            let input = random_input(n, 6);
            let golden = golden_array_fft(&input, Direction::Forward).unwrap();
            let looped = AsipConfig {
                options: ProgramOptions { unroll: UnrollStyle::GroupLoop, ..Default::default() },
                ..Default::default()
            };
            let run = run_array_fft(&input, Direction::Forward, &looped).unwrap();
            assert_eq!(run.output, golden, "n={n}: group loop");
            let cached = MachineConfig { custom_ops_cached: true, ..MachineConfig::default() };
            let run = run_array_fft_with_machine_config(
                &input,
                Direction::Forward,
                &AsipConfig::default(),
                &cached,
            )
            .unwrap();
            assert_eq!(run.output, golden, "n={n}: LDIN/STOUT through the cache");
            let unrotated = AsipConfig {
                options: ProgramOptions { skip_prerot: true, ..Default::default() },
                ..Default::default()
            };
            let run = run_array_fft(&input, Direction::Forward, &unrotated).unwrap();
            assert_eq!(run.stats.coef_fetches, 0, "n={n}: no pre-rotation");
        }
    }

    #[test]
    fn inverse_round_trips() {
        let n = 64;
        let input = random_input(n, 5);
        let fwd = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let back = run_array_fft(&fwd.output, Direction::Inverse, &AsipConfig::default()).unwrap();
        // Forward scales by 1/N, inverse by 1/N, and IDFT needs 1/N:
        // net output = input / N. Compare rescaled. Rescaling by N
        // amplifies the Q15 LSB to N/32768 per rounding step, and two
        // cascaded transforms stack those errors, so the worst-case
        // deviation sits near 0.1 for unlucky signals.
        let got: Vec<C64> = back.output.iter().map(|c| c.to_c64() * n as f64).collect();
        let want: Vec<C64> = input.iter().map(|c| c.to_c64()).collect();
        assert!(max_error(&got, &want) < 0.1);
    }
}
