//! `asip_table1`: the cycle-accurate ISS through `AsipEngine` at the
//! paper's Table I sizes, plus Table II's four 1024-point
//! implementations.

use std::time::{Duration, Instant};

use afft_asip::engine::AsipEngine;
use afft_asip::golden_array_fft;
use afft_asip::swfft::run_software_fft;
use afft_baselines::{ti, xtensa};
use afft_core::engine::FftEngine;
use afft_core::reference::{dft_naive, max_error};
use afft_core::Direction;
use afft_num::{Complex, C64, Q15};
use afft_sim::{Stats, Timing};

use crate::trace::Tracer;
use crate::{qpsk, uniform, Rng};

/// The paper's Table I sizes.
pub const TABLE1_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Inputs per size; rounds cycle through them.
const INPUTS: usize = 4;

/// Largest error of the soft-float software FFT (Table II's Imple 1)
/// against `dft_naive`, relative to the peak bin: f32 arithmetic.
const SOFTWARE_TOLERANCE: f64 = 1e-4;

/// The ISS engines with seeded inputs and their expected outputs.
pub struct Iss {
    engines: Vec<AsipEngine>,
    inputs: Vec<Vec<Vec<C64>>>,
    expected: Vec<Vec<Vec<C64>>>,
    output: Vec<C64>,
}

/// `AsipEngine::new` for every Table I size, `reps` times; returns the
/// elapsed seconds of each repetition and the last set of engines.
///
/// # Errors
///
/// An unsupported size.
pub fn build(reps: usize) -> Result<(Vec<f64>, Vec<AsipEngine>), String> {
    let mut times = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        engines = TABLE1_SIZES
            .iter()
            .map(|&n| AsipEngine::new(n).map_err(|e| format!("AsipEngine::new({n}): {e}")))
            .collect::<Result<_, _>>()?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((times, engines))
}

/// What the ISS must return for `input`: the engine quantises the input
/// peak to half of Q15 full scale, runs the array FFT (whose
/// fixed-point result `golden_array_fft` predicts bit for bit) and
/// rescales by `N / scale`.
pub fn expected_output(input: &[C64], dir: Direction) -> Vec<C64> {
    let n = input.len();
    let peak = input.iter().map(|c| c.re.abs().max(c.im.abs())).fold(0.0, f64::max);
    let scale = if peak > 0.0 { 0.5 / peak } else { 1.0 };
    let q: Vec<Complex<Q15>> = input.iter().map(|&c| Complex::from_c64(c * scale)).collect();
    let restore = n as f64 / scale;
    golden_array_fft(&q, dir)
        .expect("golden model plans")
        .iter()
        .map(|g| g.to_c64() * restore)
        .collect()
}

impl Iss {
    /// Seeded inputs and golden outputs for the engines of [`build`].
    pub fn new(engines: Vec<AsipEngine>, rng: &mut Rng) -> Self {
        let inputs: Vec<Vec<Vec<C64>>> =
            TABLE1_SIZES.iter().map(|&n| (0..INPUTS).map(|_| uniform(rng, n)).collect()).collect();
        let expected = inputs
            .iter()
            .map(|per| per.iter().map(|x| expected_output(x, Direction::Forward)).collect())
            .collect();
        Iss { engines, inputs, expected, output: Vec::new() }
    }
}

/// What a timed pass over the ISS measured.
#[derive(Debug, Default)]
pub struct IssRun {
    /// Host time of each timed Table I sweep (one run per size), ns.
    pub sweep_ns: Vec<f64>,
    /// When each timed sweep started, seconds into the timed window.
    pub sweep_at_s: Vec<f64>,
    /// Cycles per size, from the first run; every later run must agree.
    pub cycles: Vec<(usize, u64)>,
    /// Statistics of the last 1024-point run.
    pub stats1024: Option<Stats>,
    /// ISS runs.
    pub attempted: u64,
    /// Runs that errored, differed from the golden model, or changed
    /// cycle count.
    pub failed: u64,
}

impl IssRun {
    /// `(transforms, points, simulated cycles)` of one sweep.
    pub fn per_sweep(&self) -> (u64, u64, u64) {
        self.cycles.iter().fold((0, 0, 0), |a, (n, c)| (a.0 + 1, a.1 + *n as u64, a.2 + c))
    }
}

/// Runs Table I sweeps for `warm`, then times sweeps for `dur`,
/// checking every output bit-exactly.
pub fn run(
    iss: &mut Iss,
    warm: Duration,
    dur: Duration,
    sweep0: &mut u64,
    tracer: &mut Tracer,
) -> IssRun {
    let mut run = IssRun::default();
    let t0 = Instant::now() + warm;
    let end = t0 + dur;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let sweep = *sweep0;
        *sweep0 += 1;
        let k = sweep as usize % INPUTS;
        let mut sweep_s = 0.0;
        for (i, engine) in iss.engines.iter_mut().enumerate() {
            let n = TABLE1_SIZES[i];
            let input = &iss.inputs[i][k];
            iss.output.resize(n, Complex::zero());
            let t = tracer.now();
            let start = Instant::now();
            let result = engine.execute_into(input, &mut iss.output, Direction::Forward);
            sweep_s += start.elapsed().as_secs_f64();
            tracer.record("asip.execute_into", 0, sweep, n, t);
            run.attempted += 1;
            let cycles = engine.last_cycles().unwrap_or(0);
            let good = result.is_ok() && iss.output == iss.expected[i][k];
            match run.cycles.iter().find(|(m, _)| *m == n) {
                Some(&(_, c)) if c != cycles => run.failed += 1,
                Some(_) => {}
                None => run.cycles.push((n, cycles)),
            }
            if !good {
                run.failed += 1;
            }
            if n == 1024 {
                run.stats1024 = engine.last_stats();
            }
        }
        if now >= t0 {
            run.sweep_ns.push(sweep_s * 1e9);
            run.sweep_at_s.push((now - t0).as_secs_f64());
        }
    }
    run
}

/// Table II's four 1024-point implementations, each run once.
#[derive(Debug, Clone, Copy)]
pub struct Table2 {
    /// Imple 1, soft-float software FFT on the base core.
    pub software: Stats,
    /// Imple 2, TI C6713 model cycles.
    pub ti_cycles: u64,
    /// Imple 3, Xtensa model cycles.
    pub xtensa_cycles: u64,
    /// Whether the software FFT's spectrum matched `dft_naive`.
    pub software_ok: bool,
    /// Host seconds the software FFT took on the ISS.
    pub software_host_s: f64,
}

/// Runs Table II's baselines (the array ASIP column is the 1024-point
/// run of the Table I sweep).
///
/// # Errors
///
/// A simulator trap in the software FFT.
pub fn table2(rng: &mut Rng, tracer: &mut Tracer) -> Result<Table2, String> {
    let n = 1024;
    let input = qpsk(rng, n);
    let t = tracer.now();
    let start = Instant::now();
    let sw = run_software_fft(&input, Direction::Forward, Timing::default(), 50_000_000)
        .map_err(|e| format!("software FFT: {e}"))?;
    let software_host_s = start.elapsed().as_secs_f64();
    tracer.record("baselines.software_fft", 0, 0, n, t);
    let want = dft_naive(&input, Direction::Forward).expect("naive DFT");
    let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
    let software_ok = max_error(&sw.output, &want) <= SOFTWARE_TOLERANCE * peak;
    let t = tracer.now();
    let ti_cycles = ti::run_ti_fft(n, &ti::TiConfig::default()).cycles;
    tracer.record("baselines.ti", 0, 0, n, t);
    let t = tracer.now();
    let xtensa_cycles = xtensa::run_xtensa_fft(n, &xtensa::XtensaConfig::default()).cycles;
    tracer.record("baselines.xtensa", 0, 0, n, t);
    Ok(Table2 { software: sw.stats, ti_cycles, xtensa_cycles, software_ok, software_host_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iss_matches_the_golden_prediction_on_seeded_inputs() {
        for seed in 0..50 {
            let (_, built) = build(1).expect("Table I sizes plan");
            let mut iss = Iss::new(built, &mut Rng::new(seed));
            for (i, engine) in iss.engines.iter_mut().enumerate() {
                for k in 0..INPUTS {
                    let got =
                        engine.execute(&iss.inputs[i][k], Direction::Forward).expect("ISS run");
                    assert!(
                        got == iss.expected[i][k],
                        "seed {seed}, n {}, input {k}",
                        TABLE1_SIZES[i]
                    );
                }
            }
        }
    }
}
