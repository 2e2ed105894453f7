//! `engine_sizes`: the planner and the engines alone, single-threaded,
//! at the paper's Table I sizes plus the OFDM sizes the engine catalog
//! must also cover.

use std::time::{Duration, Instant};

use afft_core::engine::FftEngine;
use afft_core::reference::{dft_naive, max_error};
use afft_core::Direction;
use afft_num::{Complex, C64};
use afft_planner::{Planner, Strategy};

use crate::trace::Tracer;
use crate::{qpsk, Rng};

/// Table I's sizes, WiMAX-2048, LTE-1536 (mixed radix) and 5G NR-1344
/// (Bluestein).
pub const SIZES: [usize; 8] = [64, 128, 256, 512, 1024, 2048, 1536, 1344];

/// Points each size transforms per round (rounded up to whole calls),
/// so every size gets about the same work.
pub const POINTS_PER_BLOCK: usize = 8192;

/// Largest error an engine output may show against `dft_naive`,
/// relative to the reference's peak magnitude.
pub const SPOT_TOLERANCE: f64 = 1e-9;

/// Spot-check one round in this many.
const CHECK_EVERY: u64 = 16;

/// One planned size with its seeded input and naive-DFT references.
pub struct Sized {
    /// Transform size.
    pub n: usize,
    /// The engine `Planner::engine` built from the Estimate plan.
    pub engine: Box<dyn FftEngine>,
    input: Vec<C64>,
    output: Vec<C64>,
    want: [Vec<C64>; 2],
}

impl Sized {
    /// Calls per round.
    pub fn calls(&self) -> usize {
        POINTS_PER_BLOCK.div_ceil(self.n)
    }
}

/// Plans every size on a fresh `Planner` and builds its engine; returns
/// the elapsed seconds and the engines.
///
/// # Errors
///
/// Any planning or construction failure.
pub fn plan_all(tracer: &mut Tracer) -> Result<(f64, Vec<Box<dyn FftEngine>>), String> {
    let start = Instant::now();
    let mut engines = Vec::new();
    for (i, &n) in SIZES.iter().enumerate() {
        let t = tracer.now();
        let mut planner = Planner::new();
        let plan = planner.plan(n, Strategy::Estimate).map_err(|e| format!("plan {n}: {e}"))?;
        tracer.record("planner.plan", 0, i as u64, n, t);
        let t = tracer.now();
        let engine = planner.engine(&plan).map_err(|e| format!("engine {n}: {e}"))?;
        tracer.record("planner.engine", 0, i as u64, n, t);
        engines.push(engine);
    }
    Ok((start.elapsed().as_secs_f64(), engines))
}

/// Sets up `reps` times (the last set of engines is kept) and prepares
/// seeded inputs with their references. Returns every set-up time.
///
/// # Errors
///
/// As [`plan_all`].
pub fn setup(rng: &mut Rng, reps: usize) -> Result<(Vec<f64>, Vec<Sized>), String> {
    let mut times = Vec::new();
    let mut engines = Vec::new();
    let mut off = Tracer::new(Instant::now(), false);
    for _ in 0..reps {
        let (secs, built) = plan_all(&mut off)?;
        times.push(secs);
        engines = built;
    }
    let sized = engines
        .into_iter()
        .map(|engine| {
            let n = engine.len();
            let input = qpsk(rng, n);
            let want = [
                dft_naive(&input, Direction::Forward).expect("naive DFT"),
                dft_naive(&input, Direction::Inverse).expect("naive DFT"),
            ];
            Sized { n, engine, input, output: vec![Complex::zero(); n], want }
        })
        .collect();
    Ok((times, sized))
}

/// What a timed pass measured.
#[derive(Debug, Default)]
pub struct EngineRun {
    /// Per size: time of its block of calls in each timed round, ns.
    pub block_ns: Vec<Vec<f64>>,
    /// Time of each timed round, ns.
    pub round_ns: Vec<f64>,
    /// When each timed round started, seconds into the timed window.
    pub round_at_s: Vec<f64>,
    /// Transforms executed.
    pub attempted: u64,
    /// Transforms that returned an error or failed a spot check.
    pub failed: u64,
}

/// Runs rounds for `warm`, then times rounds for `dur`. Each round runs
/// every size's block of calls, alternating forward and inverse.
pub fn run(
    sized: &mut [Sized],
    warm: Duration,
    dur: Duration,
    round0: &mut u64,
    tracer: &mut Tracer,
) -> EngineRun {
    let mut run = EngineRun { block_ns: vec![Vec::new(); sized.len()], ..EngineRun::default() };
    let t0 = Instant::now() + warm;
    let end = t0 + dur;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let timed = now >= t0;
        if timed {
            run.round_at_s.push((now - t0).as_secs_f64());
        }
        let round = *round0;
        *round0 += 1;
        let mut round_ns = 0.0;
        for (i, s) in sized.iter_mut().enumerate() {
            let calls = s.calls();
            let mut last = Direction::Forward;
            let mut errors = 0;
            let start = Instant::now();
            for c in 0..calls {
                last = if (round as usize + c).is_multiple_of(2) {
                    Direction::Forward
                } else {
                    Direction::Inverse
                };
                let t = tracer.now();
                if s.engine.execute_into(&s.input, &mut s.output, last).is_err() {
                    errors += 1;
                }
                tracer.record("core.execute_into", 0, round, s.n, t);
            }
            let ns = start.elapsed().as_nanos() as f64;
            run.attempted += calls as u64;
            run.failed += errors;
            if round.is_multiple_of(CHECK_EVERY) {
                let want = &s.want[usize::from(last == Direction::Inverse)];
                let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
                if max_error(&s.output, want) > SPOT_TOLERANCE * peak {
                    run.failed += 1;
                }
            }
            round_ns += ns;
            if timed {
                run.block_ns[i].push(ns);
            }
        }
        if timed {
            run.round_ns.push(round_ns);
        }
    }
    run
}
