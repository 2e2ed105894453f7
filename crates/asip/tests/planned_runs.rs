//! A planned engine or runner reuses one machine across transforms, and
//! the reuse is invisible: every run returns what a fresh one-shot
//! `run_array_fft` of the same quantised input returns, bit for bit and
//! with equal statistics.

use afft_asip::engine::AsipEngine;
use afft_asip::runner::{run_array_fft, ArrayFftRunner, AsipConfig, AsipError};
use afft_core::{Direction, FftEngine};
use afft_num::{Complex, C64, Q15};
use afft_sim::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use Direction::{Forward as F, Inverse as I};

/// Eight runs per engine with the directions interleaved.
const DIRECTIONS: [Direction; 8] = [F, I, F, F, I, I, F, I];

fn signal(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

/// The engine's wire format: the input peak at half of Q15 full scale.
/// Returns the quantised input and the scale applied.
fn quantised(x: &[C64]) -> (Vec<Complex<Q15>>, f64) {
    let peak = x.iter().map(|c| c.re.abs().max(c.im.abs())).fold(0.0, f64::max);
    let scale = 0.5 / peak;
    (x.iter().map(|&c| Complex::from_c64(c * scale)).collect(), scale)
}

#[test]
fn one_engine_matches_fresh_runs_across_sizes_and_directions() {
    for n in [64usize, 128, 256, 512, 1024, 2048] {
        let mut engine = AsipEngine::new(n).expect("plan");
        let mut got = vec![C64::zero(); n];
        for (k, &dir) in DIRECTIONS.iter().enumerate() {
            let x = signal(n, 1000 * n as u64 + k as u64);
            engine.execute_into(&x, &mut got, dir).expect("engine run");

            let (q, scale) = quantised(&x);
            let fresh = run_array_fft(&q, dir, &AsipConfig::default()).expect("fresh run");
            let restore = n as f64 / scale;
            let want: Vec<C64> = fresh.output.iter().map(|v| v.to_c64() * restore).collect();
            assert!(got == want, "n {n}, run {k} ({dir:?}): output differs from a fresh machine");
            let stats = engine.last_stats().expect("stats retained");
            assert_eq!(stats, fresh.stats, "n {n}, run {k} ({dir:?}): statistics differ");
            assert_eq!(stats.ldin, n as u64);
        }
    }
}

#[test]
fn a_trapped_run_leaves_nothing_behind() {
    let n = 256;
    let (q, _) = quantised(&signal(n, 7));
    let cfg = AsipConfig::default();
    let forward = run_array_fft(&q, F, &cfg).expect("fresh forward");
    let inverse = run_array_fft(&q, I, &cfg).expect("fresh inverse");
    // The inverse program configures one more register, so a budget of
    // exactly the forward run's cycles stops it part-way.
    assert!(inverse.stats.cycles > forward.stats.cycles);

    let budget = forward.stats.cycles;
    let mut runner =
        ArrayFftRunner::new(n, AsipConfig { max_cycles: budget, ..cfg }).expect("plan");
    let mut out = vec![Complex::zero(); n];
    let trapped = runner.run_into(&q, &mut out, I);
    assert!(
        matches!(trapped, Err(AsipError::Sim(SimError::CycleLimit { limit })) if limit == budget),
        "{trapped:?}"
    );
    let stats = runner.run_into(&q, &mut out, F).expect("normal run after the trap");
    assert_eq!(out, forward.output);
    assert_eq!(stats, forward.stats);
}
