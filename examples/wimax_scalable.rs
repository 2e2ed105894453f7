//! The paper's flexibility claim: WiMAX/802.16 scales its FFT from 128
//! to 2048 points with channel bandwidth. One ASIP — reprogrammed per
//! size, identical hardware — covers the whole range; here the
//! autotuning planner *measures* that claim: for every WiMAX size it
//! ranks the full engine registry (software models plus the
//! cycle-accurate ISS, which competes on modeled hardware cycles),
//! compares the Estimate heuristics against the Measure calibration,
//! cross-validates every backend against the naive DFT, and merges the
//! measurements into the per-machine wisdom file so later runs — and
//! the `ofdm_uwb_receiver` example — replay the rankings instead of
//! re-measuring (the validation sweep still executes every backend
//! each run; that is the point of the example).
//!
//! ```text
//! cargo run --release --example wimax_scalable
//! ```

use afft::asip::engine::registry_with_asip;
use afft::core::reference::{dft_naive, max_error};
use afft::core::{Direction, Split};
use afft::planner::{calibration_signal, Planner, Strategy, Wisdom};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("WiMAX scalable-FFT sweep, autotuned (identical hardware, per-size program)");
    println!();
    println!(
        "{:>6} {:>5} {:>5} {:>9} {:>10} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "N", "P", "Q", "cycles", "us@300", "Mbps", "max err", "measured", "estimated", "backends"
    );

    // Seeded from the per-machine wisdom file: the first run pays the
    // Measure sweep, later runs replay the cached rankings.
    let path = Wisdom::default_path();
    let mut planner = Planner::with_factory(registry_with_asip)
        .with_wisdom(Wisdom::load(&path)?)
        .with_measure_reps(2);
    for n in [128usize, 256, 512, 1024, 2048] {
        let split = Split::for_size(n)?;
        let estimate = planner.plan(n, Strategy::Estimate)?;
        let measure = planner.plan(n, Strategy::Measure)?;

        // Speed is only half the story: cross-validate every backend
        // against the naive DFT at this size (2048 is covered nowhere
        // else) before trusting the ranking.
        let mut registry = registry_with_asip(n)?;
        let signal = calibration_signal(n);
        let want = dft_naive(&signal, Direction::Forward)?;
        let peak = want.iter().map(|c| c.abs()).fold(0.0f64, f64::max);
        let mut worst = 0.0f64;
        // One spectrum buffer for the whole validation sweep: every
        // backend writes into it through `execute_into`.
        let mut got = vec![afft::num::Complex::zero(); n];
        for engine in registry.engines_mut() {
            if engine.name() == "dft_naive" {
                continue;
            }
            engine.execute_into(&signal, &mut got, Direction::Forward)?;
            let err = max_error(&got, &want) / peak;
            assert!(err < engine.tolerance(), "{} deviates at N={n}", engine.name());
            worst = worst.max(err);
        }

        // The simulated hardware's cost observables: off the measured
        // ranking on a fresh measurement, off the validation sweep's
        // ISS run when the ranking was replayed from wisdom (replays
        // carry no cycle observables).
        let asip = measure
            .ranking
            .iter()
            .find(|r| r.name == "asip_iss")
            .expect("the ISS competes at every WiMAX size");
        let cycles = asip
            .modeled_cycles
            .or_else(|| registry.get_mut("asip_iss").ok().and_then(|e| e.cycles()))
            .expect("the validation sweep ran the ISS");
        println!(
            "{:>6} {:>5} {:>5} {:>9} {:>10.2} {:>10.1} {:>12.2e} {:>12} {:>12} {:>9}",
            n,
            split.p_size,
            split.q_size,
            cycles,
            cycles as f64 / 300.0,
            afft::sim::throughput_mbps(n, cycles, 300.0),
            worst,
            measure.best().name,
            estimate.best().name,
            measure.ranking.len(),
        );
    }

    // The scalability claim beyond powers of two: LTE's 10 MHz profile
    // runs a 1536-point FFT (2^9 * 3) that no radix-2 datapath serves.
    // The same planner covers it through the mixed-radix engine — the
    // registry simply offers fewer backends (and no ISS: the array
    // structure is power-of-two by construction).
    println!();
    println!("LTE-1536 scenario (composite N = 2^9 * 3, mixed-radix path)");
    {
        let n = 1536usize;
        let estimate = planner.plan(n, Strategy::Estimate)?;
        let measure = planner.plan(n, Strategy::Measure)?;
        let signal = calibration_signal(n);
        let want = dft_naive(&signal, Direction::Forward)?;
        let peak = want.iter().map(|c| c.abs()).fold(0.0f64, f64::max);
        let mut registry = registry_with_asip(n)?;
        let mut got = vec![afft::num::Complex::zero(); n];
        let mut worst = 0.0f64;
        for engine in registry.engines_mut() {
            if engine.name() == "dft_naive" {
                continue;
            }
            engine.execute_into(&signal, &mut got, Direction::Forward)?;
            let err = afft::core::reference::max_error(&got, &want) / peak;
            assert!(err < engine.tolerance(), "{} deviates at N={n}", engine.name());
            worst = worst.max(err);
        }
        println!(
            "{:>6} {:>5} {:>5} {:>9} {:>10} {:>10} {:>12.2e} {:>12} {:>12} {:>9}",
            n,
            "-",
            "-",
            "-",
            "-",
            "-",
            worst,
            measure.best().name,
            estimate.best().name,
            measure.ranking.len(),
        );
        assert_eq!(measure.best().name, "mixed_radix", "only FFT-structured backend at 1536");
    }

    // Re-load before storing so plans another process cached while we
    // ran survive the merge.
    let mut wisdom = Wisdom::load(&path)?;
    wisdom.merge(planner.wisdom());
    wisdom.store(&path)?;
    println!();
    println!("every size ranked AND validated against the naive DFT via the FftEngine trait;");
    println!(
        "{} measured plans merged into {} (wisdom now caches {} plans)",
        planner.wisdom().len(),
        path.display(),
        wisdom.len(),
    );
    Ok(())
}
