//! Quickstart: plan the backend registry once, then run the *same*
//! transform on every engine — golden models, prior-art structures and
//! the cycle-accurate ASIP simulator — through one polymorphic
//! interface, comparing results and cost.
//!
//! The sweep demonstrates the zero-allocation idiom: one spectrum
//! buffer is allocated up front and every engine executes into it via
//! `FftEngine::execute_into`, reusing its own plan-owned scratch — no
//! heap work per transform anywhere in the loop.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use afft::asip::engine::registry_with_asip;
use afft::core::reference::max_error;
use afft::core::Direction;
use afft::num::Complex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 256;

    // A test signal: two tones plus a DC offset.
    let signal: Vec<Complex<f64>> = (0..n)
        .map(|m| {
            let t = m as f64 / n as f64;
            let tone1 = (2.0 * std::f64::consts::PI * 10.0 * t).cos();
            let tone2 = 0.5 * (2.0 * std::f64::consts::PI * 40.0 * t).sin();
            Complex::new(0.2 + 0.4 * tone1 + 0.3 * tone2, 0.0)
        })
        .collect();

    // One registry, every backend: software models plus the simulated
    // hardware, all behind the `FftEngine` execution contract.
    let mut registry = registry_with_asip(n)?;
    println!("registry at N = {n}: {:?}", registry.names());
    println!();

    // The golden reference the others are judged against.
    let golden =
        registry.get_mut("dft_naive").expect("golden").execute(&signal, Direction::Forward)?;
    let peak = golden.iter().map(|c| c.abs()).fold(0.0f64, f64::max);

    println!("tone bins from the golden model (|X[k]|/N > 0.05):");
    for (k, bin) in golden.iter().enumerate().take(n / 2) {
        let mag = bin.abs() / n as f64;
        if mag > 0.05 {
            println!("  bin {k:>3}: {mag:.3}");
        }
    }
    println!();

    println!(
        "{:<12} {:>12} {:>14} {:>10} {:>10}",
        "engine", "rel error", "traffic (pts)", "cycles", "ok"
    );
    // Buffer reuse: allocate the spectrum once, outside the loop, and
    // let every backend write into it (`execute_into` is the engine
    // primitive; `execute` is a convenience wrapper that allocates).
    let mut spectrum = vec![Complex::zero(); n];
    // Traffic is a property of the catalog row, read without building.
    let costs: Vec<_> = registry.specs().map(|spec| (spec.cost)(n)).collect();
    for (engine, cost) in registry.engines_mut().zip(costs) {
        // The golden reference already ran; don't pay its O(N^2) twice.
        if engine.name() == "dft_naive" {
            spectrum.copy_from_slice(&golden);
        } else {
            engine.execute_into(&signal, &mut spectrum, Direction::Forward)?;
        }
        let err = max_error(&spectrum, &golden) / peak;
        let traffic = cost.traffic().map_or("-".to_string(), |t| t.total().to_string());
        let cycles = engine.cycles().map_or("-".to_string(), |c| c.to_string());
        let ok = err < engine.tolerance();
        println!("{:<12} {err:>12.2e} {traffic:>14} {cycles:>10} {ok:>10}", engine.name());
        assert!(ok, "{} deviated beyond its tolerance", engine.name());
    }
    println!();

    // The cycle-accurate backend also reports the paper's throughput.
    let asip = registry.get_mut("asip_iss").expect("asip backend");
    let cycles = asip.cycles().expect("ran above");
    println!(
        "ASIP: {cycles} cycles -> {:.1} Mbps at 300 MHz ({:.2} us per transform)",
        afft::sim::throughput_mbps(n, cycles, 300.0),
        cycles as f64 / 300.0
    );
    Ok(())
}
