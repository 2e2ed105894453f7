//! Experiment E1 — regenerates the paper's **Table I**: cycle count and
//! data throughput of the array-FFT ASIP across FFT sizes, plus the
//! 2048/4096-point scalability extension rows. The ASIP is driven
//! through its [`FftEngine`] adapter.
//!
//! [`FftEngine`]: afft_core::engine::FftEngine

use afft_asip::engine::AsipEngine;
use afft_bench::paper::TABLE1;
use afft_bench::{row, workload::random_signal};
use afft_core::engine::FftEngine;
use afft_core::Direction;

fn main() {
    let widths = [6usize, 12, 12, 14, 12, 14];
    println!("Table I: data throughput for different FFT sizes (300 MHz clock)");
    println!(
        "{}",
        row(
            &[
                "N".into(),
                "cycles".into(),
                "Mbps".into(),
                "paper cycles".into(),
                "paper Mbps".into(),
                "cycle ratio".into(),
            ],
            &widths
        )
    );
    let mut throughputs = Vec::new();
    for n in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let mut engine = AsipEngine::new(n).expect("plan");
        engine.execute(&random_signal(n, n as u64), Direction::Forward).expect("ASIP run failed");
        let stats = engine.last_stats().expect("cycle-accurate run retains stats");
        let cycles = stats.cycles;
        let mbps = stats.throughput_mbps(n, 300.0);
        throughputs.push(mbps);
        let paper = TABLE1.iter().find(|r| r.n == n);
        let (pc, pm, ratio) = match paper {
            Some(p) => (
                p.cycles.to_string(),
                format!("{:.1}", p.throughput_mbps),
                format!("{:.2}", cycles as f64 / p.cycles as f64),
            ),
            None => ("-".into(), "-".into(), "(ext)".into()),
        };
        println!(
            "{}",
            row(
                &[n.to_string(), cycles.to_string(), format!("{mbps:.1}"), pc, pm, ratio,],
                &widths
            )
        );
    }
    println!();
    println!("shape check: throughput must decrease monotonically with N (paper Section IV)");
    assert!(
        throughputs.windows(2).all(|w| w[1] < w[0]),
        "shape check failed: Mbps by N = {throughputs:.1?}"
    );
}
