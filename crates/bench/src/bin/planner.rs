//! Experiment E9 — the autotuning planner over the full registry
//! (software models plus the cycle-accurate ASIP ISS): for every WiMAX
//! size, rank all backends by the Estimate heuristics and by Measure
//! calibration, print both rankings side by side, and persist the
//! measurements as wisdom so the tuning cost is paid once per machine.
//!
//! ```text
//! cargo run -p afft-bench --release --bin planner            # full sweep, N = 16..1024
//! cargo run -p afft-bench --release --bin planner -- --smoke # CI subset
//! ```
//!
//! The wisdom file defaults to the per-user `~/.afft-wisdom.txt`
//! (system temp directory when `HOME` is unset); set `AFFT_WISDOM` to
//! relocate it.

use afft_asip::engine::registry_with_asip;
use afft_bench::row;
use afft_planner::{Plan, Planner, Strategy, Wisdom};

/// 1-based position of `name` in a plan's ranking, for the agreement
/// column.
fn position(plan: &Plan, name: &str) -> String {
    plan.ranking
        .iter()
        .position(|r| r.name == name)
        .map_or("-".to_string(), |i| format!("#{}", i + 1))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The grid mixes powers of two with composite 5-smooth sizes (the
    // LTE-style bins only `mixed_radix` serves) and the prime bin 97,
    // where the convolution engines (rader, bluestein) do the serving:
    // 60 and 97 ride in the smoke subset so composite and prime
    // planning both stay exercised in CI.
    let sizes: &[usize] =
        if smoke { &[16, 60, 64, 97] } else { &[16, 32, 60, 64, 97, 128, 256, 512, 1024, 1200] };

    let path = Wisdom::default_path();
    let mut planner = Planner::with_factory(registry_with_asip)
        .with_wisdom(Wisdom::load(&path)?)
        .with_measure_reps(if smoke { 1 } else { 3 });

    let widths = [12usize, 10, 12, 12, 10, 10];
    for &n in sizes {
        let estimate = planner.plan(n, Strategy::Estimate)?;
        let measure = planner.plan(n, Strategy::Measure)?;
        println!(
            "== planner at N = {n} ({} backends{}) ==",
            measure.ranking.len(),
            if measure.from_wisdom { ", measured ranking replayed from wisdom" } else { "" },
        );
        println!(
            "{}",
            row(
                &[
                    "engine".into(),
                    "meas rank".into(),
                    "score ns".into(),
                    "wall ns".into(),
                    "cycles".into(),
                    "est rank".into(),
                ],
                &widths
            )
        );
        for (i, r) in measure.ranking.iter().enumerate() {
            println!(
                "{}",
                row(
                    &[
                        r.name.clone(),
                        format!("#{}", i + 1),
                        format!("{:.0}", r.score_ns),
                        r.wall_ns.map_or("-".into(), |w| format!("{w:.0}")),
                        r.modeled_cycles.map_or("-".into(), |c| c.to_string()),
                        position(&estimate, &r.name),
                    ],
                    &widths
                )
            );
        }
        let agree = estimate.best().name == measure.best().name;
        println!(
            "winner: {} measured, {} estimated ({})",
            measure.best().name,
            estimate.best().name,
            if agree { "strategies agree" } else { "strategies disagree" }
        );
        println!();

        // Smoke invariants: every backend ranked, scores sorted.
        // Non-power-of-two sizes carry the naive reference plus at
        // least one of {mixed_radix, rader} and always bluestein;
        // powers of two carry the full family.
        let floor = if n.is_power_of_two() { 4 } else { 3 };
        assert!(measure.ranking.len() >= floor, "registry too small at N={n}");
        assert_eq!(measure.ranking.len(), estimate.ranking.len());
        assert!(measure.ranking.windows(2).all(|p| p[0].score_ns <= p[1].score_ns));
    }

    // The calibration distributions Measure kept (one series per
    // `(n, direction, engine)`): the spread behind each wall-ns score.
    // Empty when every plan replayed from wisdom without re-measuring.
    let calibration = planner.calibration_snapshot();
    if calibration.is_empty() {
        println!("calibration distributions: none (all plans from wisdom)");
    } else {
        println!("== calibration distributions (Measure reps per engine) ==");
        print!("{calibration}");
    }
    println!();

    planner.wisdom().store(&path)?;
    println!("wisdom: {} plans cached at {}", planner.wisdom().len(), path.display());
    Ok(())
}
