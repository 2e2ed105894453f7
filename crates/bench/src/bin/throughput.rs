//! Experiment E10 — host-side throughput of the zero-allocation
//! execution path: transforms/sec for the **allocating** path versus
//! the **`execute_into`** path, per engine and size.
//!
//! Three arms per `(engine, N)`:
//!
//! * `alloc/s` — the per-call-allocation path the seed shipped (every
//!   intermediate and the output freshly heap-allocated per transform,
//!   via the public allocating entry points: `ArrayFft::process`,
//!   `cached_fft`, `mcfft`, `to_vec` + in-place radix-2);
//! * `wrap/s` — the provided [`execute`](afft_core::FftEngine::execute)
//!   convenience wrapper (one output allocation, engine-owned scratch
//!   reused);
//! * `into/s` — the
//!   [`execute_into`](afft_core::FftEngine::execute_into) primitive
//!   (caller output buffer reused, zero heap work per transform).
//!
//! ```text
//! cargo run -p afft-bench --release --bin throughput            # N = 64..2048
//! cargo run -p afft-bench --release --bin throughput -- --smoke # CI subset
//! ```
//!
//! The closing summary reports the best `into`-vs-`alloc` speedup on
//! `array_fft`, the engine the batch pipeline plans onto most often,
//! the mixed-radix family's edge over the radix-2 reference at
//! N = 1024 (`radix4_dit` vs `radix2_dit`, both on the `execute_into`
//! path), and — on hosts with a vector unit — the SIMD tier's edge over
//! the best scalar engine at N = 1024.
//!
//! The size grid includes odd-`log2` powers of two — 128 in both runs,
//! 512 and 2048 in the full run — where `radix4_simd` closes with its
//! radix-2 pass, composite (non-power-of-two) bins — 1200 in
//! `--smoke`, 1536 in the full run — where only `mixed_radix` serves
//! the transform, so the LTE-style sizes stay on the hot-path radar,
//! plus the prime bin 97 in both runs, where the convolution engines
//! (`rader`, `bluestein`) carry the transform.
//!
//! A full (non-smoke) run additionally writes every arm to
//! `BENCH_throughput.json` — per-engine transforms/sec by size, the
//! host's detected SIMD level, and a unix timestamp (`--stamp <secs>`
//! to pin it; defaults to the system clock) — so dashboards and
//! regression tooling consume the run without screen-scraping the
//! table.

use afft_bench::workload::random_signal;
use afft_bench::{json, row};
use afft_core::cached::cached_fft;
use afft_core::engine::{EngineRegistry, McfftEngine};
use afft_core::mcfft::mcfft;
use afft_core::reference::fft_radix2_dit_f64;
use afft_core::{simd, ArrayFft, Direction};
use afft_num::Complex;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls `f` repeatedly for roughly `budget`, returning calls/sec.
fn tps(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm engine scratch and caches outside the timed region
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        for _ in 0..8 {
            f();
        }
        iters += 8;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// The seed's fully-allocating execution for engines that expose their
/// legacy entry point (`None` where the trait wrapper is the only
/// allocating path).
fn alloc_path_tps(name: &str, n: usize, x: &[Complex<f64>], budget: Duration) -> Option<f64> {
    let dir = Direction::Forward;
    match name {
        "radix2_dit" => Some(tps(budget, || {
            let mut d = x.to_vec();
            fft_radix2_dit_f64(&mut d, dir).expect("dit");
            black_box(&d);
        })),
        "mcfft" => {
            let epochs = McfftEngine::new(n).expect("mcfft plan").epochs().clone();
            Some(tps(budget, || {
                black_box(mcfft(x, &epochs, dir).expect("mcfft"));
            }))
        }
        "array_fft" => {
            let plan: ArrayFft<f64> = ArrayFft::new(n).expect("array plan");
            Some(tps(budget, || {
                black_box(plan.process(x, dir).expect("process"));
            }))
        }
        "cached_fft" => Some(tps(budget, || {
            black_box(cached_fft(x, dir).expect("cached").bins);
        })),
        _ => None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `--stamp <secs>` pins the artifact's timestamp (reproducible CI
    // artifacts); otherwise the system clock stamps the run. A
    // malformed pin is a hard error, never a silent clock fallback.
    let stamp = afft_bench::parse_stamp(&args).map_err(std::io::Error::other)?;
    let sizes: &[usize] =
        if smoke { &[64, 97, 128, 256, 1200] } else { &[64, 97, 128, 256, 512, 1024, 1536, 2048] };
    let budget = Duration::from_millis(if smoke { 5 } else { 150 });

    let widths = [16usize, 12, 12, 12, 12];
    // Headline observables: array_fft's into-vs-alloc peak as
    // (speedup, n); for the mixed-radix acceptance gate radix4_dit
    // over radix2_dit at N = 1024 on the into path; for the SIMD gate
    // the radix4_simd into-rate versus the best scalar engine at
    // N = 1024.
    let mut best_array = (0.0f64, 0usize);
    let mut radix2_1024 = 0.0f64;
    let mut radix4_1024 = 0.0f64;
    let mut best_scalar_1024 = (0.0f64, String::new());
    let mut radix4_simd_1024 = 0.0f64;
    // One flat record per (engine, n) arm set, for the JSON artifact.
    let mut records: Vec<String> = Vec::new();
    for &n in sizes {
        let mut registry = EngineRegistry::standard(n)?;
        let x = random_signal(n, n as u64);
        println!("== throughput at N = {n} (budget {budget:?} per arm) ==");
        println!(
            "{}",
            row(
                &[
                    "engine".into(),
                    "alloc/s".into(),
                    "wrap/s".into(),
                    "into/s".into(),
                    "into/alloc".into(),
                ],
                &widths
            )
        );
        for name in registry.names() {
            // The O(N^2) reference would dwarf the budget for nothing:
            // its allocation fraction is negligible by construction.
            if name == "dft_naive" {
                continue;
            }
            let mut engine = registry.take(name).expect("registered");
            let wrap_tps = tps(budget, || {
                black_box(engine.execute(&x, Direction::Forward).expect("execute"));
            });
            let mut out = vec![Complex::zero(); n];
            let into_tps = tps(budget, || {
                engine.execute_into(&x, &mut out, Direction::Forward).expect("execute_into");
                black_box(&out);
            });
            // Engines without a legacy entry point get no alloc arm:
            // report "-" rather than substituting the wrapper numbers.
            let alloc_tps = alloc_path_tps(name, n, &x, budget);
            let speedup = alloc_tps.map(|a| into_tps / a);
            // The headline (and the acceptance gate below) counts only
            // the sizes the refactor targets, N >= 256.
            if let (true, true, Some(s)) = (name == "array_fft", n >= 256, speedup) {
                if s > best_array.0 {
                    best_array = (s, n);
                }
            }
            if n == 1024 {
                if name == "radix2_dit" {
                    radix2_1024 = into_tps;
                }
                if name == "radix4_dit" {
                    radix4_1024 = into_tps;
                }
                // The SIMD gate compares radix4_simd against the best
                // *scalar* engine (every non-SIMD N log N backend).
                if name == "radix4_simd" {
                    radix4_simd_1024 = into_tps;
                } else if !name.ends_with("_simd") && into_tps > best_scalar_1024.0 {
                    best_scalar_1024 = (into_tps, name.to_string());
                }
            }
            records.push(
                json::Obj::new()
                    .num("n", n as f64)
                    .str("engine", name)
                    .raw("alloc_tps", alloc_tps.map_or("null".into(), json::num))
                    .num("wrap_tps", wrap_tps)
                    .num("into_tps", into_tps)
                    .finish(),
            );
            println!(
                "{}",
                row(
                    &[
                        name.to_string(),
                        alloc_tps.map_or("-".into(), |a| format!("{a:.0}")),
                        format!("{wrap_tps:.0}"),
                        format!("{into_tps:.0}"),
                        speedup.map_or("-".into(), |s| format!("{s:.2}x")),
                    ],
                    &widths
                )
            );
            assert!(into_tps > 0.0 && wrap_tps > 0.0, "{name} produced no iterations");
        }
        println!();
    }
    println!(
        "array_fft: execute_into peaks at {:.2}x the allocating path (N = {})",
        best_array.0, best_array.1
    );
    if radix2_1024 > 0.0 && radix4_1024 > 0.0 {
        println!(
            "radix4_dit: {:.2}x radix2_dit at N = 1024 (into-path)",
            radix4_1024 / radix2_1024
        );
    }
    let simd_level = simd::active_level();
    let simd_speedup = (radix4_simd_1024 > 0.0 && best_scalar_1024.0 > 0.0)
        .then(|| radix4_simd_1024 / best_scalar_1024.0);
    if let Some(s) = simd_speedup {
        println!(
            "radix4_simd [{}]: {:.2}x the best scalar engine ({}) at N = 1024 (into-path)",
            simd_level.as_str(),
            s,
            best_scalar_1024.1
        );
    }
    // Machine-readable artifact, full runs only (smoke budgets are too
    // noisy to be worth recording). Written before the gates below, so
    // a failed gate still leaves the numbers behind it on disk.
    if !smoke {
        let doc = json::Obj::new()
            .str("bench", "throughput")
            .num("stamp_unix", stamp as f64)
            .raw(
                "host",
                json::Obj::new()
                    .str("arch", std::env::consts::ARCH)
                    .str("simd_level", simd_level.as_str())
                    .num("simd_lanes", simd_level.lanes() as f64)
                    .bool("simd_suppressed", simd::simd_suppressed())
                    .finish(),
            )
            .num("budget_ms", budget.as_millis() as f64)
            .raw("sizes", json::arr(sizes.iter().map(|&n| json::num(n as f64))))
            .raw("results", json::arr(records))
            .raw(
                "summary",
                json::Obj::new()
                    .num("array_fft_best_into_vs_alloc", best_array.0)
                    .num("array_fft_best_n", best_array.1 as f64)
                    .raw(
                        "radix4_simd_vs_best_scalar_1024",
                        simd_speedup.map_or("null".into(), json::num),
                    )
                    .str("best_scalar_1024", &best_scalar_1024.1)
                    .finish(),
            )
            .finish();
        std::fs::write("BENCH_throughput.json", doc + "\n")?;
        println!("wrote BENCH_throughput.json");
    }

    // The acceptance bar of the refactor, enforced after the full
    // report is printed (never mid-table), and only where the timing
    // is meaningful: a full run of an optimized build. The --smoke
    // budgets are too short to gate on a loaded CI runner, and debug
    // builds slow both arms until the allocation fraction vanishes.
    if !smoke && !cfg!(debug_assertions) && best_array.0 < 1.5 {
        eprintln!(
            "FAIL: execute_into must reach 1.5x the allocating path on array_fft \
             for some N >= 256, got {:.2}x",
            best_array.0
        );
        std::process::exit(1);
    }
    // The mixed-radix family's acceptance bar: the plan-time-twiddle
    // radix-4 kernel must beat the radix-2 reference by >= 1.2x at
    // N = 1024 (same caveats as above: full optimized runs only).
    if !smoke && !cfg!(debug_assertions) && radix4_1024 < 1.2 * radix2_1024 {
        eprintln!(
            "FAIL: radix4_dit must reach 1.2x radix2_dit at N = 1024, got {:.2}x",
            radix4_1024 / radix2_1024
        );
        std::process::exit(1);
    }
    // The SIMD tier's acceptance bar: radix4_simd must reach 2x the
    // best scalar engine at N = 1024 — but only where the tier exists.
    // On hosts without a vector unit (or under AFFT_NO_SIMD) the gate
    // auto-skips with a logged notice rather than failing vacuously.
    if !smoke && !cfg!(debug_assertions) {
        match simd_speedup {
            Some(s) if s < 2.0 => {
                eprintln!(
                    "FAIL: radix4_simd must reach 2.0x the best scalar engine at N = 1024, \
                     got {s:.2}x over {}",
                    best_scalar_1024.1
                );
                std::process::exit(1);
            }
            Some(_) => {}
            None => {
                println!(
                    "SIMD gate skipped: no vector tier in the registry \
                     (detected level: {}, AFFT_NO_SIMD {})",
                    simd::detect_host().as_str(),
                    if simd::simd_suppressed() { "set" } else { "unset" }
                );
            }
        }
    }

    Ok(())
}
