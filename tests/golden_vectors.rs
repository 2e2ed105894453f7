//! Golden-vector conformance suite: every engine the registry offers,
//! at every supported size, against **checked-in** reference DFT
//! vectors — with zero per-engine special-casing, so future backends
//! inherit the coverage the moment they register.
//!
//! Four vector families per size:
//!
//! * **impulse** — `x[0] = 1` ⇒ `X[k] = 1` for all `k` (closed form);
//! * **DC** — `x[m] = 1` ⇒ `X[0] = N`, all other bins 0 (closed form);
//! * **single tone** at bin `t` — `x[m] = e^{+2πi·tm/N}` ⇒ `X[t] = N`,
//!   all other bins 0 (closed form);
//! * **random-seed** — a deterministic xorshift signal whose spectrum
//!   is pinned by the checked-in probe table below ([`RANDOM_GOLDEN`],
//!   regenerated by the `#[ignore]`d printer at the bottom).
//!
//! Sizes cover the paper's power-of-two range, the composite OFDM
//! sizes the mixed-radix family adds (60, 243 = 3^5, 1200, 1536) and
//! the prime/adversarial sizes the convolution engines close: 7, 17,
//! 97, 251 (primes with 5-smooth `p - 1`, so `rader` and `bluestein`
//! both register), 1009 (a prime with rough `p - 1 = 2^4·3^2·7`) and
//! 1344 = 2^6·3·7 (a 5G NR DFT-s-OFDM size whose factor 7 defeats the
//! mixed-radix family); `bluestein` alone serves the last two. Every engine
//! must match within its own declared [`FftEngine::tolerance`],
//! relative to the spectrum peak.

use afft::asip::engine::registry_with_asip;
use afft::core::engine::FftEngine;
use afft::core::Direction;
use afft::num::{twiddle, Complex, C64};

/// The conformance size grid: powers of two (8 below the array
/// threshold, 128/256 above it, with and without the radix-4 kernel),
/// the composite 5-smooth sizes only `mixed_radix` serves, the primes
/// that bring in the convolution engines, and the rough 5G NR size
/// 1344 that only `bluestein` serves.
const SIZES: &[usize] = &[7, 8, 17, 60, 97, 128, 243, 251, 256, 1009, 1200, 1344, 1536];

/// The tone bin exercised by the single-tone vectors, per size.
fn tone_bin(n: usize) -> usize {
    n / 4 + 1
}

/// The deterministic random-seed input: xorshift-driven, seeded by the
/// size, so the regenerator and the conformance runs agree exactly.
fn random_input(n: usize) -> Vec<C64> {
    let mut state: u64 = 0x0123_4567_89ab_cdef ^ ((n as u64) << 17);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

/// One pinned spectrum probe: `(bin, re, im)` of the forward DFT of
/// [`random_input`].
type Probe = (usize, f64, f64);

/// A size's pinned random-seed spectrum: the peak magnitude (the
/// tolerance denominator) and the probe bins.
struct RandomGolden {
    n: usize,
    peak: f64,
    probes: &'static [Probe],
}

/// The probe bins pinned per size (dedup of 0, 1, 2, n/4, n/2, n-1).
fn probe_bins(n: usize) -> Vec<usize> {
    let mut bins = vec![0, 1, 2, n / 4, n / 2, n - 1];
    bins.sort_unstable();
    bins.dedup();
    bins
}

// GENERATED by `regenerate_random_golden` (below): run
// `cargo test --release --test golden_vectors -- --ignored --nocapture`
// and paste. Values are the f64 naive DFT of `random_input(n)`.
const RANDOM_GOLDEN: &[RandomGolden] = &[
    RandomGolden {
        n: 7,
        peak: 2.840737026448619,
        probes: &[
            (0, -0.020916154979647494, 0.27193496285774477),
            (1, 2.726090424941294, -0.7988853788119663),
            (2, -2.2052807588718717, 1.6131258863070168),
            (3, -0.6428116853442836, 1.9886141447861054),
            (6, -1.902663217756833, 1.8312552230637111),
        ],
    },
    RandomGolden {
        n: 8,
        peak: 4.04643256706987,
        probes: &[
            (0, -0.16223453687057754, 2.082198931698593),
            (1, -0.34040923568393033, 1.8289164272997673),
            (2, -0.11202046968980828, -2.3818821107491317),
            (4, -3.430224074296735, -2.146434094017044),
            (7, -0.08214021474334432, -0.6756930333062001),
        ],
    },
    RandomGolden {
        n: 17,
        peak: 8.059081279026875,
        probes: &[
            (0, 2.91732779827826, -0.3924397872151597),
            (1, -1.5989464840119787, 2.5023333765047218),
            (2, -2.995174065082879, 2.6200260781879834),
            (4, -2.091277516036226, -1.1112608751156179),
            (8, -3.8789678205042932, 2.006141942438637),
            (16, 0.1282553249311043, -5.581325071857344),
        ],
    },
    RandomGolden {
        n: 60,
        peak: 12.991831297405389,
        probes: &[
            (0, -3.994735406797589, -0.6432019912652642),
            (1, 2.346800637782551, 4.006259580356938),
            (2, 3.737073273266181, -1.4178905613126151),
            (15, -5.008134786964923, 1.7480064420630022),
            (30, 7.1319795459677096, 3.700971200843518),
            (59, -1.7262571761892196, -3.9474666047551015),
        ],
    },
    RandomGolden {
        n: 97,
        peak: 22.794356335075296,
        probes: &[
            (0, -7.949276461316725, 5.353428335687247),
            (1, 5.856470061973181, 1.1834125186945594),
            (2, -2.8297185886447402, 7.816659905605243),
            (24, -5.2448653839208, 8.179120714334069),
            (48, 0.7026685072106262, -1.9181555327153474),
            (96, 0.2785053208648984, -5.112812655527086),
        ],
    },
    RandomGolden {
        n: 128,
        peak: 25.864391082567813,
        probes: &[
            (0, 1.6213921783862393, -1.9248817412469652),
            (1, -7.558944900073698, -1.6038555602249458),
            (2, -4.028810460595334, -7.196106413724854),
            (32, 3.032301683457841, 0.16225879455260817),
            (64, 3.0170178136368984, 1.340759106079789),
            (127, 9.191482481001767, 7.903690384272807),
        ],
    },
    RandomGolden {
        n: 243,
        peak: 29.204365429479378,
        probes: &[
            (0, -16.27392653321221, -6.744463690738611),
            (1, -1.0560262314179916, -3.8116861202802568),
            (2, 2.3665471993544505, -5.693796483820865),
            (60, -4.915951135622971, -6.095713710639001),
            (121, -13.538829272915642, -2.014344801242184),
            (242, 14.13759541444572, 11.781613590608652),
        ],
    },
    RandomGolden {
        n: 251,
        peak: 28.39811903307247,
        probes: &[
            (0, 13.177216995412863, -11.351708993402934),
            (1, -6.8154914302826235, 6.673630923835697),
            (2, -11.671143288647965, 1.5864676510552647),
            (62, -21.236526110017092, -6.921794004064711),
            (125, 0.941952194568146, -10.128889609526292),
            (250, -2.663483906472121, 3.5624047508336023),
        ],
    },
    RandomGolden {
        n: 256,
        peak: 28.224072733385103,
        probes: &[
            (0, -16.415322812233978, -4.110381545021332),
            (1, 8.164460840801322, 0.6056880443605239),
            (2, -22.57170869242468, 3.996933753176334),
            (64, 5.094200445558628, -5.352658449231591),
            (128, -11.942813086947881, 5.327740124742282),
            (255, -6.4123529322498785, 9.665685119712476),
        ],
    },
    RandomGolden {
        n: 1009,
        peak: 67.10274452141145,
        probes: &[
            (0, -16.590307338949373, -2.3384132117169756),
            (1, -6.279762845243388, 7.369950377850975),
            (2, -32.36009567479024, -17.923994661771225),
            (252, -12.592194356433069, 35.46317205465376),
            (504, 30.856057293149647, -27.508104947129407),
            (1008, 8.647248544223746, 21.044108020760063),
        ],
    },
    RandomGolden {
        n: 1200,
        peak: 73.10583595184221,
        probes: &[
            (0, -20.184878333509133, -3.282637320047246),
            (1, -14.864501323296594, -35.79516322706054),
            (2, 12.23841853919986, -2.7761800975073876),
            (300, 37.88487060755802, 3.970308645045526),
            (600, -21.500398940930744, -6.8961793821077455),
            (1199, -22.411306964188448, 2.4834134036735636),
        ],
    },
    RandomGolden {
        n: 1344,
        peak: 74.00972997869673,
        probes: &[
            (0, 18.81755184372713, 1.2997968815128917),
            (1, 57.31470822451757, -17.358872660469295),
            (2, -53.883599885911565, -17.71748846446623),
            (336, 4.83993004569572, -13.620147232943728),
            (672, 8.154946500702657, 7.567774004320311),
            (1343, 13.46188481590289, 2.9544156814799214),
        ],
    },
    RandomGolden {
        n: 1536,
        peak: 90.95209375608115,
        probes: &[
            (0, -0.06942430539923117, 38.48411671931274),
            (1, -6.003907499741745, 30.61918969283384),
            (2, 2.1976019534413154, -11.564659878346161),
            (384, 8.397838475862898, -26.7221075757051),
            (768, 9.306051251451967, -25.09830195055521),
            (1535, 0.1564480377905011, -5.625728727164429),
        ],
    },
];

/// Runs one engine on `input` and checks the full output vector
/// against `want`, relative to `peak`, within the engine's tolerance.
fn check_vector(engine: &mut dyn FftEngine, input: &[C64], want: &[C64], peak: f64, label: &str) {
    let n = want.len();
    let mut got = vec![Complex::zero(); n];
    engine
        .execute_into(input, &mut got, Direction::Forward)
        .unwrap_or_else(|e| panic!("{} {label} n={n}: {e}", engine.name()));
    for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
        let err = g.dist(w) / peak;
        assert!(
            err < engine.tolerance(),
            "{} {label} n={n} bin {k}: error {err} exceeds tolerance {}",
            engine.name(),
            engine.tolerance()
        );
    }
}

#[test]
fn impulse_spectrum_is_flat_for_every_engine() {
    for &n in SIZES {
        let mut input = vec![Complex::zero(); n];
        input[0] = Complex::new(1.0, 0.0);
        let want = vec![Complex::new(1.0, 0.0); n];
        let mut registry = registry_with_asip(n).expect("supported size");
        for engine in registry.engines_mut() {
            check_vector(engine, &input, &want, 1.0, "impulse");
        }
    }
}

#[test]
fn dc_spectrum_concentrates_in_bin_zero_for_every_engine() {
    for &n in SIZES {
        let input = vec![Complex::new(1.0, 0.0); n];
        let mut want = vec![Complex::zero(); n];
        want[0] = Complex::new(n as f64, 0.0);
        let mut registry = registry_with_asip(n).expect("supported size");
        for engine in registry.engines_mut() {
            check_vector(engine, &input, &want, n as f64, "dc");
        }
    }
}

#[test]
fn single_tone_peaks_at_its_bin_for_every_engine() {
    for &n in SIZES {
        let t = tone_bin(n);
        // x[m] = e^{+2πi·tm/N} = conj(W_N^{tm}).
        let input: Vec<C64> = (0..n).map(|m| twiddle(n, t * m % n).conj()).collect();
        let mut want = vec![Complex::zero(); n];
        want[t] = Complex::new(n as f64, 0.0);
        let mut registry = registry_with_asip(n).expect("supported size");
        for engine in registry.engines_mut() {
            check_vector(engine, &input, &want, n as f64, "tone");
        }
    }
}

#[test]
fn random_seed_spectra_match_the_checked_in_probes() {
    assert_eq!(
        RANDOM_GOLDEN.iter().map(|g| g.n).collect::<Vec<_>>(),
        SIZES,
        "golden table out of sync with the size grid — rerun the regenerator"
    );
    for golden in RANDOM_GOLDEN {
        let n = golden.n;
        let input = random_input(n);
        let mut registry = registry_with_asip(n).expect("supported size");
        let mut got = vec![Complex::zero(); n];
        for engine in registry.engines_mut() {
            engine
                .execute_into(&input, &mut got, Direction::Forward)
                .unwrap_or_else(|e| panic!("{} random n={n}: {e}", engine.name()));
            for &(bin, re, im) in golden.probes {
                let err = got[bin].dist(Complex::new(re, im)) / golden.peak;
                assert!(
                    err < engine.tolerance(),
                    "{} random n={n} bin {bin}: error {err} exceeds tolerance {}",
                    engine.name(),
                    engine.tolerance()
                );
            }
        }
    }
}

/// Regenerates [`RANDOM_GOLDEN`]: prints the table to paste above.
/// The reference is the crate's naive `O(N^2)` DFT in f64 — the same
/// golden model every other suite in the workspace trusts.
#[test]
#[ignore = "generator: run with --ignored --nocapture and paste the output"]
fn regenerate_random_golden() {
    use afft::core::reference::dft_naive;
    println!("const RANDOM_GOLDEN: &[RandomGolden] = &[");
    for &n in SIZES {
        let spectrum = dft_naive(&random_input(n), Direction::Forward).expect("naive");
        let peak = spectrum.iter().map(|c| c.abs()).fold(0.0f64, f64::max);
        println!("    RandomGolden {{");
        println!("        n: {n},");
        println!("        peak: {peak:?},");
        println!("        probes: &[");
        for bin in probe_bins(n) {
            println!("            ({bin}, {:?}, {:?}),", spectrum[bin].re, spectrum[bin].im);
        }
        println!("        ],");
        println!("    }},");
    }
    println!("];");
}
