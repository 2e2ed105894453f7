//! Every statistic the ISS reports, pinned on seeded inputs: the
//! canonical array-FFT program at each Table I size in both directions,
//! the ablation's three variants, and Table II's soft-float software FFT
//! and the TI and Xtensa models, which run the same `Cache`. The host
//! code of the simulator may change; none of these counters may.

use afft::asip::layout::Layout;
use afft::asip::program::{generate_array_fft, ProgramOptions, UnrollStyle};
use afft::asip::runner::{run_array_fft_with_machine_config, ArrayFftRunner, AsipConfig};
use afft::asip::swfft::run_software_fft;
use afft::baselines::{ti, xtensa, BaselineRun};
use afft::core::{Direction, Split};
use afft::num::{twiddle_q15, Complex, C64, Q15};
use afft::sim::profile::profile_run;
use afft::sim::{CacheStats, Machine, MachineConfig, Stats, Timing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every counter of a run, in declaration order: `cycles, instrs, alu,
/// mul, loads, stores, branches, branches_taken, jumps, but4, ldin,
/// stout, mtfft, coef_fetches`, then the cache's `accesses, misses,
/// read_misses, write_misses, writebacks`.
type Counters = [u64; 19];

fn counters(s: &Stats) -> Counters {
    // Exhaustive on purpose: a counter added to `Stats` must be pinned.
    let Stats {
        cycles,
        instrs,
        alu,
        mul,
        loads,
        stores,
        branches,
        branches_taken,
        jumps,
        but4,
        ldin,
        stout,
        mtfft,
        coef_fetches,
        cache: CacheStats { accesses, misses, read_misses, write_misses, writebacks },
    } = *s;
    [
        cycles,
        instrs,
        alu,
        mul,
        loads,
        stores,
        branches,
        branches_taken,
        jumps,
        but4,
        ldin,
        stout,
        mtfft,
        coef_fetches,
        accesses,
        misses,
        read_misses,
        write_misses,
        writebacks,
    ]
}

fn baseline_counters(r: &BaselineRun) -> [u64; 8] {
    let BaselineRun {
        cycles,
        loads,
        stores,
        cache: CacheStats { accesses, misses, read_misses, write_misses, writebacks },
    } = *r;
    [cycles, loads, stores, accesses, misses, read_misses, write_misses, writebacks]
}

fn seeded_q15(n: usize, seed: u64) -> Vec<Complex<Q15>> {
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

/// Unit-energy QPSK, the benchmark's Table II input.
fn seeded_qpsk(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = std::f64::consts::FRAC_1_SQRT_2;
    let mut sign = || if rng.gen_bool(0.5) { a } else { -a };
    (0..n).map(|_| Complex::new(sign(), sign())).collect()
}

/// `(N, forward, inverse)` counters of the canonical program.
const CANONICAL: [(usize, Counters, Counters); 5] = [
    (
        64,
        [413, 215, 22, 0, 0, 0, 0, 0, 0, 48, 64, 64, 16, 49, 49, 1, 1, 0, 0],
        [415, 217, 23, 0, 0, 0, 0, 0, 0, 48, 64, 64, 17, 49, 49, 1, 1, 0, 0],
    ),
    (
        128,
        [832, 408, 23, 0, 0, 0, 0, 0, 0, 112, 128, 128, 16, 105, 105, 2, 2, 0, 0],
        [834, 410, 24, 0, 0, 0, 0, 0, 0, 112, 128, 128, 17, 105, 105, 2, 2, 0, 0],
    ),
    (
        256,
        [1730, 824, 31, 0, 0, 0, 0, 0, 0, 256, 256, 256, 24, 225, 225, 3, 3, 0, 0],
        [1732, 826, 32, 0, 0, 0, 0, 0, 0, 256, 256, 256, 25, 225, 225, 3, 3, 0, 0],
    ),
    (
        512,
        [3527, 1657, 32, 0, 0, 0, 0, 0, 0, 576, 512, 512, 24, 465, 465, 5, 5, 0, 0],
        [3529, 1659, 33, 0, 0, 0, 0, 0, 0, 576, 512, 512, 25, 465, 465, 5, 5, 0, 0],
    ),
    (
        1024,
        [7279, 3417, 48, 0, 0, 0, 0, 0, 0, 1280, 1024, 1024, 40, 961, 961, 9, 9, 0, 0],
        [7281, 3419, 49, 0, 0, 0, 0, 0, 0, 1280, 1024, 1024, 41, 961, 961, 9, 9, 0, 0],
    ),
];

#[test]
fn canonical_program_statistics_are_pinned() {
    for (n, forward, inverse) in CANONICAL {
        let mut runner = ArrayFftRunner::new(n, AsipConfig::default()).expect("plan");
        let input = seeded_q15(n, n as u64);
        let mut output = vec![Complex::zero(); n];
        for (dir, want) in [(Direction::Forward, forward), (Direction::Inverse, inverse)] {
            let stats = runner.run_into(&input, &mut output, dir).expect("run");
            assert_eq!(counters(&stats), want, "n = {n}, {dir:?}");
        }
    }
}

/// `(N, cached port, group loop, no pre-rotation)` counters of the
/// ablation's forward runs.
const ABLATION: [(usize, Counters, Counters, Counters); 2] = [
    (
        64,
        [437, 215, 22, 0, 0, 0, 0, 0, 0, 48, 64, 64, 16, 49, 241, 13, 5, 8, 0],
        [488, 276, 67, 0, 0, 0, 16, 14, 0, 48, 64, 64, 16, 49, 49, 1, 1, 0, 0],
        [200, 200, 15, 0, 0, 0, 0, 0, 0, 48, 64, 64, 8, 0, 0, 0, 0, 0, 0],
    ),
    (
        1024,
        [7663, 3417, 48, 0, 0, 0, 0, 0, 0, 1280, 1024, 1024, 40, 961, 4033, 201, 73, 128, 0],
        [7570, 3646, 213, 0, 0, 0, 64, 62, 0, 1280, 1024, 1024, 40, 961, 961, 9, 9, 0, 0],
        [3354, 3354, 17, 0, 0, 0, 0, 0, 0, 1280, 1024, 1024, 8, 0, 0, 0, 0, 0, 0],
    ),
];

#[test]
fn ablation_statistics_are_pinned() {
    for (n, cached, looped, unrotated) in ABLATION {
        let input = seeded_q15(n, n as u64);
        let run = |options: ProgramOptions, custom_ops_cached: bool| {
            let cfg = AsipConfig { options, ..AsipConfig::default() };
            let machine = MachineConfig { custom_ops_cached, ..MachineConfig::default() };
            run_array_fft_with_machine_config(&input, Direction::Forward, &cfg, &machine)
                .expect("run")
                .stats
        };
        let group_loop = ProgramOptions { unroll: UnrollStyle::GroupLoop, ..Default::default() };
        let skip_prerot = ProgramOptions { skip_prerot: true, ..Default::default() };
        assert_eq!(counters(&run(ProgramOptions::default(), true)), cached, "n = {n}: cached");
        assert_eq!(counters(&run(group_loop, false)), looped, "n = {n}: group loop");
        assert_eq!(counters(&run(skip_prerot, false)), unrotated, "n = {n}: no pre-rotation");
    }
}

/// `profile_run` steps one instruction at a time; `Machine::run` loops
/// over the same body inlined. Both must leave the same machine.
#[test]
fn profiled_run_matches_the_plain_run() {
    let n = 1024;
    let split = Split::for_size(n).expect("valid size");
    let layout = Layout::for_size(n);
    let program = generate_array_fft(&split, &layout, ProgramOptions::default()).expect("program");
    let mut plain = Machine::new(MachineConfig {
        mem_bytes: layout.mem_bytes,
        crf_capacity: split.p_size,
        ..MachineConfig::default()
    });
    let mem = plain.mem_mut();
    mem.write_complex_slice(layout.in_base, &seeded_q15(n, n as u64)).expect("stage input");
    let table: Vec<_> = (0..=n / 8).map(|k| twiddle_q15(n, k)).collect();
    mem.write_complex_slice(layout.table_base, &table).expect("stage table");
    plain.load_program(program);
    let mut profiled = plain.clone();

    let stats = plain.run(100_000_000).expect("run");
    let (profiled_stats, profile) = profile_run(&mut profiled, 100_000_000).expect("profile");
    assert_eq!(profiled_stats, stats);
    assert_eq!(profile.total_cycles(), stats.cycles);
    assert_eq!(counters(&stats), CANONICAL[4].1, "the runner's forward 1024-point run");
    assert_eq!(
        profiled.mem().read_complex_slice(layout.out_base, n),
        plain.mem().read_complex_slice(layout.out_base, n)
    );
}

/// Table II's soft-float FFT on seed-1 QPSK: its soft-float routines
/// branch on the data, so the count belongs to this input.
const SOFTWARE_FFT: Counters = [
    3632207, 3021803, 2039351, 33540, 135104, 83904, 560792, 340287, 169111, 0, 0, 0, 0, 0, 219008,
    193, 192, 1, 0,
];
/// `cycles, loads, stores`, then the cache's five counters.
const TI: [u64; 8] = [23522, 15360, 10240, 25600, 5484, 4444, 1040, 3213];
const XTENSA: [u64; 8] = [11128, 5120, 5120, 10240, 128, 128, 0, 0];

#[test]
fn table2_baseline_statistics_are_pinned() {
    let n = 1024;
    let sw =
        run_software_fft(&seeded_qpsk(n, 1), Direction::Forward, Timing::default(), 50_000_000)
            .expect("software FFT");
    assert_eq!(counters(&sw.stats), SOFTWARE_FFT, "soft-float software FFT");
    assert_eq!(baseline_counters(&ti::run_ti_fft(n, &ti::TiConfig::default())), TI, "TI model");
    let xt = xtensa::run_xtensa_fft(n, &xtensa::XtensaConfig::default());
    assert_eq!(baseline_counters(&xt), XTENSA, "Xtensa model");
}
