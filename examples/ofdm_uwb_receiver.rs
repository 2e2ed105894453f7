//! The paper's motivating workload: the FFT stage of an MB-UWB
//! (802.15.3a-class) OFDM receiver — with the receiver backend
//! *planned* instead of hard-coded, and the same frame demodulated on
//! the cycle-accurate ASIP to show what the paper's hardware costs.
//!
//! A transmitter modulates QPSK symbols onto 128 subcarriers through
//! the golden-model `Ofdm`; the channel adds noise; the receiver side
//! asks the autotuning planner for the fastest backend, measured over
//! the full registry with the cycle-accurate ASIP included. The ISS
//! competes on modeled hardware time (about 2.8 µs per 128-point
//! transform at 300 MHz) and every software engine on host wall time,
//! so the host decides the pick:
//!
//! * on a host with a vector unit, `radix4_simd` wins (about 0.7 µs on
//!   a 2-core AVX2 host);
//! * without one, or under `AFFT_NO_SIMD=1`, a scalar engine
//!   (`array_fft` or `mixed_radix`, about 2.2 µs on the same host)
//!   still beats the ISS.
//!
//! The plan is replayed from the per-machine wisdom file when one
//! exists (run the `wimax_scalable` example or the `planner` bench bin
//! first to warm it), and the demodulator runs on the planned engine
//! via `Ofdm::with_engine`.
//!
//! Whatever the pick, the same frame is then demodulated on `asip_iss`
//! too, taken from `registry_with_asip`, and the cycle table printed
//! from that run. Each receiver also pushes the whole frame through a
//! 4-worker `StreamPipeline` demodulation channel on its engine. Every
//! run asserts zero bit errors and a pool output bit-identical to the
//! per-symbol demodulation, on the planned engine and on the ISS alike.
//!
//! ```text
//! cargo run --release --example ofdm_uwb_receiver
//! ```

use afft::asip::engine::registry_with_asip;
use afft::core::ofdm::{qpsk_demap, qpsk_map, Ofdm};
use afft::num::{Complex, C64};
use afft::planner::{Planner, Strategy, Wisdom};
use afft::stream::{ChannelOp, ChannelSpec, StreamPipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 128; // MB-OFDM UWB FFT size
const CP: usize = 32; // cyclic prefix
const SYMBOLS: usize = 8;

type Bits = Vec<(bool, bool)>;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2009);

    // Plan the receiver FFT: every backend in the registry competes,
    // the cycle-accurate ISS by its modeled cycles. Wisdom makes the
    // measurement a one-time cost per machine.
    let wisdom_path = Wisdom::default_path();
    let mut planner =
        Planner::with_factory(registry_with_asip).with_wisdom(Wisdom::load(&wisdom_path)?);
    let plan = planner.plan(N, Strategy::Measure)?;
    println!(
        "planner: receiver FFT -> {} ({}; {} backends ranked)",
        plan.best().name,
        if plan.from_wisdom { "replayed from wisdom" } else { "measured now" },
        plan.ranking.len(),
    );

    // Transmitter on the golden model.
    let mut tx_ofdm = Ofdm::new(N, CP)?;
    let mut tx_bits: Vec<Bits> = Vec::with_capacity(SYMBOLS);
    let mut rx_frames: Vec<Vec<C64>> = Vec::with_capacity(SYMBOLS);
    for _ in 0..SYMBOLS {
        let bits: Bits = (0..N).map(|_| (rng.gen(), rng.gen())).collect();
        let tx = tx_ofdm.modulate(&qpsk_map(&bits))?;
        // Channel: AWGN at a comfortable SNR.
        let rx: Vec<C64> = tx
            .iter()
            .map(|&c| c + Complex::new(rng.gen_range(-0.01..0.01), rng.gen_range(-0.01..0.01)))
            .collect();
        tx_bits.push(bits);
        rx_frames.push(rx);
    }

    // The planned receiver, then the same frame on the ISS.
    receive(
        Ofdm::with_engine(planner.engine(&plan)?, CP)?,
        ChannelSpec::from_plan(&plan, ChannelOp::Demodulate { cp: CP }),
        &tx_bits,
        &rx_frames,
    )?;
    let iss_cycles = receive(
        Ofdm::with_engine(registry_with_asip(N)?.take("asip_iss")?, CP)?,
        ChannelSpec { n: N, engine: "asip_iss".to_string(), op: ChannelOp::Demodulate { cp: CP } },
        &tx_bits,
        &rx_frames,
    )?;

    assert!(iss_cycles > 0, "the cycle-accurate ISS reports its cycles");
    println!();
    let cycles_per_symbol = iss_cycles as f64 / SYMBOLS as f64;
    let us_per_symbol = cycles_per_symbol / 300.0;
    println!(
        "asip_iss: avg {cycles_per_symbol:.0} cycles per 128-point FFT ({us_per_symbol:.2} us at 300 MHz)"
    );
    println!(
        "per-core sample rate: {:.1} Msamples/s (UWB device target: 409.6 Ms/s aggregate)",
        N as f64 / us_per_symbol
    );

    // Remember what we learned for the next process.
    planner.wisdom().store(&wisdom_path)?;
    println!("wisdom: {} plans cached at {}", planner.wisdom().len(), wisdom_path.display());
    Ok(())
}

/// Demodulates every symbol on `rx` through the zero-allocation
/// `demodulate_into` path, asserts a clean decode, then runs the frame
/// through a 4-worker pool channel on `spec` and asserts its in-order
/// completions are bit-identical. Returns the engine's total cycles
/// (zero on the f64 models, which have no cost observable).
fn receive(
    mut rx: Ofdm,
    spec: ChannelSpec,
    tx_bits: &[Bits],
    rx_frames: &[Vec<C64>],
) -> Result<u64, Box<dyn std::error::Error>> {
    let name = rx.engine().name().to_string();
    let mut total_cycles = 0u64;
    let mut bit_errors = 0usize;
    let mut spectra: Vec<Vec<C64>> = vec![vec![C64::zero(); N]; rx_frames.len()];
    for ((bits, frame), bins) in tx_bits.iter().zip(rx_frames).zip(spectra.iter_mut()) {
        rx.demodulate_into(frame, bins)?;
        total_cycles += rx.engine().cycles().unwrap_or(0);
        for (decided, &sent) in qpsk_demap(bins).iter().zip(bits) {
            bit_errors += usize::from(decided.0 != sent.0) + usize::from(decided.1 != sent.1);
        }
    }
    println!("{name}: {bit_errors}/{} bit errors over {SYMBOLS} OFDM symbols", 2 * N * SYMBOLS);
    assert_eq!(bit_errors, 0, "QPSK at this SNR must demodulate cleanly on {name}");

    // Four workers, each with its own demodulator on the channel's
    // engine, hand completions back in submission order.
    let mut builder = StreamPipeline::builder(registry_with_asip).workers(4);
    let ch = builder.channel(spec);
    let pipeline = builder.build()?;
    for frame in rx_frames {
        pipeline.submit(ch, frame.clone(), vec![C64::zero(); N]).expect("pipeline accepts");
    }
    let mut pooled: Vec<Vec<C64>> = Vec::with_capacity(rx_frames.len());
    while let Some(done) = pipeline.recv(ch) {
        assert!(done.error.is_none(), "pooled demodulation failed: {:?}", done.error);
        pooled.push(done.output);
    }
    assert_eq!(pooled, spectra, "{name}: pipeline must match per-symbol demodulation");
    println!("{name}: stream of {SYMBOLS} symbols on 4 workers, bit-identical to per-symbol");
    Ok(total_cycles)
}
