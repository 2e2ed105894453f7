//! The paper's motivating workload: the FFT stage of an MB-UWB
//! (802.15.3a-class) OFDM receiver — now with the receiver backend
//! *planned* instead of hard-coded.
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
//! On such hosts the receiver and the pipeline run on that software
//! engine, and the cycle table is skipped with a note. The table, and
//! demodulation on the ISS itself, run only where `asip_iss` ranks
//! first: on a host too slow for any software engine to beat its
//! modeled time, or from a wisdom file that ranks it first.
//!
//! The plan is replayed from the per-machine wisdom file when one
//! exists (run the `wimax_scalable` example or the `planner` bench bin
//! first to warm it), the demodulator runs on the planned engine via
//! `Ofdm::with_engine`, and the whole frame is also pushed through a
//! 4-worker `StreamPipeline` demodulation channel on the same plan to
//! check the pool is bit-identical to per-symbol demodulation.
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

    // Transmitter on the golden model; receiver on the planned engine.
    let mut tx_ofdm = Ofdm::new(N, CP)?;
    let mut rx_ofdm = Ofdm::with_engine(planner.engine(&plan)?, CP)?;

    let mut tx_bits: Vec<Vec<(bool, bool)>> = Vec::with_capacity(SYMBOLS);
    let mut rx_frames: Vec<Vec<C64>> = Vec::with_capacity(SYMBOLS);
    for _ in 0..SYMBOLS {
        let bits: Vec<(bool, bool)> = (0..N).map(|_| (rng.gen(), rng.gen())).collect();
        let tx = tx_ofdm.modulate(&qpsk_map(&bits))?;
        // Channel: AWGN at a comfortable SNR.
        let rx: Vec<C64> = tx
            .iter()
            .map(|&c| c + Complex::new(rng.gen_range(-0.01..0.01), rng.gen_range(-0.01..0.01)))
            .collect();
        tx_bits.push(bits);
        rx_frames.push(rx);
    }

    // Receiver: demodulate every symbol on the planned backend. The
    // spectra batch is preallocated once and each symbol demodulates
    // through the zero-allocation `demodulate_into` path.
    let mut total_cycles = 0u64;
    let mut bit_errors = 0usize;
    let mut total_bits = 0usize;
    let mut spectra: Vec<Vec<C64>> = vec![vec![C64::zero(); N]; SYMBOLS];
    for ((bits, frame), bins) in tx_bits.iter().zip(&rx_frames).zip(spectra.iter_mut()) {
        rx_ofdm.demodulate_into(frame, bins)?;
        // Only cycle-accurate backends report cycles; the f64 models
        // demodulate identically but have no cost observable.
        total_cycles += rx_ofdm.engine().cycles().unwrap_or(0);
        for (decided, &sent) in qpsk_demap(bins).iter().zip(bits) {
            total_bits += 2;
            bit_errors += usize::from(decided.0 != sent.0) + usize::from(decided.1 != sent.1);
        }
    }

    // The same frame through a stream pipeline: four workers, each
    // with its own demodulator on the planned engine, and completions
    // handed back in submission order. They must be bit-identical to
    // the per-symbol demodulation above.
    let mut builder = StreamPipeline::builder(registry_with_asip).workers(4);
    let ch = builder.channel(ChannelSpec::from_plan(&plan, ChannelOp::Demodulate { cp: CP }));
    let pipeline = builder.build()?;
    for frame in &rx_frames {
        pipeline.submit(ch, frame.clone(), vec![C64::zero(); N]).expect("pipeline accepts");
    }
    let mut pooled: Vec<Vec<C64>> = Vec::with_capacity(SYMBOLS);
    while let Some(done) = pipeline.recv(ch) {
        assert!(done.error.is_none(), "pooled demodulation failed: {:?}", done.error);
        pooled.push(done.output);
    }
    assert_eq!(pooled, spectra, "pipeline must match per-symbol demodulation");
    println!("stream: {SYMBOLS} symbols on 4 workers, bit-identical to per-symbol demodulation");

    println!();
    println!("demodulated {SYMBOLS} OFDM symbols: {bit_errors}/{total_bits} bit errors");
    if total_cycles > 0 {
        let cycles_per_symbol = total_cycles as f64 / SYMBOLS as f64;
        let us_per_symbol = cycles_per_symbol / 300.0;
        println!(
            "avg {cycles_per_symbol:.0} cycles per 128-point FFT ({us_per_symbol:.2} us at 300 MHz)"
        );
        println!(
            "per-core sample rate: {:.1} Msamples/s (UWB device target: 409.6 Ms/s aggregate)",
            N as f64 / us_per_symbol
        );
    } else {
        println!("(backend {} has no cycle model; cost table skipped)", rx_ofdm.engine().name());
    }
    assert_eq!(bit_errors, 0, "QPSK at this SNR must demodulate cleanly");

    // Remember what we learned for the next process.
    planner.wisdom().store(&wisdom_path)?;
    println!("wisdom: {} plans cached at {}", planner.wisdom().len(), wisdom_path.display());
    Ok(())
}
