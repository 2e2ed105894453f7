//! A multi-channel OFDM "stream server": continuous WiMAX and UWB
//! symbol traffic through one persistent [`StreamPipeline`] — the
//! system shape the paper's introduction motivates (one FFT substrate
//! serving several scalable OFDM standards at once), run on the
//! workspace's streaming layer.
//!
//! Four channels share one worker pool: a modulator and a demodulator
//! for WiMAX 802.16 (256 subcarriers, 64-sample cyclic prefix) and for
//! MB-UWB 802.15.3a (128 subcarriers, 32-sample prefix). Each channel
//! runs the engine an autotuning plan picked for its size. Frames flow
//! transmitter → channel (AWGN) → receiver entirely through pipeline
//! submissions, and each standard's two payload buffers are threaded
//! through every completion back into the next submission — after
//! warmup the steady-state frame loop performs no per-symbol heap
//! allocation anywhere: not in the caller, not in the queue's reorder
//! ring, not in the workers.
//!
//! The end of the run demonstrates backpressure (`try_submit` refusing
//! with `QueueFull` on a deliberately tiny queue) and graceful
//! shutdown (close, drain, join — with the undelivered completions
//! handed back). Shutdown also prints the pipeline's per-channel
//! latency table — p50/p99 end-to-end plus the queue-wait / transform /
//! reorder-park stage breakdown.
//!
//! ```text
//! cargo run --release --example ofdm_stream_server
//! ```

use afft::core::engine::EngineRegistry;
use afft::core::Direction;
use afft::num::{Complex, C64};
use afft::planner::{Planner, Strategy};
use afft::stream::{ChannelId, ChannelOp, ChannelSpec, StreamPipeline, SubmitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One OFDM standard served by the pipeline.
struct Standard {
    name: &'static str,
    n: usize,
    cp: usize,
    frames: usize,
    tx: ChannelId,
    rx: ChannelId,
}

const NOISE: f64 = 0.01;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2009);

    // Plan each symbol size once; the pipeline channels run the
    // winners. (The software registry keeps the example fast — swap in
    // `registry_with_asip` and the 300 MHz ISS would win the ranking
    // and stream cycle counts through every completion.)
    let mut planner = Planner::new();
    let wimax_plan = planner.plan(256, Strategy::Estimate)?;
    let uwb_plan = planner.plan(128, Strategy::Estimate)?;

    let workers =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(4);
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(workers);
    let mut standards = [
        Standard {
            name: "WiMAX-256",
            n: 256,
            cp: 64,
            frames: 96,
            tx: builder
                .channel(ChannelSpec::from_plan(&wimax_plan, ChannelOp::Modulate { cp: 64 })),
            rx: builder
                .channel(ChannelSpec::from_plan(&wimax_plan, ChannelOp::Demodulate { cp: 64 })),
        },
        Standard {
            name: "UWB-128",
            n: 128,
            cp: 32,
            frames: 120,
            tx: builder.channel(ChannelSpec::from_plan(&uwb_plan, ChannelOp::Modulate { cp: 32 })),
            rx: builder
                .channel(ChannelSpec::from_plan(&uwb_plan, ChannelOp::Demodulate { cp: 32 })),
        },
    ];
    let pipeline = builder.build()?;
    println!(
        "stream server up: {} workers, {} channels (WiMAX on `{}`, UWB on `{}`)\n",
        pipeline.worker_count(),
        pipeline.channel_count(),
        wimax_plan.best().name,
        uwb_plan.best().name,
    );

    let mut total_bits = 0usize;
    let mut bit_errors = 0usize;
    for standard in &mut standards {
        let Standard { name, n, cp, frames, tx, rx } = *standard;

        // Per-standard buffers, allocated once. From here on every
        // frame threads the same two payload buffers through the four
        // submissions (tx in/out -> rx in/out) and back out of the
        // completions — zero heap allocation per frame in this loop.
        let mut bits = vec![(false, false); n];
        let mut subcarriers = vec![Complex::zero(); n];
        let mut samples = vec![Complex::zero(); n + cp];
        for _ in 0..frames {
            // Transmit: QPSK-map fresh bits into the recycled
            // subcarrier buffer, modulate into the sample buffer.
            for (slot, b) in subcarriers.iter_mut().zip(bits.iter_mut()) {
                *b = (rng.gen(), rng.gen());
                let re = if b.0 { 1.0 } else { -1.0 };
                let im = if b.1 { 1.0 } else { -1.0 };
                *slot = Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2;
            }
            pipeline
                .submit(tx, std::mem::take(&mut subcarriers), std::mem::take(&mut samples))
                .map_err(box_err)?;
            let sym = pipeline.recv(tx).expect("modulated frame");
            assert!(sym.error.is_none());

            // Channel: AWGN onto the modulated samples; the completion
            // handed both buffers back, so the receiver submission
            // reuses them (samples in, subcarrier bins out).
            let mut rx_samples = sym.output;
            for s in rx_samples.iter_mut() {
                *s = *s + Complex::new(rng.gen_range(-NOISE..NOISE), rng.gen_range(-NOISE..NOISE));
            }
            pipeline.submit(rx, rx_samples, sym.input).map_err(box_err)?;
            let bins = pipeline.recv(rx).expect("demodulated frame");
            assert!(bins.error.is_none());

            // Hard-decision demap straight off the bins, then recycle
            // both buffers into the next frame.
            for (bin, &sent) in bins.output.iter().zip(&bits) {
                total_bits += 2;
                bit_errors +=
                    usize::from((bin.re >= 0.0) != sent.0) + usize::from((bin.im >= 0.0) != sent.1);
            }
            subcarriers = bins.output;
            samples = bins.input;
        }
        println!(
            "{name}: {frames} frames round-tripped through channels {}/{}",
            tx.index(),
            rx.index()
        );
    }

    let stats = pipeline.stats();
    println!("\npipeline: {stats}");
    for (idx, chan) in stats.per_channel.iter().enumerate() {
        println!("  channel {idx}: submitted {} delivered {}", chan.submitted, chan.delivered);
    }
    println!("demodulated: {bit_errors}/{total_bits} bit errors at noise {NOISE}");
    assert_eq!(bit_errors, 0, "QPSK at this SNR must demodulate cleanly");
    let (final_stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(final_stats.delivered, final_stats.submitted);

    // The shutdown report: per-channel latency percentiles with the
    // queue-wait / transform / reorder-park breakdown.
    println!("\nper-channel latency at shutdown:\n{}", final_stats.obs);

    // Backpressure, demonstrated: a tiny queue on a slow engine rejects
    // with QueueFull instead of blocking — and hands the buffers back.
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1).queue_depth(2);
    let ch = builder.channel(ChannelSpec::transform(512, "dft_naive", Direction::Forward));
    let small = builder.build()?;
    let mut payload = (vec![Complex::new(1.0, 0.0); 512], vec![C64::zero(); 512]);
    let mut accepted = 0u64;
    let mut refused = 0u64;
    while refused < 3 {
        match small.try_submit(ch, payload.0, payload.1) {
            Ok(_) => {
                accepted += 1;
                payload = (vec![Complex::new(1.0, 0.0); 512], vec![C64::zero(); 512]);
            }
            Err(SubmitError::QueueFull { input, output }) => {
                refused += 1;
                payload = (input, output);
            }
            Err(other) => return Err(Box::new(other)),
        }
    }
    let mut delivered = 0u64;
    while small.recv(ch).is_some() {
        delivered += 1;
    }
    let (small_stats, _) = small.shutdown();
    println!(
        "\nbackpressure demo: accepted {accepted}, refused {refused} (QueueFull), \
         delivered {delivered} — no accepted work lost, {} rejections counted",
        small_stats.rejected
    );
    assert_eq!(delivered, accepted);
    Ok(())
}

/// `SubmitError` carries the payload buffers, which don't render
/// usefully; box the human-readable message instead.
fn box_err(e: SubmitError) -> Box<dyn std::error::Error> {
    e.to_string().into()
}
