//! Stress coverage for the streaming pipeline on a channel mix the
//! mixed-radix engine family makes possible: composite-`N` channels
//! (LTE-style sizes only `mixed_radix` serves) sharing one worker pool
//! with power-of-two channels.
//!
//! * **`try_submit` storm** — a non-blocking submission loop hammers a
//!   deliberately tiny queue across three channels; rejections are
//!   retried, opportunistic `recv_ready` drains interleave, and at the
//!   end every accepted symbol must be delivered exactly once, in
//!   per-channel submission order, bit-identical to the same engine
//!   run sequentially.
//! * **shutdown under load** — the caller stops receiving entirely and
//!   shuts down while the queue is full of accepted work; the drain
//!   must complete every accepted symbol and hand the undelivered
//!   completions back in per-channel order. Accepted work is never
//!   lost.
//!
//! Both run on a 2-worker and on a 4-worker pool.

use afft_core::engine::EngineRegistry;
use afft_core::Direction;
use afft_num::{Complex, C64};
use afft_stream::{ChannelSpec, RecvError, StreamPipeline, SubmitError};
use std::time::Duration;

/// Deterministic per-(channel, seq) symbol, xorshift-driven, so the
/// sequential reference and the pipeline agree exactly.
fn symbol(n: usize, channel: usize, seq: u64) -> Vec<C64> {
    let mut state = 0xd1b5_4a32_d192_ed03u64 ^ ((channel as u64) << 40) ^ seq.wrapping_add(7);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let re = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let im = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            Complex::new(re, im)
        })
        .collect()
}

/// The channel mix both tests run: one composite LTE-control-style
/// size and one odd-log2 power of two on `mixed_radix`, a power of
/// four on `radix4_dit`, and one deliberately slow O(N^2)
/// naive channel (fewer symbols) that clogs the worker pool so the
/// storm reliably hits the queue bound.
const CHANNELS: [(usize, &str, u64); 4] = [
    (60, "mixed_radix", 48),
    (64, "radix4_dit", 48),
    (128, "mixed_radix", 48),
    (256, "dft_naive", 8),
];

/// Sequential reference spectra through the same engine-construction
/// path the workers use (bit-identical results expected, not close).
fn reference_spectra() -> Vec<Vec<Vec<C64>>> {
    CHANNELS
        .iter()
        .enumerate()
        .map(|(idx, &(n, engine, count))| {
            let mut eng = EngineRegistry::standard(n).unwrap().take(engine).expect("registered");
            (0..count)
                .map(|s| eng.execute(&symbol(n, idx, s), Direction::Forward).unwrap())
                .collect()
        })
        .collect()
}

#[test]
fn try_submit_storm_delivers_every_accepted_symbol_in_order() {
    for workers in [2, 4] {
        try_submit_storm(workers);
    }
}

fn try_submit_storm(workers: usize) {
    let mut builder =
        StreamPipeline::builder(EngineRegistry::standard).workers(workers).queue_depth(2); // tiny on purpose: the storm must hit QueueFull
    let ids: Vec<_> = CHANNELS
        .iter()
        .map(|&(n, engine, _)| {
            builder.channel(ChannelSpec::transform(n, engine, Direction::Forward))
        })
        .collect();
    let pipeline = builder.build().expect("valid channels");
    let expected = reference_spectra();

    let mut next = [0u64; CHANNELS.len()];
    let mut delivered = [0u64; CHANNELS.len()];
    let mut rejections = 0u64;
    let mut ready = Vec::new();
    // Storm: round-robin non-blocking submission, retrying rejected
    // payloads and opportunistically draining while the queue is full.
    while next.iter().zip(&CHANNELS).any(|(&s, &(_, _, count))| s < count) {
        for (idx, &ch) in ids.iter().enumerate() {
            if next[idx] >= CHANNELS[idx].2 {
                continue;
            }
            let n = CHANNELS[idx].0;
            let mut payload = (symbol(n, idx, next[idx]), vec![Complex::zero(); n]);
            loop {
                match pipeline.try_submit(ch, payload.0, payload.1) {
                    Ok(seq) => {
                        assert_eq!(seq, next[idx], "channel {idx} seq numbering");
                        next[idx] += 1;
                        break;
                    }
                    Err(SubmitError::QueueFull { input, output }) => {
                        rejections += 1;
                        payload = (input, output);
                        // Drain whatever is ready before retrying: the
                        // storm and the receive path interleave.
                        let drained = pipeline.recv_ready(&mut ready, Duration::ZERO);
                        assert!(!matches!(drained, Err(RecvError::Poisoned)), "storm poisoned");
                        for done in ready.drain(..) {
                            let jdx = done.channel.index();
                            assert_eq!(done.seq, delivered[jdx], "channel {jdx} order");
                            assert!(done.error.is_none());
                            assert_eq!(
                                done.output, expected[jdx][done.seq as usize],
                                "channel {jdx} seq {} spectrum",
                                done.seq
                            );
                            delivered[jdx] += 1;
                        }
                    }
                    Err(other) => panic!("unexpected refusal: {other}"),
                }
            }
        }
    }
    assert!(rejections > 0, "a depth-2 queue under a 4-channel storm must reject");

    // Final drain: everything accepted arrives, in order, exactly once.
    let total: u64 = CHANNELS.iter().map(|&(_, _, count)| count).sum();
    for (idx, &ch) in ids.iter().enumerate() {
        while let Some(done) = pipeline.recv(ch) {
            assert_eq!(done.seq, delivered[idx], "channel {idx} order");
            assert!(done.error.is_none());
            assert_eq!(done.output, expected[idx][done.seq as usize]);
            delivered[idx] += 1;
        }
        assert_eq!(delivered[idx], CHANNELS[idx].2, "channel {idx} lost accepted work");
    }

    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.delivered, total);
    assert_eq!(stats.rejected, rejections);
    assert_eq!(stats.queue_high_water, 2, "the tiny queue reached its bound");
}

#[test]
fn shutdown_under_load_completes_and_returns_accepted_work_in_order() {
    for workers in [2, 4] {
        shutdown_under_load(workers);
    }
}

fn shutdown_under_load(workers: usize) {
    let mut builder =
        StreamPipeline::builder(EngineRegistry::standard).workers(workers).queue_depth(8);
    let ids: Vec<_> = CHANNELS
        .iter()
        .map(|&(n, engine, _)| {
            builder.channel(ChannelSpec::transform(n, engine, Direction::Forward))
        })
        .collect();
    let pipeline = builder.build().expect("valid channels");
    let expected = reference_spectra();

    // Blocking submission keeps the queue loaded; the caller never
    // receives a single completion.
    let max_count = CHANNELS.iter().map(|&(_, _, count)| count).max().unwrap();
    for seq in 0..max_count {
        for (idx, &ch) in ids.iter().enumerate() {
            if seq >= CHANNELS[idx].2 {
                continue;
            }
            let n = CHANNELS[idx].0;
            pipeline
                .submit(ch, symbol(n, idx, seq), vec![Complex::zero(); n])
                .expect("blocking submit");
        }
    }

    // Shut down with the pipeline still chewing: the drain must finish
    // every accepted symbol and surrender the completions (the drain
    // itself accounts them as delivered in the final stats).
    let total: u64 = CHANNELS.iter().map(|&(_, _, count)| count).sum();
    let (stats, leftover) = pipeline.shutdown();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total, "shutdown drains accepted work");
    assert_eq!(leftover.len(), total as usize, "every completion is handed back");

    // Leftover arrives per-channel in submission order, channels in
    // registration order — and every spectrum is still bit-identical
    // to the sequential reference.
    let mut cursor = 0usize;
    for (idx, &ch) in ids.iter().enumerate() {
        for seq in 0..CHANNELS[idx].2 {
            let done = &leftover[cursor];
            cursor += 1;
            assert_eq!(done.channel, ch, "channel block {idx}");
            assert_eq!(done.seq, seq, "channel {idx} order");
            assert!(done.error.is_none());
            assert_eq!(done.input, symbol(CHANNELS[idx].0, idx, seq));
            assert_eq!(done.output, expected[idx][seq as usize]);
        }
    }
}
