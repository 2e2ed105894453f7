//! The streaming pipeline's two load-bearing guarantees, tested from
//! outside the crate:
//!
//! * **Ordering** (property test): per-channel completion delivery
//!   order matches submission order under a 4-worker pool, for
//!   randomized channel counts, symbol sizes, engines and stream
//!   lengths — and every delivered spectrum is bit-identical to the
//!   same engine run sequentially.
//! * **Backpressure** (regression test): `try_submit` surfaces
//!   [`SubmitError::QueueFull`] when the bounded queue is at capacity,
//!   hands the payload buffers back, and loses none of the work that
//!   was already accepted.

use afft_core::engine::EngineRegistry;
use afft_core::Direction;
use afft_num::{Complex, C64};
use afft_stream::{ChannelSpec, StreamPipeline, SubmitError};
use proptest::prelude::*;

/// A deterministic per-(channel, seq) symbol: xorshift-driven, so the
/// reference computation and the submission loop agree exactly.
fn symbol(n: usize, channel: usize, seq: u64) -> Vec<C64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ ((channel as u64) << 32) ^ seq.wrapping_add(1);
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

/// Engines available at every power-of-two size >= 8.
const ENGINES: [&str; 4] = ["dft_naive", "radix2_dit", "mixed_radix", "mcfft"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-channel completion order matches submission order on a
    /// 4-worker pool, across randomized `(size, engine, length)`
    /// channel mixes, with round-robin interleaved submission and a
    /// deliberately small queue so blocking backpressure engages.
    #[test]
    fn delivery_order_matches_submission_order(
        channels in proptest::collection::vec(
            (3u32..=8, 0usize..ENGINES.len(), 1usize..=20, any::<bool>()),
            1..=3,
        ),
    ) {
        let mut builder = StreamPipeline::builder(EngineRegistry::standard)
            .workers(4)
            .queue_depth(3);
        let mut ids = Vec::new();
        for &(log_n, engine, count, inverse) in &channels {
            let n = 1usize << log_n;
            let dir = if inverse { Direction::Inverse } else { Direction::Forward };
            ids.push((builder.channel(ChannelSpec::transform(n, ENGINES[engine], dir)), count));
        }
        let pipeline = builder.build().expect("valid channels");

        // Sequential reference spectra, one private engine per channel
        // (the same construction path the workers use, so results must
        // be bit-identical, not merely close).
        let mut expected: Vec<Vec<Vec<C64>>> = Vec::new();
        for (idx, &(log_n, engine, count, inverse)) in channels.iter().enumerate() {
            let n = 1usize << log_n;
            let dir = if inverse { Direction::Inverse } else { Direction::Forward };
            let mut eng =
                EngineRegistry::standard(n).unwrap().take(ENGINES[engine]).expect("registered");
            expected.push(
                (0..count as u64).map(|s| eng.execute(&symbol(n, idx, s), dir).unwrap()).collect(),
            );
        }

        // Round-robin interleaved submission across channels: the worst
        // case for ordering, since neighbouring symbols of one channel
        // land on different workers.
        let mut next = vec![0u64; ids.len()];
        loop {
            let mut any = false;
            for (idx, &(ch, count)) in ids.iter().enumerate() {
                if next[idx] < count as u64 {
                    let n = pipeline.spec(ch).n;
                    let seq = pipeline
                        .submit(ch, symbol(n, idx, next[idx]), vec![Complex::zero(); n])
                        .expect("submit");
                    prop_assert_eq!(seq, next[idx], "sequence numbers count submissions");
                    next[idx] += 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }

        // Drain every channel: strictly ascending seq, bit-identical
        // spectra, inputs handed back unchanged.
        for (idx, &(ch, count)) in ids.iter().enumerate() {
            let mut delivered = 0u64;
            while let Some(done) = pipeline.recv(ch) {
                prop_assert_eq!(done.seq, delivered, "channel {} delivered out of order", idx);
                prop_assert!(done.error.is_none());
                prop_assert_eq!(&done.output, &expected[idx][delivered as usize]);
                prop_assert_eq!(&done.input, &symbol(pipeline.spec(ch).n, idx, delivered));
                delivered += 1;
            }
            prop_assert_eq!(delivered, count as u64, "channel {} lost symbols", idx);
        }

        let (stats, leftover) = pipeline.shutdown();
        prop_assert!(leftover.is_empty());
        prop_assert_eq!(stats.submitted, stats.delivered);
        prop_assert_eq!(stats.rejected, 0, "blocking submit never rejects");
        let pooled: u64 = stats.worker_transforms.iter().sum();
        prop_assert_eq!(pooled, stats.completed);
    }
}

/// Regression: a full bounded queue surfaces `QueueFull` from
/// `try_submit` (returning the payload buffers), and every symbol that
/// *was* accepted before/around the rejections is still completed and
/// delivered in submission order — backpressure sheds new load, never
/// accepted load.
#[test]
fn queue_full_rejects_without_losing_accepted_work() {
    // One worker chewing O(N^2) naive DFTs at N=1024 drains the queue
    // far slower than the submission loop fills it, so capacity 2 is
    // reached deterministically within the first few attempts.
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1).queue_depth(2);
    let ch = builder.channel(ChannelSpec::transform(1024, "dft_naive", Direction::Forward));
    let pipeline = builder.build().unwrap();

    let mut accepted = 0u64;
    let mut rejections = 0u64;
    let mut payload = (symbol(1024, 0, 0), vec![Complex::zero(); 1024]);
    for attempt in 0.. {
        assert!(attempt < 1_000, "queue never filled: {accepted} accepted, 0 rejected");
        assert!(accepted < 64, "worker drained an O(N^2) queue faster than the submit loop");
        match pipeline.try_submit(ch, payload.0, payload.1) {
            Ok(seq) => {
                assert_eq!(seq, accepted, "accepted submissions number densely");
                accepted += 1;
                payload = (symbol(1024, 0, accepted), vec![Complex::zero(); 1024]);
            }
            Err(SubmitError::QueueFull { input, output }) => {
                // The refusal hands the exact buffers back: nothing to
                // re-allocate, nothing lost.
                assert_eq!(input, symbol(1024, 0, accepted));
                assert_eq!(output.len(), 1024);
                rejections += 1;
                payload = (input, output);
                if rejections >= 4 {
                    break;
                }
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert!(accepted >= 2, "capacity-2 queue accepts at least two symbols");

    // Every accepted symbol is delivered, in order, despite the
    // rejections interleaved among them.
    let mut delivered = 0u64;
    while let Some(done) = pipeline.recv(ch) {
        assert_eq!(done.seq, delivered);
        assert!(done.error.is_none());
        delivered += 1;
    }
    assert_eq!(delivered, accepted, "accepted work survives backpressure");

    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(stats.rejected, rejections);
    assert_eq!(stats.submitted, accepted);
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.queue_high_water, 2, "the queue reached its bound");
}
