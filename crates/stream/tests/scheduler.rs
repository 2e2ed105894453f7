//! The scheduler's load-bearing fairness property, tested from outside
//! the crate through the per-channel and per-worker counters on
//! [`StreamStats`](afft_stream::StreamStats): one channel flooding the
//! queue with slow transforms cannot idle the pool. Every free worker
//! takes the queue head, so the flood is shared across workers, and a
//! probe symbol on another channel still returns while the flood is
//! outstanding.

use afft_core::engine::EngineRegistry;
use afft_core::Direction;
use afft_num::{Complex, C64};
use afft_stream::{ChannelSpec, StreamPipeline};

fn tagged(n: usize, tag: f64) -> Vec<C64> {
    (0..n).map(|i| Complex::new(tag, i as f64 / n as f64)).collect()
}

#[test]
fn flooded_channel_is_shared_by_the_pool_while_others_progress() {
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(4).queue_depth(64);
    // The flood: a deliberately slow O(n²) engine, so a backlog forms.
    let flood = builder.channel(ChannelSpec::transform(1024, "dft_naive", Direction::Forward));
    // The probe: a fast channel submitted behind the whole flood.
    let probe = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
    let pipeline = builder.build().unwrap();

    const FLOOD_SYMBOLS: u64 = 96;
    for s in 0..FLOOD_SYMBOLS {
        pipeline.submit(flood, tagged(1024, s as f64), vec![Complex::zero(); 1024]).unwrap();
    }
    pipeline.submit(probe, tagged(64, 0.5), vec![Complex::zero(); 64]).unwrap();

    // The probe completes while the flood is still being worked off:
    // once every flood symbol ahead of it is claimed, the next free
    // worker takes it, while the others are still mid-flood.
    let done = pipeline.recv(probe).expect("probe symbol outstanding");
    assert!(done.error.is_none());
    let flood_done = pipeline.stats().per_channel[flood.index()].completed;
    assert!(
        flood_done < FLOOD_SYMBOLS,
        "96 slow symbols cannot all finish before one fast probe returns ({flood_done} did)"
    );

    while pipeline.recv(flood).is_some() {}
    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(stats.completed, FLOOD_SYMBOLS + 1);
    assert_eq!(
        stats.worker_transforms.iter().sum::<u64>(),
        stats.completed,
        "every completed symbol was transformed by exactly one worker"
    );
    // More than one transform means at least one flood symbol, whichever
    // worker ran the probe.
    let active = stats.worker_transforms.iter().filter(|&&t| t > 1).count();
    assert!(active >= 2, "the flood must be spread over the pool: {stats}");
}
