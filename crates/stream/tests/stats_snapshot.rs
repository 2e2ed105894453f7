//! `StreamPipeline::stats` is one snapshot: every counter in it is read
//! at the same instant, so the symbol ledger balances in every
//! snapshot, even while symbols are moving through every stage.

use std::time::Duration;

use afft_core::engine::EngineRegistry;
use afft_core::Direction;
use afft_num::Complex;
use afft_stream::{ChannelSpec, StreamPipeline};

#[test]
fn every_stats_snapshot_balances_under_a_submit_recv_storm() {
    const SYMBOLS: usize = 20_000;
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(4).queue_depth(64);
    let chs: Vec<_> = (0..4)
        .map(|_| builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward)))
        .collect();
    let pipeline = builder.build().unwrap();

    let (snapshots, unbalanced) = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..SYMBOLS {
                let input = vec![Complex::new(i as f64, 0.0); 64];
                pipeline.submit(chs[i % chs.len()], input, vec![Complex::zero(); 64]).unwrap();
            }
        });
        let receiver = s.spawn(|| {
            let mut out = Vec::new();
            let mut got = 0;
            while got < SYMBOLS {
                got += pipeline.recv_ready(&mut out, Duration::from_secs(10)).unwrap();
                out.clear();
            }
        });
        let (mut snapshots, mut unbalanced) = (0u64, Vec::new());
        while !receiver.is_finished() {
            let st = pipeline.stats();
            snapshots += 1;
            let in_pipeline = (st.in_queue + st.in_flight) as u64;
            if st.submitted != st.completed + in_pipeline || st.delivered > st.completed {
                unbalanced.push(format!(
                    "submitted {} completed {} in_queue {} in_flight {} delivered {}",
                    st.submitted, st.completed, st.in_queue, st.in_flight, st.delivered
                ));
            }
        }
        (snapshots, unbalanced)
    });

    assert!(
        unbalanced.is_empty(),
        "{} of {snapshots} snapshots broke submitted == completed + in_queue + in_flight or \
         delivered <= completed; first: {}",
        unbalanced.len(),
        unbalanced[0]
    );
    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!((stats.submitted, stats.delivered), (SYMBOLS as u64, SYMBOLS as u64));
}
