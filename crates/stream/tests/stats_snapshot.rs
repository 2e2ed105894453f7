//! `StreamPipeline::stats` is one snapshot: every counter and stage
//! histogram in it is read at the same instant, so the symbol ledger
//! balances, and every stage histogram holds exactly the sampled
//! delivered symbols, in every snapshot, even while symbols are moving
//! through every stage and caller runs are finishing symbols beside the
//! pool.

use std::time::Duration;

use afft_core::engine::EngineRegistry;
use afft_core::Direction;
use afft_num::Complex;
use afft_stream::{ChannelSpec, StreamPipeline, StreamStats, SubmitError, SAMPLE_EVERY};

/// Where a snapshot's stage histograms disagree with its counters: each
/// of a channel's four stage counts must be the number of sampled
/// symbols (seq a multiple of `SAMPLE_EVERY`) it has delivered.
fn incoherent_stages(st: &StreamStats) -> Option<String> {
    st.obs.per_channel.iter().zip(&st.per_channel).enumerate().find_map(|(i, (obs, counts))| {
        let want = counts.delivered.div_ceil(SAMPLE_EVERY);
        obs.stages().into_iter().find(|(_, h)| h.count() != want).map(|(stage, h)| {
            format!("channel {i}: delivered {} but {stage}.count() {}", counts.delivered, h.count())
        })
    })
}

#[test]
fn every_stats_snapshot_balances_under_a_submit_recv_storm() {
    const SYMBOLS: usize = 20_000;
    const RUN_ATTEMPTS: usize = 4_000;
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(4).queue_depth(64);
    let spec = || ChannelSpec::transform(64, "radix2_dit", Direction::Forward);
    let chs: Vec<_> = (0..4).map(|_| builder.channel(spec())).collect();
    // Only caller runs use this one, so they are sure to find it idle;
    // on the flooded channels they are mostly refused as Busy.
    let quiet = builder.channel(spec());
    let pipeline = builder.build().unwrap();

    let (snapshots, unbalanced, runs) = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..SYMBOLS {
                let input = vec![Complex::new(i as f64, 0.0); 64];
                pipeline.submit(chs[i % chs.len()], input, vec![Complex::zero(); 64]).unwrap();
            }
        });
        let runner = s.spawn(|| {
            let mut runs = 0u64;
            for i in 0..RUN_ATTEMPTS {
                let ch = if i % 2 == 0 { quiet } else { chs[i / 2 % chs.len()] };
                let input = vec![Complex::new(i as f64, 1.0); 64];
                match pipeline.try_run(ch, input, vec![Complex::zero(); 64]) {
                    Ok(done) => {
                        assert!(done.error.is_none());
                        runs += 1;
                    }
                    Err(SubmitError::Busy { .. }) => {}
                    Err(e) => panic!("caller run refused: {e}"),
                }
            }
            runs
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
        while !receiver.is_finished() || !runner.is_finished() {
            let st = pipeline.stats();
            snapshots += 1;
            unbalanced.extend(incoherent_stages(&st));
            let in_pipeline = (st.in_queue + st.in_flight) as u64;
            let transforms = st.worker_transforms.iter().sum::<u64>() + st.caller_transforms;
            if st.submitted != st.completed + in_pipeline
                || st.delivered > st.completed
                || transforms != st.completed
            {
                unbalanced.push(format!(
                    "submitted {} completed {} in_queue {} in_flight {} delivered {} \
                     worker_transforms {:?} caller_transforms {}",
                    st.submitted,
                    st.completed,
                    st.in_queue,
                    st.in_flight,
                    st.delivered,
                    st.worker_transforms,
                    st.caller_transforms
                ));
            }
        }
        (snapshots, unbalanced, runner.join().unwrap())
    });

    assert!(
        unbalanced.is_empty(),
        "{} of {snapshots} snapshots broke submitted == completed + in_queue + in_flight, \
         delivered <= completed, sum(worker_transforms) + caller_transforms == completed or \
         stage count == delivered.div_ceil(SAMPLE_EVERY); first: {}",
        unbalanced.len(),
        unbalanced[0]
    );
    assert!(runs >= (RUN_ATTEMPTS / 2) as u64, "every run on the quiet channel succeeds");
    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(incoherent_stages(&stats), None);
    let total = SYMBOLS as u64 + runs;
    assert_eq!((stats.submitted, stats.delivered), (total, total));
    assert_eq!(stats.caller_transforms, runs);
}
