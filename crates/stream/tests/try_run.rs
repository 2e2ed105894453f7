//! Caller runs (`StreamPipeline::try_run`): a symbol runs on the
//! calling thread only while its channel has nothing outstanding, takes
//! the channel's next sequence number between pooled symbols, and shows
//! in the same counters and stage histograms as a pooled symbol.

use afft_core::engine::EngineRegistry;
use afft_core::{Direction, FftError};
use afft_num::{Complex, C64};
use afft_planner::take_engine;
use afft_stream::{ChannelSpec, StreamPipeline, SubmitError, SAMPLE_EVERY};

fn tagged(n: usize, tag: f64) -> Vec<C64> {
    (0..n).map(|i| Complex::new(tag, i as f64 / n as f64)).collect()
}

fn zeros(n: usize) -> Vec<C64> {
    vec![Complex::zero(); n]
}

#[test]
fn caller_runs_and_submissions_share_one_channel_sequence() {
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(2);
    let ch = builder.channel(ChannelSpec::transform(64, "radix4_dit", Direction::Forward));
    let pipeline = builder.build().unwrap();
    let mut engine = take_engine(EngineRegistry::standard, 64, "radix4_dit").unwrap();
    let mut direct = |x: &[C64]| {
        let mut out = zeros(64);
        engine.execute_into(x, &mut out, Direction::Forward).unwrap();
        out
    };

    // An idle channel: the symbol runs here and takes seq 0.
    let done = pipeline.try_run(ch, tagged(64, 0.0), zeros(64)).unwrap();
    assert_eq!(done.seq, 0);
    assert!(done.error.is_none());
    assert_eq!(done.output, direct(&tagged(64, 0.0)), "bit-identical to execute_into");
    assert_eq!(done.input, tagged(64, 0.0), "input handed back unchanged");

    // A pooled symbol takes seq 1. Until it is received, a caller run
    // would overtake it, so it is refused with both buffers back.
    assert_eq!(pipeline.submit(ch, tagged(64, 1.0), zeros(64)).unwrap(), 1);
    match pipeline.try_run(ch, tagged(64, 2.0), zeros(64)) {
        Err(SubmitError::Busy { input, output }) => {
            assert_eq!(input, tagged(64, 2.0));
            assert_eq!(output.len(), 64);
        }
        other => panic!("expected Busy while seq 1 is outstanding, got {other:?}"),
    }
    let pooled = pipeline.recv(ch).expect("seq 1 outstanding");
    assert_eq!(pooled.seq, 1);
    assert_eq!(pooled.output, direct(&tagged(64, 1.0)));

    // Idle again: the next caller run takes seq 2.
    let done = pipeline.try_run(ch, tagged(64, 2.0), zeros(64)).unwrap();
    assert_eq!(done.seq, 2);
    assert_eq!(done.output, direct(&tagged(64, 2.0)));

    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!((stats.submitted, stats.completed, stats.delivered), (3, 3, 3));
    assert_eq!(stats.caller_transforms, 2);
    assert_eq!(stats.worker_transforms.iter().sum::<u64>(), 1);
    assert_eq!(stats.rejected, 0, "Busy is not a queue refusal");
}

#[test]
fn caller_runs_refuse_misshaped_payloads_and_a_closed_pipeline() {
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1);
    let ch = builder.channel(ChannelSpec::transform(64, "radix4_dit", Direction::Inverse));
    let pipeline = builder.build().unwrap();

    match pipeline.try_run(ch, zeros(32), zeros(64)) {
        Err(SubmitError::Shape { error, input, output }) => {
            assert_eq!(error, FftError::LengthMismatch { expected: 64, got: 32 });
            assert_eq!((input.len(), output.len()), (32, 64));
        }
        other => panic!("expected Shape, got {other:?}"),
    }
    pipeline.close();
    match pipeline.try_run(ch, tagged(64, 1.0), zeros(64)) {
        Err(SubmitError::Closed { input, output }) => {
            assert_eq!(input, tagged(64, 1.0));
            assert_eq!(output.len(), 64);
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    let (stats, _) = pipeline.shutdown();
    assert_eq!((stats.submitted, stats.caller_transforms), (0, 0));
}

#[test]
fn a_sampled_caller_run_lands_once_in_every_stage_histogram() {
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1);
    let ch = builder.channel(ChannelSpec::transform(64, "radix4_dit", Direction::Forward));
    let pipeline = builder.build().unwrap();
    // Seq 0 is sampled; the caller runs up to seq SAMPLE_EVERY are not.
    for s in 0..SAMPLE_EVERY {
        assert_eq!(pipeline.try_run(ch, tagged(64, s as f64), zeros(64)).unwrap().seq, s);
        for (stage, hist) in pipeline.stats().obs.per_channel[0].stages() {
            assert_eq!(hist.count(), 1, "stage {stage} after seq {s}");
        }
    }
    pipeline.try_run(ch, tagged(64, 1.0), zeros(64)).unwrap();

    let (stats, _) = pipeline.shutdown();
    assert_eq!(stats.caller_transforms, SAMPLE_EVERY + 1);
    for (stage, hist) in stats.obs.per_channel[0].stages() {
        assert_eq!(hist.count(), 2, "stage {stage}");
    }
}
