//! Regression suite for deadline-bounded delivery (`recv_timeout`) and
//! the non-panicking poisoned-pipeline paths (`recv_checked` /
//! `submit_checked` / `SubmitError::Poisoned`) — the stream-API
//! contract the network server leans on: a handler must be able to time
//! out a stalled channel and degrade per-connection when a worker dies,
//! never unwind or hang.

use std::time::{Duration, Instant};

use afft_core::engine::{Cost, EngineRegistry, EngineSpec, FftEngine};
use afft_core::{Direction, FftError};
use afft_num::{Complex, C64};
use afft_stream::{ChannelId, ChannelSpec, RecvError, StreamPipeline, SubmitError};

/// A backend whose latency the *payload* controls: each symbol sleeps
/// for `input[0].re` milliseconds before completing, and a negative
/// `input[0].re` panics the worker. Payload-driven (like the pipeline's
/// own `FragileEngine` tests) because `RegistryFactory` is a fn pointer
/// — no closures, so the test steers the engine through its inputs.
struct PacedEngine {
    n: usize,
}

impl FftEngine for PacedEngine {
    fn name(&self) -> &str {
        "paced"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        _dir: Direction,
    ) -> Result<(), FftError> {
        let millis = input[0].re;
        assert!(millis >= 0.0, "paced engine told to explode");
        if millis > 0.0 {
            std::thread::sleep(Duration::from_millis(millis as u64));
        }
        for (slot, x) in output.iter_mut().zip(input) {
            *slot = *x;
        }
        Ok(())
    }

    fn traffic(&self) -> Option<afft_core::cached::MemTraffic> {
        None
    }
}

fn paced_registry(n: usize) -> Result<EngineRegistry, FftError> {
    Ok(EngineRegistry::new(n).with(EngineSpec {
        name: "paced",
        supports: |_| true,
        build: |n| Ok(Box::new(PacedEngine { n })),
        cost: |_| Cost::Host(0.0, None),
    }))
}

fn paced_symbol(n: usize, millis: f64) -> Vec<C64> {
    let mut v = vec![Complex::zero(); n];
    v[0] = Complex::new(millis, 0.0);
    v
}

#[test]
fn recv_timeout_wakes_on_completion_before_the_deadline() {
    let mut builder = StreamPipeline::builder(paced_registry).workers(1).queue_depth(4);
    let ch = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let pipeline = builder.build().unwrap();

    // The symbol takes ~100 ms; the deadline is 10 s. A correct wait
    // parks and wakes on the completion notification, so the call
    // returns far before the deadline.
    pipeline.submit(ch, paced_symbol(16, 100.0), vec![Complex::zero(); 16]).unwrap();
    let began = Instant::now();
    let got = pipeline.recv_timeout(ch, Duration::from_secs(10)).unwrap();
    assert_eq!(got.expect("one symbol outstanding").seq, 0);
    assert!(began.elapsed() < Duration::from_secs(5), "woke on completion, not the deadline");
}

#[test]
fn recv_timeout_times_out_on_a_stalled_channel_without_losing_the_symbol() {
    let mut builder = StreamPipeline::builder(paced_registry).workers(1).queue_depth(4);
    let ch = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let pipeline = builder.build().unwrap();

    // ~700 ms of transform vs a 20 ms deadline: the receive must come
    // back with Timeout while the symbol is still in flight...
    pipeline.submit(ch, paced_symbol(16, 700.0), vec![Complex::zero(); 16]).unwrap();
    let err = pipeline.recv_timeout(ch, Duration::from_millis(20)).unwrap_err();
    assert_eq!(err, RecvError::Timeout);
    assert_eq!(pipeline.outstanding(ch), 1, "a timeout sheds the wait, not the work");

    // ...and a later (unbounded) checked receive still collects it.
    let got = pipeline.recv_checked(ch).unwrap().expect("symbol survived the timeout");
    assert_eq!(got.seq, 0);
    assert!(got.error.is_none());

    // Drained channel: both forms report None rather than waiting.
    assert!(pipeline.recv_timeout(ch, Duration::from_millis(20)).unwrap().is_none());
    assert!(pipeline.recv_checked(ch).unwrap().is_none());
}

#[test]
fn recv_timeout_returns_none_immediately_on_a_drained_channel() {
    let mut builder = StreamPipeline::builder(paced_registry).workers(1).queue_depth(4);
    let ch = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let pipeline = builder.build().unwrap();

    // Nothing outstanding: "drained" beats "deadline", immediately.
    let began = Instant::now();
    assert!(pipeline.recv_timeout(ch, Duration::from_secs(10)).unwrap().is_none());
    assert!(began.elapsed() < Duration::from_secs(5));
}

/// Runs a ~300 ms symbol through `try_run` on another thread, which
/// takes its completion back itself, and once the run is admitted times
/// `receive` on this thread.
fn behind_a_caller_run<T>(
    pipeline: &StreamPipeline,
    ch: ChannelId,
    receive: impl FnOnce() -> T,
) -> (T, Duration) {
    std::thread::scope(|s| {
        let runner = s.spawn(|| {
            pipeline.try_run(ch, paced_symbol(16, 300.0), vec![Complex::zero(); 16]).unwrap()
        });
        let began = Instant::now();
        while pipeline.outstanding(ch) == 0 && !runner.is_finished() {
            assert!(began.elapsed() < Duration::from_secs(10), "the caller run never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let began = Instant::now();
        let got = receive();
        let took = began.elapsed();
        assert!(runner.join().unwrap().error.is_none());
        (got, took)
    })
}

#[test]
fn receives_parked_behind_a_caller_run_wake_when_it_hands_its_symbol_back() {
    let mut builder = StreamPipeline::builder(paced_registry).workers(1).queue_depth(4);
    let ch = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let pipeline = builder.build().unwrap();
    let deadline = Duration::from_secs(10);

    // A pooled symbol finished behind the run becomes the channel's
    // deliverable head once the run hands its own symbol back.
    let (got, took) = behind_a_caller_run(&pipeline, ch, || {
        pipeline.submit(ch, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap();
        pipeline.recv_timeout(ch, deadline)
    });
    assert_eq!(got.unwrap().expect("the pooled symbol").seq, 1);
    assert!(took < Duration::from_secs(5), "woke on the new head, not the deadline");

    // With nothing behind it, handing the run's symbol back drains the
    // channel.
    let (got, took) = behind_a_caller_run(&pipeline, ch, || pipeline.recv_timeout(ch, deadline));
    assert!(got.unwrap().is_none());
    assert!(took < Duration::from_secs(5), "woke on the drain, not the deadline");

    // On a closed pipeline that drains every channel, which ends a wait
    // on all of them.
    let (got, took) = behind_a_caller_run(&pipeline, ch, || {
        pipeline.close();
        pipeline.recv_ready(&mut Vec::new(), deadline)
    });
    assert_eq!(got.unwrap(), 0);
    assert!(took < Duration::from_secs(5), "woke on the drain, not the deadline");
}

#[test]
fn recv_ready_returns_what_is_ready_without_waiting_to_fill_a_batch() {
    let mut builder = StreamPipeline::builder(paced_registry).workers(2).queue_depth(4);
    let slow = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let fast = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let pipeline = builder.build().unwrap();
    // Two workers take one symbol each, so the fast symbol finishes
    // ~1.5 s before the slow one; a one-worker pool would serialize them.
    pipeline.submit(slow, paced_symbol(16, 1500.0), vec![Complex::zero(); 16]).unwrap();
    pipeline.submit(fast, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap();

    let mut out = Vec::new();
    let began = Instant::now();
    assert_eq!(pipeline.recv_ready(&mut out, Duration::from_secs(10)).unwrap(), 1);
    assert_eq!(out[0].channel, fast);
    assert!(began.elapsed() < Duration::from_secs(1), "returned with the first completion");
    assert_eq!(pipeline.recv_ready(&mut out, Duration::from_secs(10)).unwrap(), 1);
    assert_eq!(out[1].channel, slow);
}

#[test]
fn checked_calls_surface_poisoning_as_errors_not_panics() {
    let mut builder = StreamPipeline::builder(paced_registry).workers(1).queue_depth(8);
    let ch = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let pipeline = builder.build().unwrap();

    // One good symbol completes and parks...
    pipeline.submit(ch, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap();
    let got = pipeline.recv_checked(ch).unwrap().expect("good symbol");
    assert_eq!(got.seq, 0);

    // ...then another good symbol parks (poll stats until it counts as
    // completed, so the symbol is durably parked in the reorder ring
    // before a following poison symbol takes the worker down)...
    pipeline.submit(ch, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap();
    let began = Instant::now();
    while pipeline.stats().per_channel[0].completed < 2 {
        assert!(began.elapsed() < Duration::from_secs(10), "symbol 1 never completed");
        std::thread::sleep(Duration::from_millis(1));
    }

    // ...and a poison symbol kills the worker. The parked completion
    // must still be delivered before Poisoned is reported.
    pipeline.submit(ch, paced_symbol(16, -1.0), vec![Complex::zero(); 16]).unwrap();
    let parked = pipeline.recv_checked(ch).unwrap().expect("parked completion survives");
    assert_eq!(parked.seq, 1);
    assert_eq!(pipeline.recv_checked(ch).unwrap_err(), RecvError::Poisoned);
    assert!(pipeline.is_poisoned());
    assert!(pipeline.is_closed(), "a worker panic also closes the intake");

    // recv_timeout reports Poisoned too — not Timeout, and not a hang.
    assert_eq!(
        pipeline.recv_timeout(ch, Duration::from_secs(10)).unwrap_err(),
        RecvError::Poisoned
    );

    // Both checked submission forms refuse with Poisoned and hand the
    // payload buffers back.
    let err =
        pipeline.submit_checked(ch, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap_err();
    assert!(matches!(err, SubmitError::Poisoned { .. }), "submit_checked: {err}");
    let (input, output) = err.into_buffers();
    assert_eq!((input.len(), output.len()), (16, 16));

    let err = pipeline.try_submit(ch, input, output).unwrap_err();
    assert!(matches!(err, SubmitError::Poisoned { .. }), "try_submit: {err}");
    let (input, output) = err.into_buffers();
    assert_eq!((input.len(), output.len()), (16, 16));

    // Drop (not shutdown): shutdown would panic on the dead worker's
    // join, which is exactly what a graceful owner avoids via
    // is_poisoned().
    drop(pipeline);
}
