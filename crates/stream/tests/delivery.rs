//! Regression suite for blocking delivery and poisoning: receivers
//! parked behind a caller run, `recv_ready`'s take-what-is-ready
//! batches, and how a dead worker surfaces — the stream-API contract the
//! network server leans on: its non-blocking calls report a poisoned
//! pipeline as an error, and the blocking ones panic, never hang.

use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// Runs a ~300 ms symbol through `try_run` on another thread, which
/// takes its completion back itself, and once the run is admitted runs
/// `receive` on a third. Fails, rather than hangs, if `receive` has not
/// returned within 5 s.
fn behind_a_caller_run<T: Send>(
    pipeline: &StreamPipeline,
    ch: ChannelId,
    receive: impl FnOnce() -> T + Send,
) -> T {
    let admitted = pipeline.stats().per_channel[0].submitted + 1;
    std::thread::scope(|s| {
        let runner = s.spawn(|| {
            pipeline.try_run(ch, paced_symbol(16, 300.0), vec![Complex::zero(); 16]).unwrap()
        });
        let began = Instant::now();
        while pipeline.stats().per_channel[0].submitted < admitted && !runner.is_finished() {
            assert!(began.elapsed() < Duration::from_secs(10), "the caller run never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let receiver = s.spawn(receive);
        let began = Instant::now();
        while !receiver.is_finished() && began.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let woke = receiver.is_finished();
        if !woke {
            // Closing notifies every parked receiver, so the scope can
            // join the stranded one before the test fails.
            pipeline.close();
        }
        let got = receiver.join().unwrap();
        assert!(woke, "the receive was not woken within 5 s");
        assert!(runner.join().unwrap().error.is_none());
        got
    })
}

#[test]
fn receives_parked_behind_a_caller_run_wake_when_it_hands_its_symbol_back() {
    let mut builder = StreamPipeline::builder(paced_registry).workers(1).queue_depth(4);
    let ch = builder.channel(ChannelSpec::transform(16, "paced", Direction::Forward));
    let pipeline = builder.build().unwrap();

    // A pooled symbol finished behind the run becomes the channel's
    // deliverable head once the run hands its own symbol back.
    let got = behind_a_caller_run(&pipeline, ch, || {
        pipeline.submit(ch, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap();
        pipeline.recv(ch)
    });
    assert_eq!(got.expect("the pooled symbol").seq, 1);

    // With nothing behind it, handing the run's symbol back drains the
    // channel.
    assert!(behind_a_caller_run(&pipeline, ch, || pipeline.recv(ch)).is_none());

    // On a closed pipeline that drains every channel, which ends a wait
    // on all of them.
    let got = behind_a_caller_run(&pipeline, ch, || {
        pipeline.close();
        pipeline.recv_ready(&mut Vec::new(), Duration::from_secs(10))
    });
    assert_eq!(got.unwrap(), 0);
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

    // One good symbol completes and is delivered...
    pipeline.submit(ch, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap();
    assert_eq!(pipeline.recv(ch).expect("good symbol").seq, 0);

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
    // must still be delivered before Poisoned is reported, and
    // Poisoned comes back at once — not Timeout, and not a hang.
    pipeline.submit(ch, paced_symbol(16, -1.0), vec![Complex::zero(); 16]).unwrap();
    let mut out = Vec::new();
    assert_eq!(pipeline.recv_ready(&mut out, Duration::from_secs(10)), Ok(1));
    assert_eq!(out[0].seq, 1, "parked completion survives");
    let began = Instant::now();
    assert_eq!(pipeline.recv_ready(&mut out, Duration::from_secs(10)), Err(RecvError::Poisoned));
    assert!(began.elapsed() < Duration::from_secs(5), "reported, not waited out");
    assert!(pipeline.is_poisoned());

    // Both non-blocking submission forms refuse with Poisoned and hand
    // the payload buffers back.
    let err =
        pipeline.try_submit(ch, paced_symbol(16, 0.0), vec![Complex::zero(); 16]).unwrap_err();
    assert!(matches!(err, SubmitError::Poisoned { .. }), "try_submit: {err}");
    let (input, output) = err.into_buffers();
    assert_eq!((input.len(), output.len()), (16, 16));

    let err = pipeline.try_run(ch, input, output).unwrap_err();
    assert!(matches!(err, SubmitError::Poisoned { .. }), "try_run: {err}");
    let (input, output) = err.into_buffers();
    assert_eq!((input.len(), output.len()), (16, 16));

    // The blocking forms fail loudly instead of waiting forever.
    let submitted = catch_unwind(AssertUnwindSafe(|| pipeline.submit(ch, input, output)));
    assert!(submitted.is_err(), "submit must panic on a poisoned pipeline");
    let received = catch_unwind(AssertUnwindSafe(|| pipeline.recv(ch)));
    assert!(received.is_err(), "recv must panic on a poisoned pipeline");

    // Drop (not shutdown): shutdown would panic on the dead worker's
    // join, which is exactly what a graceful owner avoids via
    // is_poisoned().
    drop(pipeline);
}
