//! The streaming pipeline: channels, the scheduler, the long-lived
//! worker pool, and strict per-channel in-order completion delivery.
//!
//! # One queue, one lock
//!
//! The scheduler is a single monitor. One mutex guards all of its
//! state: the bounded FIFO of accepted-but-unclaimed symbols, every
//! channel's sequence counter and reorder ring, the counters
//! [`StreamPipeline::stats`] reports, and the closed/poisoned flags.
//! Three condvars hang off it — workers wait on `work`, blocked
//! submitters on `space`, blocked receivers on `done` — and each is
//! notified only after the guard is dropped, and only when the state
//! records a waiter.
//!
//! Any worker runs any channel's symbol: a worker pops the oldest
//! queued job, transforms it without the lock, then parks the
//! completion in its channel's ring and pops its next job in one
//! critical section. A symbol therefore costs one lock acquisition on
//! each of its three sides (submit, worker, receive), and one flooded
//! channel cannot idle the pool, since a free worker always takes the
//! queue head. Backpressure is the queue bound,
//! [`queue_depth`](StreamBuilder::queue_depth):
//! [`try_submit`](StreamPipeline::try_submit) refuses with
//! [`SubmitError::QueueFull`] when the queue is full,
//! [`submit`](StreamPipeline::submit) blocks until workers have drained
//! it to half capacity.
//!
//! # Stage histograms under the same lock
//!
//! Each channel's four stage histograms ([`ChannelObs`]) live in its
//! reorder ring, under the state mutex. One symbol in [`SAMPLE_EVERY`]
//! per channel, by sequence number, is sampled: admission, the
//! transform's start and its end each read the clock for it, and the
//! symbol carries those stamps to its ring. The in-order pop that hands
//! it to a receiver reads the clock once more and records all four
//! spans in the receiver's critical section, so no worker critical
//! section does metrics work and unsampled symbols read no clock at
//! all. [`stats`](StreamPipeline::stats) copies the counters and the
//! histograms in one critical section, so every snapshot has, for every
//! channel and stage, `count == delivered.div_ceil(SAMPLE_EVERY)`.
//!
//! # Caller runs
//!
//! [`try_run`](StreamPipeline::try_run) runs a symbol on the calling
//! thread instead of a worker, and only when its channel has nothing
//! outstanding; otherwise it refuses with [`SubmitError::Busy`]. The
//! symbol is then its channel's head, so it takes the channel's next
//! sequence number and goes through the same admission, transform and
//! completion code as a pooled symbol without reordering anything: it
//! is parked and handed back in one critical section. A caller with one
//! symbol in hand, such as a connection handler answering a lone frame,
//! skips two thread handoffs this way.
//!
//! Engines are **never** shared between threads at once: each worker
//! constructs its own backend per channel from the registry factory
//! ([`take_engine`](afft_planner::take_engine)), and the pipeline keeps
//! one more per channel, the *caller front*, behind a mutex for caller
//! runs. Only one caller run per channel can be admitted at a time, so
//! that mutex never contends; it exists because the engine moves
//! between the threads that call `try_run` (hence
//! [`FftEngine`](afft_core::engine::FftEngine)`: Send`). Every front
//! warms its scratch once at build, so steady-state traffic does zero
//! heap work per symbol.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use afft_core::{Direction, FftError};
use afft_num::C64;
use afft_obs::ns_between;
use afft_planner::{Plan, RegistryFactory};

use crate::stats::{ChannelObs, ChannelStats, StreamObs, StreamStats};
use crate::worker::{worker_loop, Front};

/// What a channel does to each submitted payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelOp {
    /// The raw transform:
    /// [`execute_into`](afft_core::engine::FftEngine::execute_into) in
    /// the given direction. Input and output are both `N` points.
    Transform(Direction),
    /// OFDM modulation
    /// ([`Ofdm::modulate_into`](afft_core::ofdm::Ofdm::modulate_into)):
    /// `N` subcarriers in, `N + cp` time-domain samples out (IFFT,
    /// `1/N` normalised, cyclic prefix prepended).
    Modulate {
        /// Cyclic-prefix length in samples (must be `< N`).
        cp: usize,
    },
    /// OFDM demodulation
    /// ([`Ofdm::demodulate_into`](afft_core::ofdm::Ofdm::demodulate_into)):
    /// `N + cp` received samples in, `N` subcarrier bins out (prefix
    /// stripped, forward FFT).
    Demodulate {
        /// Cyclic-prefix length in samples (must be `< N`).
        cp: usize,
    },
}

/// One streaming channel: a planned `(n, engine, operation)` triple.
///
/// Channels are registered on the [`StreamBuilder`]; every worker builds
/// a private backend (and, for the OFDM ops, a private
/// [`Ofdm`](afft_core::ofdm::Ofdm) front-end) per channel, so any worker
/// can run any channel's next symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Transform size (number of subcarriers for the OFDM ops).
    pub n: usize,
    /// Engine name to take from the registry
    /// ([`FftEngine::name`](afft_core::engine::FftEngine::name)).
    pub engine: String,
    /// What each submitted payload goes through.
    pub op: ChannelOp,
}

impl ChannelSpec {
    /// A raw-transform channel on a named engine.
    pub fn transform(n: usize, engine: &str, dir: Direction) -> Self {
        ChannelSpec { n, engine: engine.to_string(), op: ChannelOp::Transform(dir) }
    }

    /// A channel on the winner of a ranked [`Plan`] — how wisdom reaches
    /// the streaming layer.
    pub fn from_plan(plan: &Plan, op: ChannelOp) -> Self {
        ChannelSpec { n: plan.n, engine: plan.best().name.clone(), op }
    }

    /// Required payload (input buffer) length for this channel.
    pub fn input_len(&self) -> usize {
        match self.op {
            ChannelOp::Transform(_) | ChannelOp::Modulate { .. } => self.n,
            ChannelOp::Demodulate { cp } => self.n + cp,
        }
    }

    /// Required result (output buffer) length for this channel.
    pub fn output_len(&self) -> usize {
        match self.op {
            ChannelOp::Transform(_) | ChannelOp::Demodulate { .. } => self.n,
            ChannelOp::Modulate { cp } => self.n + cp,
        }
    }
}

/// Distinguishes pipelines so a [`ChannelId`] can prove which one it
/// belongs to — an id from pipeline A used on pipeline B must fail
/// loudly, not silently address B's same-index channel.
static NEXT_PIPELINE_STAMP: AtomicU64 = AtomicU64::new(0);

/// Opaque handle to a channel registered on a [`StreamBuilder`].
///
/// The handle remembers which pipeline it was issued by; using it on
/// any other pipeline panics instead of silently selecting whatever
/// channel shares its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId {
    pub(crate) stamp: u64,
    pub(crate) index: usize,
}

impl ChannelId {
    /// The channel's index in registration order (stable for the
    /// pipeline's lifetime; also the index into
    /// [`StreamStats::per_channel`]).
    pub fn index(self) -> usize {
        self.index
    }
}

/// One finished symbol, delivered in per-channel submission order.
///
/// Both payload buffers come back to the caller, so a steady-state loop
/// recycles them into the next [`StreamPipeline::submit`] and allocates
/// nothing per symbol.
#[derive(Debug)]
pub struct Completion {
    /// The channel the symbol was submitted on.
    pub channel: ChannelId,
    /// The sequence number [`StreamPipeline::submit`] returned.
    pub seq: u64,
    /// The submitted input buffer, unchanged.
    pub input: Vec<C64>,
    /// The result buffer. On error its contents are unspecified.
    pub output: Vec<C64>,
    /// The backend error, if the transform failed. Errors are delivered
    /// in order like successes — a failed symbol never reorders the
    /// stream.
    pub error: Option<FftError>,
}

/// Why a submission was refused. Every variant hands the payload
/// buffers back — refusing a symbol never costs the caller its
/// allocations.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded submission queue is at capacity (only
    /// [`StreamPipeline::try_submit`] returns this; `submit` blocks
    /// instead).
    QueueFull {
        /// The refused input buffer, returned to the caller.
        input: Vec<C64>,
        /// The refused output buffer, returned to the caller.
        output: Vec<C64>,
    },
    /// The pipeline no longer accepts work
    /// ([`StreamPipeline::close`] / [`StreamPipeline::shutdown`]).
    Closed {
        /// The refused input buffer, returned to the caller.
        input: Vec<C64>,
        /// The refused output buffer, returned to the caller.
        output: Vec<C64>,
    },
    /// A buffer does not match the channel's shape
    /// ([`ChannelSpec::input_len`] / [`ChannelSpec::output_len`]).
    Shape {
        /// The underlying length mismatch.
        error: FftError,
        /// The refused input buffer, returned to the caller.
        input: Vec<C64>,
        /// The refused output buffer, returned to the caller.
        output: Vec<C64>,
    },
    /// A backend panicked and poisoned the pipeline; it will never
    /// accept or finish work again. Only the non-blocking forms
    /// ([`StreamPipeline::try_submit`] / [`StreamPipeline::try_run`])
    /// return this; [`StreamPipeline::submit`] panics instead.
    Poisoned {
        /// The refused input buffer, returned to the caller.
        input: Vec<C64>,
        /// The refused output buffer, returned to the caller.
        output: Vec<C64>,
    },
    /// The channel has symbols outstanding (queued, in flight, or
    /// parked undelivered), so the symbol cannot run on the calling
    /// thread without overtaking them. Only
    /// [`StreamPipeline::try_run`] returns this; submit the symbol
    /// instead.
    Busy {
        /// The refused input buffer, returned to the caller.
        input: Vec<C64>,
        /// The refused output buffer, returned to the caller.
        output: Vec<C64>,
    },
}

impl SubmitError {
    /// Recovers the payload buffers from any refusal, `(input, output)`.
    pub fn into_buffers(self) -> (Vec<C64>, Vec<C64>) {
        match self {
            SubmitError::QueueFull { input, output }
            | SubmitError::Closed { input, output }
            | SubmitError::Shape { input, output, .. }
            | SubmitError::Poisoned { input, output }
            | SubmitError::Busy { input, output } => (input, output),
        }
    }
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::QueueFull { .. } => write!(f, "submission queue is full"),
            SubmitError::Closed { .. } => write!(f, "pipeline is closed to new submissions"),
            SubmitError::Shape { error, .. } => write!(f, "payload rejected: {error}"),
            SubmitError::Poisoned { .. } => {
                write!(f, "a stream backend panicked; the pipeline is poisoned")
            }
            SubmitError::Busy { .. } => write!(f, "the channel has symbols outstanding"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`StreamPipeline::recv_ready`] returned without a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The timeout elapsed with nothing deliverable. No symbol is lost:
    /// outstanding ones stay queued or in flight, and a later receive
    /// can still collect them.
    Timeout,
    /// A backend panicked and poisoned the pipeline. The symbol it was
    /// running is lost; waiting for it would hang forever. Completions
    /// that were already parked are still delivered before this is
    /// returned.
    Poisoned,
}

impl core::fmt::Display for RecvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "timed out waiting for a completion"),
            RecvError::Poisoned => {
                write!(f, "a stream backend panicked; the pipeline is poisoned")
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// Configures and spawns a [`StreamPipeline`]. Obtained from
/// [`StreamPipeline::builder`].
#[derive(Debug)]
pub struct StreamBuilder {
    factory: RegistryFactory,
    specs: Vec<ChannelSpec>,
    workers: usize,
    queue_depth: usize,
    stamp: u64,
}

/// Stage-timing sample rate: symbols whose per-channel sequence number
/// is a multiple of 8 get clock stamps and land in the stage
/// histograms. At sub-microsecond symbol costs the clock reads are the
/// dominant metrics cost (four ~30 ns reads per symbol would be ~10% of
/// a 256-point transform), so timing every symbol is priced out;
/// 1-in-8 keeps thousands of samples per second at streaming rates.
pub const SAMPLE_EVERY: u64 = 8;

impl StreamBuilder {
    /// Sets the worker-pool size (clamped to at least 1; default 4).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the submission queue's bound (clamped to at least 1;
    /// default 64): how many accepted symbols may wait for a worker. A
    /// full queue is the backpressure signal:
    /// [`StreamPipeline::try_submit`] refuses,
    /// [`StreamPipeline::submit`] blocks.
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Registers a channel and returns its handle.
    pub fn channel(&mut self, spec: ChannelSpec) -> ChannelId {
        self.specs.push(spec);
        ChannelId { stamp: self.stamp, index: self.specs.len() - 1 }
    }

    /// Validates every channel (engine present in the factory's
    /// registry, supported size, cyclic prefix shorter than the symbol)
    /// by building and warming its caller front, then spawns the worker
    /// pool. Each worker builds its private engines and warms their
    /// scratch before serving traffic.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidDecomposition`] for a pipeline with no
    /// channels, [`FftError::Backend`] for an engine name the registry
    /// does not offer, and any construction or warmup error the
    /// backends report.
    pub fn build(self) -> Result<StreamPipeline, FftError> {
        if self.specs.is_empty() {
            return Err(FftError::InvalidDecomposition {
                reason: "a stream pipeline needs at least one channel".into(),
            });
        }
        // Fail on the builder thread, not inside a worker: the caller
        // fronts are built and warmed here.
        let fronts = self
            .specs
            .iter()
            .map(|spec| Front::warmed(spec, self.factory).map(Mutex::new))
            .collect::<Result<Vec<_>, _>>()?;

        let workers = self.workers;
        let specs = Arc::new(self.specs);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(self.queue_depth),
                rings: specs.iter().map(|_| ChanRing::default()).collect(),
                in_flight: 0,
                high_water: 0,
                rejected: 0,
                worker_transforms: vec![0; workers],
                caller_transforms: 0,
                idle_workers: 0,
                space_waiters: 0,
                recv_waiters: 0,
                closed: false,
                poisoned: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            done: Condvar::new(),
            depth: self.queue_depth,
            epoch: Instant::now(),
        });

        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let shared = Arc::clone(&shared);
            let specs = Arc::clone(&specs);
            let factory = self.factory;
            handles.push(std::thread::spawn(move || worker_loop(idx, &shared, &specs, factory)));
        }

        Ok(StreamPipeline {
            shared,
            specs,
            fronts,
            handles,
            stamp: self.stamp,
            started: Instant::now(),
        })
    }
}

/// The persistent streaming executor. See the [crate docs](crate) for
/// the lifecycle and a worked example.
#[derive(Debug)]
pub struct StreamPipeline {
    shared: Arc<Shared>,
    specs: Arc<Vec<ChannelSpec>>,
    /// One caller front per channel, for [`StreamPipeline::try_run`].
    fronts: Vec<Mutex<Front>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    stamp: u64,
    started: Instant,
}

impl StreamPipeline {
    /// Starts configuring a pipeline over a registry factory
    /// ([`EngineRegistry::standard`](afft_core::engine::EngineRegistry::standard)
    /// for the software backends, `registry_with_asip` to let the
    /// cycle-accurate ISS serve channels).
    pub fn builder(factory: RegistryFactory) -> StreamBuilder {
        StreamBuilder {
            factory,
            specs: Vec::new(),
            workers: 4,
            queue_depth: 64,
            stamp: NEXT_PIPELINE_STAMP.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The spec a channel was registered with.
    ///
    /// # Panics
    ///
    /// Panics if `channel` did not come from this pipeline's builder.
    pub fn spec(&self, channel: ChannelId) -> &ChannelSpec {
        &self.specs[self.chan(channel)]
    }

    /// Resolves a [`ChannelId`] to its index, enforcing provenance: an
    /// id minted by a different pipeline must fail loudly even when its
    /// index happens to be in range here.
    fn chan(&self, channel: ChannelId) -> usize {
        assert_eq!(channel.stamp, self.stamp, "ChannelId was issued by a different StreamPipeline");
        channel.index
    }

    /// Number of registered channels.
    pub fn channel_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of pool workers.
    pub fn worker_count(&self) -> usize {
        self.handles.len().max(1)
    }

    /// Capacity of the bounded submission queue.
    pub fn queue_capacity(&self) -> usize {
        self.shared.depth
    }

    /// Non-blocking submission: enqueues the payload or refuses with
    /// [`SubmitError::QueueFull`] — the backpressure signal for callers
    /// that would rather shed or buffer load than stall. Refusal hands
    /// both buffers back and loses no previously accepted work.
    ///
    /// Returns the symbol's per-channel sequence number; its
    /// [`Completion`] is delivered in exactly this order.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`], [`SubmitError::Closed`],
    /// [`SubmitError::Shape`], or [`SubmitError::Poisoned`] — all
    /// returning the payload buffers.
    ///
    /// # Panics
    ///
    /// Panics if `channel` did not come from this pipeline's builder.
    pub fn try_submit(
        &self,
        channel: ChannelId,
        input: Vec<C64>,
        output: Vec<C64>,
    ) -> Result<u64, SubmitError> {
        self.enqueue(channel, input, output, Admit::Try)
    }

    /// Blocking submission: waits for queue space instead of refusing.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (also while waiting, if the pipeline
    /// closes under the caller) or [`SubmitError::Shape`] — both
    /// returning the payload buffers. Never [`SubmitError::QueueFull`].
    ///
    /// # Panics
    ///
    /// Panics if `channel` did not come from this pipeline's builder,
    /// or if a pipeline worker has panicked (the pipeline is dead; a
    /// blocked submitter must fail, not wait forever).
    pub fn submit(
        &self,
        channel: ChannelId,
        input: Vec<C64>,
        output: Vec<C64>,
    ) -> Result<u64, SubmitError> {
        match self.enqueue(channel, input, output, Admit::Block) {
            Err(SubmitError::Poisoned { .. }) => {
                panic!("a stream backend panicked; the pipeline is dead")
            }
            other => other,
        }
    }

    /// Queues an admitted symbol for the pool, so queue order always
    /// matches seq order.
    fn enqueue(
        &self,
        channel: ChannelId,
        input: Vec<C64>,
        output: Vec<C64>,
        mode: Admit,
    ) -> Result<u64, SubmitError> {
        let (mut st, job) = self.admit(channel, input, output, mode)?;
        let seq = job.seq;
        st.queue.push_back(job);
        st.high_water = st.high_water.max(st.queue.len());
        let wake_worker = st.idle_workers > 0;
        drop(st);
        if wake_worker {
            self.shared.work.notify_one();
        }
        Ok(seq)
    }

    /// The one admission path behind every submission form: validates
    /// the payload, then — under the state lock — refuses a poisoned or
    /// closed pipeline, applies `mode`'s rule (queue space for the pool,
    /// an idle channel for a caller run), and assigns the channel's next
    /// sequence number and, to one symbol in [`SAMPLE_EVERY`], an
    /// admission stamp. Returns the lock still held, so the caller
    /// places the job before anyone else is admitted.
    fn admit(
        &self,
        channel: ChannelId,
        input: Vec<C64>,
        output: Vec<C64>,
        mode: Admit,
    ) -> Result<(MutexGuard<'_, State>, Job), SubmitError> {
        if let Err(error) = self.validate(channel, &input, &output) {
            return Err(SubmitError::Shape { error, input, output });
        }
        let shared = &*self.shared;
        let mut st = shared.lock();
        loop {
            // Poisoning is checked before closed: a backend panic also
            // closes the intake, and "the pipeline is dead" is the truer
            // refusal.
            if st.poisoned {
                return Err(SubmitError::Poisoned { input, output });
            }
            if st.closed {
                return Err(SubmitError::Closed { input, output });
            }
            match mode {
                Admit::Run if st.rings[channel.index].drained() => break,
                Admit::Run => return Err(SubmitError::Busy { input, output }),
                _ if st.queue.len() < shared.depth => break,
                Admit::Try => {
                    st.rejected += 1;
                    return Err(SubmitError::QueueFull { input, output });
                }
                Admit::Block => {
                    st.space_waiters += 1;
                    st = shared.space.wait(st).expect(STATE_POISONED);
                    st.space_waiters -= 1;
                }
            }
        }
        let ring = &mut st.rings[channel.index];
        let seq = ring.submitted;
        ring.submitted += 1;
        let sampled = seq.is_multiple_of(SAMPLE_EVERY);
        let submitted_at = if sampled { Instant::now() } else { shared.epoch };
        Ok((st, Job { channel, seq, input, output, submitted_at, sampled }))
    }

    /// Runs the symbol on the calling thread, if its channel has nothing
    /// outstanding, and returns its completion: the pool's admission,
    /// transform and completion path, minus the two thread handoffs to
    /// and from a worker. The symbol takes the channel's next sequence
    /// number and shows in [`stats`](StreamPipeline::stats) and the stage
    /// histograms like any other, counted under
    /// [`StreamStats::caller_transforms`].
    ///
    /// Only one caller run per channel is admitted at a time, and a
    /// backend error comes back in [`Completion::error`] as from the
    /// pool. A backend *panic* is caught here: it poisons the pipeline
    /// as a worker panic does, and the call returns
    /// [`SubmitError::Poisoned`] with the buffers instead of unwinding.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the channel has symbols queued, in
    /// flight or parked undelivered (submit instead);
    /// [`SubmitError::Closed`], [`SubmitError::Shape`], or
    /// [`SubmitError::Poisoned`] — all returning the payload buffers.
    /// Never [`SubmitError::QueueFull`]: the symbol never enters the
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if `channel` did not come from this pipeline's builder.
    pub fn try_run(
        &self,
        channel: ChannelId,
        input: Vec<C64>,
        output: Vec<C64>,
    ) -> Result<Completion, SubmitError> {
        let (mut st, mut job) = self.admit(channel, input, output, Admit::Run)?;
        st.in_flight += 1;
        drop(st);
        let shared = &*self.shared;
        let mut front = self.fronts[channel.index].lock().expect("caller front poisoned");
        let ran = catch_unwind(AssertUnwindSafe(|| front.run_job(&mut job, shared.epoch)));
        drop(front);
        let Ok(parked) = ran else {
            shared.close(true);
            return Err(SubmitError::Poisoned { input: job.input, output: job.output });
        };
        let mut st = shared.lock();
        st.complete(None, parked);
        let done = st.rings[channel.index].deliver().expect("a caller run is its channel's head");
        // Parking and delivering in one step robs receivers of nothing
        // they could take, but it can unblock two kinds: one waiting for
        // a pooled symbol parked behind this one, and one waiting for
        // the channel (or, once closed, the pipeline) to drain.
        let ring = &st.rings[channel.index];
        let wake = st.recv_waiters > 0
            && (ring.head_ready() || ring.drained() && (ring.waiters > 0 || st.closed));
        drop(st);
        if wake {
            shared.done.notify_all();
        }
        Ok(done)
    }

    /// Blocking delivery: waits for the channel's next in-order
    /// completion. Returns `None` only when the channel has nothing
    /// outstanding (every accepted symbol already delivered) — so a
    /// drain loop is simply `while let Some(c) = pipeline.recv(ch)`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` did not come from this pipeline's builder,
    /// or if a pipeline worker has panicked — symbols the worker had
    /// claimed are lost, so waiting for them would hang forever.
    /// Completions that were already parked are still delivered before
    /// the panic is raised.
    pub fn recv(&self, channel: ChannelId) -> Option<Completion> {
        let idx = self.chan(channel);
        match self.receive(None, Some(idx), |st| st.rings[idx].deliver()) {
            Ok(got) => got,
            Err(_) => {
                panic!("a stream backend panicked; its symbol is lost and the pipeline is dead")
            }
        }
    }

    /// Batched delivery across every channel: waits at most `timeout`
    /// for anything deliverable, then appends **every** completion any
    /// channel can deliver in order to `out` — per-channel submission
    /// order kept, channels in registration order — in one pass under
    /// the state lock, and returns how many it moved. A batch is
    /// whatever is ready: under load one call collects many
    /// completions, and at low load it returns with the first one; it
    /// never waits to fill a batch. The form for a single consumer of
    /// every channel, such as a server's delivery thread.
    ///
    /// `Ok(0)` means the pipeline is closed and every channel has
    /// delivered everything it accepted, so nothing can become
    /// deliverable again once in-progress submitters have returned. On
    /// an open pipeline with nothing outstanding the call waits out its
    /// timeout: a submission may arrive at any moment.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if `timeout` passes with nothing
    /// deliverable; [`RecvError::Poisoned`] once the parked completions
    /// are exhausted on a poisoned pipeline (where
    /// [`recv`](StreamPipeline::recv) would panic).
    pub fn recv_ready(
        &self,
        out: &mut Vec<Completion>,
        timeout: Duration,
    ) -> Result<usize, RecvError> {
        let deadline = Instant::now().checked_add(timeout);
        let moved = self.receive(deadline, None, |st| {
            let before = out.len();
            st.deliver_ready(out);
            (out.len() > before).then(|| out.len() - before)
        })?;
        Ok(moved.unwrap_or(0))
    }

    /// The one receive loop behind `recv` (`channel` is the one channel
    /// it waits on, with no deadline) and `recv_ready` (`None`: every
    /// channel), all under one hold of the state lock (released only
    /// while parked on `done`): `take` pops what the caller wants, else
    /// a poisoned pipeline is an error, else a drained wait (nothing left
    /// that could become deliverable: the channel has delivered all it
    /// accepted, or, for every channel, the pipeline is also closed) is
    /// `Ok(None)`, else the caller parks until a completion becomes
    /// deliverable or the deadline passes. After the deadline the loop
    /// runs `take` one last time before conceding [`RecvError::Timeout`].
    fn receive<T>(
        &self,
        deadline: Option<Instant>,
        channel: Option<usize>,
        mut take: impl FnMut(&mut State) -> Option<T>,
    ) -> Result<Option<T>, RecvError> {
        let shared = &*self.shared;
        let mut st = shared.lock();
        loop {
            if let Some(got) = take(&mut st) {
                return Ok(Some(got));
            }
            if st.poisoned {
                return Err(RecvError::Poisoned);
            }
            let drained = match channel {
                Some(idx) => st.rings[idx].drained(),
                None => st.closed && st.rings.iter().all(ChanRing::drained),
            };
            if drained {
                return Ok(None);
            }
            let left = match deadline {
                None => None,
                Some(when) => match when.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Err(RecvError::Timeout),
                },
            };
            st.recv_waiters += 1;
            if let Some(idx) = channel {
                st.rings[idx].waiters += 1;
            }
            st = match left {
                None => shared.done.wait(st).expect(STATE_POISONED),
                Some(left) => shared.done.wait_timeout(st, left).expect(STATE_POISONED).0,
            };
            st.recv_waiters -= 1;
            if let Some(idx) = channel {
                st.rings[idx].waiters -= 1;
            }
        }
    }

    /// Stops accepting new submissions. Already-accepted work keeps
    /// flowing: workers drain the queue and completions stay
    /// retrievable. Blocked [`StreamPipeline::submit`] callers return
    /// [`SubmitError::Closed`].
    pub fn close(&self) {
        self.shared.close(false);
    }

    /// Whether a backend panic, on a worker or in a caller run, has
    /// poisoned the pipeline. A poisoned pipeline is also closed; the
    /// non-blocking calls ([`StreamPipeline::try_submit`] /
    /// [`StreamPipeline::try_run`] / [`StreamPipeline::recv_ready`])
    /// report it as an error, the blocking [`StreamPipeline::submit`] and
    /// [`StreamPipeline::recv`] panic, and [`StreamPipeline::shutdown`]
    /// would panic on a dead worker's join — a graceful owner checks
    /// here and drops instead.
    pub fn is_poisoned(&self) -> bool {
        self.shared.lock().poisoned
    }

    /// A snapshot of the pipeline's counters and stage histograms, all
    /// copied under one hold of the state lock so they agree with each
    /// other: `submitted == completed + in_queue + in_flight`,
    /// `delivered <= completed`, and, for every channel and stage,
    /// `count == delivered.div_ceil(SAMPLE_EVERY)` hold in every
    /// snapshot.
    pub fn stats(&self) -> StreamStats {
        self.snapshot(&self.shared.lock())
    }

    fn snapshot(&self, st: &State) -> StreamStats {
        let per_channel: Vec<ChannelStats> = st
            .rings
            .iter()
            .map(|ring| ChannelStats {
                submitted: ring.submitted,
                completed: ring.completed,
                delivered: ring.delivered,
            })
            .collect();
        StreamStats {
            submitted: per_channel.iter().map(|c| c.submitted).sum(),
            completed: per_channel.iter().map(|c| c.completed).sum(),
            delivered: per_channel.iter().map(|c| c.delivered).sum(),
            rejected: st.rejected,
            in_queue: st.queue.len(),
            in_flight: st.in_flight,
            queue_capacity: self.shared.depth,
            queue_high_water: st.high_water,
            worker_transforms: st.worker_transforms.clone(),
            caller_transforms: st.caller_transforms,
            per_channel,
            obs: StreamObs { per_channel: st.rings.iter().map(|ring| ring.obs.clone()).collect() },
            elapsed: self.started.elapsed(),
        }
    }

    /// Graceful shutdown: closes the intake, lets the workers drain
    /// the queue, joins the pool, and returns the final stats plus
    /// every undelivered [`Completion`] (per-channel submission order,
    /// channels in registration order) — accepted work is never lost,
    /// even if the caller stopped receiving.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked.
    pub fn shutdown(mut self) -> (StreamStats, Vec<Completion>) {
        self.close();
        for handle in self.handles.drain(..) {
            handle.join().expect("stream worker panicked");
        }
        let mut st = self.shared.lock();
        let mut leftover = Vec::new();
        st.deliver_ready(&mut leftover);
        for (idx, ring) in st.rings.iter().enumerate() {
            debug_assert!(ring.drained(), "channel {idx} lost work at shutdown");
        }
        let stats = self.snapshot(&st);
        drop(st);
        (stats, leftover)
    }

    fn validate(&self, channel: ChannelId, input: &[C64], output: &[C64]) -> Result<(), FftError> {
        let spec = &self.specs[self.chan(channel)];
        if input.len() != spec.input_len() {
            return Err(FftError::LengthMismatch { expected: spec.input_len(), got: input.len() });
        }
        if output.len() != spec.output_len() {
            return Err(FftError::LengthMismatch {
                expected: spec.output_len(),
                got: output.len(),
            });
        }
        Ok(())
    }
}

impl Drop for StreamPipeline {
    /// Dropping without [`StreamPipeline::shutdown`] still drains and
    /// joins the pool (undelivered completions are discarded with the
    /// pipeline).
    fn drop(&mut self) {
        self.close();
        for handle in self.handles.drain(..) {
            // Don't double-panic while unwinding.
            let _ = handle.join();
        }
    }
}

pub(crate) const STATE_POISONED: &str = "stream pipeline state poisoned";

/// Everything the pool and its callers share: the monitor (state plus
/// its three condvars) and the immutable configuration around it.
pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    /// Workers wait here for a job (or for the close that ends them).
    pub(crate) work: Condvar,
    /// Blocked submitters wait here for queue space.
    pub(crate) space: Condvar,
    /// Blocked receivers wait here for a deliverable completion.
    pub(crate) done: Condvar,
    /// The queue bound: [`StreamBuilder::queue_depth`].
    pub(crate) depth: usize,
    /// Stand-in stamp for unsampled symbols: `Instant` fields still
    /// need a value, but nothing may read the clock for them.
    pub(crate) epoch: Instant,
}

impl core::fmt::Debug for Shared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl Shared {
    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(STATE_POISONED)
    }

    /// Closes the intake (and, for a worker's unwind guard, marks the
    /// pipeline poisoned), then wakes every waiter so it can see it.
    /// Poison-tolerant: it runs from `Drop` and from a panicking
    /// worker, neither of which may panic again.
    pub(crate) fn close(&self, poisoned: bool) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        st.poisoned |= poisoned;
        drop(st);
        self.work.notify_all();
        self.space.notify_all();
        self.done.notify_all();
    }
}

/// The scheduler state, all behind [`Shared::state`].
pub(crate) struct State {
    /// Accepted symbols no worker has claimed yet, oldest first; never
    /// longer than [`Shared::depth`].
    pub(crate) queue: VecDeque<Job>,
    /// Per-channel sequence counters and reorder rings.
    pub(crate) rings: Vec<ChanRing>,
    /// Symbols claimed by a worker and not yet parked.
    pub(crate) in_flight: usize,
    /// Deepest the queue has ever been.
    pub(crate) high_water: usize,
    /// `try_submit` refusals.
    pub(crate) rejected: u64,
    /// Symbols each worker has parked, in spawn order.
    pub(crate) worker_transforms: Vec<u64>,
    /// Symbols caller runs ([`StreamPipeline::try_run`]) have parked.
    pub(crate) caller_transforms: u64,
    /// Workers parked on [`Shared::work`]; submitters notify only when
    /// this is non-zero.
    pub(crate) idle_workers: usize,
    /// Submitters parked on [`Shared::space`].
    pub(crate) space_waiters: usize,
    /// Receivers parked on [`Shared::done`].
    pub(crate) recv_waiters: usize,
    /// Intake closed ([`StreamPipeline::close`] or a backend panic).
    pub(crate) closed: bool,
    /// Set when a backend panics (a worker's unwind guard, or a caller
    /// run that caught the unwind): the symbol it was running is gone,
    /// so blocking callers must fail loudly instead of waiting forever.
    pub(crate) poisoned: bool,
}

impl State {
    /// Parks a finished symbol — `worker`'s, or a caller run's when
    /// `None` — and returns whether a parked receiver should be woken:
    /// only when the symbol's channel now has its next in-order
    /// completion ready. A completion parked behind a gap (a later seq
    /// that finished first) wakes nobody.
    pub(crate) fn complete(&mut self, worker: Option<usize>, parked: Parked) -> bool {
        self.in_flight -= 1;
        match worker {
            Some(idx) => self.worker_transforms[idx] += 1,
            None => self.caller_transforms += 1,
        }
        let ring = &mut self.rings[parked.done.channel.index];
        ring.completed += 1;
        ring.park(parked);
        self.recv_waiters > 0 && ring.head_ready()
    }

    /// Pops every deliverable completion of every channel onto `out`:
    /// per-channel submission order, channels in registration order.
    fn deliver_ready(&mut self, out: &mut Vec<Completion>) {
        for ring in &mut self.rings {
            while let Some(done) = ring.deliver() {
                out.push(done);
            }
        }
    }
}

/// Per-channel sequencing, in-order delivery and stage histograms.
#[derive(Default)]
pub(crate) struct ChanRing {
    /// The sequence number the next accepted symbol gets (so also the
    /// number of symbols accepted).
    pub(crate) submitted: u64,
    /// Next sequence number to deliver; everything below has been
    /// handed to the caller.
    pub(crate) delivered: u64,
    /// Symbols workers and caller runs have finished (delivered or
    /// parked awaiting their turn).
    pub(crate) completed: u64,
    /// Single-channel receivers parked on this channel.
    pub(crate) waiters: usize,
    /// Reorder ring: slot `i` holds the completion for sequence number
    /// `delivered + i`, or `None` while that symbol is still queued or
    /// in flight. A ring (rather than a map) keeps its capacity across
    /// park/deliver cycles, so steady-state parking allocates nothing.
    pub(crate) parked: VecDeque<Option<Parked>>,
    /// The channel's stage histograms, recorded at delivery.
    pub(crate) obs: ChannelObs,
}

impl ChanRing {
    /// Parks a finished symbol at its in-order slot.
    fn park(&mut self, done: Parked) {
        let offset = usize::try_from(done.done.seq - self.delivered).expect("reorder window fits");
        while self.parked.len() <= offset {
            self.parked.push_back(None);
        }
        self.parked[offset] = Some(done);
    }

    /// Whether the next in-order completion is parked.
    fn head_ready(&self) -> bool {
        matches!(self.parked.front(), Some(Some(_)))
    }

    /// Takes the next in-order completion, if it has been parked, and
    /// records a sampled symbol's four stage spans.
    fn deliver(&mut self) -> Option<Completion> {
        if !self.head_ready() {
            return None;
        }
        let parked = self.parked.pop_front().flatten()?;
        self.delivered += 1;
        if parked.sampled {
            let now = Instant::now();
            let obs = &mut self.obs;
            obs.queue_wait.record(ns_between(parked.submitted_at, parked.began_at));
            obs.transform.record(ns_between(parked.began_at, parked.finished_at));
            obs.reorder_park.record(ns_between(parked.finished_at, now));
            obs.latency.record(ns_between(parked.submitted_at, now));
        }
        Some(parked.done)
    }

    /// Every accepted symbol has been delivered.
    fn drained(&self) -> bool {
        self.delivered == self.submitted
    }
}

/// What admission requires before it assigns a sequence number.
#[derive(Clone, Copy)]
enum Admit {
    /// Queue space; wait for it.
    Block,
    /// Queue space; refuse with [`SubmitError::QueueFull`] without it.
    Try,
    /// An idle channel (nothing outstanding), for a caller run; refuse
    /// with [`SubmitError::Busy`] otherwise.
    Run,
}

/// One admitted symbol: waiting in [`State::queue`] for a worker, or
/// running on the thread that called [`StreamPipeline::try_run`].
pub(crate) struct Job {
    pub(crate) channel: ChannelId,
    pub(crate) seq: u64,
    pub(crate) input: Vec<C64>,
    pub(crate) output: Vec<C64>,
    /// When the submission was accepted (the `epoch` stand-in for
    /// unsampled symbols).
    pub(crate) submitted_at: Instant,
    /// Whether this symbol carries stage-timing stamps: its sequence
    /// number is a multiple of [`SAMPLE_EVERY`].
    pub(crate) sampled: bool,
}

/// A finished symbol in a reorder ring, carrying the stamps its
/// delivery turns into the four stage spans (all `epoch` when
/// unsampled).
pub(crate) struct Parked {
    pub(crate) done: Completion,
    pub(crate) submitted_at: Instant,
    pub(crate) began_at: Instant,
    pub(crate) finished_at: Instant,
    pub(crate) sampled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::engine::{Cost, EngineRegistry, EngineSpec, FftEngine};
    use afft_core::ofdm::{qpsk_demap, qpsk_map};
    use afft_num::Complex;

    fn tagged(n: usize, tag: f64) -> Vec<C64> {
        (0..n).map(|i| Complex::new(tag, i as f64 / n as f64)).collect()
    }

    #[test]
    fn single_channel_round_trip_delivers_in_order() {
        let mut builder =
            StreamPipeline::builder(EngineRegistry::standard).workers(3).queue_depth(4);
        let ch = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
        let pipeline = builder.build().unwrap();

        let mut engine = EngineRegistry::standard(64).unwrap().take("radix2_dit").unwrap();
        let mut expected = Vec::new();
        for s in 0..16u64 {
            let x = tagged(64, s as f64);
            expected.push(engine.execute(&x, Direction::Forward).unwrap());
            let seq = pipeline.submit(ch, x, vec![Complex::zero(); 64]).unwrap();
            assert_eq!(seq, s);
        }
        for s in 0..16u64 {
            let done = pipeline.recv(ch).expect("outstanding symbol");
            assert_eq!(done.seq, s);
            assert!(done.error.is_none());
            assert_eq!(done.output, expected[s as usize], "bit-identical to direct execution");
            assert_eq!(done.input, tagged(64, s as f64), "input handed back unchanged");
        }
        assert!(pipeline.recv(ch).is_none(), "drained channel yields None");
        let (stats, leftover) = pipeline.shutdown();
        assert!(leftover.is_empty());
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.delivered, 16);
        assert_eq!(stats.worker_transforms.iter().sum::<u64>(), 16);
    }

    #[test]
    fn modem_channels_modulate_and_demodulate() {
        let mut builder =
            StreamPipeline::builder(EngineRegistry::standard).workers(2).queue_depth(8);
        let tx = builder.channel(ChannelSpec {
            n: 128,
            engine: "array_fft".into(),
            op: ChannelOp::Modulate { cp: 32 },
        });
        let rx = builder.channel(ChannelSpec {
            n: 128,
            engine: "array_fft".into(),
            op: ChannelOp::Demodulate { cp: 32 },
        });
        let pipeline = builder.build().unwrap();
        assert_eq!(pipeline.spec(tx).input_len(), 128);
        assert_eq!(pipeline.spec(tx).output_len(), 160);
        assert_eq!(pipeline.spec(rx).input_len(), 160);
        assert_eq!(pipeline.spec(rx).output_len(), 128);

        let bits: Vec<(bool, bool)> = (0..128).map(|i| (i % 2 == 0, i % 5 == 0)).collect();
        pipeline.submit(tx, qpsk_map(&bits), vec![Complex::zero(); 160]).unwrap();
        let sym = pipeline.recv(tx).unwrap();
        assert!(sym.error.is_none());
        pipeline.submit(rx, sym.output, vec![Complex::zero(); 128]).unwrap();
        let bins = pipeline.recv(rx).unwrap();
        assert!(bins.error.is_none());
        assert_eq!(qpsk_demap(&bins.output), bits, "stream modem round trip");
    }

    #[test]
    fn shape_and_closed_refusals_hand_buffers_back() {
        let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1);
        let ch = builder.channel(ChannelSpec::transform(64, "mcfft", Direction::Inverse));
        let pipeline = builder.build().unwrap();

        let err = pipeline.submit(ch, vec![Complex::zero(); 32], vec![Complex::zero(); 64]);
        match err.unwrap_err() {
            SubmitError::Shape { error, input, output } => {
                assert_eq!(error, FftError::LengthMismatch { expected: 64, got: 32 });
                assert_eq!((input.len(), output.len()), (32, 64));
            }
            other => panic!("expected Shape, got {other}"),
        }
        let err = pipeline.try_submit(ch, vec![Complex::zero(); 64], vec![Complex::zero(); 32]);
        assert!(matches!(err.unwrap_err(), SubmitError::Shape { .. }));

        pipeline.close();
        let err = pipeline.submit(ch, vec![Complex::zero(); 64], vec![Complex::zero(); 64]);
        let (input, output) = match err.unwrap_err() {
            e @ SubmitError::Closed { .. } => e.into_buffers(),
            other => panic!("expected Closed, got {other}"),
        };
        assert_eq!((input.len(), output.len()), (64, 64));
    }

    #[test]
    fn shutdown_returns_undelivered_completions_in_order() {
        let mut builder =
            StreamPipeline::builder(EngineRegistry::standard).workers(2).queue_depth(16);
        let ch = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
        let pipeline = builder.build().unwrap();
        for s in 0..10u64 {
            pipeline.submit(ch, tagged(64, s as f64), vec![Complex::zero(); 64]).unwrap();
        }
        // Deliver only the first three; shutdown must hand back the rest.
        for s in 0..3u64 {
            assert_eq!(pipeline.recv(ch).unwrap().seq, s);
        }
        let (stats, leftover) = pipeline.shutdown();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10, "shutdown drains in-flight work");
        assert_eq!(leftover.len(), 7);
        // The drain delivers, so it records seq 8 beside the received
        // seq 0.
        for (stage, hist) in stats.obs.per_channel[0].stages() {
            assert_eq!(hist.count(), 2, "stage {stage}");
        }
        let seqs: Vec<u64> = leftover.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, (3..10).collect::<Vec<u64>>(), "leftover stays in submission order");
    }

    #[test]
    fn builder_rejects_bad_channels_and_empty_pipelines() {
        let err = StreamPipeline::builder(EngineRegistry::standard).build().unwrap_err();
        assert!(matches!(err, FftError::InvalidDecomposition { .. }));

        let mut builder = StreamPipeline::builder(EngineRegistry::standard);
        builder.channel(ChannelSpec::transform(64, "asip_iss", Direction::Forward));
        assert!(matches!(builder.build().unwrap_err(), FftError::Backend { .. }));

        let mut builder = StreamPipeline::builder(EngineRegistry::standard);
        builder.channel(ChannelSpec {
            n: 64,
            engine: "radix2_dit".into(),
            op: ChannelOp::Modulate { cp: 64 },
        });
        assert!(matches!(builder.build().unwrap_err(), FftError::InvalidDecomposition { .. }));
    }

    #[test]
    fn stats_track_queue_pressure() {
        let mut builder =
            StreamPipeline::builder(EngineRegistry::standard).workers(1).queue_depth(2);
        let ch = builder.channel(ChannelSpec::transform(64, "dft_naive", Direction::Forward));
        let pipeline = builder.build().unwrap();
        assert_eq!(pipeline.queue_capacity(), 2);
        assert_eq!(pipeline.worker_count(), 1);
        assert_eq!(pipeline.channel_count(), 1);
        assert_eq!(ch.index(), 0);
        for s in 0..6u64 {
            pipeline.submit(ch, tagged(64, s as f64), vec![Complex::zero(); 64]).unwrap();
        }
        while pipeline.recv(ch).is_some() {}
        let stats = pipeline.stats();
        assert_eq!(stats.delivered, 6);
        assert!(stats.queue_high_water >= 1 && stats.queue_high_water <= 2);
        assert_eq!(stats.per_channel.len(), 1);
        assert_eq!(stats.per_channel[0].delivered, 6);
        assert!(stats.throughput() > 0.0);
    }

    /// A backend that panics on any non-zero symbol — the warmup's
    /// zero symbol passes, then real traffic detonates the worker.
    struct FragileEngine {
        n: usize,
    }

    impl FftEngine for FragileEngine {
        fn name(&self) -> &str {
            "fragile"
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
            assert!(input.iter().all(|c| c.re == 0.0 && c.im == 0.0), "fragile engine exploded");
            for slot in output.iter_mut() {
                *slot = Complex::zero();
            }
            Ok(())
        }
    }

    fn fragile_registry(n: usize) -> Result<EngineRegistry, FftError> {
        Ok(EngineRegistry::new(n).with(EngineSpec {
            name: "fragile",
            supports: |_| true,
            build: |n| Ok(Box::new(FragileEngine { n })),
            cost: |_| Cost::Host(0.0, None),
        }))
    }

    #[test]
    fn worker_panic_fails_blocked_callers_instead_of_hanging() {
        let mut builder = StreamPipeline::builder(fragile_registry).workers(1).queue_depth(4);
        let ch = builder.channel(ChannelSpec::transform(64, "fragile", Direction::Forward));
        let pipeline = builder.build().unwrap();

        // The zero symbol passes; the worker is alive and parking.
        pipeline.submit(ch, vec![Complex::zero(); 64], vec![Complex::zero(); 64]).unwrap();
        assert!(pipeline.recv(ch).unwrap().error.is_none());

        // A non-zero symbol panics inside the worker. recv must
        // propagate that as a panic, not block forever on a completion
        // that will never be parked.
        pipeline.submit(ch, vec![Complex::new(1.0, 0.0); 64], vec![Complex::zero(); 64]).unwrap();
        let recv = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipeline.recv(ch)));
        assert!(recv.is_err(), "recv must fail loudly after a worker panic");
        // Blocking submit fails loudly too, and the pipeline is poisoned.
        let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.submit(ch, vec![Complex::zero(); 64], vec![Complex::zero(); 64])
        }));
        assert!(blocked.is_err(), "submit must fail loudly after a worker panic");
        assert!(pipeline.is_poisoned());
        // Drop (not shutdown) so the test itself doesn't re-panic on join.
        drop(pipeline);
    }

    #[test]
    fn a_backend_panic_in_a_caller_run_poisons_the_pipeline_without_unwinding() {
        let mut builder = StreamPipeline::builder(fragile_registry).workers(1).queue_depth(4);
        let ch = builder.channel(ChannelSpec::transform(64, "fragile", Direction::Forward));
        let pipeline = builder.build().unwrap();

        // The zero symbol passes on the caller front.
        let zeros = || vec![Complex::zero(); 64];
        assert!(pipeline.try_run(ch, zeros(), zeros()).unwrap().error.is_none());

        // A non-zero symbol detonates the backend. The unwind stops in
        // try_run, which poisons the pipeline and hands the buffers back.
        let ones = vec![Complex::new(1.0, 0.0); 64];
        let (input, output) = match pipeline.try_run(ch, ones.clone(), zeros()) {
            Err(e @ SubmitError::Poisoned { .. }) => e.into_buffers(),
            other => panic!("expected Poisoned, got {other:?}"),
        };
        assert_eq!((input, output.len()), (ones, 64));
        assert!(pipeline.is_poisoned());

        // Every later call refuses, and the lost symbol is reported, not
        // awaited.
        let refused = pipeline.try_run(ch, zeros(), zeros());
        assert!(matches!(refused, Err(SubmitError::Poisoned { .. })), "{refused:?}");
        let refused = pipeline.try_submit(ch, zeros(), zeros());
        assert!(matches!(refused, Err(SubmitError::Poisoned { .. })), "{refused:?}");
        let received = pipeline.recv_ready(&mut Vec::new(), Duration::from_secs(10));
        assert_eq!(received.unwrap_err(), RecvError::Poisoned);
        let stats = pipeline.stats();
        assert_eq!((stats.submitted, stats.completed, stats.in_flight), (2, 1, 1));
        assert_eq!(stats.caller_transforms, 1);
        // Drop (not shutdown): the channel can never drain.
        drop(pipeline);
    }

    #[test]
    #[should_panic(expected = "different StreamPipeline")]
    fn foreign_channel_ids_are_rejected_even_with_in_range_indices() {
        let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1);
        let foreign = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
        let _other = builder.build().unwrap();

        let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1);
        let _local = builder.channel(ChannelSpec {
            n: 64,
            engine: "radix2_dit".into(),
            op: ChannelOp::Modulate { cp: 16 },
        });
        let pipeline = builder.build().unwrap();
        // Index 0 is in range here but the id belongs to `_other`:
        // silently resolving it would submit against the wrong op.
        let _ = pipeline.spec(foreign);
    }

    #[test]
    fn observability_histograms_count_every_symbol() {
        // Sampling is by sequence number, so every stage of every
        // channel holds exactly the sampled delivered symbols.
        let mut builder =
            StreamPipeline::builder(EngineRegistry::standard).workers(3).queue_depth(8);
        let a = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
        let b = builder.channel(ChannelSpec {
            n: 64,
            engine: "radix2_dit".into(),
            op: ChannelOp::Modulate { cp: 16 },
        });
        let pipeline = builder.build().unwrap();
        for s in 0..20u64 {
            pipeline.submit(a, tagged(64, s as f64), vec![Complex::zero(); 64]).unwrap();
        }
        pipeline.submit(b, tagged(64, 0.5), vec![Complex::zero(); 80]).unwrap();
        while pipeline.recv(a).is_some() {}
        while pipeline.recv(b).is_some() {}
        let (stats, _) = pipeline.shutdown();
        let obs = &stats.obs;
        assert_eq!(obs.per_channel.len(), 2);
        let ch_a = &obs.per_channel[0];
        // Seqs 0, 8 and 16 of channel a, seq 0 of channel b, in every
        // stage.
        for (chan, want) in obs.per_channel.iter().zip([3, 1]) {
            for (stage, hist) in chan.stages() {
                assert_eq!(hist.count(), want, "stage {stage}");
            }
        }
        // End-to-end latency dominates its components at the median.
        let p50 = ch_a.latency.p50().unwrap();
        assert!(p50 >= ch_a.transform.p50().unwrap() / 2, "latency {p50}ns vs transform");
        assert!(ch_a.latency.p99().unwrap() >= p50);
        // The JSON export carries every channel.
        assert!(obs.to_json().contains("\"channel\":1"));
    }

    #[test]
    fn default_sampling_stamps_one_symbol_in_eight() {
        // Sampling is by per-channel sequence number, so the sampled
        // subset is deterministic: seqs 0 and 8 out of 0..12.
        let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(2);
        let ch = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
        let pipeline = builder.build().unwrap();
        for s in 0..12u64 {
            pipeline.submit(ch, tagged(64, s as f64), vec![Complex::zero(); 64]).unwrap();
        }
        while pipeline.recv(ch).is_some() {}
        let (stats, _) = pipeline.shutdown();
        assert_eq!(stats.delivered, 12);
        for (_, hist) in stats.obs.per_channel[0].stages() {
            assert_eq!(hist.count(), 2, "12 symbols at 1-in-{SAMPLE_EVERY}");
        }
    }

    #[test]
    fn channel_spec_shapes_and_plan_constructor() {
        let spec = ChannelSpec::transform(256, "array_fft", Direction::Inverse);
        assert_eq!((spec.input_len(), spec.output_len()), (256, 256));
        let spec = ChannelSpec { n: 256, engine: "x".into(), op: ChannelOp::Modulate { cp: 64 } };
        assert_eq!((spec.input_len(), spec.output_len()), (256, 320));
        let spec = ChannelSpec { n: 256, engine: "x".into(), op: ChannelOp::Demodulate { cp: 64 } };
        assert_eq!((spec.input_len(), spec.output_len()), (320, 256));

        let mut planner = afft_planner::Planner::new();
        let plan = planner.plan(128, afft_planner::Strategy::Estimate).unwrap();
        let spec = ChannelSpec::from_plan(&plan, ChannelOp::Demodulate { cp: 32 });
        assert_eq!(spec.n, 128);
        assert_eq!(spec.engine, plan.best().name);
    }

    #[test]
    fn a_completion_parked_behind_a_gap_does_not_wake_receivers() {
        let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(1);
        let ch = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
        let pipeline = builder.build().unwrap();
        let shared = &pipeline.shared;
        let parked = |seq: u64| Parked {
            done: Completion {
                channel: ch,
                seq,
                input: tagged(64, seq as f64),
                output: vec![Complex::zero(); 64],
                error: None,
            },
            submitted_at: shared.epoch,
            began_at: shared.epoch,
            finished_at: shared.epoch,
            sampled: false,
        };
        // Two symbols accepted and claimed; seq 1 finishes first while
        // seq 0 is still in flight on another worker. A receiver is
        // parked, yet the gap means there is nothing to wake it for.
        {
            let mut st = shared.lock();
            st.rings[0].submitted = 2;
            st.in_flight = 2;
            st.recv_waiters = 1;
            assert!(
                !st.complete(Some(0), parked(1)),
                "seq 1 behind a missing seq 0 woke receivers"
            );
            st.recv_waiters = 0;
        }
        let mut out = Vec::new();
        let timeout = Duration::from_millis(10);
        assert!(matches!(pipeline.recv_ready(&mut out, timeout), Err(RecvError::Timeout)));
        assert!(out.is_empty());

        // The gap fills: the ready head wakes receivers, and delivery
        // stays in order.
        {
            let mut st = shared.lock();
            st.recv_waiters = 1;
            assert!(st.complete(Some(0), parked(0)), "a ready head must wake receivers");
            st.recv_waiters = 0;
        }
        assert_eq!(pipeline.recv_ready(&mut out, Duration::ZERO).unwrap(), 2);
        assert_eq!(out.iter().map(|c| c.seq).collect::<Vec<_>>(), [0, 1]);
        let (stats, leftover) = pipeline.shutdown();
        assert!(leftover.is_empty());
        assert_eq!((stats.completed, stats.delivered), (2, 2));
    }

    #[test]
    fn recv_ready_drains_every_channel_in_order() {
        let mut builder =
            StreamPipeline::builder(EngineRegistry::standard).workers(2).queue_depth(32);
        let chs: Vec<ChannelId> = (0..3)
            .map(|_| builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward)))
            .collect();
        let pipeline = builder.build().unwrap();
        for s in 0..8u64 {
            for ch in &chs {
                pipeline.submit(*ch, tagged(64, s as f64), vec![Complex::zero(); 64]).unwrap();
            }
        }
        let mut got = Vec::new();
        while got.len() < 24 {
            let before = got.len();
            let moved = pipeline.recv_ready(&mut got, Duration::from_secs(10)).unwrap();
            assert!(moved >= 1 && moved == got.len() - before, "moved {moved}");
        }
        for ch in &chs {
            let seqs: Vec<u64> = got.iter().filter(|c| c.channel == *ch).map(|c| c.seq).collect();
            assert_eq!(seqs, (0..8).collect::<Vec<u64>>(), "per-channel order kept");
        }
        assert!(got.iter().all(|c| c.input == tagged(64, c.seq as f64)));

        // Open and idle: the call waits out its timeout.
        let timeout = Duration::from_millis(10);
        assert!(matches!(pipeline.recv_ready(&mut got, timeout), Err(RecvError::Timeout)));
        // Closed and drained: nothing can arrive, so Ok(0) at once.
        pipeline.close();
        let began = Instant::now();
        assert_eq!(pipeline.recv_ready(&mut got, Duration::from_secs(10)).unwrap(), 0);
        assert!(began.elapsed() < Duration::from_secs(5));
        let (stats, leftover) = pipeline.shutdown();
        assert!(leftover.is_empty());
        assert_eq!(stats.delivered, 24);
    }
}
