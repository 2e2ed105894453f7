//! **afft-stream** — the workspace's one layer for running many
//! symbols in parallel: a long-lived worker pool that runs continuous
//! OFDM traffic through planned
//! [`FftEngine`](afft_core::engine::FftEngine) backends with zero heap
//! allocation per symbol in steady state. (Run sequentially, a batch is
//! just a loop over the planned engine's `execute_into`.)
//!
//! A [`StreamPipeline`] plans once and executes forever: it is built
//! once from a [`RegistryFactory`](afft_planner::RegistryFactory) and a
//! set of [`ChannelSpec`]s (typically the winners of wisdom-ranked
//! plans, via [`ChannelSpec::from_plan`]), spawns `N` long-lived
//! workers that each own a private engine and pre-warmed scratch per
//! channel (plus one more per channel for callers that run a symbol
//! themselves), and feeds them from **one bounded FIFO queue under one
//! lock**: the next free worker takes the oldest queued symbol,
//! whatever its channel, so one flooded channel cannot idle the pool.
//! Backpressure is the queue's bound of
//! [`queue_depth`](StreamBuilder::queue_depth) symbols:
//!
//! * [`StreamPipeline::try_submit`] refuses with
//!   [`SubmitError::QueueFull`] (handing the payload buffers back)
//!   instead of blocking;
//! * [`StreamPipeline::submit`] blocks until queue space frees up;
//! * completions are delivered **strictly in per-channel submission
//!   order** ([`StreamPipeline::recv`]), regardless of which worker
//!   finished first;
//! * a single consumer of every channel drains them all at once with
//!   [`StreamPipeline::recv_ready`]: one pass under the lock moves
//!   whatever every channel has ready, it never waits to fill a batch,
//!   and its timeout bounds the wait;
//! * a backend panic poisons the pipeline: the non-blocking calls
//!   report it as [`SubmitError::Poisoned`] / [`RecvError::Poisoned`]
//!   (after every parked completion is delivered), while the blocking
//!   `submit` and `recv` panic rather than wait forever;
//! * [`StreamPipeline::try_run`] runs a symbol on the calling thread
//!   when its channel has nothing outstanding, and refuses with
//!   [`SubmitError::Busy`] otherwise: the same admission, sequence
//!   number, counters and stage histograms as a submitted symbol,
//!   without the handoffs to and from a worker — the shape for a
//!   caller with one symbol in hand that wants its answer now;
//! * [`StreamPipeline::stats`] copies the counters and every channel's
//!   stage histograms ([`ChannelObs`]: queue-wait, transform,
//!   reorder-park, end-to-end latency, one symbol in [`SAMPLE_EVERY`]
//!   sampled) in one critical section, so a snapshot never contradicts
//!   itself;
//! * [`StreamPipeline::shutdown`] drains every in-flight symbol before
//!   joining the pool, returning the final [`StreamStats`] and any
//!   undelivered completions — accepted work is never lost.
//!
//! Payload buffers travel *with* the job and come back in the
//! [`Completion`], so a caller that recycles them closes the loop: after
//! warmup neither the caller, the queue, nor the workers allocate per
//! symbol (the engines reuse their plan-owned scratch, the PR-3
//! `execute_into` idiom).
//!
//! # Quickstart
//!
//! ```
//! use afft_core::engine::EngineRegistry;
//! use afft_core::Direction;
//! use afft_num::Complex;
//! use afft_stream::{ChannelSpec, StreamPipeline};
//!
//! let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(2).queue_depth(8);
//! let ch = builder.channel(ChannelSpec::transform(256, "radix2_dit", Direction::Forward));
//! let pipeline = builder.build()?;
//!
//! // The caller brings both buffers; they come back in the completion.
//! let input = vec![Complex::new(1.0, 0.0); 256];
//! let output = vec![Complex::zero(); 256];
//! let seq = pipeline.submit(ch, input, output).expect("accepted");
//! let done = pipeline.recv(ch).expect("one symbol outstanding");
//! assert_eq!(done.seq, seq);
//! assert!((done.output[0].re - 256.0).abs() < 1e-9);
//!
//! let (stats, leftover) = pipeline.shutdown();
//! assert_eq!(stats.completed, 1);
//! assert!(leftover.is_empty());
//! # Ok::<(), afft_core::FftError>(())
//! ```
//!
//! Multi-channel sessions register one channel per planned
//! `(n, direction)` — including OFDM modulate/demodulate front-ends
//! ([`ChannelOp::Modulate`] / [`ChannelOp::Demodulate`], running
//! [`Ofdm::modulate_into`](afft_core::ofdm::Ofdm::modulate_into) and
//! [`Ofdm::demodulate_into`](afft_core::ofdm::Ofdm::demodulate_into)
//! worker-side) — and every worker serves every channel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod stats;
mod worker;

pub use pipeline::{
    ChannelId, ChannelOp, ChannelSpec, Completion, RecvError, StreamBuilder, StreamPipeline,
    SubmitError, SAMPLE_EVERY,
};
pub use stats::{ChannelObs, ChannelStats, StreamObs, StreamStats};
