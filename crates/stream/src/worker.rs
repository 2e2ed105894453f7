//! The worker side of the scheduler: take the oldest queued job,
//! transform it with the worker's private engines outside the lock,
//! then park the completion and take the next job in one critical
//! section. [`Front::run_job`] is the transform-and-stamp step, shared
//! with caller runs. Workers record no metrics: a sampled symbol's
//! stamps ride in its [`Parked`] to the delivering receiver.

use afft_core::engine::FftEngine;
use afft_core::ofdm::Ofdm;
use afft_core::{Direction, FftError};
use afft_num::{Complex, C64};
use afft_planner::planner::take_engine;
use afft_planner::RegistryFactory;
use std::time::Instant;

use crate::pipeline::{ChannelOp, ChannelSpec, Completion, Job, Parked, Shared, STATE_POISONED};

/// A private per-channel execution front: the raw engine, or an
/// [`Ofdm`] modem wrapping it. Each worker owns one per channel, and the
/// pipeline keeps one more per channel for caller runs.
pub(crate) enum Front {
    Raw { engine: Box<dyn FftEngine>, dir: Direction },
    Modem { ofdm: Ofdm, modulate: bool },
}

impl core::fmt::Debug for Front {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Front").finish_non_exhaustive()
    }
}

impl Front {
    /// Builds the channel's front and warms its scratch on a zero
    /// symbol, so the first real symbol already runs the
    /// allocation-free path.
    pub(crate) fn warmed(spec: &ChannelSpec, factory: RegistryFactory) -> Result<Front, FftError> {
        let engine = take_engine(factory, spec.n, &spec.engine)?;
        let mut front = match spec.op {
            ChannelOp::Transform(dir) => Front::Raw { engine, dir },
            ChannelOp::Modulate { cp } => {
                Front::Modem { ofdm: Ofdm::with_engine(engine, cp)?, modulate: true }
            }
            ChannelOp::Demodulate { cp } => {
                Front::Modem { ofdm: Ofdm::with_engine(engine, cp)?, modulate: false }
            }
        };
        let input = vec![Complex::zero(); spec.input_len()];
        let mut output = vec![Complex::zero(); spec.output_len()];
        front.run(&input, &mut output)?;
        Ok(front)
    }

    fn run(&mut self, input: &[C64], output: &mut [C64]) -> Result<(), FftError> {
        match self {
            Front::Raw { engine, dir } => engine.execute_into(input, output, *dir),
            Front::Modem { ofdm, modulate: true } => ofdm.modulate_into(input, output),
            Front::Modem { ofdm, modulate: false } => ofdm.demodulate_into(input, output),
        }
    }

    /// Transforms `job` and returns it parked: the one
    /// transform-and-stamp step, shared by pool workers and caller
    /// runs. Only sampled jobs read the clock, two stamps bracketing the
    /// transform; unsampled ones get `epoch`. The buffers leave `job`
    /// only after the backend returns, so a caller that catches a
    /// panicking backend still holds them.
    pub(crate) fn run_job(&mut self, job: &mut Job, epoch: Instant) -> Parked {
        let stamp = || if job.sampled { Instant::now() } else { epoch };
        let began_at = stamp();
        let error = self.run(&job.input, &mut job.output).err();
        let finished_at = stamp();
        Parked {
            done: Completion {
                channel: job.channel,
                seq: job.seq,
                input: std::mem::take(&mut job.input),
                output: std::mem::take(&mut job.output),
                error,
            },
            submitted_at: job.submitted_at,
            began_at,
            finished_at,
            sampled: job.sampled,
        }
    }
}

/// Marks the pipeline dead if its worker unwinds — a panicking backend
/// must wake (and fail) blocked `submit`/`recv` callers, not strand
/// them on a condvar waiting for jobs that will never be parked.
struct PanicGuard<'a>(&'a Shared);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close(true);
        }
    }
}

pub(crate) fn worker_loop(
    idx: usize,
    shared: &Shared,
    specs: &[ChannelSpec],
    factory: RegistryFactory,
) {
    let _guard = PanicGuard(shared);
    // Private engines + scratch, warmed like the caller fronts.
    let mut fronts: Vec<Front> = specs
        .iter()
        .map(|spec| {
            Front::warmed(spec, factory)
                .expect("channel validated at build time but not constructible in worker")
        })
        .collect();

    let mut finished: Option<Parked> = None;
    loop {
        let mut st = shared.lock();
        let mut wake_receivers = finished.take().is_some_and(|done| st.complete(Some(idx), done));
        while st.queue.is_empty() && !st.closed {
            if wake_receivers {
                // Deliver the wake before parking: it must not wait for
                // the next submission.
                drop(st);
                shared.done.notify_all();
                wake_receivers = false;
                st = shared.lock();
                continue;
            }
            st.idle_workers += 1;
            st = shared.work.wait(st).expect(STATE_POISONED);
            st.idle_workers -= 1;
        }
        // Empty here means closed and drained: the other workers park
        // whatever they still hold.
        let job = st.queue.pop_front();
        if job.is_some() {
            st.in_flight += 1;
        }
        // The low-watermark rule: wake blocked submitters only once the
        // queue has drained to half capacity, so each wake is amortised
        // over ~depth/2 submissions.
        let wake_submitters = st.space_waiters > 0 && st.queue.len() <= shared.depth / 2;
        drop(st);
        if wake_receivers {
            shared.done.notify_all();
        }
        if wake_submitters {
            shared.space.notify_all();
        }
        let Some(mut job) = job else { return };
        finished = Some(fronts[job.channel.index].run_job(&mut job, shared.epoch));
    }
}
