//! The worker side of the scheduler: take the oldest queued job,
//! transform it with the worker's private engines outside the lock,
//! then park the completion and take the next job in one critical
//! section.

use afft_core::engine::FftEngine;
use afft_core::ofdm::Ofdm;
use afft_core::{Direction, FftError};
use afft_num::{Complex, C64};
use afft_obs::{ns_between, Stage};
use afft_planner::planner::take_engine;
use afft_planner::RegistryFactory;
use std::time::Instant;

use crate::pipeline::{ChannelOp, ChannelSpec, Completion, Parked, Shared, STATE_POISONED};

/// A worker's private per-channel execution front: the raw engine, or
/// an [`Ofdm`] modem wrapping it.
pub(crate) enum Front {
    Raw { engine: Box<dyn FftEngine>, dir: Direction },
    Modem { ofdm: Ofdm, modulate: bool },
}

impl Front {
    pub(crate) fn build(spec: &ChannelSpec, factory: RegistryFactory) -> Result<Front, FftError> {
        let engine = take_engine(factory, spec.n, &spec.engine)?;
        Ok(match spec.op {
            ChannelOp::Transform(dir) => Front::Raw { engine, dir },
            ChannelOp::Modulate { cp } => {
                Front::Modem { ofdm: Ofdm::with_engine(engine, cp)?, modulate: true }
            }
            ChannelOp::Demodulate { cp } => {
                Front::Modem { ofdm: Ofdm::with_engine(engine, cp)?, modulate: false }
            }
        })
    }

    fn run(&mut self, input: &[C64], output: &mut [C64]) -> Result<(), FftError> {
        match self {
            Front::Raw { engine, dir } => engine.execute_into(input, output, *dir),
            Front::Modem { ofdm, modulate: true } => ofdm.modulate_into(input, output),
            Front::Modem { ofdm, modulate: false } => ofdm.demodulate_into(input, output),
        }
    }

    fn cycles(&self) -> Option<u64> {
        match self {
            Front::Raw { engine, .. } => engine.cycles(),
            Front::Modem { ofdm, .. } => ofdm.engine().cycles(),
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
    // This worker's metrics shard — recording is two relaxed atomic
    // adds, never a lock.
    let obs = shared.obs.as_ref().map(|o| o.recorder.handle(idx));
    // Private engines + scratch, warmed on a zero symbol per channel so
    // the first real symbol already runs the allocation-free path.
    let mut fronts: Vec<Front> = specs
        .iter()
        .map(|spec| {
            let mut front = Front::build(spec, factory)
                .expect("channel validated at build time but not constructible in worker");
            let input = vec![Complex::zero(); spec.input_len()];
            let mut output = vec![Complex::zero(); spec.output_len()];
            front.run(&input, &mut output).expect("warmup transform failed");
            front
        })
        .collect();

    let mut finished: Option<Parked> = None;
    loop {
        let mut st = shared.lock();
        let mut wake_receivers = finished.take().is_some_and(|done| st.complete(idx, done));
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

        // Only sampled jobs read the clock: two stamps bracketing the
        // transform.
        let front = &mut fronts[job.channel.index];
        let begin = if job.sampled { Instant::now() } else { shared.epoch };
        let error = front.run(&job.input, &mut job.output).err();
        let finished_at = match &obs {
            Some(rec) if job.sampled => {
                let end = Instant::now();
                let base = job.channel.index * Stage::COUNT;
                rec.record(base + Stage::QueueWait.index(), ns_between(job.submitted_at, begin));
                rec.record(base + Stage::Transform.index(), ns_between(begin, end));
                end
            }
            _ => shared.epoch,
        };
        finished = Some(Parked {
            done: Completion {
                channel: job.channel,
                seq: job.seq,
                input: job.input,
                output: job.output,
                cycles: front.cycles(),
                error,
            },
            submitted_at: job.submitted_at,
            finished_at,
            sampled: job.sampled,
        });
    }
}
