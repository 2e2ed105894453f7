//! The sharded completion path: workers park finished symbols in their
//! own completion buffer (one mutex per worker, shared with nobody but
//! the draining caller), and the delivery side drains every buffer
//! into the per-channel seq-keyed reorder rings under a single
//! delivery lock that **no worker ever takes**. Submission, transform,
//! and delivery therefore serialize on three disjoint lock sets.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use afft_obs::{ns_between, Stage};

use crate::pipeline::{Completion, Shared};

/// A finished symbol in a completion buffer or reorder ring, carrying
/// the stamps the delivery path turns into reorder-park and
/// end-to-end latencies.
pub(crate) struct Parked {
    pub(crate) done: Completion,
    pub(crate) submitted_at: Instant,
    pub(crate) finished_at: Instant,
    pub(crate) sampled: bool,
}

/// One worker's completion outbox. The worker appends batches; the
/// delivering caller drains. Only those two threads ever touch the
/// mutex, so parking a completion never contends with another worker.
pub(crate) struct CompletionBuf {
    pub(crate) buf: Mutex<Vec<Parked>>,
    /// Lock-free occupancy hint so the drain loop skips empty buffers
    /// without locking them (`recv` polls every buffer; most are empty
    /// most of the time).
    pub(crate) len_hint: AtomicUsize,
}

impl CompletionBuf {
    pub(crate) fn new() -> CompletionBuf {
        CompletionBuf { buf: Mutex::new(Vec::new()), len_hint: AtomicUsize::new(0) }
    }

    /// Worker side: parks a batch of finished symbols.
    pub(crate) fn push_batch(&self, batch: &mut Vec<Parked>) {
        let n = batch.len();
        self.buf.lock().expect("stream completion buffer poisoned").append(batch);
        self.len_hint.fetch_add(n, Ordering::SeqCst);
    }
}

/// Per-channel in-order delivery state, all under the one delivery
/// lock ([`Shared::delivery`]).
#[derive(Default)]
pub(crate) struct ChanRing {
    /// Next sequence number to deliver; everything below has been
    /// handed to the caller.
    pub(crate) delivered: u64,
    /// Symbols finished by workers and drained into this ring
    /// (delivered or parked awaiting their turn).
    pub(crate) completed: u64,
    /// Reorder ring: slot `i` holds the completion for sequence number
    /// `delivered + i`, or `None` while that symbol is still queued or
    /// in flight. A ring (rather than a map) keeps its capacity across
    /// park/deliver cycles, so steady-state parking allocates nothing.
    pub(crate) parked: VecDeque<Option<Parked>>,
}

impl ChanRing {
    /// Parks a finished symbol at its in-order slot.
    pub(crate) fn park(&mut self, done: Parked) {
        let offset = usize::try_from(done.done.seq - self.delivered).expect("reorder window fits");
        while self.parked.len() <= offset {
            self.parked.push_back(None);
        }
        self.parked[offset] = Some(done);
    }

    /// Whether the next in-order completion is parked (a completion
    /// parked behind a gap does not count: it cannot be delivered yet).
    pub(crate) fn head_ready(&self) -> bool {
        matches!(self.parked.front(), Some(Some(_)))
    }

    /// Takes the next in-order completion, if it has been parked.
    pub(crate) fn pop_next(&mut self) -> Option<Parked> {
        match self.parked.front_mut() {
            Some(slot @ Some(_)) => {
                let done = slot.take();
                self.parked.pop_front();
                self.delivered += 1;
                done
            }
            _ => None,
        }
    }
}

/// Everything the delivery lock guards: one reorder ring per channel.
pub(crate) struct DeliveryState {
    pub(crate) rings: Vec<ChanRing>,
}

impl Shared {
    /// Drains every worker's completion buffer into the reorder rings,
    /// returning how many completions moved. Caller holds the delivery
    /// lock; each buffer mutex is held just long enough to move its
    /// contents (and skipped entirely when its occupancy hint reads
    /// empty). The per-channel `head_ready` mirror is published
    /// *before* the occupancy hint is cleared, so a parked receiver's
    /// lock-free re-check (hints first, then the mirror) always sees
    /// one or the other.
    pub(crate) fn drain_completions(&self, ds: &mut DeliveryState) -> usize {
        let mut moved = 0;
        for cbuf in &self.cbufs {
            if cbuf.len_hint.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let mut buf = cbuf.buf.lock().expect("stream completion buffer poisoned");
            let taken = buf.len();
            for parked in buf.drain(..) {
                self.park_completion(ds, parked);
            }
            drop(buf);
            cbuf.len_hint.fetch_sub(taken, Ordering::SeqCst);
            moved += taken;
        }
        moved
    }

    /// Parks one finished symbol in its channel's ring and republishes
    /// the channel's `head_ready` mirror. Caller holds the delivery
    /// lock.
    pub(crate) fn park_completion(&self, ds: &mut DeliveryState, parked: Parked) {
        let idx = parked.done.channel.index;
        let ring = &mut ds.rings[idx];
        ring.completed += 1;
        ring.park(parked);
        self.chans[idx].head_ready.store(ring.head_ready(), Ordering::SeqCst);
    }

    /// Pops every deliverable completion of every channel onto `out`:
    /// per-channel submission order, channels in registration order.
    /// Caller holds the delivery lock.
    pub(crate) fn pop_ready(&self, ds: &mut DeliveryState, out: &mut Vec<Completion>) {
        for idx in 0..ds.rings.len() {
            while let Some(done) = self.pop_delivery(ds, idx) {
                out.push(done);
            }
        }
    }

    /// Pops the channel's next in-order completion (after a drain),
    /// recording the delivery-side stage latencies for sampled
    /// symbols. Caller holds the delivery lock — the recorder's caller
    /// shard is therefore single-writer, like every worker shard.
    pub(crate) fn pop_delivery(&self, ds: &mut DeliveryState, idx: usize) -> Option<Completion> {
        let ring = &mut ds.rings[idx];
        let parked = ring.pop_next()?;
        let chan = &self.chans[idx];
        chan.delivered.store(ring.delivered, Ordering::SeqCst);
        chan.head_ready.store(ring.head_ready(), Ordering::SeqCst);
        if !parked.sampled {
            return Some(parked.done);
        }
        if let Some(obs) = &self.obs {
            let now = Instant::now();
            let base = idx * Stage::COUNT;
            let rec = &obs.recorder;
            rec.record(
                obs.caller_shard,
                base + Stage::ReorderPark.index(),
                ns_between(parked.finished_at, now),
            );
            rec.record(
                obs.caller_shard,
                base + Stage::Deliver.index(),
                ns_between(parked.submitted_at, now),
            );
        }
        Some(parked.done)
    }
}
