//! Layer 3 of the scheduler: lock-free watched-batch slot fills.
//!
//! The old `BatchState` filled slots under the scheduler's global
//! mutex, which serialized every completion against every submission.
//! Here a slot is filled by **claiming** it first — a first-writer-wins
//! CAS on the slot's `claimed` bit — so the completion path,
//! cancellation, and stall failure can all race for a slot without a
//! shared lock: exactly one of them wins, writes the
//! result, and decrements `remaining`; the last fill flips `done`.
//! Waiters only touch a condvar when `done` flips (and the scheduler
//! only notifies when someone is actually parked), so a batch of N
//! results costs N CASes, not N lock round-trips.
//!
//! **A watcher whose slot is claimed is dead.** Cancellation is the
//! claim alone: it writes no result (nobody can read a dropped ticket's
//! slots) and touches no job-map entry. A dead watcher stays where it
//! was registered — on the job its slot was waiting for — and is freed
//! with that job's entry: when the job completes (its fill loses the
//! CAS, its strict chain registers nothing), or when the job's token is
//! popped and nothing live wants it. There is no protocol between the
//! claim and a strict chain advancing onto its `Force`: a chain that
//! registers after the claim registers a dead watcher, which is freed
//! the same way. The cost is that a dropped or stalled batch's
//! `BatchState` lives until the last entry holding one of its watchers
//! goes.

use super::Unanswered;
use crate::engine::Job;
use fix_core::error::{Error, Result};
use fix_core::handle::Handle;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// One watched-batch slot's stake in a job, stored on the job's map
/// entry (see `JobEntry::watchers`).
pub(super) struct Watcher {
    pub(super) state: Arc<BatchState>,
    pub(super) pos: usize,
    /// Strict slot, eval stage: on success, chain onto the `Force` of
    /// the produced value instead of filling the slot.
    pub(super) then_force: bool,
}

impl Watcher {
    /// Whether the slot still wants this watcher's job: its slot is
    /// unclaimed. A dead watcher is freed with its job's entry.
    pub(super) fn live(&self) -> bool {
        !self.state.slot_claimed(self.pos)
    }
}

/// One slot of a watched batch.
struct SlotCell {
    /// First-writer-wins: whoever CASes this owns the slot's result.
    claimed: AtomicBool,
    /// The result, written by the claim owner before `remaining` is
    /// decremented (so `is_done` ⇒ every result is readable).
    result: Mutex<Option<Result<Handle>>>,
    /// The slot's request, the `Eval` of the handle asked for (however
    /// far the door or a strict chain has advanced past it): what stall
    /// messages and trace ids name.
    job: Job,
}

/// The completion state of one watched batch: positional result slots
/// filled by the scheduler's completion path. Shared between the
/// scheduler (which fills) and a submission ticket (which waits).
pub(crate) struct BatchState {
    slots: Vec<SlotCell>,
    /// Unfilled slot count; reaches zero exactly once.
    remaining: AtomicUsize,
    /// Set by whichever fill drains `remaining`.
    done: AtomicBool,
    /// Executor claims the batch's waiter holds while it waits: the
    /// claims on the door's stack below a watched job (a ticket's waiter
    /// holds none). See the scheduler's `waiting_claims`.
    held: usize,
}

impl BatchState {
    pub(super) fn new(pending: &[Unanswered], held: usize) -> BatchState {
        let n = pending.len();
        BatchState {
            slots: pending
                .iter()
                .map(|unanswered| SlotCell {
                    claimed: AtomicBool::new(false),
                    result: Mutex::new(None),
                    job: Job::Eval(unanswered.request),
                })
                .collect(),
            remaining: AtomicUsize::new(n),
            done: AtomicBool::new(n == 0),
            held,
        }
    }

    /// The executor claims the batch's waiter holds while it waits.
    pub(super) fn held(&self) -> usize {
        self.held
    }

    /// True once every slot has a result.
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Clones out slot `pos`'s result. Call only after
    /// [`is_done`](Self::is_done) returns true; an unfilled slot reads
    /// as a trap.
    pub(crate) fn result(&self, pos: usize) -> Result<Handle> {
        debug_assert!(self.is_done(), "result() before the batch completed");
        let result = self.slots[pos].result.lock().clone();
        result.unwrap_or_else(|| Err(Error::Trap(format!("batch slot {pos} read unfilled"))))
    }

    /// Claims slot `pos` for writing. True exactly once per slot.
    pub(super) fn claim_slot(&self, pos: usize) -> bool {
        self.slots[pos]
            .claimed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Whether slot `pos` has been claimed (it may still be mid-write).
    /// A claimed slot never wants a watcher again.
    pub(super) fn slot_claimed(&self, pos: usize) -> bool {
        self.slots[pos].claimed.load(Ordering::SeqCst)
    }

    /// Claims slot `pos` and writes its result: false if another writer
    /// owns the slot, otherwise whether this write completed the batch
    /// (the caller then owns waking waiters).
    pub(super) fn fill(&self, pos: usize, result: Result<Handle>) -> bool {
        if !self.claim_slot(pos) {
            return false;
        }
        *self.slots[pos].result.lock() = Some(result);
        let left = self.remaining.fetch_sub(1, Ordering::AcqRel) - 1;
        if fix_obs::tracing_enabled() {
            let kind = fix_obs::EventKind::SchedBatchFill;
            super::emit_job(kind, &self.job(pos), pos as u32, left as u32);
        }
        if left == 0 {
            self.done.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// Slot `pos`'s request.
    pub(super) fn job(&self, pos: usize) -> Job {
        self.slots[pos].job
    }

    /// The number of slots.
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }
}
