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
//! The claim bit also closes the cancel-versus-strict-chain race: a
//! strict slot's watcher re-registers on the `Force` job when its
//! `Eval` completes, and cancellation must deregister the watcher from
//! whichever stage the chain currently points at. The protocol is:
//!
//! * the *chain* records the new stage (under the new stage's job-map
//!   shard lock) and then checks `claimed` before registering the
//!   watcher — a claimed slot registers nothing;
//! * the *revoker* claims first, then removes the watcher from the
//!   recorded stage, re-reading the stage until it is stable.
//!
//! Whichever order the CAS lands in, the watcher is either never
//! registered or found by the revoker's re-read: no watcher outlives
//! its slot.

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

/// One slot of a watched batch.
struct SlotCell {
    /// First-writer-wins: whoever CASes this owns the slot's result.
    claimed: AtomicBool,
    /// The result, written by the claim owner before `remaining` is
    /// decremented (so `is_done` ⇒ every result is readable).
    result: Mutex<Option<Result<Handle>>>,
    /// The job currently answering this slot (the `Force` stage of a
    /// strict slot replaces the `Eval` stage when the chain advances).
    /// Revocation looks the watcher up through this.
    stage: Mutex<Job>,
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
}

impl BatchState {
    pub(super) fn new(roots: &[(Job, bool)]) -> BatchState {
        let n = roots.len();
        BatchState {
            slots: roots
                .iter()
                .map(|&(job, _)| SlotCell {
                    claimed: AtomicBool::new(false),
                    result: Mutex::new(None),
                    stage: Mutex::new(job),
                })
                .collect(),
            remaining: AtomicUsize::new(n),
            done: AtomicBool::new(n == 0),
        }
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

    /// Whether slot `pos` has been claimed (it may still be mid-write;
    /// only chain registration uses this, and a claimed slot never
    /// wants a watcher again).
    pub(super) fn slot_claimed(&self, pos: usize) -> bool {
        self.slots[pos].claimed.load(Ordering::SeqCst)
    }

    /// Writes the result of a slot the caller already claimed. Returns
    /// true when this write completed the batch (the caller then owns
    /// waking waiters).
    pub(super) fn finish_claimed(&self, pos: usize, result: Result<Handle>) -> bool {
        *self.slots[pos].result.lock() = Some(result);
        let left = self.remaining.fetch_sub(1, Ordering::AcqRel) - 1;
        if fix_obs::tracing_enabled() {
            fix_obs::emit(
                fix_obs::EventKind::SchedBatchFill,
                0,
                super::job_trace_id(&self.stage(pos)),
                pos as u32,
                left as u32,
            );
        }
        if left == 0 {
            self.done.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// Claim-and-fill in one call: false if another writer owns the
    /// slot, otherwise fills it and returns whether the batch is now
    /// done.
    pub(super) fn fill(&self, pos: usize, result: Result<Handle>) -> bool {
        if !self.claim_slot(pos) {
            return false;
        }
        self.finish_claimed(pos, result)
    }

    /// The job currently answering slot `pos`.
    pub(super) fn stage(&self, pos: usize) -> Job {
        *self.slots[pos].stage.lock()
    }

    /// Records the job now answering slot `pos` (the chain advanced).
    /// Called under the new stage's job-map shard lock, *before* the
    /// chain's `claimed` check — see the module docs.
    pub(super) fn set_stage(&self, pos: usize, job: Job) {
        *self.slots[pos].stage.lock() = job;
    }

    /// The slots no writer has claimed yet. A revocation sweep's
    /// worklist: each still has to be claimed individually (a racing
    /// fill may win any of them first).
    pub(super) fn unclaimed(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.claimed.load(Ordering::SeqCst))
            .map(|(i, _)| i)
            .collect()
    }
}
