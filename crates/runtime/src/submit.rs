//! Native submission tickets over the scheduler.
//!
//! `Runtime` implements `fix_core::api::SubmitApi` directly. Each
//! requested handle meets the scheduler's door first
//! ([`Scheduler::admit`]): what the node's table already holds — a
//! value, a memoized `Eval`, and for a strict slot the memoized `Force`
//! of that value — answers the slot on the spot, and the slot never
//! reaches the job map. A batch answered whole is a ready ticket, with
//! no scheduler state behind it. The rest become one watched scheduler
//! batch ([`Scheduler::submit_watched_with`]) whose slots are filled by
//! the scheduler's own completion notifications — one job-map shard
//! visit per slot at submission, no caller thread parked, no polling.
//! The [`RuntimePending`] here is the glue between that watched batch
//! and the backend-agnostic ticket machinery in `fix_core`: it holds the
//! door's answers by position and writes each watched slot's result into
//! its position when the batch is done.
//!
//! [`Mode::Strict`](fix_core::api::Mode) makes each slot the eval→force
//! chain, answered or watched as one slot: a value's `Eval` is itself,
//! so a strict value still waits only for its deep force.

use crate::scheduler::{BatchState, Scheduler, Unanswered};
use fix_core::api::{BatchTicket, Mode, PendingBatch, SubmitOptions};
use fix_core::error::Result;
use fix_core::handle::Handle;
use std::sync::Arc;

/// One in-flight submitted batch on the single-node runtime.
pub(crate) struct RuntimePending {
    scheduler: Arc<Scheduler>,
    state: Arc<BatchState>,
    /// The positional results: the door's answers, and at each watched
    /// position a stand-in (the request itself) until the batch is done.
    answers: Vec<Result<Handle>>,
    /// The requests the door left to run, in watched-slot order.
    pending: Vec<Unanswered>,
}

impl RuntimePending {
    /// Assembles positional results from the (completed) watched batch.
    fn assemble(&self) -> Vec<Result<Handle>> {
        let mut results = self.answers.clone();
        for (slot, request) in self.pending.iter().enumerate() {
            results[request.pos] = self.state.result(slot);
        }
        results
    }
}

impl PendingBatch for RuntimePending {
    fn wait(&self) -> Vec<Result<Handle>> {
        // The waiting thread turns into an inline driver: it executes
        // queued jobs (its own batch's and anyone else's) until the
        // watchers report this batch done.
        self.scheduler.wait_batch(&self.state);
        self.assemble()
    }

    fn cancel(&self) {
        self.scheduler.cancel_batch(&self.state);
    }
}

/// Builds the ticket for a batch of handles under request-scoped
/// options: every handle passes the door, and what it leaves to run
/// becomes one watched scheduler batch.
pub(crate) fn submit_with(
    scheduler: &Arc<Scheduler>,
    handles: &[Handle],
    options: SubmitOptions,
) -> BatchTicket {
    let strict = options.mode == Mode::Strict;
    let mut answers = Vec::with_capacity(handles.len());
    let mut pending = Vec::new();
    for (pos, &request) in handles.iter().enumerate() {
        match scheduler.admit(request, strict, pos) {
            Ok(v) => answers.push(Ok(v)),
            Err(rest) => {
                answers.push(Ok(request));
                pending.push(Unanswered { pos, request, rest });
            }
        }
    }
    if pending.is_empty() {
        // Answered whole at the door: the ticket is born resolved.
        return BatchTicket::ready(answers);
    }
    let state = scheduler.submit_watched_with(&pending, 0);
    BatchTicket::from_pending(
        Arc::new(RuntimePending {
            scheduler: Arc::clone(scheduler),
            state,
            answers,
            pending,
        }),
        handles.len(),
    )
}
