//! Native submission tickets over the scheduler.
//!
//! `Runtime` implements `fix_core::api::SubmitApi` directly: a
//! submitted batch becomes a watched scheduler batch
//! ([`Scheduler::submit_watched_with`]) whose completion slots are
//! filled by the scheduler's own completion notifications — one job-map
//! lock acquisition at submission, no caller thread parked, no polling.
//! The [`RuntimePending`] here is the glue between that watched batch
//! and the backend-agnostic ticket machinery in `fix_core`.
//!
//! The submission's `SubmitOptions` map onto the scheduler directly:
//! [`Mode::Strict`](fix_core::api::Mode) turns each slot into a watched
//! eval→force chain. Under WHNF, value handles never touch the
//! scheduler (they evaluate to themselves), so the pending batch
//! carries a slot plan mapping each requested position either to its
//! value or to a watched job slot; under strict evaluation *every*
//! handle is watched — even a value must be deep-forced.

use crate::engine::Job;
use crate::scheduler::{BatchState, Scheduler};
use fix_core::api::{BatchTicket, Mode, PendingBatch, SubmitOptions};
use fix_core::error::Result;
use fix_core::handle::Handle;
use std::sync::Arc;

/// Where each requested position gets its answer.
enum Slot {
    /// A value handle under WHNF: evaluates to itself, scheduler never
    /// involved.
    Value(Handle),
    /// Slot `i` of the watched scheduler batch.
    Job(usize),
}

/// One in-flight submitted batch on the single-node runtime.
pub(crate) struct RuntimePending {
    scheduler: Arc<Scheduler>,
    state: Arc<BatchState>,
    plan: Vec<Slot>,
}

impl RuntimePending {
    /// Assembles positional results from the (completed) watched batch.
    fn assemble(&self) -> Vec<Result<Handle>> {
        self.plan
            .iter()
            .map(|slot| match slot {
                Slot::Value(h) => Ok(*h),
                Slot::Job(i) => self.state.result(*i),
            })
            .collect()
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

/// The watched root of a strict request for `h`: a value still needs
/// its deep force; a thunk is the full chain — eval, then force the
/// produced value.
pub(crate) fn strict_root(h: Handle) -> (Job, bool) {
    if h.is_value() {
        (Job::Force(h), false)
    } else {
        (Job::Eval(h), true)
    }
}

/// Builds the ticket for a batch of handles under request-scoped
/// options: WHNF values resolve eagerly, everything else becomes one
/// watched scheduler batch submitted under a single lock acquisition —
/// strict slots as eval→force chains.
pub(crate) fn submit_with(
    scheduler: &Arc<Scheduler>,
    handles: &[Handle],
    options: SubmitOptions,
) -> BatchTicket {
    let mut jobs: Vec<(Job, bool)> = Vec::new();
    let plan: Vec<Slot> = handles
        .iter()
        .map(|&h| match options.mode {
            Mode::Whnf if h.is_value() => Slot::Value(h),
            Mode::Whnf => {
                jobs.push((Job::Eval(h), false));
                Slot::Job(jobs.len() - 1)
            }
            Mode::Strict => {
                jobs.push(strict_root(h));
                Slot::Job(jobs.len() - 1)
            }
        })
        .collect();
    if jobs.is_empty() {
        // All WHNF values: the ticket is born resolved.
        return BatchTicket::ready(handles.iter().map(|&h| Ok(h)).collect());
    }
    let state = scheduler.submit_watched_with(&jobs);
    BatchTicket::from_pending(
        Arc::new(RuntimePending {
            scheduler: Arc::clone(scheduler),
            state,
            plan,
        }),
        handles.len(),
    )
}
