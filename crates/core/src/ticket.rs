//! Tickets: the currency of submission-first evaluation.
//!
//! The paper's thesis is that computation is *described* first and
//! *resolved* later. [`SubmitApi`](crate::api::SubmitApi) carries that
//! split into the evaluation API itself: `submit_many` describes a batch
//! of requests and returns a [`BatchTicket`] immediately; the results
//! are asked for later with [`BatchTicket::wait`]. A ticket is waited on
//! or dropped — there is nothing else to do with one.
//!
//! A ticket is a thin shell over a [`PendingBatch`]: the scheduler
//! decides *how* completion happens (its completion notifications fill
//! the batch's slots), while the ticket state machine — pending →
//! resolved — and the cancellation contract live here, shared by every
//! backend.
//!
//! Dropping an unresolved ticket lets go of its results: nobody can read
//! a dropped ticket's slots, so the backend writes none of them. It
//! marks the batch's unresolved slots as claimed, and **still-queued
//! work that no live request or parked job wants never runs** — a
//! dropped batch whose jobs were never dispatched runs zero procedures.
//! Work another request also watches, work something else depends on,
//! and work already executing complete normally. The backend must
//! neither hang concurrent work nor leak (the conformance suite holds
//! backends to this, and the runtime exposes `submission_watchers()` /
//! `queued_jobs()` so the leak checks are pinned, not assumed).

use crate::error::Result;
use crate::handle::Handle;
use std::sync::Arc;

/// One in-flight batch, as the scheduler that accepted it sees it.
///
/// There is one implementor: `fixpoint`'s watched scheduler batch, which
/// every backend's tickets wrap (the cluster client returns its
/// embedded node's ticket). It is a trait rather than that type
/// only because of the crate graph — `fixpoint` depends on `fix-core`,
/// so the ticket state machine here cannot name the scheduler — and
/// because the ticket tests below drive the state machine with
/// hand-cranked batches. Callers never see it directly: they hold a
/// [`BatchTicket`], which resolves itself through these hooks. Both
/// methods may be called from any thread.
///
/// ## The slot-fill contract
///
/// Completion is per *slot*, and each slot is claimed **exactly once**:
/// whichever event reaches it first — the result, a cancellation, a
/// stall failure — owns the slot, and every later writer backs off
/// (the scheduler claims slots with a first-writer-wins CAS and counts
/// the batch down atomically). A cancellation's claim writes nothing,
/// since nobody can wait on a dropped ticket. By the time "every slot
/// filled" is observable, every slot's result must be readable.
pub trait PendingBatch: Send + Sync {
    /// Blocks until the batch completes and returns the positional
    /// results. Backends whose caller threads can make progress
    /// themselves (the inline single-node scheduler) drive work here
    /// rather than parking.
    fn wait(&self) -> Vec<Result<Handle>>;

    /// The ticket was dropped unresolved: the results will never be
    /// read. The batch claims its unresolved slots, so nothing wants
    /// their results any more; still-queued work that no live request
    /// or parked job wants must then never run, and the batch's
    /// bookkeeping must be freed no later than the work it watched —
    /// all without disturbing other in-flight work or hanging a
    /// concurrent waiter.
    fn cancel(&self);
}

enum TicketState {
    /// In flight (or complete but not yet waited on).
    Pending(Arc<dyn PendingBatch>),
    /// Born resolved, or already waited on (then empty).
    Ready(Vec<Result<Handle>>),
}

/// A claim on the results of one submitted batch (see
/// [`SubmitApi::submit_many`](crate::api::SubmitApi::submit_many)).
///
/// Results are positional: slot `i` answers `handles[i]` of the
/// submission, exactly as
/// [`Evaluator::eval_many`](crate::api::Evaluator::eval_many) would.
/// Dropping the ticket unresolved revokes the request: still-queued
/// work nothing else wants never runs (see [`PendingBatch::cancel`]).
pub struct BatchTicket {
    state: TicketState,
    len: usize,
}

impl BatchTicket {
    /// A ticket that was born resolved: nothing is left in flight — a
    /// batch of values, or one its backend refused whole.
    pub fn ready(results: Vec<Result<Handle>>) -> BatchTicket {
        let len = results.len();
        BatchTicket {
            state: TicketState::Ready(results),
            len,
        }
    }

    /// A ticket over a backend's in-flight batch. `len` is the number of
    /// slots the resolved results will have (one per submitted handle).
    pub fn from_pending(pending: Arc<dyn PendingBatch>, len: usize) -> BatchTicket {
        BatchTicket {
            state: TicketState::Pending(pending),
            len,
        }
    }

    /// Number of requests (and, eventually, results) in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-request batch.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Blocks until the batch completes and returns the positional
    /// results, consuming the ticket.
    pub fn wait(mut self) -> Vec<Result<Handle>> {
        // Left resolved, so the drop that follows cancels nothing.
        match std::mem::replace(&mut self.state, TicketState::Ready(Vec::new())) {
            TicketState::Ready(results) => results,
            TicketState::Pending(pending) => pending.wait(),
        }
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        // An unresolved dropped ticket revokes its request.
        if let TicketState::Pending(pending) = &self.state {
            pending.cancel();
        }
    }
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            TicketState::Pending(_) => "pending",
            TicketState::Ready(_) => "ready",
        };
        write!(f, "BatchTicket({state}, {} slots)", self.len)
    }
}

/// A claim on the result of one submitted evaluation: a batch ticket of
/// exactly one slot (see [`SubmitApi::submit`](crate::api::SubmitApi::submit)).
#[derive(Debug)]
pub struct Ticket {
    batch: BatchTicket,
}

impl Ticket {
    /// Wraps a single-slot batch ticket.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not hold exactly one slot.
    pub fn from_batch(batch: BatchTicket) -> Ticket {
        assert_eq!(batch.len(), 1, "a Ticket claims exactly one result");
        Ticket { batch }
    }

    /// Blocks until the evaluation completes, consuming the ticket.
    pub fn wait(self) -> Result<Handle> {
        // A backend that completed a one-slot batch with no result at
        // all is a substrate fault, reported as one.
        self.batch.wait().pop().unwrap_or_else(|| {
            Err(crate::error::Error::Backend {
                backend: "ticket",
                message: "a one-slot batch completed with no result".into(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Blob;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// A hand-cranked PendingBatch: completes when `finish` is called.
    struct ManualBatch {
        results: Mutex<Option<Vec<Result<Handle>>>>,
        cancelled: AtomicBool,
    }

    impl ManualBatch {
        fn new() -> Arc<ManualBatch> {
            Arc::new(ManualBatch {
                results: Mutex::new(None),
                cancelled: AtomicBool::new(false),
            })
        }

        fn finish(&self, results: Vec<Result<Handle>>) {
            *self.results.lock().unwrap() = Some(results);
        }
    }

    impl PendingBatch for ManualBatch {
        fn wait(&self) -> Vec<Result<Handle>> {
            loop {
                if let Some(r) = self.results.lock().unwrap().clone() {
                    return r;
                }
                std::thread::yield_now();
            }
        }
        fn cancel(&self) {
            self.cancelled.store(true, Ordering::SeqCst);
        }
    }

    fn h(n: u64) -> Handle {
        Blob::from_u64(n).handle()
    }

    #[test]
    fn ready_tickets_resolve_immediately() {
        let t = BatchTicket::ready(vec![Ok(h(1)), Ok(h(2))]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.wait(), vec![Ok(h(1)), Ok(h(2))]);
    }

    #[test]
    fn pending_tickets_resolve_when_the_batch_completes() {
        let batch = ManualBatch::new();
        let t = BatchTicket::from_pending(Arc::clone(&batch) as Arc<dyn PendingBatch>, 1);
        batch.finish(vec![Ok(h(7))]);
        assert_eq!(t.wait()[0].as_ref().unwrap(), &h(7));
        assert!(
            !batch.cancelled.load(Ordering::SeqCst),
            "a waited ticket is never cancelled"
        );
    }

    #[test]
    fn dropping_an_unresolved_ticket_cancels() {
        let batch = ManualBatch::new();
        let t = BatchTicket::from_pending(Arc::clone(&batch) as Arc<dyn PendingBatch>, 1);
        drop(t);
        assert!(batch.cancelled.load(Ordering::SeqCst));
    }

    #[test]
    fn single_tickets_wrap_one_slot() {
        let t = Ticket::from_batch(BatchTicket::ready(vec![Ok(h(42))]));
        assert_eq!(t.wait().unwrap(), h(42));
    }
}
