//! Tickets: the currency of submission-first evaluation.
//!
//! The paper's thesis is that computation is *described* first and
//! *resolved* later. [`SubmitApi`](crate::api::SubmitApi) carries that
//! split into the evaluation API itself: `submit_many` describes a batch
//! of requests and returns a [`BatchTicket`] immediately; the results
//! are asked for later with [`BatchTicket::wait`], checked without
//! blocking with [`BatchTicket::poll`], or multiplexed with
//! [`BatchTicket::wait_any`].
//!
//! A ticket is a thin shell over a [`PendingBatch`]: the scheduler
//! decides *how* completion happens (its completion notifications fill
//! the batch's slots), while the ticket state machine — pending →
//! resolved → taken — and the cancellation contract live here, shared
//! by every backend.
//!
//! [`BatchTicket::cancel`] is *true cancellation*, not mere
//! deregistration: the backend fails the batch's unresolved slots with
//! [`Error::Cancelled`](crate::error::Error::Cancelled), releases its
//! per-batch bookkeeping (its watchers), and **withdraws
//! still-queued work that no other live request shares** — a cancelled
//! batch whose jobs were never dispatched runs zero procedures. Work
//! another request also watches, work something else depends on, and
//! work already executing are left to complete normally. Dropping an
//! unresolved ticket is cancel's implicit form: same withdrawal, with
//! the `Cancelled` results simply never claimed. Either way the backend
//! must neither hang concurrent work nor leak (the conformance suite
//! holds backends to this, and the runtime exposes
//! `submission_watchers()` / `queued_jobs()` so the leak checks are
//! pinned, not assumed).

use crate::error::Result;
use crate::handle::Handle;
use std::sync::Arc;
use std::time::Duration;

/// How long one [`BatchTicket::wait_any`] round parks before re-polling
/// every ticket. Completion notifications usually wake the waiter much
/// earlier; the bound only caps the latency of cross-backend mixes,
/// where one batch's completion cannot signal another batch's condvar.
const WAIT_ANY_TICK: Duration = Duration::from_micros(500);

/// One in-flight batch, as the scheduler that accepted it sees it.
///
/// There is one implementor: `fixpoint`'s watched scheduler batch, which
/// every backend's tickets wrap (the cluster client returns its
/// embedded node's ticket). It is a trait rather than that type
/// only because of the crate graph — `fixpoint` depends on `fix-core`,
/// so the ticket state machine here cannot name the scheduler — and
/// because the ticket tests below drive the state machine with
/// hand-cranked batches. Callers never see it directly: they hold a
/// [`BatchTicket`], which resolves itself through these hooks. All
/// methods may be called from any thread.
///
/// ## The slot-fill contract
///
/// Completion is per *slot*, and each slot resolves **exactly once**:
/// whichever event reaches it first — the result, a deadline expiry, a
/// cancellation, a stall failure — owns the slot's outcome, and every
/// later writer backs off (the scheduler claims slots with a
/// first-writer-wins CAS and counts the batch down atomically). By the
/// time "every slot filled" is observable, every slot's result must be
/// readable. `try_take` is called from hot polling loops (`wait_any`
/// re-polls each ticket per tick), so the done check should be cheap —
/// an atomic flag, not a lock sweep.
pub trait PendingBatch: Send + Sync {
    /// Non-blocking: the positional results, if every slot in the batch
    /// has completed; `None` while any slot is still in flight.
    fn try_take(&self) -> Option<Vec<Result<Handle>>>;

    /// Blocks until the batch completes and returns the positional
    /// results. Backends whose caller threads can make progress
    /// themselves (the inline single-node scheduler) drive work here
    /// rather than parking.
    fn wait(&self) -> Vec<Result<Handle>>;

    /// Makes bounded progress toward completion: executes some work
    /// inline if this backend supports it, otherwise parks for at most
    /// `timeout` awaiting a completion signal. Returns after progress,
    /// completion, or timeout — never indefinitely.
    fn advance(&self, timeout: Duration);

    /// The ticket was cancelled (explicitly, or implicitly by being
    /// dropped unresolved): the results will never be claimed. The
    /// batch must fail its unresolved slots with
    /// [`Error::Cancelled`](crate::error::Error::Cancelled), release
    /// every piece of per-batch bookkeeping it holds in the backend,
    /// and withdraw still-queued work that no other live request
    /// shares — all without disturbing other in-flight work or hanging
    /// a concurrent waiter.
    fn cancel(&self);
}

enum TicketState {
    /// In flight (or complete but not yet observed).
    Pending(Arc<dyn PendingBatch>),
    /// Complete; results cached in the ticket, not yet claimed.
    Ready(Vec<Result<Handle>>),
    /// Results claimed (via `wait`, `take_results`, or `wait_any` +
    /// `take_results`); the ticket is spent.
    Taken,
}

/// A claim on the results of one submitted batch (see
/// [`SubmitApi::submit_many`](crate::api::SubmitApi::submit_many)).
///
/// Results are positional: slot `i` answers `handles[i]` of the
/// submission, exactly as
/// [`Evaluator::eval_many`](crate::api::Evaluator::eval_many) would.
/// [`cancel`](Self::cancel) revokes the request: still-queued work no
/// other live request shares is withdrawn and unresolved slots fail
/// with [`Error::Cancelled`](crate::error::Error::Cancelled). Dropping
/// the ticket unresolved is cancel's implicit form (see
/// [`PendingBatch::cancel`]).
pub struct BatchTicket {
    state: TicketState,
    len: usize,
}

impl BatchTicket {
    /// A ticket that was born resolved: nothing is left in flight — a
    /// batch of values, a batch dead on arrival, or one its backend
    /// refused whole.
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

    /// Non-blocking completion check. Once this returns true the
    /// results are retained by the ticket and [`wait`](Self::wait) /
    /// [`take_results`](Self::take_results) return without blocking.
    pub fn poll(&mut self) -> bool {
        match &self.state {
            TicketState::Ready(_) | TicketState::Taken => true,
            TicketState::Pending(pending) => match pending.try_take() {
                Some(results) => {
                    self.state = TicketState::Ready(results);
                    true
                }
                None => false,
            },
        }
    }

    /// Blocks until the batch completes and returns the positional
    /// results, consuming the ticket.
    ///
    /// # Panics
    ///
    /// Panics if the results were already claimed with
    /// [`take_results`](Self::take_results).
    pub fn wait(mut self) -> Vec<Result<Handle>> {
        match std::mem::replace(&mut self.state, TicketState::Taken) {
            TicketState::Ready(results) => results,
            TicketState::Pending(pending) => pending.wait(),
            // invariant: the documented contract — results are claimed once.
            TicketState::Taken => panic!("BatchTicket::wait after the results were taken"),
        }
    }

    /// Claims the results without blocking: `Some` exactly once, as soon
    /// as the batch is complete; `None` while still in flight and after
    /// the results have been taken.
    pub fn take_results(&mut self) -> Option<Vec<Result<Handle>>> {
        if !self.poll() {
            return None;
        }
        match std::mem::replace(&mut self.state, TicketState::Taken) {
            TicketState::Ready(results) => Some(results),
            TicketState::Taken => None,
            // invariant: `poll()` returned true, so the state is not Pending.
            TicketState::Pending(_) => unreachable!("poll() resolved the ticket"),
        }
    }

    /// Cancels the request, consuming the ticket: the backend fails
    /// every unresolved slot with
    /// [`Error::Cancelled`](crate::error::Error::Cancelled), releases
    /// the batch's bookkeeping, and withdraws still-queued work that no
    /// other live request shares (shared, depended-on, or
    /// already-executing work completes normally). Results the batch
    /// had already produced are discarded.
    ///
    /// Dropping an unresolved ticket performs the same cancellation
    /// implicitly; the explicit form exists so callers can revoke work
    /// at a point of their choosing (a disconnecting client, a missed
    /// SLO) and have the accounting say so.
    pub fn cancel(mut self) {
        if let TicketState::Pending(pending) =
            std::mem::replace(&mut self.state, TicketState::Taken)
        {
            pending.cancel();
        }
    }

    /// Bounded progress for multiplexed waiting (see
    /// [`wait_any`](Self::wait_any)).
    fn advance(&mut self, timeout: Duration) {
        if let TicketState::Pending(pending) = &self.state {
            pending.advance(timeout);
        }
    }

    /// Blocks until at least one ticket in `tickets` is complete and
    /// unclaimed, returning its index (its results are then claimed with
    /// [`take_results`](Self::take_results)). Returns `None` when every
    /// ticket has already been claimed — there is nothing left to wait
    /// for. A completed ticket whose results are never taken is returned
    /// again on the next call, so drain with `take_results` to make
    /// progress through a set.
    ///
    /// Tickets may come from different backends; progress is driven
    /// through each batch's own [`PendingBatch::advance`], rotating
    /// across the pending tickets so a batch that needs its waiter's
    /// help (an inline scheduler with no worker pool) is never starved
    /// behind a slow sibling from another node. A mix of inline and
    /// pooled nodes therefore multiplexes correctly, with latency
    /// bounded by an internal re-poll tick.
    pub fn wait_any(tickets: &mut [BatchTicket]) -> Option<usize> {
        let mut rotation = 0usize;
        loop {
            let mut pending: Vec<usize> = Vec::new();
            for (i, ticket) in tickets.iter_mut().enumerate() {
                match &ticket.state {
                    TicketState::Ready(_) => return Some(i),
                    TicketState::Taken => {}
                    TicketState::Pending(_) => {
                        if ticket.poll() {
                            return Some(i);
                        }
                        pending.push(i);
                    }
                }
            }
            if pending.is_empty() {
                // All claimed: nothing can ever complete again.
                return None;
            }
            // Drive (or park on) the pending batches round-robin; for
            // backends with a shared work queue one advance helps every
            // sibling batch too, and the bounded tick re-polls the rest.
            let driven = pending[rotation % pending.len()];
            rotation = rotation.wrapping_add(1);
            tickets[driven].advance(WAIT_ANY_TICK);
        }
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        // Implicit cancellation: an unresolved dropped ticket revokes
        // its request exactly as `cancel` would.
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
            TicketState::Taken => "taken",
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

    /// Non-blocking completion check.
    pub fn poll(&mut self) -> bool {
        self.batch.poll()
    }

    /// Blocks until the evaluation completes, consuming the ticket.
    pub fn wait(self) -> Result<Handle> {
        only_result(self.batch.wait())
    }

    /// Claims the result without blocking: `Some` exactly once, as soon
    /// as the evaluation is complete.
    pub fn take_result(&mut self) -> Option<Result<Handle>> {
        self.batch.take_results().map(only_result)
    }

    /// Cancels the request, consuming the ticket; see
    /// [`BatchTicket::cancel`].
    pub fn cancel(self) {
        self.batch.cancel()
    }
}

/// The one result of a one-slot batch. A backend that completed the
/// batch with no result at all is a substrate fault, reported as one.
fn only_result(mut results: Vec<Result<Handle>>) -> Result<Handle> {
    results.pop().unwrap_or_else(|| {
        Err(crate::error::Error::Backend {
            backend: "ticket",
            message: "a one-slot batch completed with no result".into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Blob;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A hand-cranked PendingBatch: completes when `finish` is called.
    struct ManualBatch {
        results: Mutex<Option<Vec<Result<Handle>>>>,
        cancelled: AtomicBool,
        advances: AtomicUsize,
    }

    impl ManualBatch {
        fn new() -> Arc<ManualBatch> {
            Arc::new(ManualBatch {
                results: Mutex::new(None),
                cancelled: AtomicBool::new(false),
                advances: AtomicUsize::new(0),
            })
        }

        fn finish(&self, results: Vec<Result<Handle>>) {
            *self.results.lock().unwrap() = Some(results);
        }
    }

    impl PendingBatch for ManualBatch {
        fn try_take(&self) -> Option<Vec<Result<Handle>>> {
            self.results.lock().unwrap().clone()
        }
        fn wait(&self) -> Vec<Result<Handle>> {
            loop {
                if let Some(r) = self.try_take() {
                    return r;
                }
                std::thread::yield_now();
            }
        }
        fn advance(&self, _timeout: Duration) {
            self.advances.fetch_add(1, Ordering::SeqCst);
            std::thread::yield_now();
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
        let mut t = BatchTicket::ready(vec![Ok(h(1)), Ok(h(2))]);
        assert_eq!(t.len(), 2);
        assert!(t.poll());
        let results = t.take_results().unwrap();
        assert_eq!(results.len(), 2);
        assert!(t.take_results().is_none(), "results are claimed once");
    }

    #[test]
    fn pending_tickets_resolve_when_the_batch_completes() {
        let batch = ManualBatch::new();
        let mut t = BatchTicket::from_pending(Arc::clone(&batch) as Arc<dyn PendingBatch>, 1);
        assert!(!t.poll());
        batch.finish(vec![Ok(h(7))]);
        assert!(t.poll());
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
    fn explicit_cancel_reaches_the_backend_once() {
        let batch = ManualBatch::new();
        let t = BatchTicket::from_pending(Arc::clone(&batch) as Arc<dyn PendingBatch>, 1);
        t.cancel(); // Consumes the ticket; Drop must not cancel again.
        assert!(batch.cancelled.load(Ordering::SeqCst));
    }

    #[test]
    fn dropping_a_resolved_ticket_does_not_cancel() {
        let batch = ManualBatch::new();
        batch.finish(vec![Ok(h(1))]);
        let mut t = BatchTicket::from_pending(Arc::clone(&batch) as Arc<dyn PendingBatch>, 1);
        assert!(t.poll());
        drop(t);
        assert!(!batch.cancelled.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_any_returns_completed_batches_and_then_none() {
        let a = ManualBatch::new();
        let b = ManualBatch::new();
        b.finish(vec![Ok(h(2))]);
        let mut tickets = vec![
            BatchTicket::from_pending(Arc::clone(&a) as Arc<dyn PendingBatch>, 1),
            BatchTicket::from_pending(Arc::clone(&b) as Arc<dyn PendingBatch>, 1),
        ];
        let first = BatchTicket::wait_any(&mut tickets).unwrap();
        assert_eq!(first, 1);
        assert!(tickets[first].take_results().is_some());
        a.finish(vec![Ok(h(1))]);
        let second = BatchTicket::wait_any(&mut tickets).unwrap();
        assert_eq!(second, 0);
        assert!(tickets[second].take_results().is_some());
        assert_eq!(BatchTicket::wait_any(&mut tickets), None);
    }

    /// A batch that completes only when its waiter drives it — models a
    /// pool-less scheduler backend whose progress comes from `advance`.
    struct DriveToFinish {
        results: Mutex<Option<Vec<Result<Handle>>>>,
    }

    impl PendingBatch for DriveToFinish {
        fn try_take(&self) -> Option<Vec<Result<Handle>>> {
            self.results.lock().unwrap().clone()
        }
        fn wait(&self) -> Vec<Result<Handle>> {
            loop {
                if let Some(r) = self.try_take() {
                    return r;
                }
                self.advance(Duration::ZERO);
            }
        }
        fn advance(&self, _timeout: Duration) {
            *self.results.lock().unwrap() = Some(vec![Ok(h(5))]);
        }
        fn cancel(&self) {}
    }

    /// Regression: `wait_any` must rotate which pending ticket it
    /// drives. With first-pending-only driving, a slow batch at index 0
    /// starves a drive-to-finish batch at index 1 forever (this test
    /// hangs); round-robin resolves index 1 on its first turn.
    #[test]
    fn wait_any_rotates_past_a_slow_batch() {
        let stuck = ManualBatch::new(); // Never finishes on its own.
        let driveable = Arc::new(DriveToFinish {
            results: Mutex::new(None),
        });
        let mut tickets = vec![
            BatchTicket::from_pending(Arc::clone(&stuck) as Arc<dyn PendingBatch>, 1),
            BatchTicket::from_pending(driveable as Arc<dyn PendingBatch>, 1),
        ];
        assert_eq!(BatchTicket::wait_any(&mut tickets), Some(1));
        assert!(
            stuck.advances.load(Ordering::SeqCst) <= 2,
            "the stuck batch must not monopolize the driving"
        );
    }

    #[test]
    fn single_tickets_wrap_one_slot() {
        let mut t = Ticket::from_batch(BatchTicket::ready(vec![Ok(h(42))]));
        assert!(t.poll());
        assert_eq!(t.take_result().unwrap().unwrap(), h(42));
        assert!(t.take_result().is_none());
    }
}
