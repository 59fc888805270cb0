//! Layer 2 of the scheduler: the run queue, one deque per pool worker
//! plus one shared by every other thread.
//!
//! ## Slot map
//! - A runtime with `workers` pool workers has `workers + 1` slots, each
//!   holding one deque.
//! - Pool worker `i` owns slot `i`.
//! - Every other thread of the runtime — submitters, inline drivers,
//!   waiters — shares the last slot, the *external* slot.
//! - A caller names its slot (`worker_loop` its index, the external
//!   entry points [`DequeSet::external`]). No slot is read from thread
//!   state, so none outlives its runtime or leaks into another.
//!
//! ## Dispatch order
//! - **Owner: own slot, LIFO.** Depth-first over dependency trees,
//!   cache-warm. The external slot's owners are all the external
//!   threads: each pops its newest token.
//! - **Thief: other slots, FIFO.** An owner with an empty slot scans the
//!   others in ring order and takes the oldest token of the first
//!   non-empty deque. Workers take from the external slot this way,
//!   like from any other slot.
//! - The queue is not tiered: the serving kernel put its batches in
//!   order on its virtual clock before submitting them.
//!
//! ## Gotchas
//! - The deques hold tokens, not truth: the job map (layer 1) decides
//!   at claim whether a popped token is live, and drops a job nothing
//!   wants any more.
//! - `queued` counts tokens in every slot, incremented before a push
//!   and decremented after a pop, so "every deque is empty" is one load:
//!   that is how a waiter's stall check sees tokens in other slots or
//!   mid-steal.
//! - External threads contend on one lock; a worker's pushes of its
//!   own dependencies never do.

use crate::engine::Job;
use fix_obs::EventKind;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The run queue of one runtime.
pub(super) struct DequeSet {
    /// Slot `i` is pool worker `i`'s; the last is the external slot.
    slots: Vec<Mutex<VecDeque<Job>>>,
    /// Tokens across all slots; see the module docs for the ordering
    /// contract that makes this the stall check's queue-empty answer.
    queued: AtomicUsize,
    /// Tokens popped from a slot other than the popper's own
    /// (diagnostic). A registry-adoptable counter so `Runtime` can name
    /// it without a second cell.
    steals: fix_obs::Counter,
    /// Total successful pops (own-slot + steals), the denominator of
    /// the steal rate.
    pops: fix_obs::Counter,
    /// Live steal rate in permille of pops (`steals × 1000 / pops`),
    /// refreshed on every successful pop. A registry-adoptable gauge
    /// (`sched.steal_rate`) so load controllers can read scheduler
    /// contention like any other metric. Wall-timing dependent:
    /// diagnostic only, never part of a deterministic table.
    steal_rate: fix_obs::Gauge,
}

impl DequeSet {
    /// The run queue of a runtime with `workers` pool workers.
    pub(super) fn new(workers: usize) -> DequeSet {
        DequeSet {
            slots: (0..=workers).map(|_| Mutex::default()).collect(),
            queued: AtomicUsize::new(0),
            steals: fix_obs::Counter::new(),
            pops: fix_obs::Counter::new(),
            steal_rate: fix_obs::Gauge::new(),
        }
    }

    /// The slot of every thread that is not a pool worker; also the
    /// number of worker slots before it.
    pub(super) fn external(&self) -> usize {
        self.slots.len() - 1
    }

    /// Tokens currently in some deque. A zero reading is trustworthy
    /// for stall detection because the counter is incremented *before*
    /// a token becomes poppable and only decremented by a popper that
    /// publishes the pop's consequences before dropping its executor
    /// claim.
    pub(super) fn queued(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    pub(super) fn steals(&self) -> u64 {
        self.steals.get()
    }

    /// The live steal counter, for registry adoption.
    pub(super) fn steals_counter(&self) -> fix_obs::Counter {
        self.steals.clone()
    }

    /// The live steal-rate gauge (permille of pops), for registry
    /// adoption under `sched.steal_rate`.
    pub(super) fn steal_rate_gauge(&self) -> fix_obs::Gauge {
        self.steal_rate.clone()
    }

    /// Refreshes the steal-rate gauge after a successful pop.
    fn note_pop(&self) {
        self.pops.inc();
        let pops = self.pops.get();
        self.steal_rate
            .set((self.steals.get().saturating_mul(1000) / pops.max(1)) as i64);
    }

    /// Pushes a token onto `home`'s deque.
    pub(super) fn push(&self, home: usize, job: Job) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.slots[home].lock().push_back(job);
    }

    /// Pops the next token for an owner of `home`: own slot LIFO, then a
    /// FIFO steal sweep over the other slots.
    pub(super) fn pop(&self, home: usize) -> Option<Job> {
        if self.queued() == 0 {
            return None;
        }
        if let Some(job) = self.slots[home].lock().pop_back() {
            self.took(EventKind::SchedPop, home, &job);
            return Some(job);
        }
        let n = self.slots.len();
        for k in 1..n {
            let victim = (home + k) % n;
            if let Some(job) = self.slots[victim].lock().pop_front() {
                self.steals.inc();
                self.took(EventKind::SchedSteal, victim, &job);
                return Some(job);
            }
        }
        None
    }

    /// Accounts a token popped from `slot` (a steal is counted first).
    fn took(&self, kind: EventKind, slot: usize, job: &Job) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.note_pop();
        if fix_obs::tracing_enabled() {
            fix_obs::emit(kind, 0, super::job_trace_id(job), slot as u32, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::Blob;

    fn job(i: u64) -> Job {
        Job::Eval(Blob::from_u64(i).handle())
    }

    #[test]
    fn own_slot_is_lifo_and_steals_are_fifo() {
        let d = DequeSet::new(9);
        d.push(3, job(1));
        d.push(3, job(2));
        d.push(3, job(3));
        // The owner takes its newest token...
        assert_eq!(d.pop(3), Some(job(3)));
        assert_eq!(d.steals(), 0);
        // ...a thief on slot 9 the oldest one...
        assert_eq!(d.pop(9), Some(job(1)));
        assert_eq!(d.steals(), 1);
        // ...and a thief scans the ring from its own slot onward.
        d.push(5, job(4));
        assert_eq!(d.pop(4), Some(job(4)));
        assert_eq!(d.pop(4), Some(job(2)));
        assert_eq!(d.pop(4), None);
        assert_eq!(d.steals(), 3);
        assert_eq!(d.queued(), 0);
    }

    #[test]
    fn the_external_slot_is_owner_lifo_and_thief_fifo() {
        let d = DequeSet::new(1);
        let external = d.external();
        assert_eq!(external, 1, "one worker slot, then the external slot");
        for i in 0..3 {
            d.push(external, job(i));
        }
        // The worker steals the oldest token...
        assert_eq!(d.pop(0), Some(job(0)));
        // ...an external thread pops the newest, without stealing...
        assert_eq!(d.pop(external), Some(job(2)));
        assert_eq!(d.steals(), 1);
        // ...and a worker's own pushes are its own.
        d.push(0, job(3));
        assert_eq!(d.pop(0), Some(job(3)));
        assert_eq!(d.pop(0), Some(job(1)));
        assert_eq!(d.steals(), 2);
    }
}
