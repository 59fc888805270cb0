//! Layer 2 of the scheduler: the run queue, one slot of tiered deques
//! per pool worker plus one shared by every other thread.
//!
//! ## Slot map
//! - A runtime with `workers` pool workers has `workers + 1` slots, each
//!   holding one deque per `Priority` tier.
//! - Pool worker `i` owns slot `i`.
//! - Every other thread of the runtime — submitters, inline drivers,
//!   waiters — shares the last slot, the *external* slot.
//! - A caller names its slot (`worker_loop` its index, the external
//!   entry points [`DequeSet::external`]). No slot is read from thread
//!   state, so none outlives its runtime or leaks into another.
//!
//! ## Dispatch order
//! - **Owner: own slot, LIFO, highest tier first.** Depth-first over
//!   dependency trees, cache-warm. The external slot's owners are all
//!   the external threads: each pops its newest token.
//! - **Thief: other slots, FIFO, tier-major.** An owner with an empty
//!   slot scans the others highest tier first and takes the oldest
//!   token of the first non-empty deque. Workers take from the external
//!   slot this way, like from any other slot.
//! - **Priority is strict within a slot, eventual across slots.** An
//!   owner drains its own lower-tier work before stealing another
//!   slot's higher-tier work; any thread going idle steals tier-major.
//!
//! ## Gotchas
//! - The deques hold tokens, not truth: the job map (layer 1) decides
//!   at claim whether a popped token is live, skips stale ones and
//!   withdraws a job nothing wants any more.
//! - `queued` counts tokens in every slot, incremented before a push
//!   and decremented after a pop, so "every deque is empty" is one load:
//!   that is how a waiter's stall check sees tokens in other slots or
//!   mid-steal.
//! - External threads contend on one lock per tier; a worker's pushes of
//!   its own dependencies never do.

use crate::engine::Job;
use fix_core::api::Priority;
use fix_obs::EventKind;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The tiered run queue of one runtime.
pub(super) struct DequeSet {
    /// Slot `i` is pool worker `i`'s; the last is the external slot.
    slots: Vec<[Mutex<VecDeque<Job>>; Priority::TIERS]>,
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
            slots: (0..=workers)
                .map(|_| std::array::from_fn(|_| Mutex::new(VecDeque::new())))
                .collect(),
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

    /// Pushes a token onto `home`'s deque for `tier`.
    pub(super) fn push(&self, home: usize, tier: usize, job: Job) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.slots[home][tier].lock().push_back(job);
    }

    /// Pops the next token for an owner of `home`: own slot LIFO
    /// (highest tier first), then a tier-major FIFO steal sweep over
    /// the other slots.
    pub(super) fn pop(&self, home: usize) -> Option<Job> {
        if self.queued() == 0 {
            return None;
        }
        for tier in 0..Priority::TIERS {
            if let Some(job) = self.slots[home][tier].lock().pop_back() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.note_pop();
                if fix_obs::tracing_enabled() {
                    fix_obs::emit(
                        EventKind::SchedPop,
                        0,
                        super::job_trace_id(&job),
                        home as u32,
                        tier as u32,
                    );
                }
                return Some(job);
            }
        }
        let n = self.slots.len();
        for tier in 0..Priority::TIERS {
            for k in 1..n {
                let victim = (home + k) % n;
                if let Some(job) = self.slots[victim][tier].lock().pop_front() {
                    self.queued.fetch_sub(1, Ordering::SeqCst);
                    self.steals.inc();
                    self.note_pop();
                    if fix_obs::tracing_enabled() {
                        fix_obs::emit(
                            EventKind::SchedSteal,
                            0,
                            super::job_trace_id(&job),
                            victim as u32,
                            tier as u32,
                        );
                    }
                    return Some(job);
                }
            }
        }
        None
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
    fn own_slot_is_lifo_and_tier_major() {
        let d = DequeSet::new(9);
        d.push(3, 1, job(1));
        d.push(3, 1, job(2));
        d.push(3, 0, job(3));
        // Tier 0 drains before tier 1; within a tier, newest first.
        assert_eq!(d.pop(3), Some(job(3)));
        assert_eq!(d.pop(3), Some(job(2)));
        assert_eq!(d.pop(3), Some(job(1)));
        assert_eq!(d.pop(3), None);
        assert_eq!(d.queued(), 0);
        assert_eq!(d.steals(), 0);
    }

    #[test]
    fn steals_are_fifo_and_scan_highest_tier_first() {
        let d = DequeSet::new(9);
        d.push(0, 2, job(10)); // old batch-tier work on slot 0
        d.push(0, 2, job(11));
        d.push(5, 0, job(12)); // newer latency-tier work on slot 5
                               // A thief on slot 9 must take the latency job first even though
                               // slot 0 comes earlier in the ring...
        assert_eq!(d.pop(9), Some(job(12)));
        assert_eq!(d.steals(), 1);
        // ...and then steal slot 0's *oldest* token (FIFO).
        assert_eq!(d.pop(9), Some(job(10)));
        assert_eq!(d.pop(9), Some(job(11)));
        assert_eq!(d.steals(), 3);
        assert_eq!(d.queued(), 0);
    }

    #[test]
    fn the_external_slot_is_owner_lifo_and_thief_fifo() {
        let d = DequeSet::new(1);
        let external = d.external();
        assert_eq!(external, 1, "one worker slot, then the external slot");
        for i in 0..3 {
            d.push(external, 1, job(i));
        }
        // The worker steals the oldest token...
        assert_eq!(d.pop(0), Some(job(0)));
        // ...an external thread pops the newest, without stealing...
        assert_eq!(d.pop(external), Some(job(2)));
        assert_eq!(d.steals(), 1);
        // ...and a worker's own pushes are its own.
        d.push(0, 1, job(3));
        assert_eq!(d.pop(0), Some(job(3)));
        assert_eq!(d.pop(0), Some(job(1)));
        assert_eq!(d.steals(), 2);
    }
}
