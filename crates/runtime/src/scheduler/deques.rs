//! Layer 2 of the scheduler: per-slot, per-tier work-stealing deques.
//!
//! The old scheduler kept one global `[VecDeque; TIERS]` under the
//! scheduler mutex; every push and pop serialized on it. Here the run
//! queue is split into [`SLOTS`] independent slots, each holding one
//! deque per `Priority` tier. A thread always pushes to and pops from
//! its *home* slot (pool workers pin slot `i`, every other thread is
//! assigned one round-robin on first contact), so the common case —
//! a worker draining work it or its completions produced — touches one
//! uncontended lock.
//!
//! Dispatch discipline:
//!
//! * **own slot first, LIFO** — the owner pops its most recently pushed
//!   job (depth-first over dependency trees, cache-warm);
//! * **then steal, FIFO** — an empty owner scans the other slots
//!   *highest tier first* and steals the oldest job of the first
//!   non-empty deque it finds, so a hot batch parked behind a busy
//!   worker is picked up by an idle one;
//! * **priority is strict per-slot, eventual across slots** — within
//!   one slot higher tiers always dispatch first, but a thread drains
//!   its own lower-tier work before stealing another slot's
//!   higher-tier work. Steals re-establish the global ordering
//!   whenever any thread goes idle.
//!
//! The deques hold *tokens*, not truth: whether a popped token is live
//! is decided by the job map (layer 1) at claim time, which is also
//! where stale tokens are skipped and deadline-passed watchers expire.
//!
//! `queued` counts tokens across all slots and is maintained
//! increment-before-push / decrement-after-pop, so "every deque is
//! empty" is answerable without sweeping [`SLOTS`]` × TIERS` locks —
//! that single counter is what lets a pool-less waiter's stall check
//! account for jobs resident in *other* threads' slots or mid-steal.

use crate::engine::Job;
use fix_core::api::Priority;
use fix_obs::EventKind;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Slot count. More slots than any plausible worker pool, so pinned
/// workers rarely share a slot with round-robin external submitters.
pub(super) const SLOTS: usize = 16;

thread_local! {
    /// This thread's home slot (`usize::MAX` = not yet assigned).
    static HOME_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin assignment for threads that never pinned. Starts at
/// `SLOTS / 2` so external threads land away from pool workers (which
/// pin from 0 up).
static NEXT_EXTERNAL_SLOT: AtomicUsize = AtomicUsize::new(SLOTS / 2);

/// Pins the calling thread's home slot (used by pool workers so worker
/// `i` always owns slot `i % SLOTS`).
pub(super) fn pin_slot(i: usize) {
    HOME_SLOT.with(|s| s.set(i % SLOTS));
}

/// The calling thread's home slot, assigning one on first use.
pub(super) fn current_slot() -> usize {
    HOME_SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_EXTERNAL_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
        s.set(v);
        v
    })
}

/// The sharded, tiered run queue.
pub(super) struct DequeSet {
    slots: Vec<[Mutex<VecDeque<Job>>; Priority::TIERS]>,
    /// Tokens across all slots; see the module docs for the ordering
    /// contract that makes this the stall check's queue-empty answer.
    queued: AtomicUsize,
    /// Tokens popped from a non-home slot (diagnostic; the starvation
    /// pin asserts this moves). A registry-adoptable counter so
    /// `Runtime` can name it without a second cell.
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
    pub(super) fn new() -> DequeSet {
        DequeSet {
            slots: (0..SLOTS)
                .map(|_| std::array::from_fn(|_| Mutex::new(VecDeque::new())))
                .collect(),
            queued: AtomicUsize::new(0),
            steals: fix_obs::Counter::new(),
            pops: fix_obs::Counter::new(),
            steal_rate: fix_obs::Gauge::new(),
        }
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

    /// Pops the next token for the thread owning `home`: own slot LIFO
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
        for tier in 0..Priority::TIERS {
            for k in 1..SLOTS {
                let victim = (home + k) % SLOTS;
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
        let d = DequeSet::new();
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
        let d = DequeSet::new();
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
}
