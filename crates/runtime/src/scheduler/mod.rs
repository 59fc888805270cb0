//! The job scheduler: dependency tracking over restartable jobs,
//! sharded for multicore scaling.
//!
//! All worker threads of a node share the runtime storage and a pool of
//! pending jobs (paper §4.2.1). A job is stepped on a worker; if it
//! reports dependencies, it parks until they complete and is then
//! stepped again. Jobs are deduplicated by identity, so concurrent
//! requests for the same evaluation share one execution — Fix's
//! determinism makes this safe, and it is also what makes jobs freely
//! *stealable*: a content-addressed job produces the same result no
//! matter which thread runs it, so no scheduler state pins work to a
//! thread.
//!
//! # The three layers
//!
//! The scheduler used to funnel every submit, dequeue, completion, and
//! watcher fill through one `Mutex<Shared>`. That monolith is now three
//! independently synchronized layers:
//!
//! 1. **The sharded job map** (`jobmap`) — the bookkeeping of every
//!    job in flight (state, dependency waiters, batch watchers) lives
//!    in a 32-way map sharded by the keyed word fold of the job
//!    (`fix_core::handle::HandleBuildHasher`). Unrelated jobs never
//!    share a lock; one job's watch-claim-complete round-trip touches
//!    only its own shard. Dependency edges cross shards through
//!    an atomic waitgroup (`jobmap::DepWait`), never by nesting shard
//!    locks.
//! 2. **Work-stealing deques** (`deques`) — the run queue is one deque
//!    per slot, `workers + 1` slots: pool worker `i` owns slot `i`,
//!    every other thread shares the last, external slot, and entry
//!    points pass the slot down (no thread state picks it). An owner
//!    pushes and pops its slot LIFO (depth-first, cache-warm) and
//!    steals FIFO from other slots when empty. The queue is not tiered:
//!    which request goes first is decided once, by the serving kernel
//!    on its virtual clock, before the batch is submitted. A job has at
//!    most one token: one is pushed only when a watch or a dependency
//!    creates its entry, or its parked job is requeued. The entry the
//!    door creates for the job it steps has none.
//! 3. **Lock-free batch fills** (`batch`) — a watched batch's slots
//!    are filled by first-writer-wins CAS claims; `remaining` counts
//!    down atomically and only the final fill touches the condvar (and
//!    only when someone is parked). Completions no longer take any
//!    global lock to notify tickets.
//!
//! # Driving and watching
//!
//! The scheduler can be driven two ways:
//!
//! * **inline** ([`Scheduler::run_inline`]) — the calling thread runs
//!   the request itself; this is the microsecond path used when a client
//!   evaluates a single computation (no thread handoff): the door, then,
//!   if the table did not answer, the door's stack — the work-first rule
//!   of Cilk-5 (Frigo, Leiserson and Randall, PLDI 1998). Each job the
//!   request needs is claimed and stepped on the calling thread, depth
//!   first, from an explicit stack of claimed jobs the thread owns: a
//!   step that parks pushes its job, which waits there for its tail
//!   call or for its dependencies, run last-first, and is completed (a
//!   tail) or stepped again (dependencies) when they finish. No deque
//!   token and no watched batch: only a job another thread holds is
//!   watched (one slot driven to completion), and only while a pool
//!   worker is idle does a job with more than one pending dependency
//!   go to the deques for it to steal;
//! * **pooled** ([`WorkerPool`]) — N worker threads drain jobs
//!   concurrently, each owning its own deque slot; independent
//!   sub-computations (e.g. the branches of a parallel map) run in
//!   parallel, and idle workers steal.
//!
//! Every request first meets **the door** (`admit`): it emits the
//! request's `SchedSubmit` and applies the one answer rule (`answer`),
//! so whatever the node's table already holds — a value, a memoized
//! `Eval`, and for a strict request the memoized `Force` of that value —
//! is the request's answer there, before any scheduler state exists.
//!
//! Batches can also be **watched** instead of driven:
//! `submit_watched_with` enqueues the requests the door left to run and
//! registers a `BatchState` that the completion path fills in as each
//! finishes — no caller thread parked, no per-job polling. This is the
//! mechanism behind the One Fix API's submission tickets
//! (`fix_core::api::SubmitApi`); `wait_batch` turns the calling thread
//! into an inline driver until the watched batch is done.
//!
//! Watched submissions are *request scoped* (`fix_core::api::SubmitOptions`):
//!
//! * **cancellation** — a ticket dropped unresolved runs `cancel_batch`,
//!   which claims the batch's unresolved slots, one CAS each, and does
//!   nothing else: no job-map lock, no slot write, no wakeup. A watcher
//!   whose slot is claimed is dead (see the `batch` module docs).
//!   Whether queued work runs is decided once, when its token is popped
//!   (`claim_token`): a job a live watcher or a dependency waiter wants
//!   is stepped, and any other job's entry is dropped there, dead
//!   watchers and all. So a job only a dropped ticket wanted — queued,
//!   or parked and then requeued — never runs, and a request that wants
//!   it again before its token is popped simply registers on the entry
//!   that token belongs to. The price: a dropped batch's `BatchState`
//!   lives until the last entry holding one of its dead watchers goes.
//! * **strict mode** — a strict slot watches the whole eval→force job
//!   chain: when its `Eval` completes, the watcher *chains* onto the
//!   `Force` of the produced value instead of filling, so the slot
//!   resolves exactly when `eval_strict` (itself one strict slot) would
//!   return.
//!
//! # One memo, and what one transition costs the job map
//!
//! The table's relations are the only record of a finished evaluation: the
//! job map holds work in flight, and `complete_job` removes a job's
//! entry once its watchers and waiters are served. A shard visit is a
//! lock, a fold of the job's four words and a probe, so each transition
//! of a job visits its shard at most once and carries what it read to
//! whoever needs it next:
//!
//! * **answer** — no visit: the answer rule (`answer`) reads what the
//!   table holds for the job (`Engine::memoized`: a value's `Eval` is
//!   the value); a hit answers the slot, or, for a strict slot, moves on
//!   to the `Force` of the value, without taking a shard or allocating.
//!   The door asks it before a batch is watched (an answered request
//!   never reaches the job map), and a strict chain asks it again when
//!   its `Eval` completes (`watch_job`);
//! * **watch** — one visit: enqueue the job unless it is in flight, and
//!   register the slot's watcher;
//! * **claim** — one visit (`claim_token`): the token leaves its deque,
//!   and the entry says whether anything still wants the job. The door's
//!   claim (`claim_at_door`) is one visit too, and takes the place of
//!   the watch and the token: a job with no entry gets one, `Running`,
//!   and is stepped by the thread it arrived on, which keeps the entry
//!   `Running` on its stack for as long as the job waits there;
//! * **complete and remove** — one visit per completed job
//!   (`complete_job`): take the watchers and waiters, drop the entry;
//! * **park** — one visit per dependency and one for the job's own
//!   entry (`Waiting`); a parked job's requeue is one more. Every
//!   dependency registers: one that finished just before registration
//!   has no entry, so it is re-enqueued and its one step is a cache hit.
//!
//! An inline request is therefore two visits per job — the door's claim
//! and the completion — however many steps it takes: no park, no
//! requeue, no deque token and no watch; an answered one is none. A
//! stacked job's re-step, once its dependencies are done, visits
//! nothing. Only a job in flight elsewhere costs a watch, and only a
//! published job costs the park's visits. A submitted slot (a ticket)
//! is still watch, claim and complete, and each step that parks, park
//! and requeue.
//!
//! ## Gotchas of the door's stack
//!
//! - Stacked claims count in `executing`, so a stall check sees them as
//!   work in flight, except while their thread waits for another's job:
//!   then they count in `waiting_claims` too, until the batch it waits
//!   for is filled. Two stacks stuck on one self tail call still report
//!   the stall (`two_stacks_stuck_on_a_self_tail_call_report_a_stall`).
//!   Every claim is released on the way down, also at a panic two frames
//!   up (`a_panic_at_the_door_leaves_no_entry_and_no_claim`).
//! - A `Deps` list runs last-first, the order the LIFO deque ran it in;
//!   another order moves the step pins (`tests/engine_steps.rs`'s
//!   `requests_cost_a_fixed_number_of_procedures_and_steps`).
//! - A dependency another thread holds is watched through one watched
//!   slot, and the thread drives the deques until it fills; stacks that
//!   meet there still run each procedure once (`tests/submission_stress.rs`'s
//!   `concurrent_evals_of_one_cold_fib_run_each_procedure_once`).
//! - A frame is published only on a runtime with pool workers, while a
//!   thread is parked (`sleepers`), and only with more than one pending
//!   dependency: it parks through `park_on_deps` and the door watches
//!   it, so the inline runtime never enqueues
//!   (`a_multi_step_eval_never_queues`).
//!
//! **A failure is not memoized.** A failed job fails every slot and
//! waiter it reaches and then, like a success, leaves no record. The
//! next request for it re-attempts it, like any relation that is not in
//! the cache — so data stored after a request failed for lack of it
//! serves the next request.
//!
//! # Tail completion
//!
//! A step may report that its job's result *is* another job's
//! (`Step::Tail`: an application whose procedure returned a Thunk, a
//! selection that landed on one, the force of an evaluated value). The
//! job parks on that callee like on any dependency, but the callee's
//! successful completion does not requeue it for a step that would only
//! copy a value between two relations: `complete_job` records the
//! waiter's relation through the engine and completes the waiter on the
//! same worklist a failure travels — watchers fill or chain, its own
//! waiters fire, a chain of tail calls unwinds iteratively. The callee
//! stays its own deduplicated job, so exactly-once execution,
//! `procedures_run`, the relations computational GC reads recipes from
//! (the copied `Eval` names none) and strict watcher chains are what
//! the re-step produced. If the callee finished before the park
//! registered, it is re-enqueued like any dependency and its cache-hit
//! step completes the job; if it finishes *during*
//! registration (the guard unit is still held), the job is requeued once
//! and its step finds the value memoized. A failed callee fails the
//! waiter with the same error. On the door's stack a tail caller is a
//! `Tail` frame, completed the same way when its callee's result comes
//! down the stack.
//!
//! # Parking and stall detection
//!
//! With no global lock, "nothing left to do" is answered by three
//! SeqCst counters: `queued` (tokens in any deque, maintained
//! increment-before-push / decrement-after-pop), `executing` (claims
//! held by drivers mid-step; a claimant publishes every consequence of
//! its pop — requeues, fills, completions — before releasing), and
//! `workers_running`. A waiter that reads all three as zero has proof
//! no progress is possible — including jobs resident in *other*
//! slots' deques or mid-steal, which a per-queue emptiness scan would
//! miss. (`executing` reads as zero when every claim in it is held on
//! the stack of a door thread that waits: `waiting_claims`.) Threads park on one condvar behind a `sleepers` count, so the
//! hot path's wakeups are a single atomic load; a bounded park timeout
//! (`PARK_SAFETY`, the one park every thread uses) backstops the
//! protocol against lost-wakeup bugs without masking genuine stalls.
//!
//! The scheduler keeps no clock: its trace events stamp virtual time 0.
//! Deadlines belong to the serving kernel, which expires a request on
//! its own virtual clock before it is ever submitted.

mod batch;
mod deques;
mod jobmap;

pub(crate) use batch::BatchState;
use batch::Watcher;
use deques::DequeSet;
use jobmap::{DepWait, JobEntry, JobMap, JobState, Shard};

use crate::engine::{Engine, Job, Step};
use fix_core::error::{Error, Result};
use fix_core::handle::Handle;
use fix_obs::EventKind;
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on any single park. The notify protocol is designed to
/// be lossless; the timeout converts a protocol bug into bounded extra
/// latency instead of a hang, and costs nothing on the hot path (a
/// parked thread is off the hot path by definition).
const PARK_SAFETY: Duration = Duration::from_millis(2);

/// What the answer rule ([`Scheduler::answer`]) returns: the slot's
/// answer, or the job still to run and whether it chains to a `Force`.
pub(crate) type Answer = std::result::Result<Handle, (Job, bool)>;

/// A request the door left to run.
#[derive(Clone, Copy)]
pub(crate) struct Unanswered {
    /// Its position in the submission.
    pub(crate) pos: usize,
    /// The handle asked for: what the slot's trace events and a stall
    /// name.
    pub(crate) request: Handle,
    /// The answer rule's miss: the job still to run, and whether it
    /// chains to a `Force`.
    pub(crate) rest: (Job, bool),
}

/// Compact trace identity of a job: its handle's
/// [`trace_id`](fix_core::handle::trace_id).
pub(crate) fn job_trace_id(job: &Job) -> u64 {
    let (Job::Eval(h) | Job::Force(h)) = job;
    fix_core::handle::trace_id(h.raw())
}

/// Records a scheduler trace event for `job` (tracing is on). Kept out
/// of line: with the trace id read inline in the door, a warm `eval`
/// measured about 1.7× slower in the `ablations` bench though tracing
/// was off (the compiler kept the request's handle in 8- and 16-byte
/// stack pieces to serve that read).
#[cold]
#[inline(never)]
pub(crate) fn emit_job(kind: EventKind, job: &Job, a: u32, b: u32) {
    fix_obs::emit(kind, 0, job_trace_id(job), a, b);
}

/// The shared scheduler for one node.
pub(crate) struct Scheduler {
    engine: Arc<Engine>,
    /// Layer 1: per-job bookkeeping, sharded by job hash.
    jobs: JobMap,
    /// Layer 2: the work-stealing run queue.
    deques: DequeSet,
    /// Park control. Never held while doing work — only around the
    /// park/notify handshake, so a notifier can't slip between a
    /// sleeper's predicate check and its wait.
    park: Mutex<()>,
    cv: Condvar,
    /// Threads currently inside [`park_unless`](Scheduler::park_unless).
    /// Notifiers skip the lock entirely while this is zero.
    sleepers: AtomicUsize,
    /// Threads currently blocked in the condvar wait — a
    /// registry-adoptable gauge (`sched.parked`) mirroring `sleepers`
    /// for the waiting span only, so load controllers can read idle
    /// capacity like any other metric. Wall-timing dependent:
    /// diagnostic only, never part of a deterministic table.
    parked: fix_obs::Gauge,
    /// Claims held by drivers mid-step (see [`Claim`]).
    executing: AtomicUsize,
    shutdown: AtomicBool,
    /// Number of pool workers attached (used for stall detection).
    workers_running: AtomicUsize,
    /// Claims on the stacks of door threads waiting in
    /// [`wait_batch`](Scheduler::wait_batch) for a batch not yet done:
    /// the waiter adds its batch's `held` as it starts to wait, and
    /// whoever completes the batch takes it off
    /// ([`fill`](Scheduler::fill)), before that completer's own claim
    /// goes. A stall is `executing` equal to this: every claim in flight
    /// is one that a waiting thread holds.
    waiting_claims: AtomicUsize,
}

impl Scheduler {
    /// Creates a scheduler over an engine, with a deque slot for each of
    /// `workers` pool workers and one for every other thread.
    pub fn new(engine: Arc<Engine>, workers: usize) -> Scheduler {
        Scheduler {
            engine,
            jobs: JobMap::new(),
            deques: DequeSet::new(workers),
            park: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            parked: fix_obs::Gauge::new(),
            executing: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            workers_running: AtomicUsize::new(0),
            waiting_claims: AtomicUsize::new(0),
        }
    }

    /// Jobs claimed out of a deque slot other than the claimant's own
    /// since this scheduler was built (diagnostic).
    pub fn steals(&self) -> u64 {
        self.deques.steals()
    }

    /// The live steal counter, for adoption into a metrics registry
    /// (same cell [`steals`](Scheduler::steals) reads).
    pub fn steals_counter(&self) -> fix_obs::Counter {
        self.deques.steals_counter()
    }

    /// The live parked-threads gauge, for adoption into a metrics
    /// registry under `sched.parked` (wall-timing dependent, so it
    /// feeds diagnostics, never deterministic tables).
    pub fn parked_gauge(&self) -> fix_obs::Gauge {
        self.parked.clone()
    }

    /// The live steal-rate gauge (steals per 1000 pops), for adoption
    /// into a metrics registry under `sched.steal_rate`.
    pub fn steal_rate_gauge(&self) -> fix_obs::Gauge {
        self.deques.steal_rate_gauge()
    }

    /// Emits a scheduler trace event for `job`. The disabled path is
    /// one relaxed atomic load (argument evaluation included; the
    /// enabled path is [`emit_job`], out of line).
    #[inline]
    fn trace_job(&self, kind: EventKind, job: &Job, a: u32, b: u32) {
        if fix_obs::tracing_enabled() {
            emit_job(kind, job, a, b);
        }
    }

    // ----------------------------------------------------------------
    // The door

    /// The answer rule: what the node's table already holds for a slot
    /// that waits on `job`. It reads `job`'s result
    /// ([`Engine::memoized`]: a value's `Eval` is the value itself), and
    /// a strict slot (`then_force`) whose `Eval` is held goes on to the
    /// `Force` of the value it read. Returns the slot's answer, or the
    /// job still to run and whether that job still chains to a `Force`.
    /// Takes no shard and allocates nothing. It is the one place the
    /// scheduler reads the memo: a request at the door
    /// ([`admit`](Self::admit)) and a strict chain advancing onto its
    /// `Force` ([`watch_job`](Self::watch_job)) both ask it.
    fn answer(&self, mut job: Job, mut then_force: bool) -> Answer {
        while let Some(v) = self.engine.memoized(job) {
            if !then_force {
                return Ok(v);
            }
            job = Job::Force(v);
            then_force = false;
        }
        Err((job, then_force))
    }

    /// A request for `h` arriving as position `pos` of its submission
    /// (`strict`: deep-forced too): emits its `SchedSubmit` under `h`'s
    /// trace id, answered or not, and applies [`answer`](Self::answer)
    /// to its `Eval`. A miss goes on to
    /// [`submit_watched_with`](Self::submit_watched_with).
    pub(crate) fn admit(&self, h: Handle, strict: bool, pos: usize) -> Answer {
        let request = Job::Eval(h);
        self.trace_job(EventKind::SchedSubmit, &request, pos as u32, 0);
        self.answer(request, strict)
    }

    // ----------------------------------------------------------------
    // Submission

    /// Core enqueue under the job's shard lock: a job in flight keeps
    /// its entry; a new one gets an entry and its one queue token, in
    /// deque slot `slot`. Returns the entry and whether a token was
    /// pushed (the caller wakes sleepers *after* releasing the shard).
    fn enqueue_entry<'s>(
        &self,
        shard: &'s mut Shard,
        job: Job,
        slot: usize,
    ) -> (&'s mut JobEntry, bool) {
        match shard.entry(job) {
            Entry::Occupied(entry) => (entry.into_mut(), false),
            Entry::Vacant(entry) => {
                self.push_token(job, slot);
                (entry.insert(JobEntry::default()), true)
            }
        }
    }

    /// Requeues a parked job into `slot`: its dependencies completed.
    fn requeue(&self, job: Job, slot: usize) {
        {
            let mut shard = self.jobs.shard(&job);
            shard.entry(job).or_default().state = JobState::Queued;
            self.push_token(job, slot);
        }
        self.notify_sleepers(slot);
    }

    /// Pushes `job`'s token to deque slot `slot`. Safe under a shard
    /// lock: deque mutexes are leaves (never held while acquiring
    /// anything else).
    fn push_token(&self, job: Job, slot: usize) {
        self.trace_job(EventKind::SchedEnqueue, &job, slot as u32, 0);
        self.deques.push(slot, job);
    }

    /// Watches every request the door left to run, returning
    /// immediately — no caller thread is parked. Each slot's job is
    /// enqueued into the external slot unless it is in flight, and its
    /// completion watcher registered on the job's entry; the slot fills
    /// as the completion path reaches it. A strict miss still at its
    /// `Eval` chains onto the `Force` of the result when the eval
    /// completes. This is the scheduler half of the One Fix API's
    /// `submit_with`, and of the door's watch and publish
    /// ([`watch_one`](Self::watch_one)), whose waiter holds `held`
    /// claims on its stack (a ticket's, none).
    pub(crate) fn submit_watched_with(
        &self,
        pending: &[Unanswered],
        held: usize,
    ) -> Arc<BatchState> {
        let state = Arc::new(BatchState::new(pending, held));
        let slot = self.deques.external();
        for (pos, request) in pending.iter().enumerate() {
            let (job, then_force) = request.rest;
            self.register_watcher(&state, pos, job, then_force, slot);
        }
        state
    }

    /// Points slot `pos` of `state` at `job`: the answer rule first
    /// ([`answer`](Self::answer)), which fills the slot on a hit, then
    /// [`register_watcher`](Self::register_watcher). A claimed slot
    /// registers nothing: its watcher would be dead on arrival. That
    /// check only skips useless work — a watcher whose slot is claimed a
    /// moment later is freed with its job's entry like any dead watcher.
    fn watch_job(
        &self,
        state: &Arc<BatchState>,
        pos: usize,
        job: Job,
        then_force: bool,
        slot: usize,
    ) {
        if state.slot_claimed(pos) {
            return;
        }
        match self.answer(job, then_force) {
            Ok(v) => {
                if self.fill(state, pos, Ok(v)) {
                    self.notify_sleepers(slot);
                }
            }
            Err((job, then_force)) => self.register_watcher(state, pos, job, then_force, slot),
        }
    }

    /// Enqueues `job` into deque slot `slot` unless it is in flight, and
    /// registers slot `pos` of `state` as a completion watcher on the
    /// job's shard entry.
    fn register_watcher(
        &self,
        state: &Arc<BatchState>,
        pos: usize,
        job: Job,
        then_force: bool,
        slot: usize,
    ) {
        let pushed = {
            let mut shard = self.jobs.shard(&job);
            let (entry, pushed) = self.enqueue_entry(&mut shard, job, slot);
            entry.watchers.push(Watcher {
                state: Arc::clone(state),
                pos,
                then_force,
            });
            pushed
        };
        if pushed {
            self.notify_sleepers(slot);
        }
    }

    // ----------------------------------------------------------------
    // Driving

    /// Drives jobs on the calling thread until the watched batch
    /// completes; cooperates with pool workers and other inline drivers.
    /// Until `state` is done it claims and steps a queued job, or — when
    /// nothing is claimable — parks awaiting someone else's progress. A
    /// stall (nobody can make progress) fails the batch's unfinished
    /// slots (which kills their watchers) instead of parking forever,
    /// unless the batch turns out done after all: the finishing step and
    /// the stall read can race, and a result always wins. The caller is
    /// an external thread: it owns the external slot. The claims it
    /// holds on the door's stack meanwhile (the batch's `held`) count in
    /// `waiting_claims` until the batch is done, so the stall check does
    /// not take them for progress, this thread's or another's.
    pub(crate) fn wait_batch(&self, state: &BatchState) {
        let slot = self.deques.external();
        if state.held() > 0 {
            // After the watch is registered: until then this thread was
            // still making progress. A fill that came first has already
            // taken the claims off, so the two cancel.
            self.waiting_claims
                .fetch_add(state.held(), Ordering::SeqCst);
        }
        while !state.is_done() {
            if let Some(claim) = self.try_claim(slot) {
                claim.execute();
            } else {
                let mut stalled = false;
                self.park_unless(slot, || {
                    state.is_done() || self.deques.queued() > 0 || {
                        stalled = self.stalled_now();
                        stalled
                    }
                });
                if stalled {
                    if !state.is_done() {
                        self.fail_stalled(state);
                    }
                    return;
                }
            }
        }
    }

    /// Evaluates `h` on the calling thread (`strict`: deep-forced too):
    /// the door ([`admit`](Scheduler::admit)), then, on a miss, the
    /// door's stack ([`run_at_door`](Scheduler::run_at_door)).
    /// Cooperates with pool workers and other drivers; an answer at the
    /// door takes no shard and allocates nothing. This is the Fig. 7a
    /// microsecond path.
    pub fn run_inline(&self, h: Handle, strict: bool) -> Result<Handle> {
        match self.admit(h, strict, 0) {
            Ok(v) => Ok(v),
            Err(rest) => self.run_at_door(h, rest),
        }
    }

    /// Runs what the door could not answer for request `h` to completion
    /// on the calling thread, depth first, from a stack of claimed jobs
    /// the thread owns (the work-first rule). A job nobody holds is
    /// claimed ([`claim_at_door`]) and stepped. A step that parks pushes
    /// its job's [`Frame`]: a tail call's callee is run next, and a
    /// dependency list is run last-first, as the LIFO deque ran it. A
    /// finished job is completed ([`complete_job`]) and its result
    /// handed down: a tail caller is completed with it
    /// ([`Engine::complete_tail`]), a failure fails every frame below,
    /// and a `Deps` frame runs its next dependency, or is stepped again
    /// once it has none. A strict request whose `Eval` is done goes on
    /// to the answer rule for its `Force`, and runs that too.
    ///
    /// So an inline request costs one claim and one completion per job,
    /// with no park, no deque token and no watched batch. The door meets
    /// the general path in two places only: a job another thread holds
    /// is watched ([`watch_at_door`](Self::watch_at_door)), and a frame
    /// is published ([`publish`](Self::publish)) when a pool worker is
    /// idle.
    ///
    /// The request's first step is taken here; only a request it does
    /// not finish goes on to the stack ([`run_stack`](Self::run_stack)).
    /// Both are out of line, so an answered `eval` carries neither frame
    /// and a single-step one does not carry the stack's.
    ///
    /// [`claim_at_door`]: Scheduler::claim_at_door
    /// [`complete_job`]: Scheduler::complete_job
    #[inline(never)]
    fn run_at_door(&self, h: Handle, (job, then_force): (Job, bool)) -> Result<Handle> {
        let slot = self.deques.external();
        let first = match self.claim_at_door(job, slot) {
            Some(claim) => match self.step_job(job, slot) {
                // A request of one step (a cold native add) is done here,
                // with no stack: the single-step path keeps its shape.
                Ok(Step::Done(v)) if !then_force => return self.finish(claim, Ok(v)),
                step => Next::Stepped(claim, step),
            },
            None => Next::Unwind(self.watch_at_door(h, job, 0)),
        };
        self.run_stack(h, first, then_force)
    }

    /// The door's stack: drives request `h` from `next` until its result
    /// is known (see [`run_at_door`](Self::run_at_door)), going on to the
    /// `Force` of the value if `then_force`.
    #[inline(never)]
    fn run_stack<'s>(
        &'s self,
        h: Handle,
        mut next: Next<'s>,
        mut then_force: bool,
    ) -> Result<Handle> {
        let slot = self.deques.external();
        let mut stack: Vec<Frame<'s>> = Vec::new();
        loop {
            next = match next {
                Next::Run(job) => match self.claim_at_door(job, slot) {
                    Some(claim) => Next::Stepped(claim, self.step_job(job, slot)),
                    None => Next::Unwind(self.watch_at_door(h, job, stack.len())),
                },
                Next::Stepped(claim, step) => match step {
                    Ok(Step::Deps(deps)) => self.resume(h, claim, deps, &mut stack),
                    Ok(Step::Tail(callee)) => {
                        stack.push(Frame {
                            claim,
                            waits: Waits::Tail,
                        });
                        Next::Run(callee)
                    }
                    Ok(Step::Done(v)) => Next::Unwind(self.finish(claim, Ok(v))),
                    Err(e) => Next::Unwind(self.finish(claim, Err(e))),
                },
                Next::Unwind(result) => match stack.pop() {
                    Some(Frame {
                        claim,
                        waits: Waits::Deps(deps),
                    }) if result.is_ok() => self.resume(h, claim, deps, &mut stack),
                    Some(Frame { claim, waits }) => {
                        if let (Waits::Tail, Ok(v)) = (waits, &result) {
                            self.engine.complete_tail(claim.job, *v);
                        }
                        Next::Unwind(self.finish(claim, result))
                    }
                    None => match result {
                        Ok(v) if then_force => {
                            then_force = false;
                            match self.answer(Job::Force(v), false) {
                                Ok(forced) => return Ok(forced),
                                Err((force, _)) => Next::Run(force),
                            }
                        }
                        result => return result,
                    },
                },
            };
        }
    }

    /// What the door does with a claimed job whose step (or whose last
    /// dependency) left it `deps` to wait on: runs the newest next, with
    /// the job's frame on the stack, or steps the job again when none is
    /// left. With more than one pending while a thread is parked on a
    /// runtime with pool workers, the job goes to the general path
    /// instead ([`publish`](Self::publish)), so the parked thread can
    /// steal all but the newest.
    fn resume<'s>(
        &'s self,
        h: Handle,
        claim: Claim<'s>,
        mut deps: Vec<Job>,
        stack: &mut Vec<Frame<'s>>,
    ) -> Next<'s> {
        if deps.len() > 1
            && self.workers_running.load(Ordering::SeqCst) > 0
            && self.sleepers.load(Ordering::SeqCst) > 0
        {
            return Next::Unwind(self.publish(h, claim, &deps, stack.len()));
        }
        match deps.pop() {
            Some(dep) => {
                stack.push(Frame {
                    claim,
                    waits: Waits::Deps(deps),
                });
                Next::Run(dep)
            }
            None => {
                let step = self.step_job(claim.job, claim.slot);
                Next::Stepped(claim, step)
            }
        }
    }

    /// Completes the door's claimed job with `result` and releases the
    /// claim; returns `result` for the frame below.
    fn finish(&self, claim: Claim<'_>, result: Result<Handle>) -> Result<Handle> {
        self.complete_job(claim.job, result.clone(), claim.slot);
        result
    }

    /// Waits for `job`, which another thread holds, through one watched
    /// slot of request `h` driven by [`wait_batch`](Self::wait_batch);
    /// the door's stack holds `held` claims meanwhile.
    fn watch_at_door(&self, h: Handle, job: Job, held: usize) -> Result<Handle> {
        let state = self.watch_one(h, job, held);
        self.wait_batch(&state);
        state.result(0)
    }

    /// Hands the door's claimed job to the general path: a watched slot
    /// registers on its entry (still the door's, so no token), then the
    /// job parks on `deps` ([`park_on_deps`](Self::park_on_deps): a
    /// token each) and the claim goes. The door drives the slot like a
    /// watch: its LIFO pop takes the newest dependency, and a parked
    /// thread steals the older ones. The stack holds `held`
    /// claims below the job meanwhile.
    fn publish(&self, h: Handle, claim: Claim<'_>, deps: &[Job], held: usize) -> Result<Handle> {
        let state = self.watch_one(h, claim.job, held);
        self.park_on_deps(claim.job, deps, false, claim.slot);
        drop(claim);
        self.wait_batch(&state);
        state.result(0)
    }

    /// One watched slot of request `h`, waiting on `job`, for a door
    /// whose stack holds `held` claims.
    fn watch_one(&self, h: Handle, job: Job, held: usize) -> Arc<BatchState> {
        self.submit_watched_with(
            &[Unanswered {
                pos: 0,
                request: h,
                rest: (job, false),
            }],
            held,
        )
    }

    /// The door's claim on `job` for an owner of `slot`: when the job map
    /// has no entry for it, inserts one, `Running` and with no token, and
    /// raises the executor claim as [`try_claim`](Self::try_claim) does.
    /// That one shard visit is the dedup: a request arriving meanwhile
    /// finds the entry and watches it. `None` when the job is in flight.
    fn claim_at_door(&self, job: Job, slot: usize) -> Option<Claim<'_>> {
        let mut shard = self.jobs.shard(&job);
        let Entry::Vacant(entry) = shard.entry(job) else {
            return None;
        };
        self.executing.fetch_add(1, Ordering::SeqCst);
        entry.insert(JobEntry {
            state: JobState::Running,
            ..JobEntry::default()
        });
        Some(Claim {
            scheduler: self,
            job,
            slot,
        })
    }

    /// Claims the next runnable job for an owner of slot `home`: raises
    /// the executor claim, then pops tokens (own slot first, then
    /// steals) until the job map confirms one live — dropping the
    /// entries of jobs nothing wants any more. Returns `None` (and drops
    /// the claim) when no runnable token is left anywhere.
    fn try_claim(&self, home: usize) -> Option<Claim<'_>> {
        if self.deques.queued() == 0 {
            return None;
        }
        // Raise the claim *before* popping: from here until release,
        // a stall checker reading `executing == 0` cannot miss us.
        self.executing.fetch_add(1, Ordering::SeqCst);
        loop {
            let Some(job) = self.deques.pop(home) else {
                self.release_claim(home);
                return None;
            };
            if self.claim_token(job) {
                return Some(Claim {
                    scheduler: self,
                    job,
                    slot: home,
                });
            }
        }
    }

    /// Takes a popped token's job out of the deques, under the job's
    /// shard lock. This is the one place that decides whether queued
    /// work runs: a job a live watcher or a dependency waiter wants is
    /// stepped (`Running`, true); any other job's entry goes, dead
    /// watchers and all (false).
    fn claim_token(&self, job: Job) -> bool {
        let mut shard = self.jobs.shard(&job);
        let entry = shard.get_mut(&job);
        debug_assert!(
            entry
                .as_ref()
                .is_some_and(|e| matches!(e.state, JobState::Queued)),
            "a token in a deque is its job's one token"
        );
        let Some(entry) = entry else {
            return false;
        };
        if entry.wanted() {
            entry.state = JobState::Running;
            return true;
        }
        shard.remove(&job);
        false
    }

    // ----------------------------------------------------------------
    // Execution

    /// Steps a job popped by an owner of `slot` and records the
    /// outcome: completes it, or parks it on its dependencies or its tail
    /// call, which enqueues them into `slot`.
    fn execute(&self, job: Job, slot: usize) {
        match self.step_job(job, slot) {
            Ok(Step::Done(h)) => self.complete_job(job, Ok(h), slot),
            Err(e) => self.complete_job(job, Err(e), slot),
            Ok(Step::Deps(deps)) => self.park_on_deps(job, &deps, false, slot),
            Ok(Step::Tail(callee)) => self.park_on_deps(job, &[callee], true, slot),
        }
        self.notify_sleepers(slot);
    }

    /// Steps `job` once for an owner of `slot`: the engine's step, traced
    /// as a `SchedExecute` span. Both drivers step through it, the pop's
    /// ([`execute`](Self::execute)) and the door's stack.
    ///
    /// A panicking codelet is caught at this boundary and recorded as a
    /// guest [`Error::Trap`] — panics are guest faults like VM traps, and
    /// converting them here lets failure propagation wake every waiter.
    /// Letting the panic unwind instead would lose the job (its entry
    /// stays `Running` but nothing steps it any more), permanently
    /// hanging any driver or pool waiting on it.
    fn step_job(&self, job: Job, slot: usize) -> Result<Step> {
        let t0 = fix_obs::tracing_enabled().then(Instant::now);
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.engine.step(job)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                Err(Error::Trap(format!("codelet panicked: {msg}")))
            });
        if let Some(t0) = t0 {
            // Parked-on-deps steps count too: the span is "this thread
            // held this job", whatever the step reported.
            let parked = matches!(step, Ok(Step::Deps(_) | Step::Tail(_))) as u32;
            fix_obs::emit_span(
                EventKind::SchedExecute,
                0,
                job_trace_id(&job),
                slot as u32,
                parked,
                t0.elapsed().as_nanos() as u64,
            );
        }
        step
    }

    /// Parks a stepped job on its unfinished dependencies via a fresh
    /// [`DepWait`] waitgroup: every dependency registers, then
    /// [`settle_park`](Self::settle_park) moves the job to `Waiting` and
    /// releases the registration guard — the guard unit is what makes
    /// the park race-free against dependencies completing on other
    /// shards mid-registration. A dependency that finished just before
    /// it registered has no entry any more: it is re-enqueued, and its
    /// one step is a cache hit.
    ///
    /// With `tail`, `deps` is the one job whose result is this job's
    /// own: its completion completes the job (see
    /// [`complete_job`](Self::complete_job)).
    fn park_on_deps(&self, job: Job, deps: &[Job], tail: bool, slot: usize) {
        let wait = Arc::new(DepWait {
            job,
            pending: AtomicUsize::new(1), // registration guard
            fired: AtomicBool::new(false),
            tail,
        });
        let mut pushed_any = false;
        for &dep in deps {
            pushed_any |= self.register_waiter(dep, &wait, slot);
        }
        if pushed_any {
            self.notify_sleepers(slot);
        }
        self.settle_park(&wait, slot);
    }

    /// Registers `wait` on `dep`'s entry — enqueueing `dep` into `slot`
    /// unless it is in flight — and counts it pending. Returns whether a
    /// token was pushed.
    fn register_waiter(&self, dep: Job, wait: &Arc<DepWait>, slot: usize) -> bool {
        let mut shard = self.jobs.shard(&dep);
        let (entry, pushed) = self.enqueue_entry(&mut shard, dep, slot);
        entry.waiters.push(Arc::clone(wait));
        wait.pending.fetch_add(1, Ordering::AcqRel);
        pushed
    }

    /// Ends a park's registration. The job's state moves to `Waiting`
    /// *before* the guard unit is released: a dependency completing now
    /// still sees `pending > 0`, so the requeue cannot fire early. If
    /// every dependency finished while we registered, the requeue is ours
    /// (a tail then re-steps once and finds its callee's value memoized).
    ///
    /// A dependency's *failure* does not wait for the guard: it may have
    /// fired `wait` and completed the job already. So `fired` is read
    /// under the job's own shard lock, and a fired job's entry is left to
    /// whoever fired it — writing `Waiting` there would park the job
    /// forever, or resurrect the entry its completion removed.
    fn settle_park(&self, wait: &DepWait, slot: usize) {
        {
            let mut shard = self.jobs.shard(&wait.job);
            if !wait.fired.load(Ordering::SeqCst) {
                shard.entry(wait.job).or_default().state = JobState::Waiting;
            }
        }
        if wait.pending.fetch_sub(1, Ordering::AcqRel) == 1
            && !wait.fired.swap(true, Ordering::AcqRel)
        {
            self.requeue(wait.job, slot);
        }
    }

    /// Finishes a job: removes its entry and wakes its (transitive)
    /// waiters, filling the slots of any watched batches as it goes (the
    /// completion notification hook behind submission tickets). A
    /// success is already the job's relation in the cache; a failure is
    /// recorded nowhere. A strict slot's watcher does not fill on its
    /// eval stage — it chains onto the `Force` of the produced value,
    /// re-registering on that job. A dead watcher (its slot claimed by a
    /// cancel or a stall) is freed here with the entry: its fill loses
    /// the claim, and its chain registers nothing.
    ///
    /// A waiter parked on the job as its **tail call** is not requeued:
    /// the job's value is the waiter's, so the waiter's relation is
    /// recorded ([`Engine::complete_tail`]) and the waiter completed
    /// here, on the same worklist a failure travels. The callee stays
    /// its own deduplicated job, so exactly-once execution, recipes and
    /// watcher chaining are what a copying re-step produced.
    /// Requeues and chained stages go to `slot`, the completer's.
    fn complete_job(&self, job: Job, result: Result<Handle>, slot: usize) {
        // Completions this one sets off (a failure reaching a waiter, a
        // value reaching a tail caller) queue here, so propagation is
        // iterative; the common completion sets off none and the list
        // never allocates.
        let mut set_off: Vec<(Job, Result<Handle>)> = Vec::new();
        let mut current = Some((job, result));
        let mut woke = false;
        while let Some((job, result)) = current {
            self.trace_job(EventKind::SchedComplete, &job, 0, result.is_err() as u32);
            let entry = self.jobs.shard(&job).remove(&job);
            // Only a popped token's job is stepped, and a parked job has
            // none in a deque.
            debug_assert!(
                entry
                    .as_ref()
                    .is_some_and(|e| !matches!(e.state, JobState::Queued)),
                "a completed job is in flight, its token out of the deques"
            );
            let JobEntry {
                waiters, watchers, ..
            } = entry.unwrap_or_default();
            // Shard released: fills and chains below take other locks.
            for w in watchers {
                match (&result, w.then_force) {
                    (Ok(h), true) => {
                        // Strict chain: the slot now rides the
                        // deep-force of the evaluated value.
                        self.watch_job(&w.state, w.pos, Job::Force(*h), false, slot);
                    }
                    _ => woke |= self.fill(&w.state, w.pos, result.clone()),
                }
            }
            for wait in waiters {
                match &result {
                    Ok(v) => {
                        if wait.pending.fetch_sub(1, Ordering::AcqRel) == 1
                            && !wait.fired.swap(true, Ordering::AcqRel)
                        {
                            if wait.tail {
                                self.engine.complete_tail(wait.job, *v);
                                set_off.push((wait.job, Ok(*v)));
                            } else {
                                self.requeue(wait.job, slot);
                            }
                        }
                    }
                    Err(e) => {
                        // Fail the waiter and its waiters transitively
                        // (exactly once, however many of its deps fail).
                        if !wait.fired.swap(true, Ordering::AcqRel) {
                            set_off.push((wait.job, Err(e.clone())));
                        }
                    }
                }
            }
            current = set_off.pop();
        }
        if woke {
            self.notify_sleepers(slot);
        }
    }

    /// Fills slot `pos` of `state` ([`BatchState::fill`]); true when that
    /// completed the batch. A completed batch's waiter is about to run
    /// again, so the claims its stack holds leave `waiting_claims` here,
    /// while the filler's own claim (or, for a stall, the waiter's) is
    /// still in `executing`.
    fn fill(&self, state: &BatchState, pos: usize, result: Result<Handle>) -> bool {
        let done = state.fill(pos, result);
        if done && state.held() > 0 {
            self.waiting_claims
                .fetch_sub(state.held(), Ordering::SeqCst);
        }
        done
    }

    // ----------------------------------------------------------------
    // Cancel and stall

    /// Cancels a watched batch (its ticket was dropped unresolved): one
    /// claim per unresolved slot, which makes the slot's watcher dead.
    /// A job only this batch wanted is dropped when its token is popped;
    /// a job that is shared, depended on or already running completes
    /// as usual. Takes no job-map lock, writes no slot (nobody can read
    /// a dropped ticket's results) and wakes nobody (nothing runnable
    /// changed).
    pub(crate) fn cancel_batch(&self, state: &BatchState) {
        for pos in 0..state.len() {
            if state.claim_slot(pos) {
                self.trace_job(EventKind::SchedCancel, &state.job(pos), pos as u32, 0);
            }
        }
    }

    /// Fails a watched batch's unfinished slots with the stall error
    /// (what [`run_inline`](Scheduler::run_inline) then returns), so the
    /// waiter returns instead of parking on a graph that can never
    /// progress. Unlike a cancel it writes each slot: the batch has a
    /// waiter. Its watchers are dead from here, and stay on the stalled
    /// graph's entries.
    fn fail_stalled(&self, state: &BatchState) {
        for pos in 0..state.len() {
            let job = state.job(pos);
            self.fill(
                state,
                pos,
                Err(Error::Trap(format!(
                    "evaluation stalled: no runnable jobs for {job}"
                ))),
            );
        }
        self.notify_sleepers(self.deques.external());
    }

    // ----------------------------------------------------------------
    // Queries

    /// Live completion watchers across all watched batches (diagnostic;
    /// the leak test pins this to zero after tickets are resolved or
    /// dropped). A dropped ticket's watchers are dead at once, though
    /// each stays on its job's entry until the entry goes.
    pub fn watcher_count(&self) -> usize {
        let mut n = 0;
        self.jobs.for_each_shard(|map| {
            n += map
                .values()
                .flat_map(|e| &e.watchers)
                .filter(|w| w.live())
                .count();
        });
        n
    }

    /// Jobs queued for, or undergoing, execution that a live watcher or
    /// a dependency waiter still wants. A job only a dropped ticket
    /// wanted does not count, though its entry stays until its token is
    /// popped: after dropping the only ticket that wanted a batch, a
    /// quiescent scheduler reports zero — the "no orphaned queued work"
    /// half of the ticket-leak pin.
    pub fn queued_jobs(&self) -> usize {
        let mut n = 0;
        self.jobs.for_each_shard(|map| {
            n += map
                .values()
                .filter(|e| !matches!(e.state, JobState::Waiting) && e.wanted())
                .count();
        });
        n
    }

    /// Job-map entries, whatever their state. A quiescent scheduler
    /// holds none: a finished job's record is its relation.
    #[cfg(test)]
    pub(crate) fn entry_count(&self) -> usize {
        let mut n = 0;
        self.jobs.for_each_shard(|map| n += map.len());
        n
    }

    // ----------------------------------------------------------------
    // Parking

    /// True when no one can make progress: no pool workers, no driver
    /// mid-step, and no token in any deque — *including other owners'
    /// slots and tokens mid-steal*, which is exactly what the `queued`
    /// counter (increment-before-push / decrement-after-pop, with the
    /// popper's claim held until its consequences are published) exists
    /// to make checkable from one thread.
    /// A claim a door thread holds on its stack while it waits for
    /// another thread (`waiting_claims`) is no progress either.
    /// `executing` is read first: a completer takes its waiter's claims
    /// off `waiting_claims` before its own claim goes, so the two reads
    /// never meet at a waiter whose batch is already done.
    fn stalled_now(&self) -> bool {
        self.workers_running.load(Ordering::SeqCst) == 0
            && self.executing.load(Ordering::SeqCst) == self.waiting_claims.load(Ordering::SeqCst)
            && self.deques.queued() == 0
    }

    /// Parks the calling thread until a notify (or [`PARK_SAFETY`]),
    /// unless `ready` already holds once the park lock is taken. The
    /// sleepers-count handshake with [`notify_sleepers`](Self::notify_sleepers) guarantees
    /// that any state change making `ready` true after our check — all
    /// of which notify under the park lock when sleepers > 0 — wakes
    /// us. Callers re-check their predicate in a loop; `slot` is the
    /// caller's, for the trace.
    fn park_unless(&self, slot: usize, mut ready: impl FnMut() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.park.lock();
        if !ready() {
            let t0 = fix_obs::tracing_enabled().then(Instant::now);
            self.parked.add(1);
            self.cv.wait_for(&mut guard, PARK_SAFETY);
            self.parked.add(-1);
            if let Some(t0) = t0 {
                fix_obs::emit_span(
                    EventKind::SchedPark,
                    0,
                    0,
                    slot as u32,
                    0,
                    t0.elapsed().as_nanos() as u64,
                );
            }
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes parked threads, if any. The sleepers check makes this a
    /// single atomic load on the hot path (nobody parked); when someone
    /// is, the notify happens under the park lock so it cannot slip
    /// between a sleeper's predicate check and its wait. Never call
    /// with a job-map shard locked (lock order: park → shard). `slot` is
    /// the notifier's, for the trace.
    fn notify_sleepers(&self, slot: usize) {
        let sleepers = self.sleepers.load(Ordering::SeqCst);
        if sleepers > 0 {
            if fix_obs::tracing_enabled() {
                fix_obs::emit(EventKind::SchedUnpark, 0, 0, slot as u32, sleepers as u32);
            }
            let _guard = self.park.lock();
            self.cv.notify_all();
        }
    }

    /// Drops an executor claim and re-notifies: the stall predicate may
    /// have just become true for a parked waiter.
    fn release_claim(&self, slot: usize) {
        self.executing.fetch_sub(1, Ordering::SeqCst);
        self.notify_sleepers(slot);
    }

    /// Raises the shutdown flag so workers exit. The store happens
    /// under the park lock: a worker's check-shutdown-then-wait
    /// sequence is atomic only against mutators that hold it.
    fn begin_shutdown(&self) {
        {
            let _guard = self.park.lock();
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.cv.notify_all();
    }

    /// Pool worker `index`'s loop: it owns deque slot `index`.
    fn worker_loop(&self, index: usize) {
        /// Keeps `workers_running` an honest *live*-worker count: the
        /// decrement runs on every exit, including unwinding out of a
        /// panicking codelet. Without it, a dead worker would satisfy
        /// the stall predicate forever and park inline drivers instead
        /// of letting them report the stall. Decrement under the park
        /// lock + notify, like every other stall-predicate mutation.
        struct LiveWorker<'a>(&'a Scheduler);
        impl Drop for LiveWorker<'_> {
            fn drop(&mut self) {
                {
                    let _guard = self.0.park.lock();
                    self.0.workers_running.fetch_sub(1, Ordering::SeqCst);
                }
                self.0.cv.notify_all();
            }
        }
        let _live = LiveWorker(self);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Some(claim) = self.try_claim(index) {
                claim.execute();
                continue;
            }
            self.park_unless(index, || {
                self.shutdown.load(Ordering::SeqCst) || self.deques.queued() > 0
            });
        }
    }
}

/// A driver's executor claim on one popped job (see
/// [`Scheduler::try_claim`]), or on a job the door claimed (see
/// [`Scheduler::claim_at_door`]; the door's stack holds one per frame):
/// while it lives, concurrent drivers that
/// find the deques empty see the in-flight step (via the `executing`
/// counter) instead of reporting a stall. Dropping releases the claim
/// and wakes parked drivers — also on unwind, so a panicking codelet
/// leaves the scheduler consistent (the surviving driver then reports
/// the stall as an error).
struct Claim<'a> {
    scheduler: &'a Scheduler,
    job: Job,
    /// The claimant's deque slot: what the step enqueues goes there.
    slot: usize,
}

impl Claim<'_> {
    /// Steps the claimed job ([`Scheduler::execute`]), then releases the
    /// claim.
    fn execute(self) {
        self.scheduler.execute(self.job, self.slot)
        // Release happens in Drop, which also covers the panic path.
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.scheduler.release_claim(self.slot);
    }
}

/// A job on the door's stack (see [`Scheduler::run_at_door`]): its
/// claim, held until the job completes, and what it waits for.
struct Frame<'s> {
    claim: Claim<'s>,
    waits: Waits,
}

/// What a [`Frame`]'s job waits for.
enum Waits {
    /// Its dependencies not yet run, run last-first; the job is stepped
    /// again once the list is empty.
    Deps(Vec<Job>),
    /// Its tail call, run just above it on the stack: the callee's
    /// value completes the job with no second step.
    Tail,
}

/// The door's next move (see [`Scheduler::run_stack`]).
enum Next<'s> {
    /// Claim and step this job, or watch it if another thread holds it.
    Run(Job),
    /// Act on what this claimed job's step reported.
    Stepped(Claim<'s>, Result<Step>),
    /// Hand the result of the job just finished to the frame below it.
    Unwind(Result<Handle>),
}

/// A pool of worker threads draining a scheduler's deques: one worker
/// per worker slot, worker `i` owning slot `i`.
pub(crate) struct WorkerPool {
    scheduler: Arc<Scheduler>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a worker for each worker slot of the scheduler. A worker
    /// the OS refuses to start is left out: nothing is pushed to its
    /// slot, and the other workers (or, with none, the drivers) run
    /// everything.
    pub fn spawn(scheduler: Arc<Scheduler>) -> WorkerPool {
        let n = scheduler.deques.external();
        scheduler.workers_running.fetch_add(n, Ordering::SeqCst);
        let threads: Vec<_> = (0..n)
            .filter_map(|i| {
                let sched = Arc::clone(&scheduler);
                std::thread::Builder::new()
                    .name(format!("fixpoint-worker-{i}"))
                    .spawn(move || sched.worker_loop(i))
                    .ok()
            })
            .collect();
        // A worker that never started never uncounts itself.
        let refused = n - threads.len();
        scheduler
            .workers_running
            .fetch_sub(refused, Ordering::SeqCst);
        WorkerPool { scheduler, threads }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.scheduler.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ProgramRegistry;
    use fix_core::data::Blob;
    use fix_core::invocation::Invocation;
    use fix_core::limits::ResourceLimits;
    use fix_storage::Store;

    /// A table, an engine over it and a registered native `f`.
    fn node_with(f: fix_core::api::NativeFn) -> (Arc<Store>, Arc<Engine>, Handle) {
        let (store, engine, [procedure]) = node_with_all(["native"].map(|name| (name, f.clone())));
        (store, engine, procedure)
    }

    /// A table, an engine over it and the natives `fs`, registered by
    /// name in order.
    fn node_with_all<const N: usize>(
        fs: [(&str, fix_core::api::NativeFn); N],
    ) -> (Arc<Store>, Arc<Engine>, [Handle; N]) {
        let store = Arc::new(Store::new());
        let registry = Arc::new(ProgramRegistry::new());
        let procedures = fs.map(|(name, f)| {
            let (marker, procedure) = registry.register(name, f);
            store.put_blob(marker);
            procedure
        });
        let engine = Arc::new(Engine::new(Arc::clone(&store), registry));
        (store, engine, procedures)
    }

    /// A table, an engine over it and a registered native `add`.
    fn adder() -> (Arc<Store>, Arc<Engine>, Handle) {
        node_with(Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().expect("u64 arg");
            let b = ctx.arg_blob(1)?.as_u64().expect("u64 arg");
            ctx.host.create_blob((a + b).to_le_bytes().to_vec())
        }))
    }

    /// The thunk of `procedure(args)`.
    fn thunk_of(store: &Store, procedure: Handle, args: Vec<Handle>) -> Handle {
        let invocation = Invocation {
            limits: ResourceLimits::default_limits(),
            procedure,
            args,
        };
        let tree = store.put_tree(invocation.to_tree());
        tree.application().expect("a tree names an application")
    }

    /// The thunk of `add(a, b)`.
    fn add_thunk(store: &Store, add: Handle, a: u64, b: u64) -> Handle {
        let args = [a, b].map(|n| store.put_blob(Blob::from_u64(n)));
        thunk_of(store, add, args.to_vec())
    }

    /// Position `pos`'s request for `request` as the door leaves it when
    /// the table holds nothing for it: its `Eval` to run, chaining to a
    /// `Force` if `strict`.
    fn unanswered(pos: usize, request: Handle, strict: bool) -> Unanswered {
        Unanswered {
            pos,
            request,
            rest: (Job::Eval(request), strict),
        }
    }

    /// The interleaving a stress loop does not find (a ≈ 30 ns window
    /// that needs a preemption), run by hand: a stepped job registers on
    /// a dependency, the dependency fails before the job settles its
    /// park, and the settle leaves the failed job to the failure — it
    /// neither parks it `Waiting` forever nor resurrects the entry the
    /// failure removed.
    #[test]
    fn a_dependency_failing_mid_registration_leaves_no_waiting_entry() {
        let engine = Engine::new(Arc::default(), Arc::new(ProgramRegistry::new()));
        let sched = Scheduler::new(Arc::new(engine), 0);
        let external = sched.deques.external();
        // Job identities only: nothing here is stepped by the engine.
        let request = Blob::from_u64(1).handle();
        let waiter = Job::Eval(request);
        let dep = Job::Eval(Blob::from_u64(2).handle());
        // The waiter is mid-step (`Running`, token popped), and one
        // watched slot wants it.
        let slot = Arc::new(BatchState::new(&[unanswered(0, request, false)], 0));
        {
            let mut shard = sched.jobs.shard(&waiter);
            let entry = shard.entry(waiter).or_default();
            entry.state = JobState::Running;
            entry.watchers.push(Watcher {
                state: Arc::clone(&slot),
                pos: 0,
                then_force: false,
            });
        }
        let wait = Arc::new(DepWait {
            job: waiter,
            pending: AtomicUsize::new(1),
            fired: AtomicBool::new(false),
            tail: false,
        });

        assert!(sched.register_waiter(dep, &wait, external));
        let claim = sched
            .try_claim(external)
            .expect("the dependency's token is live");
        assert_eq!(claim.job, dep);
        sched.complete_job(dep, Err(Error::Trap("injected".into())), external);
        drop(claim);
        sched.settle_park(&wait, external);

        assert!(slot.is_done());
        assert_eq!(slot.result(0), Err(Error::Trap("injected".into())));
        assert_eq!(sched.entry_count(), 0, "no Waiting entry survives");
        assert_eq!(sched.deques.queued(), 0);
    }

    /// A job has at most one queue token. Dropping a ticket leaves its
    /// queued jobs' entries and tokens where they are, its watchers dead;
    /// resubmitting the same jobs before a driver pops them registers
    /// live watchers on those entries instead of pushing a second set of
    /// tokens, and each job still runs once.
    #[test]
    fn a_withdrawn_job_wanted_again_reuses_its_token() {
        const N: u64 = 8;
        let (store, engine, add) = adder();
        let sched = Scheduler::new(Arc::clone(&engine), 0);
        let jobs: Vec<Unanswered> = (0..N)
            .map(|i| unanswered(i as usize, add_thunk(&store, add, i, 1), false))
            .collect();

        let dropped = sched.submit_watched_with(&jobs, 0);
        sched.cancel_batch(&dropped);
        let state = sched.submit_watched_with(&jobs, 0);
        assert_eq!(sched.deques.queued(), N as usize, "one token per job");

        sched.wait_batch(&state);
        for (i, pos) in (0..N).zip(0..) {
            let sum = store.get_blob(state.result(pos).expect("add succeeds"));
            assert_eq!(sum.expect("the sum is stored").as_u64(), Some(i + 1));
        }
        assert_eq!(engine.stats.procedures_run.load(Ordering::Relaxed), N);
        assert_eq!(sched.deques.queued(), 0);
        assert_eq!(sched.entry_count(), 0);
    }

    /// Dropping a ticket is one claim per slot: it takes no job-map
    /// lock, so a cancel lands while another thread holds the shard of
    /// the batch's job.
    #[test]
    fn dropping_a_ticket_takes_no_job_map_lock() {
        let (store, engine, add) = adder();
        let sched = Scheduler::new(engine, 0);
        let thunk = add_thunk(&store, add, 1, 2);
        let job = Job::Eval(thunk);
        let state = sched.submit_watched_with(&[unanswered(0, thunk, false)], 0);
        std::thread::scope(|scope| {
            // Declared inside the scope, so a failed assert releases the
            // shard while unwinding, before the scope joins the canceller.
            let shard = sched.jobs.shard(&job);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let (sched, state) = (&sched, &state);
            scope.spawn(move || {
                sched.cancel_batch(state);
                // The receiver is gone only if the assert below failed.
                let _ = done_tx.send(());
            });
            assert!(
                done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
                "cancel_batch waited on the job's shard"
            );
            drop(shard);
        });
        assert_eq!(sched.watcher_count(), 0);
        assert_eq!(sched.queued_jobs(), 0);
        // The pop drops the job nothing live wants.
        assert!(sched.try_claim(sched.deques.external()).is_none());
        assert_eq!(sched.entry_count(), 0);
    }

    /// A panic in the door's step comes back as the step's `Trap`, at
    /// the top of the door's stack or two frames up it: `outer` waits on
    /// the strict encode of `middle`, which tail-calls `boom`. Each
    /// frame's entry goes with its completion and its executor claim
    /// with the frame, so a stall check afterwards finds nothing in
    /// flight.
    #[test]
    fn a_panic_at_the_door_leaves_no_entry_and_no_claim() {
        let (store, engine, [boom, first]) = node_with_all([
            ("boom", Arc::new(|_ctx| panic!("at the door"))),
            ("first", Arc::new(|ctx| ctx.arg(0))),
        ]);
        let sched = Scheduler::new(engine, 0);
        let bad = thunk_of(&store, boom, vec![]);
        let middle = thunk_of(&store, first, vec![bad]);
        let outer = thunk_of(&store, first, vec![middle.strict().unwrap()]);
        for request in [bad, outer] {
            match sched.run_inline(request, false) {
                Err(Error::Trap(msg)) => assert!(msg.contains("at the door"), "{msg}"),
                other => panic!("expected the codelet's trap, got {other:?}"),
            }
            assert_eq!(sched.entry_count(), 0);
            assert_eq!(sched.executing.load(Ordering::SeqCst), 0);
            assert!(sched.stalled_now());
        }
    }

    /// Two door stacks stuck on one self tail call: `again` returns the
    /// thunk of its own input, and `call` tail-calls it. Each thread
    /// keeps its first job's claim on its stack and watches `again`'s
    /// job, which nobody steps again, so `executing` reads 2 with
    /// neither thread stepping. Both come back with the stall (the
    /// second through the first's failure, or its own check) instead of
    /// parking forever, and leave no entry and no claim.
    #[test]
    fn two_stacks_stuck_on_a_self_tail_call_report_a_stall() {
        // Both first steps run at once, so each thread still holds its
        // claim when it goes to watch.
        let both = Arc::new(std::sync::Barrier::new(2));
        let (meet, meet_too) = (Arc::clone(&both), both);
        let (store, engine, [again, call]) = node_with_all([
            (
                "again",
                Arc::new(move |ctx| {
                    meet.wait();
                    ctx.input.application()
                }),
            ),
            (
                "call",
                Arc::new(move |ctx| {
                    meet_too.wait();
                    ctx.arg(0)
                }),
            ),
        ]);
        let sched = Arc::new(Scheduler::new(engine, 0));
        let stuck = thunk_of(&store, again, vec![]);
        let caller = thunk_of(&store, call, vec![stuck]);
        let (tx, rx) = std::sync::mpsc::channel();
        for request in [stuck, caller] {
            let (sched, tx) = (Arc::clone(&sched), tx.clone());
            std::thread::spawn(move || tx.send(sched.run_inline(request, false)));
        }
        for _ in 0..2 {
            let result = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("both stacks report the stall instead of parking forever");
            match result {
                Err(Error::Trap(msg)) => assert!(msg.contains("stalled"), "{msg}"),
                other => panic!("expected the stall, got {other:?}"),
            }
        }
        assert_eq!(sched.entry_count(), 0);
        assert_eq!(sched.executing.load(Ordering::SeqCst), 0);
        assert_eq!(sched.waiting_claims.load(Ordering::SeqCst), 0);
    }

    /// A strict slot cancelled while its `Eval` runs leaves a dead
    /// watcher on the `Eval`'s entry. The `Eval`'s completion frees it,
    /// and the chain registers nothing on the `Force` of the value.
    #[test]
    fn a_dead_strict_watcher_does_not_chain() {
        let (store, engine, add) = adder();
        let sched = Scheduler::new(engine, 0);
        let external = sched.deques.external();
        let thunk = add_thunk(&store, add, 3, 4);
        let eval = Job::Eval(thunk);
        let state = sched.submit_watched_with(&[unanswered(0, thunk, true)], 0);
        let claim = sched.try_claim(external).expect("the eval is wanted");
        assert_eq!(claim.job, eval);
        sched.cancel_batch(&state);

        let v = Blob::from_u64(7).handle();
        sched.complete_job(eval, Ok(v), external);
        drop(claim);

        let force = Job::Force(v);
        assert_eq!(sched.watcher_count(), 0);
        assert_eq!(sched.deques.queued(), 0);
        assert!(sched.jobs.shard(&force).get(&force).is_none());
        assert_eq!(sched.entry_count(), 0);
    }
}
