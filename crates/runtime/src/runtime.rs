//! The public Fixpoint API: a single-node Fix runtime.
//!
//! [`Runtime`] owns the node's table (objects and memoized relations),
//! program registry, scheduler, and (optionally) a worker pool. Its
//! surface mirrors the paper's Table 1: create blobs and trees, build
//! thunks and encodes, and ask for evaluation.

use crate::engine::Engine;
use crate::registry::ProgramRegistry;
use crate::scheduler::{Scheduler, WorkerPool};
use fix_core::api::{
    BatchTicket, Evaluator, Footprint, InvocationApi, NativeFn, ObjectApi, SubmitApi, SubmitOptions,
};
use fix_core::data::{Blob, Node};
use fix_core::error::Result;
use fix_core::handle::Handle;
use fix_durable::DurableStore;
use fix_storage::{RelationCache, Store};
use std::sync::Arc;

/// Configures a [`Runtime`].
#[derive(Default)]
pub struct RuntimeBuilder {
    workers: usize,
    durable: Option<DurableStore>,
}

impl RuntimeBuilder {
    /// Number of worker threads. With 0, evaluation runs inline on the
    /// calling thread (the microsecond path and the Fig-9 configuration).
    /// A worker thread the OS refuses to start is left out.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Backs the runtime with a [`DurableStore`]: objects and memoized
    /// relations persist through its append-only log, a reopened
    /// directory restarts lazily (bytes fault in from disk on first
    /// touch), and memoized work recovered from the log re-serves with
    /// zero procedures run.
    pub fn durable(mut self, durable: DurableStore) -> Self {
        self.durable = Some(durable);
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> Runtime {
        let store = self
            .durable
            .as_ref()
            .map_or_else(Default::default, |d| Arc::clone(d.store()));
        let registry = Arc::new(ProgramRegistry::new());
        let engine = Arc::new(Engine::new(store, Arc::clone(&registry)));
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&engine), self.workers));
        let pool = (self.workers > 0).then(|| WorkerPool::spawn(Arc::clone(&scheduler)));
        // Adopt the scheduler's live steal counter: the registry names
        // the very cell the steal path increments, so `work_steals()`
        // and `metrics()` can never disagree.
        let metrics = fix_obs::Registry::new();
        metrics.register_counter("scheduler.work_steals", &scheduler.steals_counter());
        // Park/steal diagnostics as plain gauges in this runtime's
        // registry. Both are wall-timing dependent (diagnostic only).
        metrics.register_gauge("sched.parked", &scheduler.parked_gauge());
        metrics.register_gauge("sched.steal_rate", &scheduler.steal_rate_gauge());
        Runtime {
            registry,
            engine,
            scheduler,
            durable: self.durable,
            metrics,
            _pool: pool,
        }
    }
}

/// A single-node Fixpoint runtime.
///
/// # Examples
///
/// Register a native `add` codelet and evaluate `add(1, 2)`:
///
/// ```
/// use fixpoint::Runtime;
/// use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
/// use fix_core::data::Blob;
/// use fix_core::limits::ResourceLimits;
/// use std::sync::Arc;
///
/// let rt = Runtime::builder().build();
/// let add = rt.register_native("add", Arc::new(|ctx| {
///     let a = ctx.arg_blob(0)?.as_u64().unwrap();
///     let b = ctx.arg_blob(1)?.as_u64().unwrap();
///     ctx.host.create_blob((a + b).to_le_bytes().to_vec())
/// }));
/// let thunk = rt.apply(
///     ResourceLimits::default_limits(),
///     add,
///     &[rt.put_blob(Blob::from_u64(1)), rt.put_blob(Blob::from_u64(2))],
/// ).unwrap();
/// let result = rt.eval(thunk).unwrap();
/// assert_eq!(rt.get_blob(result).unwrap().as_u64(), Some(3));
/// ```
pub struct Runtime {
    registry: Arc<ProgramRegistry>,
    engine: Arc<Engine>,
    scheduler: Arc<Scheduler>,
    durable: Option<DurableStore>,
    metrics: fix_obs::Registry,
    _pool: Option<WorkerPool>,
}

impl Runtime {
    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// The node's one table: its objects and its memoized relations.
    pub fn store(&self) -> &Arc<Store> {
        &self.engine.store
    }

    /// The relation side of the node's table ([`store`](Runtime::store)):
    /// the only record of a finished evaluation (the scheduler keeps
    /// none), so `cache().clear()` is a complete, consistent way to
    /// forget every memoized result — the next request for any of them
    /// runs cold — and leaves every object resident. A failure is never
    /// memoized: the next request for it re-attempts it. A finished
    /// application leaves one relation here, its `Eval`; `Apply` is
    /// recorded only for a tail call.
    ///
    /// The relations are also computational GC's recipe book (an
    /// application's `Eval` is the recipe for the bytes it produced):
    /// clearing them forgets how to recompute evicted objects too, and
    /// [`materialize`](Runtime::materialize) of one then returns
    /// `NotFound`.
    pub fn cache(&self) -> &RelationCache {
        &self.engine.cache
    }

    /// The node's evaluation engine (for statistics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Assembles FixVM source, stores the module blob, returns its handle.
    pub fn install_vm_module(&self, source: &str) -> Result<Handle> {
        let module = fix_vm::assemble(source)?;
        Ok(self.store().put_blob(Blob::from_vec(module.to_bytes())))
    }

    /// Live completion watchers of in-flight submitted batches. A
    /// resolved ticket's watchers are gone and a dropped ticket's are
    /// dead at once (each is freed with its job's entry later), so a
    /// runtime with no unresolved ticket reports zero — one half of the
    /// invariant the ticket-leak tests pin down.
    pub fn submission_watchers(&self) -> usize {
        self.scheduler.watcher_count()
    }

    /// Jobs queued for (or undergoing) execution that a live ticket or a
    /// parked job still wants. A job only dropped tickets wanted does not
    /// count — it is dropped, not run, when its token is popped — so a
    /// quiescent runtime whose outstanding tickets were all dropped
    /// reports zero: the other half of the ticket-leak invariant (no
    /// orphaned queued work).
    pub fn queued_jobs(&self) -> usize {
        self.scheduler.queued_jobs()
    }

    /// Job-map entries: zero on a quiescent runtime, however many
    /// requests it served.
    #[cfg(test)]
    pub(crate) fn job_entries(&self) -> usize {
        self.scheduler.entry_count()
    }

    /// Jobs the scheduler dispatched by stealing from a deque slot other
    /// than the claimant's own. Submissions go to the runtime's one
    /// external slot, so every submitted job a pool worker runs counts,
    /// as does a waiter taking work a worker's step enqueued.
    pub fn work_steals(&self) -> u64 {
        self.scheduler.steals()
    }

    /// A unified metrics snapshot: scheduler counters (adopted live
    /// cells — `scheduler.work_steals` is the same cell
    /// [`work_steals`](Runtime::work_steals) reads), point-in-time
    /// gauges sampled now (`scheduler.queued_jobs`,
    /// `scheduler.submission_watchers`), engine execution counters, and
    /// — on a durable runtime — the persistence tier's `durable.*`
    /// metrics merged in.
    pub fn metrics(&self) -> fix_obs::MetricsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        self.metrics
            .gauge("scheduler.queued_jobs")
            .set(self.queued_jobs() as i64);
        self.metrics
            .gauge("scheduler.submission_watchers")
            .set(self.submission_watchers() as i64);
        let stats = &self.engine.stats;
        self.metrics
            .counter("engine.procedures_run")
            .store(stats.procedures_run.load(Relaxed));
        self.metrics
            .counter("engine.vm_runs")
            .store(stats.vm_runs.load(Relaxed));
        self.metrics
            .counter("engine.native_runs")
            .store(stats.native_runs.load(Relaxed));
        self.metrics
            .counter("engine.fuel_used")
            .store(stats.fuel_used.load(Relaxed));
        let mut snap = self.metrics.snapshot();
        if let Some(d) = &self.durable {
            snap.merge(&d.metrics());
        }
        snap
    }

    /// Runs garbage collection, keeping only objects reachable from
    /// `roots` (plus everything literal).
    ///
    /// On a durable runtime this also drops the collected objects' log
    /// locations and logs a tombstone for each, so they cannot silently
    /// refault later, and `Ok` means the collection is durable: an error
    /// is a log that could not record it ([`DurableStore::gc`]).
    pub fn gc(&self, roots: &[Handle]) -> Result<usize> {
        match &self.durable {
            Some(d) => d.gc(roots),
            None => Ok(self.store().gc(roots)),
        }
    }

    /// The persistence tier backing this runtime, when built with
    /// [`RuntimeBuilder::durable`] (use it to flush, snapshot, or read
    /// durability stats).
    pub fn durable(&self) -> Option<&DurableStore> {
        self.durable.as_ref()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::builder().build()
    }
}

// ----------------------------------------------------------------------
// The One Fix API (fix_core::api): Runtime is the reference backend, and
// these four impls are the only way to call it. Everything not listed
// here is the trait's provided method.
// ----------------------------------------------------------------------

impl ObjectApi for Runtime {
    fn put(&self, node: Node) -> Handle {
        self.store().put(node)
    }

    fn get(&self, handle: Handle) -> Result<Node> {
        self.store().get(handle)
    }

    fn contains(&self, handle: Handle) -> bool {
        self.store().contains(handle)
    }
}

impl InvocationApi for Runtime {
    fn register_native(&self, name: &str, f: NativeFn) -> Handle {
        let (blob, handle) = self.registry.register(name, f);
        self.store().put_blob(blob);
        handle
    }
}

impl SubmitApi for Runtime {
    /// Submission answers each request from the node's table first — a
    /// value, a memoized `Eval` and, for a strict request, the memoized
    /// `Force` of that value answer it on the spot, and a batch answered
    /// whole is a ready ticket with no scheduler state behind it. Any
    /// other request takes its job's job-map shard once to register a
    /// completion watcher (a strict request watches the rest of its
    /// eval→force chain as one slot), then submission returns; the
    /// scheduler's completion notifications fill the ticket as jobs
    /// finish. No caller thread is parked per batch: with a
    /// worker pool the batch executes behind the caller's back, and on a
    /// pool-less runtime waiting on *any* ticket drives the shared queue
    /// (so overlapped batches still all make progress).
    ///
    /// Dropping the ticket unresolved claims its unresolved slots, which
    /// kills their watchers on the spot (see
    /// [`submission_watchers`](Runtime::submission_watchers)); a queued
    /// job no live request or parked job wants is then dropped when its
    /// token is popped (see [`queued_jobs`](Runtime::queued_jobs)).
    /// Shared or already-running jobs complete as usual.
    fn submit_with(&self, handles: &[Handle], options: SubmitOptions) -> BatchTicket {
        crate::submit::submit_with(&self.scheduler, handles, options)
    }
}

impl Evaluator for Runtime {
    /// Overrides the provided submit-and-wait with the inline drive (the
    /// Fig. 7a microsecond path): the door, then, if the table did not
    /// answer, every job the request needs claimed and stepped on this
    /// thread, depth first; a watched slot only for a job another thread
    /// holds, and the deques only while a pool worker is idle. An
    /// answered request allocates nothing.
    fn eval(&self, handle: Handle) -> Result<Handle> {
        self.scheduler.run_inline(handle, false)
    }

    /// One strict slot: the eval→force chain a strict ticket watches.
    fn eval_strict(&self, handle: Handle) -> Result<Handle> {
        self.scheduler.run_inline(handle, true)
    }

    /// [`fix_storage::footprint`] over the node's table: uses whatever
    /// evaluation results are already memoized.
    fn footprint(&self, thunk: Handle) -> Result<Footprint> {
        fix_storage::footprint(self.store(), thunk)
    }

    fn procedures_run(&self) -> u64 {
        self.engine
            .stats
            .procedures_run
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}
