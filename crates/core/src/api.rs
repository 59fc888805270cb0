//! The One Fix API: backend-agnostic traits over every execution engine.
//!
//! The paper's thesis is that programs, users, and the platform describe
//! computation in one shared representation. This module is that thesis
//! at the *API* level: a trait family that every execution backend
//! implements, so a workload written once runs unchanged on the
//! single-node runtime (`fixpoint::Runtime`) or the simulated
//! distributed engine (`fix_cluster::ClusterClient`) — under Fixpoint's
//! own `Profile` or a comparator's (`fix_baselines::profiles`):
//!
//! * [`ObjectApi`] — the data half of Table 1: store and load Blobs and
//!   Trees by content-addressed Handle;
//! * [`InvocationApi`] — the construction half of Table 1: build
//!   Application/Selection thunks and install procedures;
//! * [`SubmitApi`] — ask for results, with request-scoped intent:
//!   [`submit_with`](SubmitApi::submit_with) (and its shorthands
//!   [`submit`](SubmitApi::submit) /
//!   [`submit_many`](SubmitApi::submit_many)) returns a [`Ticket`]
//!   immediately, resolved by the ticket's own `poll`/`wait`/
//!   [`wait_any`](BatchTicket::wait_any), so a driver can overlap
//!   admission with execution; [`SubmitOptions`] carries a deadline
//!   (virtual µs), a [`Priority`] class, and the WHNF-vs-strict
//!   [`Mode`], and [`BatchTicket::cancel`] withdraws still-queued work.
//!   Every backend implements it the same way: the batch goes to a Fix
//!   node's scheduler — `fixpoint::Runtime` *is* that node, and the
//!   cluster client submits through the node it embeds (after costing
//!   the batch on its simulator) and returns that node's ticket;
//! * [`Evaluator`] — ask and block: lazy ([`Evaluator::eval`]), strict
//!   ([`Evaluator::eval_strict`]) and batched
//!   ([`Evaluator::eval_many`]) are submission followed by an immediate
//!   `wait`, plus the footprint and memoization observers.
//!
//! Because handles are content addressed, a correct backend is *forced*
//! to agree with every other backend on results — the conformance suite
//! in `tests/api_conformance.rs` asserts exactly that, running one set of
//! semantic checks against each implementation.
//!
//! # One workload, many backends
//!
//! ```
//! use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
//! use fix_core::data::Blob;
//! use fix_core::limits::ResourceLimits;
//! use std::sync::Arc;
//!
//! // Written once, against the traits…
//! fn double_42<R: InvocationApi + Evaluator>(rt: &R) -> fix_core::Result<u64> {
//!     let double = rt.register_native(
//!         "api-doc/double",
//!         Arc::new(|ctx| {
//!             let x = ctx.arg_blob(0)?.as_u64().unwrap();
//!             ctx.host.create_blob((2 * x).to_le_bytes().to_vec())
//!         }),
//!     );
//!     let thunk = rt.apply(
//!         ResourceLimits::default_limits(),
//!         double,
//!         &[rt.put_blob(Blob::from_u64(21))],
//!     )?;
//!     rt.get_u64(rt.eval(thunk)?)
//! }
//!
//! // …runs on the single-node runtime:
//! let local = fixpoint::Runtime::builder().build();
//! assert_eq!(double_42(&local).unwrap(), 42);
//!
//! // …and on the netsim-backed cluster client, unchanged:
//! let cluster = fix_cluster::ClusterClient::builder().build().unwrap();
//! assert_eq!(double_42(&cluster).unwrap(), 42);
//! ```
//!
//! # How small the surface is meant to be
//!
//! The yardstick is the Fix authors' own backend traits: seven data
//! methods plus `request_execution`. Here a backend supplies nine:
//!
//! | trait | required |
//! |---|---|
//! | [`ObjectApi`] | `put`, `get`, `contains` |
//! | [`InvocationApi`] | `register_native` |
//! | [`SubmitApi`] | `submit_with`, `virtual_now`, `advance_virtual_clock` |
//! | [`Evaluator`] | `footprint`, `procedures_run` |
//!
//! Everything else is a provided method over those — the typed
//! accessors over `put`/`get`, thunk construction over `put_tree`, and
//! every way of asking for results over `submit_with` — and is
//! overridable: `fixpoint::Runtime` overrides `eval`/`eval_strict` with
//! its allocation-free inline path. There are two hand-written
//! implementors (`fixpoint::Runtime`, `fix_cluster::ClusterClient`;
//! `fix_storage::Store` implements the data third) and one forwarding
//! definition at the bottom of this file, which makes every pointer to
//! a backend (`&T`, `Arc<T>`, `Box<T>`) that backend. The `Minimal`
//! backend in `tests/api_conformance.rs` implements exactly the table
//! and passes the whole submission roster, so the count is pinned.

use crate::data::{Blob, Node, Tree};
use crate::error::{Error, Result};
use crate::handle::{EncodeStyle, Handle};
use crate::invocation::application_tree;
use crate::limits::ResourceLimits;
use crate::semantics::Footprint;
use std::ops::Deref;
use std::sync::Arc;

pub use crate::ticket::{BatchTicket, PendingBatch, Ticket};

// ----------------------------------------------------------------------
// The host interface procedures program against.
// ----------------------------------------------------------------------

/// The runtime services a guest procedure may invoke (paper Listing 1).
///
/// This is the *only* world interface of Fix procedures: attach/create
/// blobs and trees — no clocks, no randomness, no sockets. Implemented
/// by the FixVM interpreter host, the engine's store adapter, and
/// in-memory test fixtures.
///
/// Implementations must enforce their own storage-side invariants (e.g.
/// record created objects so they can be persisted); interpreters perform
/// the accessibility checks before calling `load_*`.
pub trait HostApi {
    /// Loads the bytes of an accessible blob.
    fn load_blob(&mut self, handle: Handle) -> Result<Blob>;
    /// Loads the entries of an accessible tree.
    fn load_tree(&mut self, handle: Handle) -> Result<Tree>;
    /// Creates (and records) a blob, returning its handle.
    fn create_blob(&mut self, data: Vec<u8>) -> Result<Handle>;
    /// Creates (and records) a tree, returning its handle.
    fn create_tree(&mut self, entries: Vec<Handle>) -> Result<Handle>;
}

/// Context handed to a native codelet: its input tree handle plus the
/// host API (identical powers to a VM guest).
pub struct NativeCtx<'a> {
    /// The application tree (after Encode resolution), as the guest sees it.
    pub input: Handle,
    /// Host services: load accessible data, create new data.
    pub host: &'a mut dyn HostApi,
}

impl<'a> NativeCtx<'a> {
    /// Loads the input application tree.
    pub fn input_tree(&mut self) -> Result<Tree> {
        self.host.load_tree(self.input)
    }

    /// Loads argument `i` of the invocation (slot `2 + i`) as a blob.
    pub fn arg_blob(&mut self, i: usize) -> Result<Blob> {
        let tree = self.input_tree()?;
        let h = tree.get(2 + i).ok_or(Error::MalformedTree {
            handle: self.input,
            reason: format!("missing argument {i}"),
        })?;
        self.host.load_blob(h)
    }

    /// Loads argument `i` of the invocation (slot `2 + i`) as a handle.
    pub fn arg(&mut self, i: usize) -> Result<Handle> {
        let tree = self.input_tree()?;
        tree.get(2 + i).ok_or(Error::MalformedTree {
            handle: self.input,
            reason: format!("missing argument {i}"),
        })
    }
}

/// The signature of a native codelet: `_fix_apply` in Rust.
pub type NativeFn = Arc<dyn Fn(&mut NativeCtx<'_>) -> Result<Handle> + Send + Sync>;

// ----------------------------------------------------------------------
// ObjectApi: the data operations of Table 1.
// ----------------------------------------------------------------------

/// Content-addressed object storage: the data half of the paper's
/// Table 1 (`create_blob` / `create_tree` / `read_blob` / `read_tree`).
///
/// Implemented by `fix_storage::Store` itself, by `fixpoint::Runtime`,
/// and by the cluster client (which stores at its client node). A
/// backend supplies [`put`](ObjectApi::put), [`get`](ObjectApi::get)
/// and [`contains`](ObjectApi::contains); the typed accessors are
/// provided over them.
pub trait ObjectApi {
    /// Stores a datum, returning its handle.
    fn put(&self, node: Node) -> Handle;

    /// Reads a datum back (accessibility tags ignored).
    fn get(&self, handle: Handle) -> Result<Node>;

    /// True when the object behind `handle` is locally resident
    /// (literals are always resident: their payload rides in the handle).
    fn contains(&self, handle: Handle) -> bool;

    /// Stores a blob, returning its handle.
    fn put_blob(&self, blob: Blob) -> Handle {
        self.put(Node::Blob(blob))
    }

    /// Stores a tree, returning its handle.
    fn put_tree(&self, tree: Tree) -> Handle {
        self.put(Node::Tree(tree))
    }

    /// Reads a blob back.
    fn get_blob(&self, handle: Handle) -> Result<Blob> {
        self.get(handle)?.as_blob().cloned()
    }

    /// Reads a tree back.
    fn get_tree(&self, handle: Handle) -> Result<Tree> {
        self.get(handle)?.as_tree().cloned()
    }

    /// Reads a `u64` result blob (common in workloads and tests).
    fn get_u64(&self, handle: Handle) -> Result<u64> {
        self.get_blob(handle)?.as_u64().ok_or(Error::TypeMismatch {
            handle,
            expected: "a u64 blob",
        })
    }
}

// ----------------------------------------------------------------------
// InvocationApi: the construction operations of Table 1.
// ----------------------------------------------------------------------

/// Thunk and procedure construction: the Table-1 operations that describe
/// computation without running anything.
///
/// Everything except procedure installation has a canonical definition in
/// terms of [`ObjectApi`], provided here, so a backend only supplies
/// [`register_native`](InvocationApi::register_native) (the one operation
/// that binds host code to a content-addressed name).
pub trait InvocationApi: ObjectApi {
    /// Registers a native codelet under `name`; stores and returns its
    /// content-addressed marker handle. Every backend that registers the
    /// same name agrees on the handle.
    fn register_native(&self, name: &str, f: NativeFn) -> Handle;

    /// Installs a guest module from its serialized bytes, returning the
    /// handle of the stored code blob. Sandboxed code needs no
    /// registration: any node holding the blob can run it.
    fn install_module(&self, module_bytes: Vec<u8>) -> Result<Handle> {
        Ok(self.put_blob(Blob::from_vec(module_bytes)))
    }

    /// Builds and stores an application tree `[limits, proc, args...]`,
    /// returning the Application Thunk. Building the tree is one
    /// allocation.
    fn apply(&self, limits: ResourceLimits, procedure: Handle, args: &[Handle]) -> Result<Handle> {
        self.put_tree(application_tree(limits, procedure, args))
            .application()
    }

    /// Builds a strict encode of an application, the most common idiom:
    /// `strict(application([limits, proc, args...]))`.
    fn strict_apply(
        &self,
        limits: ResourceLimits,
        procedure: Handle,
        args: &[Handle],
    ) -> Result<Handle> {
        self.apply(limits, procedure, args)?
            .encode(EncodeStyle::Strict)
    }

    /// Builds and stores a selection thunk for `target[index]`.
    fn select(&self, target: Handle, index: u64) -> Result<Handle> {
        let (tree, thunk) = crate::invocation::build::selection(target, index)?;
        self.put_tree(tree);
        Ok(thunk)
    }

    /// Builds and stores a selection thunk for `target[begin..end]`.
    fn select_range(&self, target: Handle, begin: u64, end: u64) -> Result<Handle> {
        let (tree, thunk) = crate::invocation::build::selection_range(target, begin, end)?;
        self.put_tree(tree);
        Ok(thunk)
    }
}

// ----------------------------------------------------------------------
// SubmitApi: asking for results, with request-scoped intent.
// ----------------------------------------------------------------------

/// How far a submitted request is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Weak head normal form — the semantics of [`Evaluator::eval`]:
    /// reduce to a non-Thunk value, leaving nested Thunks/Encodes
    /// unresolved.
    #[default]
    Whnf,
    /// Full strict evaluation — the semantics of
    /// [`Evaluator::eval_strict`]: reduce to a value, then deep-force
    /// it. Backends watch the whole eval→force job chain as one batch
    /// slot, so a strict ticket resolves exactly when a blocking
    /// `eval_strict` would have returned.
    Strict,
}

/// The scheduling class of a submitted batch. Lower tiers dispatch
/// first wherever queued work is held (a node scheduler's run queues,
/// the `fix-serve` admission queues).
///
/// Ordered: `Latency < Normal < Batch`, so `a < b` means `a` is served
/// before `b` under contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic: dispatched before every other tier.
    Latency,
    /// The default tier.
    #[default]
    Normal,
    /// Throughput traffic: served only when higher tiers are idle.
    Batch,
}

impl Priority {
    /// Number of priority tiers.
    pub const TIERS: usize = 3;

    /// The tier index (0 dispatches first).
    pub fn tier(self) -> usize {
        match self {
            Priority::Latency => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Latency => "latency",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }
}

/// Request-scoped intent attached to a submission (see
/// [`SubmitApi::submit_with`]).
///
/// A bare `submit_many` carries no intent: the backend cannot know the
/// request may expire, which traffic to dispatch first, or how deep to
/// evaluate. `SubmitOptions` names all three, so the platform can
/// reorder, expire, and withdraw outstanding work — the
/// request-lifecycle control a serving layer needs.
///
/// The default options (`no deadline, Normal priority, WHNF`) make
/// `submit_with(h, SubmitOptions::default())` behave exactly like
/// `submit_many(h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// Absolute deadline in the backend's virtual clock
    /// ([`SubmitApi::virtual_now`]), in µs. A batch submitted after
    /// its deadline already passed fails whole with
    /// [`Error::DeadlineExceeded`] — uniformly on every backend,
    /// before any slot resolves. A deadline that passes *while* the
    /// batch waits in a backend queue expires the still-pending work
    /// at its next dispatch opportunity (lazily, when the scheduler
    /// dequeues it); results the backend already produced by then —
    /// memoized slots filled at submission — keep their values. `None`
    /// (default) never expires.
    pub deadline_us: Option<u64>,
    /// The batch's scheduling class.
    pub priority: Priority,
    /// How far each slot is evaluated.
    pub mode: Mode,
}

impl SubmitOptions {
    /// Options for a fully strict submission (deep-forced results).
    pub fn strict() -> SubmitOptions {
        SubmitOptions {
            mode: Mode::Strict,
            ..SubmitOptions::default()
        }
    }

    /// Sets the absolute virtual-time deadline, in µs.
    pub fn with_deadline(mut self, deadline_us: u64) -> SubmitOptions {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> SubmitOptions {
        self.priority = priority;
        self
    }
}

/// Submission-first evaluation: describe a batch now, resolve it later.
///
/// [`submit_with`](SubmitApi::submit_with) is the one required way to
/// ask a backend for results: it registers the batch and returns a
/// [`BatchTicket`] immediately, and the caller chooses when (and
/// whether) to block — the same decoupling the paper's externalized-I/O
/// design implies at the API level. A driver can keep a window of
/// batches in flight — submit batch *k+1* while *k* executes — which is
/// what lets the `fix-serve` driver pool overlap admission with
/// execution. Blocking is the special case: every [`Evaluator`] method
/// that returns results is submission followed by an immediate `wait`.
/// Tickets resolve themselves ([`BatchTicket::poll`],
/// [`BatchTicket::wait`], [`BatchTicket::wait_any`]); the backend is not
/// involved again.
///
/// Implementations — one submission path, two entry points:
///
/// * `fixpoint::Runtime` — submission takes the scheduler's job-map
///   lock once, registers completion watchers, and returns; no caller
///   thread is parked per batch.
/// * `fix_cluster::ClusterClient` — derives and simulates the batch's
///   dataflow under its `Profile` (recording a run report), then
///   submits it to the `Runtime` it embeds and returns that node's
///   ticket. Tiers, deadlines, cancellation and the virtual clock are
///   the node's.
///
/// Submissions are *request scoped*: [`submit_with`](SubmitApi::submit_with)
/// attaches a [`SubmitOptions`] — deadline in virtual µs, [`Priority`]
/// class, WHNF-vs-strict [`Mode`] — so the backend can reorder, expire,
/// and withdraw outstanding work instead of blindly executing it.
///
/// Contract (held by the conformance suite):
///
/// * `submit_many(h).wait()` is positionally identical to
///   [`Evaluator::eval_many`]`(h)`, and
///   `submit_with(h, SubmitOptions::strict()).wait()` to a loop of
///   [`Evaluator::eval_strict`];
/// * [`BatchTicket::cancel`] (and dropping a ticket, its implicit form)
///   withdraws still-queued work that no other live request shares,
///   fails unresolved slots with [`Error::Cancelled`], and neither
///   hangs other work nor leaks per-batch bookkeeping;
/// * a batch whose [`SubmitOptions::deadline_us`] passes before
///   dispatch resolves with [`Error::DeadlineExceeded`] in the expired
///   slots instead of executing dead work;
/// * tickets resolve exactly once; `poll` is non-blocking.
///
/// # Overlapping batches
///
/// ```
/// use fix_core::api::{Evaluator, InvocationApi, ObjectApi, SubmitApi};
/// use fix_core::data::Blob;
/// use fix_core::limits::ResourceLimits;
/// use std::sync::Arc;
///
/// let rt = fixpoint::Runtime::builder().build();
/// let add = rt.register_native("submit-doc/add", Arc::new(|ctx| {
///     let a = ctx.arg_blob(0)?.as_u64().unwrap();
///     let b = ctx.arg_blob(1)?.as_u64().unwrap();
///     ctx.host.create_blob((a + b).to_le_bytes().to_vec())
/// }));
/// let batch = |base: u64| -> Vec<_> {
///     (0..4u64)
///         .map(|i| {
///             rt.apply(
///                 ResourceLimits::default_limits(),
///                 add,
///                 &[rt.put_blob(Blob::from_u64(base + i)), rt.put_blob(Blob::from_u64(1))],
///             )
///             .unwrap()
///         })
///         .collect()
/// };
///
/// // Two batches in flight at once: submission returns immediately.
/// let first = rt.submit_many(&batch(0));
/// let second = rt.submit_many(&batch(100));
///
/// // Resolve in whichever order suits the driver.
/// let second_results = second.wait();
/// let first_results = first.wait();
/// assert_eq!(rt.get_u64(*first_results[0].as_ref().unwrap()).unwrap(), 1);
/// assert_eq!(rt.get_u64(*second_results[3].as_ref().unwrap()).unwrap(), 104);
/// ```
///
/// # A deadline-bounded strict batch
///
/// ```
/// use fix_core::api::{Evaluator, InvocationApi, ObjectApi, SubmitApi, SubmitOptions, Priority};
/// use fix_core::data::Blob;
/// use fix_core::limits::ResourceLimits;
/// use std::sync::Arc;
///
/// let rt = fixpoint::Runtime::builder().build();
/// let wrap = rt.register_native("submit-doc/wrap", Arc::new(|ctx| {
///     // Returns a tree holding an unevaluated argument: WHNF would
///     // stop here, strict evaluation forces what's inside.
///     let arg = ctx.arg(0)?;
///     ctx.host.create_tree(vec![arg])
/// }));
/// let double = rt.register_native("submit-doc/double", Arc::new(|ctx| {
///     let x = ctx.arg_blob(0)?.as_u64().unwrap();
///     ctx.host.create_blob((2 * x).to_le_bytes().to_vec())
/// }));
/// let inner = rt.apply(
///     ResourceLimits::default_limits(),
///     double,
///     &[rt.put_blob(Blob::from_u64(21))],
/// ).unwrap();
/// let batch = vec![rt.apply(ResourceLimits::default_limits(), wrap, &[inner]).unwrap()];
///
/// // Strict, latency-class, and expired once the virtual clock passes
/// // 10 ms: the platform may withdraw it instead of executing it late.
/// let opts = SubmitOptions::strict()
///     .with_priority(Priority::Latency)
///     .with_deadline(10_000);
/// let results = rt.submit_with(&batch, opts).wait();
/// // The clock never advanced, so the deadline did not pass; the slot
/// // agrees with eval_strict: the inner thunk is deep-forced.
/// let forced = *results[0].as_ref().unwrap();
/// assert_eq!(forced, rt.eval_strict(batch[0]).unwrap());
/// assert_eq!(rt.get_u64(rt.get_tree(forced).unwrap().get(0).unwrap()).unwrap(), 42);
/// ```
pub trait SubmitApi {
    /// Begins evaluating a batch of independent requests under
    /// request-scoped `options` (deadline, priority class, evaluation
    /// mode), returning a ticket for the positional results. Must not
    /// block on evaluation: the work proceeds in the backend (or on
    /// later `wait`/`advance` calls for inline backends), not in this
    /// call.
    fn submit_with(&self, handles: &[Handle], options: SubmitOptions) -> BatchTicket;

    /// The backend's virtual clock, in µs — the timeline
    /// [`SubmitOptions::deadline_us`] is measured on. Starts at zero
    /// and only moves when [`advance_virtual_clock`](SubmitApi::advance_virtual_clock)
    /// is called, so deadlines are deterministic: wall time never
    /// expires anything.
    fn virtual_now(&self) -> u64;

    /// Advances the backend's virtual clock by `us` µs. Embedders with
    /// a notion of time (a serving layer's discrete-event clock, a test
    /// harness) drive this; queued work whose deadline the clock passes
    /// is expired at its next dispatch opportunity.
    fn advance_virtual_clock(&self, us: u64);

    /// Begins evaluating a batch with default options — no deadline,
    /// [`Priority::Normal`], WHNF. See [`submit_with`](SubmitApi::submit_with).
    fn submit_many(&self, handles: &[Handle]) -> BatchTicket {
        self.submit_with(handles, SubmitOptions::default())
    }

    /// Begins evaluating one handle (a batch of one).
    fn submit(&self, handle: Handle) -> Ticket {
        Ticket::from_batch(self.submit_many(std::slice::from_ref(&handle)))
    }
}

// ----------------------------------------------------------------------
// Evaluator: asking for results and blocking on them.
// ----------------------------------------------------------------------

/// Evaluation: reduce descriptions of computation to values.
///
/// Fix evaluation is deterministic and memoized, so any two conforming
/// backends return bit-identical handles for the same request — which is
/// what lets one workload double as a benchmark row for every backend.
///
/// Blocking is the special case of submission, and that is said here
/// once: `eval`, `eval_strict` and `eval_many` are provided as
/// [`SubmitApi::submit_with`] followed by an immediate `wait`, so a
/// backend supplies only the two observers
/// ([`footprint`](Evaluator::footprint),
/// [`procedures_run`](Evaluator::procedures_run)).
pub trait Evaluator: SubmitApi {
    /// Evaluates a handle to a non-Thunk value (weak head normal form).
    ///
    /// Values evaluate to themselves; Thunks are reduced (running
    /// procedures as needed); Encodes are resolved per their style.
    fn eval(&self, handle: Handle) -> Result<Handle> {
        self.submit(handle).wait()
    }

    /// Fully evaluates: reduces to a value, then deep-forces it so every
    /// nested Thunk/Encode is resolved and every Ref promoted.
    fn eval_strict(&self, handle: Handle) -> Result<Handle> {
        let batch = self.submit_with(std::slice::from_ref(&handle), SubmitOptions::strict());
        Ticket::from_batch(batch).wait()
    }

    /// Evaluates a batch of independent requests.
    ///
    /// Semantically identical to mapping [`eval`](Evaluator::eval) over
    /// `handles` (results are positional), but the batch is one
    /// submission: the single-node runtime enqueues it under one lock
    /// acquisition, and the cluster client ships it through one
    /// simulated run.
    fn eval_many(&self, handles: &[Handle]) -> Vec<Result<Handle>> {
        self.submit_many(handles).wait()
    }

    /// Computes the minimum repository of a thunk (paper §3.3), using
    /// whatever evaluation results the backend has already memoized.
    fn footprint(&self, thunk: Handle) -> Result<Footprint>;

    /// Computes the combined minimum repository of a batch of requests:
    /// the deduplicated union of per-thunk [`footprint`](Evaluator::footprint)s.
    /// Data shared between requests appears — and is counted — once, so
    /// `total_bytes` is what a batch transfer actually ships (and the
    /// object set is exactly what a snapshot must pin to cover the batch).
    ///
    /// The default folds [`Footprint::merge`] over per-thunk footprints;
    /// backends with direct store access override it to walk shared data
    /// only once.
    fn footprint_many(&self, thunks: &[Handle]) -> Result<Footprint> {
        let mut merged = Footprint::default();
        for &thunk in thunks {
            merged.merge(&self.footprint(thunk)?);
        }
        Ok(merged)
    }

    /// Procedures the backend has actually executed (memoization cache
    /// misses). The conformance suite observes memoization through this.
    fn procedures_run(&self) -> u64;
}

// ----------------------------------------------------------------------
// Forwarding: a pointer to a backend is that backend.
// ----------------------------------------------------------------------

/// The one forwarding definition: implements each listed trait for every
/// `P: Deref` whose target implements it (`&T`, `Arc<T>`, `Box<T>`, …),
/// forwarding every method — provided ones included, so a target's
/// overrides (the runtime's inline `eval`, its shared-walk
/// `footprint_many`) are what a pointer to it runs. A required method
/// missing from the list does not compile; a provided one would fall
/// back to the trait default without a word, so a new provided method
/// is added here *and* to `pointers_to_a_backend_reach_its_overrides`
/// in `tests/api_conformance.rs`, which counts every override reached.
macro_rules! forward_through_deref {
    ($($api:ident { $(fn $method:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)* })*) => {$(
        impl<P: Deref> $api for P
        where
            P::Target: $api,
        {$(
            fn $method(&self $(, $arg: $ty)*) $(-> $ret)? {
                (**self).$method($($arg),*)
            }
        )*}
    )*};
}

forward_through_deref! {
    ObjectApi {
        fn put(&self, node: Node) -> Handle;
        fn get(&self, handle: Handle) -> Result<Node>;
        fn contains(&self, handle: Handle) -> bool;
        fn put_blob(&self, blob: Blob) -> Handle;
        fn put_tree(&self, tree: Tree) -> Handle;
        fn get_blob(&self, handle: Handle) -> Result<Blob>;
        fn get_tree(&self, handle: Handle) -> Result<Tree>;
        fn get_u64(&self, handle: Handle) -> Result<u64>;
    }
    InvocationApi {
        fn register_native(&self, name: &str, f: NativeFn) -> Handle;
        fn install_module(&self, module_bytes: Vec<u8>) -> Result<Handle>;
        fn apply(&self, limits: ResourceLimits, procedure: Handle, args: &[Handle]) -> Result<Handle>;
        fn strict_apply(&self, limits: ResourceLimits, procedure: Handle, args: &[Handle]) -> Result<Handle>;
        fn select(&self, target: Handle, index: u64) -> Result<Handle>;
        fn select_range(&self, target: Handle, begin: u64, end: u64) -> Result<Handle>;
    }
    SubmitApi {
        fn submit_with(&self, handles: &[Handle], options: SubmitOptions) -> BatchTicket;
        fn virtual_now(&self) -> u64;
        fn advance_virtual_clock(&self, us: u64);
        fn submit_many(&self, handles: &[Handle]) -> BatchTicket;
        fn submit(&self, handle: Handle) -> Ticket;
    }
    Evaluator {
        fn eval(&self, handle: Handle) -> Result<Handle>;
        fn eval_strict(&self, handle: Handle) -> Result<Handle>;
        fn eval_many(&self, handles: &[Handle]) -> Vec<Result<Handle>>;
        fn footprint(&self, thunk: Handle) -> Result<Footprint>;
        fn footprint_many(&self, thunks: &[Handle]) -> Result<Footprint>;
        fn procedures_run(&self) -> u64;
    }
}
