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
//!   immediately, resolved by the ticket's own
//!   [`wait`](BatchTicket::wait), so a driver can overlap admission with
//!   execution; [`SubmitOptions`] carries the WHNF-vs-strict [`Mode`],
//!   and a still-queued job only a dropped ticket wanted never runs.
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
//! methods plus `request_execution`. Here a backend supplies seven:
//!
//! | trait | required |
//! |---|---|
//! | [`ObjectApi`] | `put`, `get`, `contains` |
//! | [`InvocationApi`] | `register_native` |
//! | [`SubmitApi`] | `submit_with` |
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
    /// On the node's engine the input tree is the one its launch already
    /// holds, so only the blob itself is read from the table.
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

/// Request-scoped intent attached to a submission (see
/// [`SubmitApi::submit_with`]).
///
/// A bare `submit_many` evaluates each slot to WHNF; `SubmitOptions`
/// says how deep to evaluate instead. Ordering and deadlines are not a
/// submission's business: a serving layer decides which request goes
/// first, and expires one, on its own clock before it submits
/// (`fix_serve`'s tiered dispatch queues).
///
/// The default options (WHNF) make
/// `submit_with(h, SubmitOptions::default())` behave exactly like
/// `submit_many(h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// How far each slot is evaluated.
    pub mode: Mode,
}

impl SubmitOptions {
    /// Options for a fully strict submission (deep-forced results).
    pub fn strict() -> SubmitOptions {
        SubmitOptions { mode: Mode::Strict }
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
/// A ticket is waited on ([`BatchTicket::wait`]) or dropped; the
/// backend is not involved again.
///
/// Implementations — one submission path, two entry points:
///
/// * `fixpoint::Runtime` — submission takes the scheduler's job-map
///   lock once, registers completion watchers, and returns; no caller
///   thread is parked per batch.
/// * `fix_cluster::ClusterClient` — derives and simulates the batch's
///   dataflow under its `Profile` (recording a run report), then
///   submits it to the `Runtime` it embeds and returns that node's
///   ticket. Cancellation is the node's.
///
/// Submissions are *request scoped*: [`submit_with`](SubmitApi::submit_with)
/// attaches a [`SubmitOptions`] — the WHNF-vs-strict [`Mode`] — and a
/// dropped ticket lets the backend drop work instead of blindly
/// executing it.
///
/// Contract (held by the conformance suite):
///
/// * `submit_many(h).wait()` is positionally identical to
///   [`Evaluator::eval_many`]`(h)`, and
///   `submit_with(h, SubmitOptions::strict()).wait()` to a loop of
///   [`Evaluator::eval_strict`];
/// * dropping an unresolved ticket lets go of its results: still-queued
///   work that no live request or parked job wants never runs, shared
///   and running work completes, and the drop neither hangs other work
///   nor leaves a live watcher or wanted queued job behind;
/// * tickets resolve exactly once.
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
/// # A strict batch
///
/// ```
/// use fix_core::api::{Evaluator, InvocationApi, ObjectApi, SubmitApi, SubmitOptions};
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
/// let results = rt.submit_with(&batch, SubmitOptions::strict()).wait();
/// // The slot agrees with eval_strict: the inner thunk is deep-forced.
/// let forced = *results[0].as_ref().unwrap();
/// assert_eq!(forced, rt.eval_strict(batch[0]).unwrap());
/// assert_eq!(rt.get_u64(rt.get_tree(forced).unwrap().get(0).unwrap()).unwrap(), 42);
/// ```
pub trait SubmitApi {
    /// Begins evaluating a batch of independent requests under
    /// request-scoped `options` (the evaluation mode),
    /// returning a ticket for the positional results. Must not block on
    /// evaluation: the work proceeds in the backend (or on the later
    /// `wait` for inline backends), not in this call.
    fn submit_with(&self, handles: &[Handle], options: SubmitOptions) -> BatchTicket;

    /// Begins evaluating a batch with default options (WHNF). See
    /// [`submit_with`](SubmitApi::submit_with).
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
    /// submission: the single-node runtime answers what its table
    /// already holds on the spot and watches the rest as one batch, and
    /// the cluster client ships it through one simulated run.
    fn eval_many(&self, handles: &[Handle]) -> Vec<Result<Handle>> {
        self.submit_many(handles).wait()
    }

    /// Computes the minimum repository of a thunk (paper §3.3), using
    /// whatever evaluation results the backend has already memoized.
    fn footprint(&self, thunk: Handle) -> Result<Footprint>;

    /// Procedures the backend has actually executed (memoization cache
    /// misses). The conformance suite observes memoization through this.
    fn procedures_run(&self) -> u64;
}

/// The minimum repository of a Thunk (paper §3.3): what must be resident
/// before launch. The rule that computes it reads a node's table, so it
/// lives beside the table, as `fix_storage::footprint`; every backend's
/// [`Evaluator::footprint`] is that rule over its node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Canonical data handles whose contents must be local (deduplicated,
    /// in discovery order). Literals never appear here.
    pub objects: Vec<Handle>,
    /// Total bytes across `objects` (blob lengths + 32 bytes/tree entry).
    pub total_bytes: u64,
    /// Encodes that are not yet resolved; the runtime must evaluate these
    /// before the footprint is complete. A selection's thunk target is
    /// listed as its shallow encode: it is evaluated, not forced, first.
    pub unresolved_encodes: Vec<Handle>,
    /// Refs encountered: data that is *named* but must not be fetched.
    pub refs: Vec<Handle>,
}

impl Footprint {
    /// True when every dependency is resolved and the footprint is final.
    pub fn is_complete(&self) -> bool {
        self.unresolved_encodes.is_empty()
    }
}

// ----------------------------------------------------------------------
// Forwarding: a pointer to a backend is that backend.
// ----------------------------------------------------------------------

/// The one forwarding definition: implements each listed trait for every
/// `P: Deref` whose target implements it (`&T`, `Arc<T>`, `Box<T>`, …),
/// forwarding every method — provided ones included, so a target's
/// overrides (the runtime's inline `eval` and `eval_strict`) are what a
/// pointer to it runs. A required method missing from the list does not
/// compile; a provided one would fall back to the trait default without
/// a word, so a new provided method is added here *and* to
/// `pointers_to_a_backend_reach_its_overrides` in
/// `tests/api_conformance.rs`, which counts every override reached.
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
        fn submit_many(&self, handles: &[Handle]) -> BatchTicket;
        fn submit(&self, handle: Handle) -> Ticket;
    }
    Evaluator {
        fn eval(&self, handle: Handle) -> Result<Handle>;
        fn eval_strict(&self, handle: Handle) -> Result<Handle>;
        fn eval_many(&self, handles: &[Handle]) -> Vec<Result<Handle>>;
        fn footprint(&self, thunk: Handle) -> Result<Footprint>;
        fn procedures_run(&self) -> u64;
    }
}
