//! The evaluation engine: Fix semantics as restartable job steps.
//!
//! Every unit of evaluation is a [`Job`]; executing a job either completes
//! with a Handle or reports the jobs it depends on ([`Step::Deps`]). Jobs
//! are *restartable*: when dependencies finish, the job is simply stepped
//! again — memoized relations (the table's [`RelationCache`]) make the replay
//! cheap and guarantee the expensive work (running a procedure) happens
//! exactly once. This mirrors Fixpoint's design: procedures never block
//! (paper §4.2.1), so a worker either runs a codelet to completion or
//! records what must be computed first. A job whose remaining work is
//! another job's result — a tail call — says so ([`Step::Tail`]) and is
//! completed with that result, not stepped again to copy it.
//!
//! The two job kinds map onto the memoized relations:
//!
//! * [`Job::Eval`] — reduce a Thunk until the result is not a Thunk;
//! * [`Job::Force`] — deep-evaluate a value (strict semantics): all
//!   Thunks and Encodes inside replaced, all Refs promoted.
//!
//! A finished application leaves one relation, its `Eval`. The third
//! relation, `Apply(tree) → thunk`, is recorded only when a procedure
//! makes a tail call: it keeps a re-step from running the procedure
//! again while the callee is still being evaluated. A thunk, its tree
//! and both relations share one entry of the table, so an application's
//! step reads all three in one probe ([`Store::applied`]).
//!
//! There is no job for an Encode: what it splices in is *derived* from
//! those two relations by one rule, [`fix_storage::resolution`], which
//! names the relation that is missing when there is none — the `Eval`
//! of the encoded Thunk, then (strict style only) the `Force` of its
//! value — so a job that needs an unresolved Encode waits directly on
//! that relation's job. An application launches after one pass over its
//! tree ([`Engine::launch`]), which splices every Encode or lists the
//! jobs to wait on.

use crate::registry::ProgramRegistry;
use fix_core::api::NativeCtx;
use fix_core::data::{Blob, Node, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::{DataType, EncodeStyle, Handle, HandleMap, Kind, ThunkKind};
use fix_core::invocation::{application_header, Selection};
use fix_storage::{resolution, Applied, Relation, RelationCache, Store};
use fix_vm::{HostApi, Module, VmConfig};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unit of evaluation work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Job {
    /// Reduce a Thunk to a non-Thunk value.
    Eval(Handle),
    /// Deep-force a value so that everything inside is accessible.
    Force(Handle),
}

impl Job {
    /// The memoized relation this job computes, and its input.
    fn relation(self) -> (Relation, Handle) {
        match self {
            Job::Eval(h) => (Relation::Eval, h),
            Job::Force(h) => (Relation::Force, h),
        }
    }

    /// The job that computes a missing relation: [`resolution`] only
    /// ever misses an `Eval` or a `Force`.
    pub(crate) fn of((relation, input): (Relation, Handle)) -> Job {
        match relation {
            Relation::Force => Job::Force(input),
            _ => Job::Eval(input),
        }
    }
}

impl std::fmt::Display for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Job::Eval(h) => write!(f, "eval({h})"),
            Job::Force(h) => write!(f, "force({h})"),
        }
    }
}

/// The outcome of stepping a job once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// The job finished with this result.
    Done(Handle),
    /// The job needs these jobs to finish first, then must be re-stepped.
    Deps(Vec<Job>),
    /// The job's result is this job's result, whatever it turns out to
    /// be (a tail call, a selection that landed on a thunk, the force of
    /// an evaluated value): when it finishes, the scheduler records the
    /// waiter's relation ([`Engine::complete_tail`]) and completes the
    /// waiter on the spot.
    Tail(Job),
}

/// Counters describing engine activity (used by benches and tests).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Procedures actually executed (cache misses on Apply).
    pub procedures_run: AtomicU64,
    /// FixVM guest runs among those.
    pub vm_runs: AtomicU64,
    /// Native codelet runs among those.
    pub native_runs: AtomicU64,
    /// Total guest fuel consumed.
    pub fuel_used: AtomicU64,
}

/// The evaluation engine shared by all workers of one node.
pub struct Engine {
    /// The node's one table: its objects and memoized relations.
    pub(crate) store: Arc<Store>,
    /// The table's relation face.
    pub(crate) cache: RelationCache,
    /// Native procedure registry.
    pub(crate) registry: Arc<ProgramRegistry>,
    /// Parsed-module cache (content-addressed, so never invalidated).
    modules: RwLock<HandleMap<[u8; 24], Arc<Module>>>,
    /// Activity counters.
    pub stats: EngineStats,
}

/// A [`HostApi`] over the node's store: what procedures see. The
/// invocation's own input is the tree its launch returned, so a
/// procedure reading its arguments (a native `arg`, FixVM's `tree.get`
/// on its input) does not go back to the table for it.
struct StoreHost<'a> {
    store: &'a Store,
    /// The launched application tree and its handle.
    input: (&'a Tree, Handle),
}

impl HostApi for StoreHost<'_> {
    fn load_blob(&mut self, handle: Handle) -> Result<Blob> {
        if !handle.is_accessible() {
            return Err(Error::Inaccessible(handle));
        }
        self.store.get_blob(handle)
    }

    fn load_tree(&mut self, handle: Handle) -> Result<Tree> {
        if !handle.is_accessible() {
            return Err(Error::Inaccessible(handle));
        }
        match self.input {
            (tree, input) if input == handle => Ok(tree.clone()),
            _ => self.store.get_tree(handle),
        }
    }

    fn create_blob(&mut self, data: Vec<u8>) -> Result<Handle> {
        Ok(self.store.put_blob(Blob::from_vec(data)))
    }

    fn create_tree(&mut self, entries: Vec<Handle>) -> Result<Handle> {
        Ok(self.store.put_tree(Tree::from_handles(entries)))
    }
}

/// How a resolved Encode appears in the tree a procedure sees: strict →
/// accessible Object, shallow → Ref (minimum progress: metadata only).
fn splice(style: EncodeStyle, resolved: Handle) -> Handle {
    match style {
        EncodeStyle::Strict => resolved.as_object_handle(),
        EncodeStyle::Shallow => resolved.as_ref_handle(),
    }
}

impl Engine {
    /// Creates an engine over the given table and registry.
    pub(crate) fn new(store: Arc<Store>, registry: Arc<ProgramRegistry>) -> Engine {
        Engine {
            cache: RelationCache::of(Arc::clone(&store)),
            store,
            registry,
            modules: RwLock::default(),
            stats: EngineStats::default(),
        }
    }

    /// `job`'s result if the table already holds it: a value's `Eval`
    /// is the value itself, and any other job's is its relation, read
    /// from the table. The table's relations are the only record of a
    /// finished evaluation — a failure is never memoized, so `None`
    /// covers it.
    pub(crate) fn memoized(&self, job: Job) -> Option<Handle> {
        match job {
            Job::Eval(h) if h.is_value() => Some(h),
            _ => {
                let (relation, input) = job.relation();
                self.cache.get(relation, input)
            }
        }
    }

    /// Executes one step of `job`.
    pub(crate) fn step(&self, job: Job) -> Result<Step> {
        match job {
            Job::Eval(h) => self.step_eval(h),
            Job::Force(h) => self.step_force(h),
        }
    }

    // ------------------------------------------------------------------
    // Eval.
    // ------------------------------------------------------------------

    fn step_eval(&self, h: Handle) -> Result<Step> {
        // An application reads its `Eval` with the rest of its entry.
        let kind = h.kind();
        if kind != Kind::Thunk(ThunkKind::Application) {
            if let Some(v) = self.memoized(Job::Eval(h)) {
                return Ok(Step::Done(v));
            }
        }
        match kind {
            Kind::Thunk(ThunkKind::Identification) => {
                // The identity function: a pure renaming to the value.
                let target = h.thunk_definition()?;
                self.cache.put(Relation::Eval, h, target);
                Ok(Step::Done(target))
            }
            Kind::Thunk(ThunkKind::Selection) => self.step_eval_selection(h),
            Kind::Thunk(ThunkKind::Application) => self.step_eval_application(h),
            Kind::Encode(style, _) => {
                // Bare encodes are not values: eval(encode) is what the
                // encode would splice into a tree.
                Ok(match resolution(&self.store, h) {
                    Ok(v) => Step::Done(splice(style, v)),
                    Err(missing) => Step::Deps(vec![Job::of(missing)]),
                })
            }
            Kind::Object(_) | Kind::Ref(_) => Ok(Step::Done(h)),
        }
    }

    fn step_eval_selection(&self, h: Handle) -> Result<Step> {
        let def = self.store.get_tree(h.thunk_definition()?)?;
        let sel = Selection::from_tree(&def)?;
        // First, get the target down to a value.
        let target = match sel.target.kind() {
            Kind::Object(_) | Kind::Ref(_) => sel.target,
            Kind::Thunk(_) => match self.cache.get(Relation::Eval, sel.target) {
                Some(v) => v,
                None => return Ok(Step::Deps(vec![Job::Eval(sel.target)])),
            },
            Kind::Encode(..) => match resolution(&self.store, sel.target) {
                Ok(v) => v,
                Err(missing) => return Ok(Step::Deps(vec![Job::of(missing)])),
            },
        };
        // Perform the extraction. The runtime — not the guest — touches the
        // data, so accessibility tags on `target` don't gate this.
        let result = match self.store.get(target)? {
            Node::Tree(tree) => {
                let (begin, end) = sel.bounds(tree.len() as u64)?;
                if sel.end.is_none() {
                    tree.get(begin as usize).ok_or(Error::BadSelection {
                        target: sel.target,
                        begin,
                        end,
                        len: tree.len() as u64,
                    })?
                } else {
                    self.store
                        .put_tree(tree.slice(begin as usize, end as usize))
                }
            }
            Node::Blob(blob) => {
                let (begin, end) = sel.bounds(blob.len() as u64)?;
                self.store
                    .put_blob(blob.slice(begin as usize, end as usize))
            }
        };
        if result.is_thunk() {
            // Chained laziness: keep reducing.
            Ok(self.tail(Job::Eval(h), Job::Eval(result)))
        } else {
            self.cache.put(Relation::Eval, h, result);
            Ok(Step::Done(result))
        }
    }

    /// Steps an application: its `Eval`, its tree's `Apply` and the tree
    /// are one read of the table ([`Store::applied`]).
    fn step_eval_application(&self, h: Handle) -> Result<Step> {
        let tree_h = h.thunk_definition()?;
        let raw = match self.store.applied(h)? {
            Applied::Evaluated(v) => return Ok(Step::Done(v)),
            Applied::TailCalled(raw) => raw,
            Applied::Pending(tree) => {
                let (tree, launched_h) = match self.launch(tree_h, tree)? {
                    Ok(launched) => launched,
                    Err(deps) => return Ok(Step::Deps(deps)),
                };
                let raw = self.run_procedure(&tree, launched_h)?;
                if raw.is_thunk() {
                    // A tail call: until the callee finishes, `Apply` is
                    // what keeps a re-step from running the procedure
                    // again. A value needs no `Apply`: its `Eval` below
                    // is the application's one relation.
                    self.cache.put(Relation::Apply, tree_h, raw);
                }
                raw
            }
        };
        if raw.is_thunk() {
            // Tail call: the procedure returned another computation.
            Ok(self.tail(Job::Eval(h), Job::Eval(raw)))
        } else {
            self.cache.put(Relation::Eval, h, raw);
            Ok(Step::Done(raw))
        }
    }

    /// `job`'s result is `callee`'s: done if that is already memoized,
    /// else a [`Step::Tail`] on it.
    fn tail(&self, job: Job, callee: Job) -> Step {
        match self.memoized(callee) {
            Some(v) => {
                self.complete_tail(job, v);
                Step::Done(v)
            }
            None => Step::Tail(callee),
        }
    }

    /// Records that `job`, which reported [`Step::Tail`], finished with
    /// its callee's `value`: the relation a re-step would have copied.
    /// Nothing ran, so the relation names no recipe (computational GC
    /// skips the `Eval` of an application whose `Apply` is a thunk).
    pub(crate) fn complete_tail(&self, job: Job, value: Handle) {
        let (relation, input) = job.relation();
        self.cache.put(relation, input, value);
    }

    /// The launch pass (paper §3.3): one walk of the application tree
    /// `tree_h` (its data `tree` when the caller read it already, else
    /// read here) and its accessible sub-trees, depth first with entries in
    /// order, that splices every Encode it meets ([`splice`]). Returns the
    /// tree the procedure sees with its handle (`tree_h` itself when
    /// nothing was spliced), or, if some Encode is unresolved, the jobs
    /// whose relations are missing, each once and first seen first (two
    /// styles of one thunk wait on the same job).
    ///
    /// A tree is copied only once one of its entries changes, so a
    /// sub-tree with nothing to splice keeps its handle, and a tree with
    /// no Encode and no sub-tree is one scan that allocates nothing. A
    /// sub-tree met twice is walked once. An explicit worklist, not
    /// recursion: nesting depth is data (a cons list is as deep as it is
    /// long) and must not be bounded by the caller's stack.
    fn launch(
        &self,
        tree_h: Handle,
        tree: Option<Tree>,
    ) -> Result<std::result::Result<(Tree, Handle), Vec<Job>>> {
        let mut deps = Vec::new();
        // What each sub-tree walked so far became.
        let mut walked: HandleMap<Handle, Handle> = HandleMap::default();
        // The tree being walked — its data, its handle, the next entry,
        // and, once one entry changed, its entries so far — and the
        // trees above it, suspended at the sub-tree they descended into.
        let tree = match tree {
            Some(tree) => tree,
            None => self.store.get_tree(tree_h)?,
        };
        let mut current = (tree, tree_h, 0, Vec::new());
        let mut suspended = Vec::new();
        loop {
            let (tree, handle, next, out) = &mut current;
            let value = match tree.get(*next) {
                Some(entry) => match entry.kind() {
                    Kind::Encode(style, _) => match resolution(&self.store, entry) {
                        Ok(v) => splice(style, v),
                        Err(missing) => {
                            let job = Job::of(missing);
                            if !deps.contains(&job) {
                                deps.push(job);
                            }
                            entry
                        }
                    },
                    Kind::Object(DataType::Tree) => match walked.get(&entry) {
                        Some(&done) => done,
                        None => {
                            let sub = (self.store.get_tree(entry)?, entry, 0, Vec::new());
                            suspended.push(std::mem::replace(&mut current, sub));
                            continue;
                        }
                    },
                    _ => entry,
                },
                None => {
                    // Walked: a changed tree is stored, unless the launch
                    // has to wait anyway. (A sub-tree walked before the
                    // first unresolved Encode is stored: it is the one the
                    // launch will store.)
                    let done = if out.is_empty() || !deps.is_empty() {
                        (tree.clone(), *handle)
                    } else {
                        let copy = Tree::from_handles(std::mem::take(out));
                        (copy.clone(), self.store.put_tree(copy))
                    };
                    let Some(parent) = suspended.pop() else {
                        return Ok(if deps.is_empty() { Ok(done) } else { Err(deps) });
                    };
                    walked.insert(*handle, done.1);
                    current = parent;
                    done.1
                }
            };
            let (tree, _, next, out) = &mut current;
            if !out.is_empty() || value != tree.entries()[*next] {
                out.reserve(tree.len() - out.len());
                out.extend_from_slice(&tree.entries()[out.len()..*next]);
                out.push(value);
            }
            *next += 1;
        }
    }

    /// Runs the procedure of a fully-resolved application tree.
    fn run_procedure(&self, tree: &Tree, tree_handle: Handle) -> Result<Handle> {
        let (limits, proc) = application_header(tree)?;
        if !matches!(proc.kind(), Kind::Object(DataType::Blob)) {
            return Err(Error::UnknownProcedure(proc));
        }
        self.stats.procedures_run.fetch_add(1, Ordering::Relaxed);

        let mut host = StoreHost {
            store: &self.store,
            input: (tree, tree_handle),
        };
        // Native codelet?
        if let Some(f) = self.registry.lookup(proc) {
            self.stats.native_runs.fetch_add(1, Ordering::Relaxed);
            let mut ctx = NativeCtx {
                input: tree_handle,
                host: &mut host,
            };
            return f(&mut ctx);
        }

        // FixVM codelet?
        let blob = self.store.get_blob(proc)?;
        if Module::is_module(blob.as_slice()) {
            self.stats.vm_runs.fetch_add(1, Ordering::Relaxed);
            let module = self.load_module(proc, &blob)?;
            let out = fix_vm::run(
                &module,
                &mut host,
                tree_handle,
                VmConfig::from_limits(&limits),
            )?;
            self.stats
                .fuel_used
                .fetch_add(out.fuel_used, Ordering::Relaxed);
            return Ok(out.result);
        }
        Err(Error::UnknownProcedure(proc))
    }

    fn load_module(&self, handle: Handle, blob: &Blob) -> Result<Arc<Module>> {
        // Literal-sized modules are parsed directly (no digest to key on).
        let Some(key) = handle.digest() else {
            return Ok(Arc::new(Module::from_bytes(blob.as_slice())?));
        };
        if let Some(m) = self.modules.read().get(&key) {
            return Ok(Arc::clone(m));
        }
        let module = Arc::new(Module::from_bytes(blob.as_slice())?);
        self.modules.write().insert(key, Arc::clone(&module));
        Ok(module)
    }

    // ------------------------------------------------------------------
    // Force.
    // ------------------------------------------------------------------

    fn step_force(&self, h: Handle) -> Result<Step> {
        if let Some(f) = self.cache.get(Relation::Force, h) {
            return Ok(Step::Done(f));
        }
        match h.kind() {
            Kind::Object(DataType::Blob) | Kind::Ref(DataType::Blob) => {
                // Promotion to Object requires the data to exist.
                if !self.store.contains(h) {
                    return Err(Error::NotFound(h));
                }
                let r = h.as_object_handle();
                self.cache.put(Relation::Force, h, r);
                Ok(Step::Done(r))
            }
            Kind::Object(DataType::Tree) | Kind::Ref(DataType::Tree) => self.step_force_tree(h),
            Kind::Thunk(_) => {
                // Forcing a thunk: evaluate, then force the value.
                let v = match self.cache.get(Relation::Eval, h) {
                    Some(v) => v,
                    None => return Ok(Step::Deps(vec![Job::Eval(h)])),
                };
                Ok(self.tail(Job::Force(h), Job::Force(v)))
            }
            Kind::Encode(..) => {
                // Force through the encode's thunk, ignoring the style:
                // strict evaluation makes everything fully accessible.
                let thunk = h.encoded_thunk()?;
                Ok(self.tail(Job::Force(h), Job::Force(thunk)))
            }
        }
    }

    fn step_force_tree(&self, h: Handle) -> Result<Step> {
        let tree = self.store.get_tree(h)?;
        let mut deps: Vec<Job> = Vec::new();
        let mut forced_entries: Vec<Handle> = Vec::with_capacity(tree.len());
        for &entry in tree.entries() {
            match entry.kind() {
                Kind::Object(DataType::Blob) | Kind::Ref(DataType::Blob) => {
                    if !self.store.contains(entry) {
                        return Err(Error::NotFound(entry));
                    }
                    forced_entries.push(entry.as_object_handle());
                }
                Kind::Object(DataType::Tree)
                | Kind::Ref(DataType::Tree)
                | Kind::Thunk(_)
                | Kind::Encode(..) => match self.cache.get(Relation::Force, entry) {
                    Some(f) => forced_entries.push(f.as_object_handle()),
                    None => deps.push(Job::Force(entry)),
                },
            }
        }
        if !deps.is_empty() {
            return Ok(Step::Deps(deps));
        }
        let forced = Tree::from_handles(forced_entries);
        let result = self.store.put_tree(forced);
        self.cache.put(Relation::Force, h, result);
        if result != h {
            // Forcing is idempotent.
            self.cache.put(Relation::Force, result, result);
        }
        Ok(Step::Done(result))
    }
}
