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
//! again while the callee is still being evaluated.
//!
//! There is no job for an Encode: what it splices in is *derived* from
//! those two relations ([`RelationCache::resolved`]), so a job that needs
//! an unresolved Encode waits directly on the relation that is missing —
//! the `Eval` of the encoded Thunk, then (strict style only) the `Force`
//! of its value.

use crate::registry::ProgramRegistry;
use fix_core::api::NativeCtx;
use fix_core::data::{Blob, Node, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::{DataType, EncodeStyle, Handle, HandleMap, Kind, ThunkKind};
use fix_core::invocation::{Invocation, Selection};
use fix_core::semantics::{collect_encodes, EncodeResolver};
use fix_storage::{Relation, RelationCache, Store};
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

/// A [`HostApi`] over the node's store: what procedures see.
pub(crate) struct StoreHost<'a> {
    store: &'a Store,
}

impl<'a> StoreHost<'a> {
    /// Wraps a store.
    pub(crate) fn new(store: &'a Store) -> StoreHost<'a> {
        StoreHost { store }
    }
}

impl<'a> HostApi for StoreHost<'a> {
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
        self.store.get_tree(handle)
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

    /// `job`'s result if it is memoized: its relation, read from the
    /// table. The table's relations are the only record of a finished
    /// evaluation — a failure is never memoized, so `None` covers it.
    pub(crate) fn memoized(&self, job: Job) -> Option<Handle> {
        let (relation, input) = job.relation();
        self.cache.get(relation, input)
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
        if h.is_value() {
            return Ok(Step::Done(h));
        }
        if let Some(v) = self.cache.get(Relation::Eval, h) {
            return Ok(Step::Done(v));
        }
        match h.kind() {
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
                Ok(match self.resolved_or_dep(h)? {
                    Ok(v) => Step::Done(splice(style, v)),
                    Err(dep) => Step::Deps(vec![dep]),
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
            Kind::Encode(..) => match self.resolved_or_dep(sel.target)? {
                Ok(v) => v,
                Err(dep) => return Ok(Step::Deps(vec![dep])),
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

    fn step_eval_application(&self, h: Handle) -> Result<Step> {
        let tree_h = h.thunk_definition()?;
        let raw = match self.cache.get(Relation::Apply, tree_h) {
            Some(r) => r,
            None => {
                let tree = self.store.get_tree(tree_h)?;
                // Every Encode reachable through the tree comes first.
                let encodes = collect_encodes(self.store.as_ref(), &tree)?;
                let mut deps: Vec<Job> = Vec::new();
                for &e in &encodes {
                    match self.resolved_or_dep(e)? {
                        // Two styles of one thunk wait on the same job.
                        Err(dep) if !deps.contains(&dep) => deps.push(dep),
                        _ => {}
                    }
                }
                if !deps.is_empty() {
                    return Ok(Step::Deps(deps));
                }
                // Substitute resolved Encodes; the procedure sees this
                // tree. Without encodes that is the definition tree
                // itself, already hashed and stored under `tree_h`.
                let (resolved, resolved_h) = if encodes.is_empty() {
                    (tree, tree_h)
                } else {
                    let resolved = self.substitute(&tree)?;
                    let resolved_h = self.store.put_tree(resolved.clone());
                    (resolved, resolved_h)
                };
                let raw = self.run_procedure(&resolved, resolved_h)?;
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

    /// Rewrites an application tree, splicing in resolved Encode results
    /// (strict → accessible Object, shallow → Ref) and descending through
    /// accessible sub-trees; a sub-tree with nothing to splice keeps its
    /// handle. All encodes must already be resolved.
    ///
    /// An explicit worklist, not recursion: nesting depth is data (a cons
    /// list is as deep as it is long) and must not be bounded by the
    /// caller's stack.
    fn substitute(&self, tree: &Tree) -> Result<Tree> {
        // The tree being rewritten with its rewritten entries so far (so
        // the next entry to look at is `out.len()`), and the trees above
        // it suspended where they descended, each with the handle of
        // the sub-tree it is waiting on.
        let mut current = (tree.clone(), Vec::with_capacity(tree.len()));
        let mut suspended: Vec<((Tree, Vec<Handle>), Handle)> = Vec::new();
        loop {
            let (source, out) = &mut current;
            let Some(entry) = source.get(out.len()) else {
                let rewritten = Tree::from_handles(std::mem::take(out));
                let Some((parent, sub)) = suspended.pop() else {
                    return Ok(rewritten);
                };
                let unchanged = rewritten == current.0;
                current = parent;
                current.1.push(if unchanged {
                    sub
                } else {
                    self.store.put_tree(rewritten)
                });
                continue;
            };
            match entry.kind() {
                Kind::Encode(style, _) => {
                    let r = self
                        .cache
                        .resolved(entry)
                        .ok_or(Error::NotEvaluated(entry))?;
                    out.push(splice(style, r));
                }
                Kind::Object(DataType::Tree) => {
                    let sub = self.store.get_tree(entry)?;
                    let capacity = sub.len();
                    let parent =
                        std::mem::replace(&mut current, (sub, Vec::with_capacity(capacity)));
                    suspended.push((parent, entry));
                }
                _ => out.push(entry),
            }
        }
    }

    /// Runs the procedure of a fully-resolved application tree.
    fn run_procedure(&self, tree: &Tree, tree_handle: Handle) -> Result<Handle> {
        let inv = Invocation::from_tree(tree)?;
        let proc = inv.procedure;
        if !matches!(proc.kind(), Kind::Object(DataType::Blob)) {
            return Err(Error::UnknownProcedure(proc));
        }
        self.stats.procedures_run.fetch_add(1, Ordering::Relaxed);

        // Native codelet?
        if let Some(f) = self.registry.lookup(proc) {
            self.stats.native_runs.fetch_add(1, Ordering::Relaxed);
            let mut host = StoreHost::new(&self.store);
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
            let mut host = StoreHost::new(&self.store);
            let out = fix_vm::run(
                &module,
                &mut host,
                tree_handle,
                VmConfig::from_limits(&inv.limits),
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
    // Encodes.
    // ------------------------------------------------------------------

    /// The value Encode `e` resolves to, exactly as
    /// [`RelationCache::resolved`] derives it — the evaluation of its
    /// Thunk, deep-forced for the strict style — or else the job whose
    /// relation is still missing (`Eval` first, then `Force`).
    fn resolved_or_dep(&self, e: Handle) -> Result<std::result::Result<Handle, Job>> {
        let thunk = e.encoded_thunk()?;
        let Some(value) = self.cache.get(Relation::Eval, thunk) else {
            return Ok(Err(Job::Eval(thunk)));
        };
        Ok(match e.kind() {
            Kind::Encode(EncodeStyle::Strict, _) => self
                .cache
                .get(Relation::Force, value)
                .ok_or(Job::Force(value)),
            _ => Ok(value),
        })
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
