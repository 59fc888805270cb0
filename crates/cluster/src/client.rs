//! [`ClusterClient`]: the distributed engine behind the One Fix API.
//!
//! The paper's transparency argument (and Nexus's, for transparent
//! I/O) is that callers should not know which substrate serves them.
//! This module makes that literal: a `ClusterClient` implements the same
//! `fix_core::api` traits as the single-node `fixpoint::Runtime` —
//! [`SubmitApi`] included — so a workload or a serving driver written
//! once against the traits runs unchanged on either, and the
//! conformance suite holds both to identical results. Which *system*
//! the simulated cluster runs is a value, not a type: the client is
//! costed under a [`Profile`] — Fixpoint's by default, or a comparator
//! literal from `fix_baselines::profiles` — so the next comparator is a
//! profile handed to [`ClusterClientBuilder::profile`], not a wrapper.
//!
//! Mechanically the client is a Fix node with the simulated cluster
//! behind it. Construction calls (`ObjectApi`, `InvocationApi`) build
//! ordinary Fix objects. Each evaluation request is served twice over,
//! which is exactly the paper's split between *semantics* and
//! *placement*:
//!
//! 1. the request's dataflow — visible up front, because I/O is
//!    externalized — is derived into a [`JobGraph`] and executed by the
//!    simulator under the client's [`Profile`] over `fix-netsim`,
//!    producing a [`RunReport`] (makespan, bytes moved, CPU states);
//! 2. the actual Fix semantics run on the embedded node, so results are
//!    bit-identical to every other backend.
//!
//! Submission is the embedded node's own: `submit_with` simulates the
//! batch, then hands it to the node's scheduler and returns *its*
//! ticket. Cancellation and strict eval→force chains
//! are therefore the scheduler's — the same code a
//! bare `Runtime` runs —
//! not a second engine wrapped around the client. `eval`, `eval_strict`
//! and `eval_many` are the API's provided submit-and-wait.
//!
//! Memoized requests ship no tasks: the location view already holds the
//! result, so the simulated run is skipped — "pay for results" shows up
//! in the reports, not just in the counters.

use crate::engine::{try_run_profile, ClusterSetup, FixConfig, Profile};
use crate::graph::{JobGraph, JobGraphBuilder, ObjectId, TaskId, TaskSpec};
use crate::report::{ReportLog, RunReport};
use fix_core::api::{
    BatchTicket, Evaluator, InvocationApi, Mode, NativeFn, ObjectApi, SubmitApi, SubmitOptions,
};
use fix_core::calibration::SERVICE_COSTS;
use fix_core::data::Node;
use fix_core::error::{Error, Result};
use fix_core::handle::{transfer_size, DataType, Handle, HandleMap, HandleSet, Kind, ThunkKind};
use fix_core::limits::ResourceLimits;
use fix_core::semantics::Footprint;
use fix_netsim::{NetConfig, NodeId, NodeSpec, Time};
use fix_storage::Relation;
use fixpoint::Runtime;

/// Configures a [`ClusterClient`].
pub struct ClusterClientBuilder {
    setup: ClusterSetup,
    profile: Profile,
}

impl Default for ClusterClientBuilder {
    fn default() -> Self {
        ClusterClientBuilder {
            setup: ClusterSetup::workers_only(10, NodeSpec::default(), NetConfig::default()),
            profile: Profile::from(&FixConfig::default()),
        }
    }
}

impl ClusterClientBuilder {
    /// The simulated cluster to run on (default: ten homogeneous
    /// workers, no distinct client node).
    pub fn setup(mut self, setup: ClusterSetup) -> Self {
        self.setup = setup;
        self
    }

    /// The system the cluster runs: every derived graph is simulated
    /// under this profile (default: Fixpoint's, `FixConfig::default()`;
    /// the comparators are literals in `fix_baselines::profiles`).
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Builds the client, validating the cluster description.
    pub fn build(self) -> Result<ClusterClient> {
        self.setup.validate().map_err(backend_fault)?;
        Ok(ClusterClient {
            inner: Runtime::builder().build(),
            setup: self.setup,
            profile: self.profile,
            reports: ReportLog::new(),
        })
    }
}

/// A cluster description or dataflow the simulator refuses.
fn backend_fault(message: String) -> Error {
    Error::Backend {
        backend: "cluster",
        message,
    }
}

/// A Fix client whose evaluations are served by the simulated
/// distributed engine: an embedded Fix node for semantics, a simulated
/// cluster description, the [`Profile`] it is costed under, and the
/// accumulated run reports.
///
/// Implements the whole `fix_core::api` trait family; see the module
/// docs for the execution model and [`ClusterClient::reports`] for the
/// simulated-run telemetry.
///
/// # Examples
///
/// ```
/// use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
/// use fix_core::data::Blob;
/// use fix_core::limits::ResourceLimits;
/// use std::sync::Arc;
///
/// let cc = fix_cluster::ClusterClient::builder().build().unwrap();
/// let add = cc.register_native("add", Arc::new(|ctx| {
///     let a = ctx.arg_blob(0)?.as_u64().unwrap();
///     let b = ctx.arg_blob(1)?.as_u64().unwrap();
///     ctx.host.create_blob((a + b).to_le_bytes().to_vec())
/// }));
/// let thunk = cc.apply(
///     ResourceLimits::default_limits(),
///     add,
///     &[cc.put_blob(Blob::from_u64(1)), cc.put_blob(Blob::from_u64(2))],
/// ).unwrap();
/// let result = cc.eval(thunk).unwrap();
/// assert_eq!(cc.get_u64(result).unwrap(), 3);
/// // The evaluation also produced a simulated cluster run:
/// assert_eq!(cc.last_report().unwrap().tasks_run, 1);
/// ```
pub struct ClusterClient {
    inner: Runtime,
    setup: ClusterSetup,
    profile: Profile,
    reports: ReportLog,
}

impl ClusterClient {
    /// Starts building a client.
    pub fn builder() -> ClusterClientBuilder {
        ClusterClientBuilder::default()
    }

    /// The embedded Fix node that holds this client's objects and
    /// memoized relations.
    pub fn inner(&self) -> &Runtime {
        &self.inner
    }

    /// The simulated cluster description.
    pub fn setup(&self) -> &ClusterSetup {
        &self.setup
    }

    /// Reports of every simulated run so far, in submission order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.reports.all()
    }

    /// The most recent simulated run, if any.
    pub fn last_report(&self) -> Option<RunReport> {
        self.reports.last()
    }

    /// Total simulated wall-clock spent across all runs, in µs.
    pub fn total_simulated_us(&self) -> Time {
        self.reports.total_makespan_us()
    }

    /// Derives the (not-yet-memoized) dataflow of `roots`, simulates it
    /// under the profile, and records the report; `strict` additionally
    /// derives the deep-force phase of value roots. A batch with no
    /// runnable tasks (all values / all memoized) records nothing; a
    /// dataflow the cluster cannot run (a task that fits no worker) is a
    /// backend fault, raised before anything is evaluated.
    fn simulate(&self, roots: &[Handle], strict: bool) -> Result<()> {
        let (rt, workers) = (&self.inner, &self.setup.workers);
        let Some(graph) = derive_job_graph(rt, roots, strict, workers) else {
            return Ok(());
        };
        let report = try_run_profile(&self.setup, &graph, &self.profile).map_err(backend_fault)?;
        self.reports.push(report);
        Ok(())
    }
}

// ----------------------------------------------------------------------
// The One Fix API: objects and procedures live on the embedded node,
// requests are simulated and then submitted to it.
// ----------------------------------------------------------------------

impl ObjectApi for ClusterClient {
    fn put(&self, node: Node) -> Handle {
        self.inner.put(node)
    }
    fn get(&self, handle: Handle) -> Result<Node> {
        self.inner.store().get(handle)
    }
    fn contains(&self, handle: Handle) -> bool {
        self.inner.store().contains(handle)
    }
}

impl InvocationApi for ClusterClient {
    fn register_native(&self, name: &str, f: NativeFn) -> Handle {
        self.inner.register_native(name, f)
    }
}

impl SubmitApi for ClusterClient {
    /// One simulated run serves the whole batch (the cluster sees the
    /// union dataflow and overlaps everything it can; [`Mode::Strict`]
    /// derives the force phase too — even a value root can hold work
    /// nested inside its trees), so a batch that cannot be simulated
    /// fails as a whole. The batch then goes to the embedded node's
    /// scheduler and the ticket returned is the node's own.
    fn submit_with(&self, handles: &[Handle], options: SubmitOptions) -> BatchTicket {
        if let Err(fault) = self.simulate(handles, options.mode == Mode::Strict) {
            return BatchTicket::ready(vec![Err(fault); handles.len()]);
        }
        self.inner.submit_with(handles, options)
    }
}

impl Evaluator for ClusterClient {
    fn footprint(&self, thunk: Handle) -> Result<Footprint> {
        self.inner.footprint(thunk)
    }
    fn footprint_many(&self, thunks: &[Handle]) -> Result<Footprint> {
        self.inner.footprint_many(thunks)
    }
    fn procedures_run(&self) -> u64 {
        self.inner.procedures_run()
    }
}

/// Derives the cluster dataflow of `roots` from a node's objects and
/// memoized relations: one task per unevaluated thunk, dependency edges
/// along encodes, input objects for accessible definition data
/// (scattered deterministically over `workers` by content hash). With
/// `strict`, value roots are also deep-walked — the thunks and encodes
/// nested inside their trees become tasks too, modeling the force phase
/// of a strict evaluation.
///
/// Every task is charged the flat `SERVICE_COSTS.task_compute_us`; an
/// application's declared output size
/// ([`ResourceLimits::output_size_hint`]) is its task's output hint.
///
/// Returns `None` when nothing needs to run — every root is a value or
/// fully memoized. The graph does not depend on the [`Profile`] it is
/// then simulated under, so Fix and its comparators are costed over the
/// *same* derived graphs. Both walks are explicit worklists: dataflow
/// depth is bounded by memory, not by the caller's stack.
pub fn derive_job_graph(
    rt: &Runtime,
    roots: &[Handle],
    strict: bool,
    workers: &[NodeId],
) -> Option<JobGraph> {
    if workers.is_empty() {
        // No placement targets: nothing can run (callers validate their
        // setups up front; this keeps the shared helper panic-free).
        return None;
    }
    let mut d = Deriver {
        rt,
        builder: JobGraphBuilder::new(),
        tasks: HandleMap::default(),
        objects: HandleMap::default(),
        workers,
    };
    for &root in roots {
        // Derivation failures (e.g. a definition tree missing from
        // storage) surface as semantic errors from the real evaluation;
        // the simulation keeps whatever subgraph was derived before the
        // failure, so telemetry for a malformed root is approximate, not
        // absent.
        let _ = d.task_for(root);
        if strict {
            let _ = d.force_tasks(root);
        }
    }
    if d.tasks.is_empty() {
        return None;
    }
    Some(d.builder.build())
}

/// Walks Fix objects into a [`JobGraph`]: one task per unevaluated
/// thunk, dependency edges along strict/shallow encodes, input objects
/// for the accessible data in each definition tree.
struct Deriver<'a> {
    rt: &'a Runtime,
    builder: JobGraphBuilder,
    /// Thunk handle → derived task (content addressing deduplicates
    /// shared sub-computations, mirroring the scheduler's job identity).
    tasks: HandleMap<Handle, TaskId>,
    /// Data payload → graph object.
    objects: HandleMap<Handle, ObjectId>,
    workers: &'a [NodeId],
}

/// A thunk whose task is being assembled: the spec so far and the
/// definition entries still to visit.
struct Frame {
    thunk: Handle,
    spec: TaskSpec,
    entries: Vec<Handle>,
    next: usize,
    /// A bare thunk is a dependency of a selection (its target must be
    /// evaluated first) and lazy in an application.
    thunks_are_deps: bool,
}

/// What visiting a handle finds.
enum Visit {
    /// Nothing to assemble: the task already derived for it, or `None`
    /// for values and for thunks whose result is already memoized.
    Known(Option<TaskId>),
    /// An underived thunk, opened for assembly.
    Open(Frame),
}

impl<'a> Deriver<'a> {
    /// The node a stored object "lives on": scattered deterministically
    /// by content hash, modeling content-addressed placement across the
    /// cluster.
    fn home_node(&self, h: Handle) -> NodeId {
        let scatter = h.digest().map(|d| d[0]).unwrap_or(0);
        self.workers[(scatter as usize) % self.workers.len()]
    }

    fn object_for(&mut self, h: Handle) -> Option<ObjectId> {
        if h.is_literal() {
            return None; // Literals ride inside handles; nothing moves.
        }
        let key = match h.kind() {
            Kind::Ref(_) => h.as_object_handle(),
            _ => h,
        };
        if let Some(&o) = self.objects.get(&key) {
            return Some(o);
        }
        let node = self.home_node(key);
        let o = self.builder.object_at(transfer_size(key), &[node]);
        self.objects.insert(key, o);
        Some(o)
    }

    fn memoized(&self, thunk: Handle) -> Option<Handle> {
        self.rt.cache().get(Relation::Eval, thunk)
    }

    /// Looks `h` up, opening a frame when it is a thunk that still has
    /// to run: the definition is its first input, and its definition
    /// entries are what the frame goes on to visit.
    fn visit(&mut self, mut h: Handle) -> Result<Visit> {
        // An encode's work is evaluating the thunk it wraps; the memo
        // check happens there.
        while let Kind::Encode(..) = h.kind() {
            h = h.encoded_thunk()?;
        }
        let Kind::Thunk(kind) = h.kind() else {
            return Ok(Visit::Known(None));
        };
        if let Some(&t) = self.tasks.get(&h) {
            return Ok(Visit::Known(Some(t)));
        }
        if self.memoized(h).is_some() {
            return Ok(Visit::Known(None)); // Already computed: pay for results.
        }
        let def = h.thunk_definition()?;
        let mut spec = TaskSpec {
            inputs: Vec::new(),
            deps: Vec::new(),
            compute_us: SERVICE_COSTS.task_compute_us,
            cores: 1,
            ram: 64 << 20,
            output_size: 8,
            output_hint: None,
            func: def
                .digest()
                .map(|[a, b, c, d, ..]| u32::from_le_bytes([a, b, c, d]))
                .unwrap_or(0),
        };
        spec.inputs.extend(self.object_for(def));
        let entries = match kind {
            ThunkKind::Application => self.rt.get_tree(def).map(|t| t.entries().to_vec()),
            // Only the target; the bounds are literals.
            ThunkKind::Selection => self
                .rt
                .get_tree(def)
                .map(|t| t.get(0).into_iter().collect()),
            // The definition is the identified datum itself.
            ThunkKind::Identification => Ok(Vec::new()),
        }
        .unwrap_or_default();
        if kind == ThunkKind::Application {
            // Entry 0 is the limits literal; zero means "no hint".
            spec.output_hint = entries
                .first()
                .and_then(|&limits| ResourceLimits::from_handle(limits).ok())
                .map(|limits| limits.output_size_hint)
                .filter(|&hint| hint > 0);
        }
        Ok(Visit::Open(Frame {
            thunk: h,
            spec,
            entries,
            next: 0,
            thunks_are_deps: kind == ThunkKind::Selection,
        }))
    }

    /// Derives the task computing `root` and, first, those of every
    /// unevaluated thunk it depends on — so a task's id follows its
    /// dependencies' — unless nothing needs to run (values, and
    /// thunks/encodes whose result is already memoized).
    ///
    /// The stack holds the chain of thunks under assembly. A frame
    /// whose next entry is an underived dependency pushes that
    /// dependency's frame and stays on the entry; when the dependency's
    /// task exists the entry is visited again and finds it.
    fn task_for(&mut self, root: Handle) -> Result<()> {
        let mut stack = match self.visit(root)? {
            Visit::Known(_) => return Ok(()),
            Visit::Open(frame) => vec![frame],
        };
        while let Some(frame) = stack.last_mut() {
            let Some(&e) = frame.entries.get(frame.next) else {
                let Some(done) = stack.pop() else { break };
                let task = self.builder.task(done.spec);
                self.tasks.insert(done.thunk, task);
                continue;
            };
            let dep = match e.kind() {
                Kind::Encode(..) => Some(e.encoded_thunk()?),
                Kind::Thunk(_) if frame.thunks_are_deps => Some(e),
                // Accessible data is in the minimum repository; Refs
                // contribute metadata only and bare Thunks are lazy.
                Kind::Object(_) => {
                    frame.spec.inputs.extend(self.object_for(e));
                    None
                }
                _ => None,
            };
            if let Some(thunk) = dep {
                match self.visit(thunk)? {
                    Visit::Open(dependency) => {
                        stack.push(dependency);
                        continue;
                    }
                    Visit::Known(Some(task)) => frame.spec.deps.push(task),
                    // Memoized dependency: its result is data to
                    // fetch, not work to schedule.
                    Visit::Known(None) => {
                        let result = self.memoized(thunk);
                        frame
                            .spec
                            .inputs
                            .extend(result.and_then(|r| self.object_for(r)));
                    }
                }
            }
            frame.next += 1;
        }
        Ok(())
    }

    /// The force phase of a strict evaluation: walks a value's trees
    /// (depth first, entries in order) and derives a task for every
    /// nested thunk/encode — deep-forcing runs them all. Ref promotion
    /// moves data but runs no procedure, so it contributes no task.
    fn force_tasks(&mut self, root: Handle) -> Result<()> {
        let mut seen = HandleSet::default();
        let mut stack = vec![root];
        while let Some(h) = stack.pop() {
            if !seen.insert(h) {
                continue;
            }
            match h.kind() {
                Kind::Thunk(_) | Kind::Encode(..) => self.task_for(h)?,
                Kind::Object(DataType::Tree) => {
                    if let Ok(tree) = self.rt.get_tree(h) {
                        stack.extend(tree.entries().iter().rev());
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::Blob;
    use fix_core::limits::ResourceLimits;
    use std::sync::Arc;

    fn limits() -> ResourceLimits {
        ResourceLimits::default_limits()
    }

    fn client() -> ClusterClient {
        ClusterClient::builder().build().unwrap()
    }

    fn register_add(cc: &ClusterClient) -> Handle {
        cc.register_native(
            "add",
            Arc::new(|ctx| {
                let a = ctx.arg_blob(0)?.as_u64().unwrap();
                let b = ctx.arg_blob(1)?.as_u64().unwrap();
                ctx.host
                    .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
            }),
        )
    }

    #[test]
    fn builder_rejects_broken_setups() {
        let no_workers = ClusterSetup {
            specs: vec![NodeSpec::default()],
            net: NetConfig::default(),
            workers: vec![],
            client: None,
        };
        let err = ClusterClient::builder().setup(no_workers).build();
        assert!(matches!(err, Err(Error::Backend { .. })));

        let missing_spec = ClusterSetup::workers_only(0, NodeSpec::default(), NetConfig::default());
        let mut missing_spec = missing_spec;
        missing_spec.workers = vec![NodeId(3)];
        assert!(ClusterClient::builder()
            .setup(missing_spec)
            .build()
            .is_err());
    }

    /// Derived tasks need 1 core and 64 MiB; these workers have 32 MiB,
    /// so the setup is well-formed but nothing can be placed on it.
    #[test]
    fn an_unplaceable_request_is_a_backend_fault_not_a_panic() {
        let tiny = NodeSpec {
            cores: 1,
            ram_bytes: 32 << 20,
        };
        let setup = ClusterSetup::workers_only(2, tiny, NetConfig::default());
        let cc = ClusterClient::builder().setup(setup).build().unwrap();
        let add = register_add(&cc);
        let one = cc.put_blob(Blob::from_u64(1));
        let thunk = cc.apply(limits(), add, &[one, one]).unwrap();
        let is_fault = |r: &Result<Handle>| match r {
            Err(Error::Backend { backend, message }) => {
                *backend == "cluster" && message.contains("task 0 needs 1 cores")
            }
            _ => false,
        };
        assert!(is_fault(&cc.eval(thunk)));
        assert!(is_fault(&cc.eval_strict(thunk)));
        let batch = cc.eval_many(&[thunk, thunk]);
        assert!(batch.len() == 2 && batch.iter().all(is_fault));
        assert_eq!(cc.procedures_run(), 0, "refused before evaluating");
        assert!(cc.reports().is_empty());
    }

    #[test]
    fn evaluates_and_reports() {
        let cc = client();
        let add = register_add(&cc);
        let thunk = cc
            .apply(
                limits(),
                add,
                &[
                    cc.put_blob(Blob::from_u64(30)),
                    cc.put_blob(Blob::from_u64(12)),
                ],
            )
            .unwrap();
        let out = cc.eval(thunk).unwrap();
        assert_eq!(cc.get_u64(out).unwrap(), 42);
        let report = cc.last_report().unwrap();
        assert_eq!(report.tasks_run, 1);
        assert!(report.makespan_us > 0);
    }

    #[test]
    fn memoized_requests_ship_no_tasks() {
        let cc = client();
        let add = register_add(&cc);
        let thunk = cc
            .apply(
                limits(),
                add,
                &[
                    cc.put_blob(Blob::from_u64(1)),
                    cc.put_blob(Blob::from_u64(2)),
                ],
            )
            .unwrap();
        cc.eval(thunk).unwrap();
        let runs_before = cc.reports().len();
        cc.eval(thunk).unwrap();
        assert_eq!(
            cc.reports().len(),
            runs_before,
            "a memoized request must not launch a simulated run"
        );
    }

    #[test]
    fn dependencies_become_graph_edges() {
        let cc = client();
        let add = register_add(&cc);
        let one = cc.put_blob(Blob::from_u64(1));
        let inner = cc
            .apply(limits(), add, &[one, cc.put_blob(Blob::from_u64(2))])
            .unwrap();
        let outer = cc
            .apply(limits(), add, &[inner.strict().unwrap(), one])
            .unwrap();
        let out = cc.eval(outer).unwrap();
        assert_eq!(cc.get_u64(out).unwrap(), 4);
        // Two applications: the inner add and the outer add.
        assert_eq!(cc.last_report().unwrap().tasks_run, 2);
    }

    /// An application's declared output size reaches the scheduler as
    /// its task's output hint (paper §4.2.2); zero means unhinted.
    #[test]
    fn declared_output_sizes_become_output_hints() {
        let cc = client();
        let add = register_add(&cc);
        let args = [
            cc.put_blob(Blob::from_u64(5)),
            cc.put_blob(Blob::from_u64(6)),
        ];
        let hint_of = |limits: ResourceLimits| {
            let thunk = cc.apply(limits, add, &args).unwrap();
            let graph = derive_job_graph(cc.inner(), &[thunk], false, &cc.setup().workers)
                .expect("one task to run");
            graph.task(TaskId(0)).output_hint
        };
        assert_eq!(hint_of(limits().with_output_hint(4 << 30)), Some(4 << 30));
        assert_eq!(hint_of(limits()), None);
    }

    #[test]
    fn batch_is_one_simulated_run() {
        let cc = client();
        let add = register_add(&cc);
        let thunks: Vec<Handle> = (0..8u64)
            .map(|i| {
                cc.apply(
                    limits(),
                    add,
                    &[
                        cc.put_blob(Blob::from_u64(i)),
                        cc.put_blob(Blob::from_u64(1)),
                    ],
                )
                .unwrap()
            })
            .collect();
        let results = cc.eval_many(&thunks);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(cc.get_u64(*r.as_ref().unwrap()).unwrap(), i as u64 + 1);
        }
        assert_eq!(cc.reports().len(), 1, "one batch, one cluster run");
        assert_eq!(cc.last_report().unwrap().tasks_run, 8);
    }

    #[test]
    fn strict_eval_of_a_value_root_reports_the_force_phase() {
        use fix_core::data::Tree;
        let cc = client();
        let add = register_add(&cc);
        // A *value* tree whose entries are strict encodes of thunks:
        // eval() would return it unchanged, but eval_strict runs both
        // nested adds — and the telemetry must show that work.
        let t1 = cc
            .apply(
                limits(),
                add,
                &[
                    cc.put_blob(Blob::from_u64(1)),
                    cc.put_blob(Blob::from_u64(2)),
                ],
            )
            .unwrap();
        let t2 = cc
            .apply(
                limits(),
                add,
                &[
                    cc.put_blob(Blob::from_u64(3)),
                    cc.put_blob(Blob::from_u64(4)),
                ],
            )
            .unwrap();
        let value_root = cc.put_tree(Tree::from_handles(vec![
            t1.strict().unwrap(),
            t2.strict().unwrap(),
        ]));
        let forced = cc.eval_strict(value_root).unwrap();
        let tree = cc.get_tree(forced).unwrap();
        assert_eq!(cc.get_u64(tree.get(0).unwrap()).unwrap(), 3);
        assert_eq!(cc.get_u64(tree.get(1).unwrap()).unwrap(), 7);
        let report = cc.last_report().expect("force phase must be simulated");
        assert_eq!(report.tasks_run, 2);
    }

    #[test]
    fn agrees_with_the_single_node_runtime() {
        let on_runtime = {
            let rt = Runtime::builder().build();
            let add = rt.register_native(
                "add",
                Arc::new(|ctx| {
                    let a = ctx.arg_blob(0)?.as_u64().unwrap();
                    let b = ctx.arg_blob(1)?.as_u64().unwrap();
                    ctx.host
                        .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
                }),
            );
            let t = rt
                .apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(20)),
                        rt.put_blob(Blob::from_u64(22)),
                    ],
                )
                .unwrap();
            rt.eval(t).unwrap()
        };
        let on_cluster = {
            let cc = client();
            let add = register_add(&cc);
            let t = cc
                .apply(
                    limits(),
                    add,
                    &[
                        cc.put_blob(Blob::from_u64(20)),
                        cc.put_blob(Blob::from_u64(22)),
                    ],
                )
                .unwrap();
            cc.eval(t).unwrap()
        };
        assert_eq!(on_runtime, on_cluster, "content addressing is global truth");
    }

    /// The request-scoped submission path over the cluster: the client
    /// submits through its embedded node's scheduler, so strict mode is
    /// the scheduler's own — while the simulated substrate records runs
    /// only for work not yet memoized. (Cancellation on a bare client
    /// is pinned in tests/api_conformance.rs.)
    #[test]
    fn native_submission_honors_request_options() {
        let cc = client();
        let add = register_add(&cc);
        let mint = |a: u64| {
            let args = [
                cc.put_blob(Blob::from_u64(a)),
                cc.put_blob(Blob::from_u64(1)),
            ];
            cc.apply(limits(), add, &args).unwrap()
        };

        // Strict submission agrees with eval_strict (one cluster run).
        let strict = cc.submit_with(&[mint(41)], SubmitOptions::strict()).wait();
        assert_eq!(
            *strict[0].as_ref().unwrap(),
            cc.eval_strict(mint(41)).unwrap()
        );
        assert_eq!(
            cc.reports().len(),
            1,
            "the memoized re-evaluation shipped nothing"
        );
    }
}
