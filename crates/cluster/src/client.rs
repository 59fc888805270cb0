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
//!    externalized — is derived into a [`JobGraph`] (each task's inputs
//!    are its thunk's §3.3 footprint; its dependencies, the footprint's
//!    unresolved encodes) and executed
//!    by the simulator under the client's [`Profile`] over `fix-netsim`,
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
use fix_core::semantics::{self, DataSource, Footprint};
use fix_netsim::{NetConfig, NodeId, NodeSpec, Time};
use fix_storage::{Relation, Store};
use fixpoint::Runtime;
use std::cell::Cell;

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
/// memoized relations by the runtime's own rule, the minimum repository
/// (paper §3.3, [`fix_core::semantics::footprint`]): one task per
/// unevaluated thunk, whose inputs are its thunk's footprint objects,
/// each once (scattered deterministically over `workers` by content
/// hash), and whose dependencies are the tasks of the footprint's
/// unresolved encodes, each once (a selection's thunk target is listed
/// there as its shallow encode). An unresolved strict encode whose
/// thunk is evaluated but not yet forced runs no task: its value's data
/// is one more input. A thunk whose data is missing gets no task; the
/// real evaluation reports the error. With `strict`, value roots are
/// also deep-walked — the thunks and encodes nested inside their trees
/// become tasks too, modeling the force phase of a strict evaluation.
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
        d.task_for(root);
        if strict {
            d.force_tasks(root);
        }
    }
    if d.tasks.is_empty() {
        return None;
    }
    Some(d.builder.build())
}

/// Turns Fix objects into a [`JobGraph`]: one task per unevaluated
/// thunk, reading its inputs and dependencies off the thunk's footprint.
struct Deriver<'a> {
    rt: &'a Runtime,
    builder: JobGraphBuilder,
    /// Thunk handle → derived task (content addressing deduplicates
    /// shared sub-computations, mirroring the scheduler's job identity).
    tasks: HandleMap<Handle, TaskId>,
    /// Footprint object → graph object.
    objects: HandleMap<Handle, ObjectId>,
    workers: &'a [NodeId],
}

/// The node's store as a thunk's footprint walk reads it, keeping entry
/// 0 of the definition tree `def` (an application's limits) when the
/// walk loads it: the output hint costs no second load of the tree.
struct ReadsLimits<'a> {
    store: &'a Store,
    def: Handle,
    limits: Cell<Option<Handle>>,
}

impl DataSource for ReadsLimits<'_> {
    fn load(&self, handle: Handle) -> Result<Node> {
        let node = self.store.load(handle)?;
        if handle == self.def {
            self.limits
                .set(node.as_tree().ok().and_then(|tree| tree.get(0)));
        }
        Ok(node)
    }
}

/// A thunk whose task is being assembled: the spec so far (its inputs
/// are final) and the thunks it waits on, of which `next` is the first
/// not yet visited.
struct Frame {
    thunk: Handle,
    spec: TaskSpec,
    waits_on: Vec<Handle>,
    next: usize,
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
    /// The graph object of a stored (canonical, non-literal) object, on
    /// the node it "lives on": scattered by content hash, modeling
    /// content-addressed placement across the cluster.
    fn object_for(&mut self, h: Handle) -> ObjectId {
        if let Some(&o) = self.objects.get(&h) {
            return o;
        }
        let scatter = h.digest().map(|d| d[0]).unwrap_or(0);
        let node = self.workers[(scatter as usize) % self.workers.len()];
        let o = self.builder.object_at(transfer_size(h), &[node]);
        self.objects.insert(h, o);
        o
    }

    /// Looks `h` up, opening a frame when it is a thunk that still has
    /// to run: its footprint's objects are the task's inputs, and the
    /// thunks of its unresolved encodes are what the frame goes on to
    /// visit.
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
        if self.rt.cache().get(Relation::Eval, h).is_some() {
            return Ok(Visit::Known(None)); // Already computed: pay for results.
        }
        let def = h.thunk_definition()?;
        let source = ReadsLimits {
            store: self.rt.store(),
            def,
            limits: Cell::new(None),
        };
        let footprint = semantics::footprint(&source, h, self.rt.cache())?;
        let limits = match kind {
            ThunkKind::Application => source.limits.get(),
            _ => None,
        };
        let mut waits_on = Vec::new();
        for encode in footprint.unresolved_encodes {
            // Two styles of one thunk wait on the same task.
            let thunk = encode.encoded_thunk()?;
            if !waits_on.contains(&thunk) {
                waits_on.push(thunk);
            }
        }
        // A zero hint means "no hint".
        let output_hint = limits
            .and_then(|limits| ResourceLimits::from_handle(limits).ok())
            .map(|limits| limits.output_size_hint)
            .filter(|&hint| hint > 0);
        let spec = TaskSpec {
            inputs: footprint
                .objects
                .iter()
                .map(|&o| self.object_for(o))
                .collect(),
            deps: Vec::new(),
            compute_us: SERVICE_COSTS.task_compute_us,
            cores: 1,
            ram: 64 << 20,
            output_size: 8,
            output_hint,
            func: def
                .digest()
                .map(|[a, b, c, d, ..]| u32::from_le_bytes([a, b, c, d]))
                .unwrap_or(0),
        };
        Ok(Visit::Open(Frame {
            thunk: h,
            spec,
            waits_on,
            next: 0,
        }))
    }

    /// Derives the task computing `root` and, first, those of every
    /// unevaluated thunk it depends on — so a task's id follows its
    /// dependencies' — unless nothing needs to run (values, and
    /// thunks/encodes whose result is already memoized).
    ///
    /// The stack holds the chain of thunks under assembly. A frame
    /// whose next dependency is underived pushes that dependency's
    /// frame and stays on it; when the dependency's task exists it is
    /// visited again and found.
    ///
    /// A thunk whose footprint fails (data missing from storage) gets no
    /// task, and whoever waits on it keeps assembling: the real
    /// evaluation reports the error, and the telemetry for the rest of
    /// the request stays.
    fn task_for(&mut self, root: Handle) {
        let mut stack = match self.visit(root) {
            Ok(Visit::Open(frame)) => vec![frame],
            _ => return,
        };
        while let Some(frame) = stack.last_mut() {
            let Some(&thunk) = frame.waits_on.get(frame.next) else {
                let Some(done) = stack.pop() else { break };
                let task = self.builder.task(done.spec);
                self.tasks.insert(done.thunk, task);
                continue;
            };
            match self.visit(thunk) {
                Ok(Visit::Open(dependency)) => {
                    stack.push(dependency);
                    continue;
                }
                Ok(Visit::Known(Some(task))) => frame.spec.deps.push(task),
                // Evaluated but its encode unresolved: a strict encode of
                // a value not yet forced. Forcing runs no procedure, and
                // the value is data the task reads beyond its footprint.
                Ok(Visit::Known(None)) => {
                    let value = self.rt.cache().get(Relation::Eval, thunk);
                    if let Some(value) = value.filter(|v| !v.is_literal()) {
                        let o = self.object_for(value.as_object_handle());
                        if !frame.spec.inputs.contains(&o) {
                            frame.spec.inputs.push(o);
                        }
                    }
                }
                Err(_) => {}
            }
            frame.next += 1;
        }
    }

    /// The force phase of a strict evaluation: walks a value's trees
    /// (depth first, entries in order) and derives a task for every
    /// nested thunk/encode — deep-forcing runs them all. Ref promotion
    /// moves data but runs no procedure, so it contributes no task.
    fn force_tasks(&mut self, root: Handle) {
        let mut seen = HandleSet::default();
        let mut stack = vec![root];
        while let Some(h) = stack.pop() {
            if !seen.insert(h) {
                continue;
            }
            match h.kind() {
                Kind::Thunk(_) | Kind::Encode(..) => self.task_for(h),
                Kind::Object(DataType::Tree) => {
                    if let Ok(tree) = self.rt.get_tree(h) {
                        stack.extend(tree.entries().iter().rev());
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::{Blob, Tree};
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

    /// `sum(a, b)`: adds two u64 arguments, either of which may be a
    /// tree holding the number as its first entry.
    fn register_sum(cc: &ClusterClient) -> Handle {
        cc.register_native(
            "sum",
            Arc::new(|ctx| {
                let mut total = 0u64;
                for i in 0..2 {
                    let mut arg = ctx.arg(i)?;
                    if let Kind::Object(DataType::Tree) = arg.kind() {
                        arg = ctx.host.load_tree(arg)?.get(0).unwrap();
                    }
                    total += ctx.host.load_blob(arg)?.as_u64().unwrap();
                }
                ctx.host.create_blob(total.to_le_bytes().to_vec())
            }),
        )
    }

    /// The four programs on which a walk of its own once gave a task
    /// other inputs or dependencies than its thunk's footprint (a strict
    /// encode nested in a tree argument, a 1 MiB blob nested in a tree
    /// argument, a 4 KiB blob passed twice, and a shallow encode of a
    /// memoized 1 KiB result), then two that read that evaluated 1 KiB
    /// result as data: through its strict encode (evaluated, not yet
    /// forced) and as a selection's target.
    fn six_programs(cc: &ClusterClient) -> [Handle; 6] {
        let sum = register_sum(cc);
        let in_a_tree = |h: Handle| cc.put_tree(Tree::from_handles(vec![h]));
        let one = cc.put_blob(Blob::from_u64(1));
        let inner = cc.apply(limits(), sum, &[one, one]).unwrap();
        let nested_encode = in_a_tree(inner.strict().unwrap());
        let nested_encode = cc.apply(limits(), sum, &[nested_encode, one]).unwrap();
        let mib = cc.put_blob(Blob::from_vec(vec![7; 1 << 20]));
        let nested_blob = cc.apply(limits(), sum, &[in_a_tree(mib)]).unwrap();
        let four_kib = cc.put_blob(Blob::from_vec(vec![4; 4 << 10]));
        let twice = cc.apply(limits(), sum, &[four_kib, four_kib]).unwrap();
        let kib = cc.register_native("kib", Arc::new(|ctx| ctx.host.create_blob(vec![1; 1024])));
        let made = cc.apply(limits(), kib, &[]).unwrap();
        cc.eval(made).unwrap();
        let shallow = cc
            .apply(limits(), sum, &[made.shallow().unwrap(), one])
            .unwrap();
        let unforced = cc
            .apply(limits(), sum, &[made.strict().unwrap(), one])
            .unwrap();
        let selection = cc.select_range(made, 0, 1).unwrap();
        [
            nested_encode,
            nested_blob,
            twice,
            shallow,
            unforced,
            selection,
        ]
    }

    /// The one-task graph of `thunk`.
    fn one_task(cc: &ClusterClient, thunk: Handle) -> (JobGraph, TaskSpec) {
        let graph = derive_job_graph(cc.inner(), &[thunk], false, &cc.setup().workers).unwrap();
        assert_eq!(graph.tasks.len(), 1);
        let task = graph.task(TaskId(0)).clone();
        (graph, task)
    }

    /// Every task's inputs are its thunk's footprint objects, in order
    /// and each once, then the value of each unresolved encode whose
    /// thunk is evaluated (a strict encode not yet forced); its
    /// dependencies are the tasks of the other unresolved encodes.
    #[test]
    fn a_task_reads_its_thunks_footprint() {
        let cc = client();
        for root in six_programs(&cc) {
            let mut d = Deriver {
                rt: cc.inner(),
                builder: JobGraphBuilder::new(),
                tasks: HandleMap::default(),
                objects: HandleMap::default(),
                workers: &cc.setup().workers,
            };
            d.task_for(root);
            let (tasks, objects) = (d.tasks.clone(), d.objects.clone());
            let graph = d.builder.build();
            assert!(tasks.contains_key(&root));
            for (&thunk, &task) in &tasks {
                let footprint = cc.footprint(thunk).unwrap();
                let spec = graph.task(task);
                let mut inputs: Vec<ObjectId> =
                    footprint.objects.iter().map(|o| objects[o]).collect();
                let mut deps = Vec::new();
                for encode in &footprint.unresolved_encodes {
                    let dependency = encode.encoded_thunk().unwrap();
                    match cc.inner().cache().get(Relation::Eval, dependency) {
                        Some(value) => inputs.push(objects[&value]),
                        None => deps.push(tasks[&dependency]),
                    }
                }
                assert_eq!(spec.inputs, inputs);
                assert_eq!(spec.deps, deps);
                let mut once = spec.inputs.clone();
                once.sort();
                once.dedup();
                assert_eq!(once.len(), inputs.len(), "each object once");
                let bytes: u64 = inputs.iter().map(|&o| graph.object(o).size).sum();
                let unforced = inputs.len() - footprint.objects.len();
                assert_eq!(bytes, footprint.total_bytes + unforced as u64 * 1024);
            }
        }
    }

    /// Data nested in a tree argument is in the footprint, so it ships.
    #[test]
    fn a_tree_arguments_data_is_an_input() {
        let cc = client();
        let nested_blob = six_programs(&cc)[1];
        let (graph, task) = one_task(&cc, nested_blob);
        // The definition (3 entries), the tree argument (1) and the blob.
        assert_eq!(task.inputs.len(), 3);
        assert_eq!(graph.total_input_bytes(), 96 + 32 + (1 << 20));
    }

    #[test]
    fn a_blob_passed_twice_is_one_input() {
        let cc = client();
        let twice = six_programs(&cc)[2];
        let (graph, task) = one_task(&cc, twice);
        assert_eq!(task.inputs.len(), 2);
        assert_eq!(graph.total_input_bytes(), 128 + (4 << 10));
    }

    /// A resolved shallow encode splices in a Ref: metadata, not bytes.
    #[test]
    fn a_memoized_shallow_encode_ships_no_bytes() {
        let cc = client();
        let shallow = six_programs(&cc)[3];
        let (graph, task) = one_task(&cc, shallow);
        assert_eq!(task.inputs.len(), 1, "the definition alone");
        assert_eq!(graph.total_input_bytes(), 128);
        assert_eq!(cc.footprint(shallow).unwrap().refs.len(), 1);
    }

    /// An evaluated result read as data ships its bytes once, whether a
    /// strict encode splices it in before it is forced (forcing runs no
    /// procedure, so no task) or a selection reads its target; a literal
    /// result rides in its handle.
    #[test]
    fn an_evaluated_result_read_as_data_ships() {
        let cc = client();
        let [.., unforced, selection] = six_programs(&cc);
        let sum = register_sum(&cc);
        let one = cc.put_blob(Blob::from_u64(1));
        let made = cc.get_tree(selection.thunk_definition().unwrap());
        let made = made.unwrap().get(0).unwrap();
        let kib = cc.eval(made).unwrap();
        let also_passed = cc
            .apply(limits(), sum, &[made.strict().unwrap(), kib])
            .unwrap();
        let two = cc.apply(limits(), sum, &[one, one]).unwrap();
        cc.eval(two).unwrap();
        let literal = cc
            .apply(limits(), sum, &[two.strict().unwrap(), one])
            .unwrap();
        // Definitions of 4 entries, or 3 (target, begin, end).
        for (thunk, inputs, bytes) in [
            (unforced, 2, 128 + 1024),
            (selection, 2, 96 + 1024),
            (also_passed, 2, 128 + 1024),
            (literal, 1, 128),
        ] {
            let (graph, task) = one_task(&cc, thunk);
            assert_eq!(task.inputs.len(), inputs);
            assert_eq!(graph.total_input_bytes(), bytes);
        }
    }

    /// A thunk whose data is missing gets no task; the thunk waiting on
    /// it keeps its own.
    #[test]
    fn missing_data_drops_only_its_thunks_task() {
        let cc = client();
        let sum = register_sum(&cc);
        let one = cc.put_blob(Blob::from_u64(1));
        let missing = Blob::from_vec(vec![3; 64]).handle();
        let inner = cc.apply(limits(), sum, &[missing, one]).unwrap();
        let outer = cc
            .apply(limits(), sum, &[inner.strict().unwrap(), one])
            .unwrap();
        let (graph, task) = one_task(&cc, outer);
        assert!(task.deps.is_empty());
        assert_eq!(graph.total_input_bytes(), 128);
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

    /// A strict encode is an edge whether it is an argument or sits in
    /// a tree argument, and two styles of one thunk are one edge: the
    /// cluster runs one task per procedure the node runs.
    #[test]
    fn dependencies_become_graph_edges() {
        // The strict encode as the argument, or a tree argument holding
        // the first one or both of [strict, shallow].
        for in_a_tree in [None, Some(1), Some(2)] {
            let cc = client();
            let sum = register_sum(&cc);
            let one = cc.put_blob(Blob::from_u64(1));
            let inner = cc
                .apply(limits(), sum, &[one, cc.put_blob(Blob::from_u64(2))])
                .unwrap();
            let styles = [inner.strict().unwrap(), inner.shallow().unwrap()];
            let arg = match in_a_tree {
                None => styles[0],
                Some(n) => cc.put_tree(Tree::from_handles(styles[..n].to_vec())),
            };
            let outer = cc.apply(limits(), sum, &[arg, one]).unwrap();
            let graph = derive_job_graph(cc.inner(), &[outer], false, &cc.setup().workers).unwrap();
            assert_eq!(graph.task(TaskId(1)).deps, [TaskId(0)]);
            let out = cc.eval(outer).unwrap();
            assert_eq!(cc.get_u64(out).unwrap(), 4);
            // Two applications: the inner sum and the outer sum.
            assert_eq!(cc.last_report().unwrap().tasks_run, 2);
            assert_eq!(cc.procedures_run(), 2);
        }
    }

    /// A selection's thunk target runs first, so its task is the
    /// selection's one dependency.
    #[test]
    fn a_selection_waits_on_its_thunk_target() {
        let cc = client();
        let sum = register_sum(&cc);
        let one = cc.put_blob(Blob::from_u64(1));
        let target = cc.apply(limits(), sum, &[one, one]).unwrap();
        let selection = cc.select_range(target, 0, 1).unwrap();
        let graph = derive_job_graph(cc.inner(), &[selection], false, &cc.setup().workers).unwrap();
        assert_eq!(graph.tasks.len(), 2);
        assert_eq!(graph.task(TaskId(1)).deps, [TaskId(0)]);
        let out = cc.eval(selection).unwrap();
        assert_eq!(cc.get_blob(out).unwrap().as_slice(), [2]);
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
