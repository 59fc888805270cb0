//! The one task-graph simulator: Fixpoint and every comparator system
//! as a [`Profile`] over the simulated cluster.
//!
//! The paper's evaluation (Figs. 7b, 8a, 8b, 10) is an *architectural*
//! comparison: who performs the I/O, when cores are bound, where tasks
//! are placed, who dispatches. Each of those is a field of [`Profile`],
//! and every system — Fixpoint included — is one combination:
//!
//! | knob | Fixpoint | OpenWhisk+MinIO+K8s | Ray (blocking) | Ray (CPS) | Pheromone | Faasm |
//! |---|---|---|---|---|---|---|
//! | **externalized I/O** | **yes** | no | no | no | no | no |
//! | placement | data-aware | random (K8s) | random (blind) | data-aware | data-aware (collocate) | random |
//! | binding | late | early (claim, then fetch) | early (blocks in `ray.get`) | late | early for external data | early |
//! | dispatch | shipped dataflow | controller | driver round trip | driver round trip | shipped workflow | controller |
//! | input source | object locations | MinIO (central) | object locations | object locations | buckets (central for external) | local store |
//! | outputs | local | MinIO (central) | local | local | collocated | local |
//! | per-invocation cost | 2 µs | 30.7 ms | 1.29 ms | 1.29 ms | 35 µs–1.05 ms | 10.6 ms |
//!
//! [`Profile::externalized_io`] is the paper's thesis and the only field
//! that separates Fixpoint from a fast comparator; the paper's two
//! ablations (Figs. 8a/8b) are the `placement` and `binding` rows:
//!
//! * **dataflow-aware placement** — each task runs on the node that
//!   minimizes data movement, given the engine's view of object
//!   locations (ablation: random placement);
//! * **late binding** — CPU and RAM are claimed only after the minimum
//!   repository is local, so cores never idle waiting on the network
//!   (ablation: "internal" I/O, which claims resources first and fetches
//!   after, like a conventional serverless platform).
//!
//! A task flows: place → optional dispatch hop → *early binding:* queue
//! for cores (claimed `Waiting`) → cold start → fetch → run; *late
//! binding:* fetch → queue for cores (claimed `System`) → cold start →
//! run. The per-invocation costs are the paper's own measurements (see
//! `fix_baselines::CostModel`); the mechanisms produce the *shapes*.

use crate::graph::{JobGraph, ObjectId, TaskId};
use crate::report::RunReport;
use fix_netsim::{ClaimId, CoreState, NetConfig, NodeId, NodeSpec, Sim, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Where tasks may be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Minimize data movement over the location view (Fixpoint).
    Locality,
    /// Uniformly random worker (the "no locality" ablation).
    Random,
}

/// When resources are claimed relative to input fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// Claim cores/RAM only once all inputs are local (Fixpoint).
    Late,
    /// Claim first, then fetch while holding resources ("internal" I/O).
    Early,
}

/// The architectural profile of a system under simulation.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Display name (table rows).
    pub name: String,
    /// The paper's thesis: the platform, not the function, performs data
    /// movement, because every invocation's footprint is declared before
    /// it runs. Three consequences follow, and no system has one without
    /// the others: (a) identical in-flight transfers of one object to one
    /// node are coalesced; (b) declared output sizes
    /// ([`TaskSpec::output_hint`](crate::TaskSpec::output_hint)) inform
    /// locality placement; (c) a remote client ships the whole dataflow
    /// in one message instead of driving it step by step.
    pub externalized_io: bool,
    /// Placement policy.
    pub placement: Placement,
    /// Resource binding relative to input fetches.
    pub binding: Binding,
    /// System time charged per invocation on the executing node.
    pub invocation_overhead_us: Time,
    /// If set, every task dispatch round-trips through this node (a Ray
    /// driver or a FaaS controller) before starting.
    pub dispatch_via: Option<NodeId>,
    /// If set, every *fetch* first round-trips through this node to
    /// resolve the reference (Ray's ObjectRef owner).
    pub fetch_roundtrip_via: Option<NodeId>,
    /// Fetches happen one at a time while holding resources (blocking
    /// `ray.get` style) instead of in parallel.
    pub sequential_fetches: bool,
    /// If non-empty, initial input objects are read from these store
    /// nodes (a MinIO deployment spread over the cluster), regardless of
    /// where the bytes physically started; each object hashes to one
    /// store node.
    pub inputs_from_store: Vec<NodeId>,
    /// If non-empty, task outputs are written to the store, and
    /// dependents read them from there.
    pub outputs_to_store: Vec<NodeId>,
    /// Service time the driver/controller spends per dispatch; dispatches
    /// are serialized through it (a single Ray driver launches tasks one
    /// at a time).
    pub dispatch_service_us: Time,
    /// Per store GET/PUT request overhead.
    pub store_request_us: Time,
    /// Extra cost the first time a function runs on a node (container
    /// start, binary load).
    pub cold_start_us: Time,
    /// Bytes pulled from the central store (or the first input location)
    /// on each cold start (function image / executable).
    pub cold_start_bytes: u64,
    /// RNG seed (random placement).
    pub seed: u64,
}

/// Fixpoint's four free choices: the two ablation axes, the measured
/// invocation overhead, and the seed. Everything else about Fixpoint is
/// fixed by [`Profile::from`].
#[derive(Debug, Clone)]
pub struct FixConfig {
    /// Placement policy.
    pub placement: Placement,
    /// Binding policy.
    pub binding: Binding,
    /// Per-invocation platform overhead, charged as System time
    /// (paper Fig. 7a: 1.46 µs; the default charges 2). Fig. 9's model
    /// reads it too: Fixpoint's overhead is named here alone.
    pub invocation_overhead_us: Time,
    /// RNG seed (random placement).
    pub seed: u64,
}

impl Default for FixConfig {
    fn default() -> Self {
        FixConfig {
            placement: Placement::Locality,
            binding: Binding::Late,
            invocation_overhead_us: 2,
            seed: 42,
        }
    }
}

impl From<&FixConfig> for Profile {
    /// Fixpoint as a profile: externalized I/O, no dispatcher, no
    /// central store, no cold starts. The `Binding::Early` ablation
    /// keeps `externalized_io` — it is Fixpoint made to claim first, not
    /// another platform.
    fn from(cfg: &FixConfig) -> Profile {
        Profile {
            name: "Fixpoint".into(),
            externalized_io: true,
            placement: cfg.placement,
            binding: cfg.binding,
            invocation_overhead_us: cfg.invocation_overhead_us,
            dispatch_via: None,
            fetch_roundtrip_via: None,
            sequential_fetches: false,
            inputs_from_store: Vec::new(),
            outputs_to_store: Vec::new(),
            dispatch_service_us: 0,
            store_request_us: 0,
            cold_start_us: 0,
            cold_start_bytes: 0,
            seed: cfg.seed,
        }
    }
}

/// The simulated cluster: node specs, network, and role assignment.
#[derive(Debug, Clone)]
pub struct ClusterSetup {
    /// Hardware of every node (workers, storage, client...).
    pub specs: Vec<NodeSpec>,
    /// Network parameters.
    pub net: NetConfig,
    /// Nodes that execute tasks.
    pub workers: Vec<NodeId>,
    /// If set, the job is submitted from (and results returned to) this
    /// node; its transfer times count toward the makespan.
    pub client: Option<NodeId>,
}

impl ClusterSetup {
    /// A homogeneous cluster of `n` worker nodes (no distinct client).
    pub fn workers_only(n: usize, spec: NodeSpec, net: NetConfig) -> ClusterSetup {
        ClusterSetup {
            specs: vec![spec; n],
            net,
            workers: (0..n).map(NodeId).collect(),
            client: None,
        }
    }

    /// Checks the setup is runnable: at least one worker, and every
    /// worker/client id has a spec. Shared by every client builder so
    /// an inconsistent setup fails with a clean error at construction
    /// instead of an index panic mid-simulation.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers.is_empty() {
            return Err("cluster setup has no worker nodes".into());
        }
        let n = self.specs.len();
        for node in self.workers.iter().chain(self.client.iter()) {
            if node.0 >= n {
                return Err(format!("node {node:?} has no spec (cluster has {n} nodes)"));
            }
        }
        Ok(())
    }

    /// Checks that `graph` can run here: the setup and the graph are
    /// each well-formed, and every task's cores and RAM fit at least one
    /// worker (a task that fits nowhere would wait for cores forever).
    fn admits(&self, graph: &JobGraph) -> Result<(), String> {
        self.validate()?;
        graph.validate()?;
        let spec = |w: &NodeId| self.specs[w.0];
        let size = |w: &&NodeId| (spec(w).cores, spec(w).ram_bytes);
        let Some(largest) = self.workers.iter().max_by_key(size) else {
            return Err("cluster setup has no worker nodes".into());
        };
        for (i, t) in graph.tasks.iter().enumerate() {
            let fits = |w: &NodeId| spec(w).cores >= t.cores && spec(w).ram_bytes >= t.ram;
            if !self.workers.iter().any(fits) {
                return Err(format!(
                    "task {i} needs {} cores and {} B of RAM, which no worker has \
                     (the largest, {largest}, has {} cores and {} B)",
                    t.cores,
                    t.ram,
                    spec(largest).cores,
                    spec(largest).ram_bytes
                ));
            }
        }
        Ok(())
    }
}

struct State {
    graph: JobGraph,
    profile: Profile,
    workers: Vec<NodeId>,
    client: Option<NodeId>,
    /// Virtual time at which the driver frees up (dispatch pipelining).
    driver_free_at: Time,
    /// Engine's view of object locations (paper: advanced passively).
    locations: Vec<Vec<NodeId>>,
    /// Remaining unfinished dependencies per task.
    remaining_deps: Vec<usize>,
    /// Dependent tasks of each task.
    dependents: Vec<Vec<TaskId>>,
    /// Per-worker queue of tasks awaiting cores (FIFO).
    runnable: HashMap<NodeId, VecDeque<TaskId>>,
    /// In-flight object transfers under externalized I/O, with the
    /// continuations of the tasks that joined each after it started.
    in_flight: HashMap<(ObjectId, NodeId), Vec<Then>>,
    /// Tasks assigned to each node that have not yet completed — the
    /// load signal for spreading equal-cost parallel jobs (paper §4.2.2:
    /// "outsource parallel jobs to different nodes").
    assigned_load: HashMap<NodeId, usize>,
    /// (function, node) pairs that have already paid their cold start.
    warm: HashSet<(u32, NodeId)>,
    finished: usize,
    finish_time: Time,
    bytes_moved: u64,
    rng: StdRng,
}

type Shared = Rc<RefCell<State>>;

/// What a task does next, once the step it is waiting on completes.
type Then = Box<dyn FnOnce(&mut Sim, &Shared)>;

impl State {
    /// Initial objects are bucket data when `inputs_from_store` is set:
    /// the system cannot express a dependency on them (Pheromone) or has
    /// no shared local cache (OpenWhisk actions, Popen'd executables), so
    /// every invocation GETs them from the store.
    fn is_store_input(&self, o: ObjectId) -> bool {
        !self.profile.inputs_from_store.is_empty()
            && !self.graph.object(o).initial_locations.is_empty()
    }

    /// The store node an object hashes to.
    fn store_node(nodes: &[NodeId], o: ObjectId) -> NodeId {
        nodes[(o.0 as usize) % nodes.len()]
    }

    fn object_at(&self, o: ObjectId, n: NodeId) -> bool {
        // Bucket data is behind the store service: the function always
        // issues a GET, and the scheduler cannot see where the bytes
        // physically live (Pheromone §5.3.2, OpenWhisk §5.1).
        !self.is_store_input(o) && self.locations[o.0 as usize].contains(&n)
    }

    /// Everything the task needs locally: inputs + dependency outputs.
    fn needed_objects(&self, t: TaskId) -> Vec<ObjectId> {
        let spec = self.graph.task(t);
        let mut v = spec.inputs.clone();
        v.extend(spec.deps.iter().map(|d| self.graph.output_of(*d)));
        v
    }

    fn missing_objects(&self, t: TaskId, n: NodeId) -> Vec<ObjectId> {
        let mut needed = self.needed_objects(t);
        needed.retain(|o| !self.object_at(*o, n));
        needed
    }

    fn source_of(&self, o: ObjectId) -> NodeId {
        if self.is_store_input(o) {
            return Self::store_node(&self.profile.inputs_from_store, o);
        }
        let placed = self.locations[o.0 as usize].first();
        // invariant: `JobGraph::validate` places every input, and a
        // dependency's output is written before its dependents fetch.
        *placed.expect("needed object has a location")
    }

    /// The placement decision (paper §4.2.2).
    fn choose_node(&mut self, t: TaskId) -> NodeId {
        if self.profile.placement == Placement::Random {
            let i = self.rng.gen_range(0..self.workers.len());
            return self.workers[i];
        }
        // Cost = bytes that must move to run here; if the platform sees a
        // large declared output and a downstream consumer has a dominant
        // data location, moving the output there counts too. Ties go to
        // the node with the least assigned-but-unfinished work.
        let hint = self.graph.task(t).output_hint;
        let output_pull = hint.and_then(|hint| Some((hint, self.consumer_home(t)?)));
        let needed = self.needed_objects(t);
        let mut best: Option<(u64, usize, NodeId)> = None;
        for &n in &self.workers {
            let missing = needed.iter().filter(|o| !self.object_at(**o, n));
            let mut cost: u64 = missing.map(|o| self.graph.object(*o).size).sum();
            if let Some((hint, home)) = output_pull {
                if n != home {
                    cost = cost.saturating_add(hint);
                }
            }
            let load = self.assigned_load.get(&n).copied().unwrap_or(0);
            if best.is_none_or(|(bc, bl, _)| (cost, load) < (bc, bl)) {
                best = Some((cost, load, n));
            }
        }
        // invariant: `admits` refused a setup without workers.
        best.expect("at least one worker").2
    }

    /// Under externalized I/O: the node holding the largest other input
    /// of any dependent of `t` (where `t`'s output will be consumed).
    fn consumer_home(&self, t: TaskId) -> Option<NodeId> {
        if !self.profile.externalized_io {
            return None;
        }
        let mut best: Option<(NodeId, u64)> = None;
        for &d in &self.dependents[t.0 as usize] {
            for o in self.needed_objects(d) {
                if o == self.graph.output_of(t) {
                    continue;
                }
                let size = self.graph.object(o).size;
                if let Some(&n) = self.locations[o.0 as usize].first() {
                    if best.is_none_or(|(_, s)| size > s) {
                        best = Some((n, size));
                    }
                }
            }
        }
        best.map(|(n, _)| n)
    }
}

/// Runs `graph` on the simulated cluster as Fixpoint
/// ([`Profile::from`]`(cfg)`) and returns the run report.
///
/// # Panics
///
/// As [`run_profile`]: if the graph cannot run on this setup.
///
/// # Examples
///
/// ```
/// use fix_cluster::{run_fix, ClusterSetup, FixConfig, JobGraphBuilder, small_task};
/// use fix_netsim::{NodeSpec, NetConfig, NodeId};
///
/// let setup = ClusterSetup::workers_only(2, NodeSpec::default(), NetConfig::default());
/// let mut b = JobGraphBuilder::new();
/// let mut spec = small_task(1_000, 8);
/// let input = b.object_at(1 << 20, &[NodeId(1)]);
/// spec.inputs.push(input);
/// b.task(spec);
/// let report = run_fix(&setup, &b.build(), &FixConfig::default());
/// assert_eq!(report.tasks_run, 1);
/// // Locality placement runs the task where its input lives: no movement.
/// assert_eq!(report.bytes_moved, 0);
/// ```
pub fn run_fix(setup: &ClusterSetup, graph: &JobGraph, cfg: &FixConfig) -> RunReport {
    run_profile(setup, graph, &Profile::from(cfg))
}

/// Runs `graph` under `profile` on the simulated cluster
/// (`fix_baselines::run_baseline` is this function).
///
/// # Panics
///
/// Panics, naming the cause, if the graph cannot run on this setup: the
/// setup or the graph is malformed, a task's cores and RAM fit no
/// worker, or placement parked a task on a worker too small for it.
/// (The One-Fix-API clients report the same causes as `Error::Backend`.)
pub fn run_profile(setup: &ClusterSetup, graph: &JobGraph, profile: &Profile) -> RunReport {
    // invariant: the documented contract — an unrunnable graph panics.
    try_run_profile(setup, graph, profile).unwrap_or_else(|why| panic!("{why}"))
}

/// [`run_profile`], returning the cause instead of panicking with it.
pub(crate) fn try_run_profile(
    setup: &ClusterSetup,
    graph: &JobGraph,
    profile: &Profile,
) -> Result<RunReport, String> {
    setup.admits(graph)?;
    let mut sim = Sim::new(&setup.specs, setup.net.clone());

    let n_tasks = graph.tasks.len();
    let mut dependents = vec![Vec::new(); n_tasks];
    for (i, t) in graph.tasks.iter().enumerate() {
        for d in &t.deps {
            dependents[d.0 as usize].push(TaskId(i as u64));
        }
    }
    let state: Shared = Rc::new(RefCell::new(State {
        graph: graph.clone(),
        profile: profile.clone(),
        workers: setup.workers.clone(),
        client: setup.client,
        driver_free_at: 0,
        locations: graph
            .objects
            .iter()
            .map(|o| o.initial_locations.clone())
            .collect(),
        remaining_deps: graph.tasks.iter().map(|t| t.deps.len()).collect(),
        dependents,
        runnable: HashMap::new(),
        in_flight: HashMap::new(),
        assigned_load: HashMap::new(),
        warm: HashSet::new(),
        finished: 0,
        finish_time: 0,
        bytes_moved: 0,
        rng: StdRng::seed_from_u64(profile.seed),
    }));

    let ready = (0..n_tasks).filter(|i| graph.tasks[*i].deps.is_empty());
    let ready: Vec<TaskId> = ready.map(|i| TaskId(i as u64)).collect();
    let entry = setup.workers[0];
    let (origin, shipping) = match setup.client {
        // One message carries the whole dataflow description — Fix ships
        // dependencies with the invocation, no per-step round trips
        // (paper §4.2.1). Everyone else's client drives the job itself.
        Some(client) if profile.externalized_io => (entry, setup.net.latency(client, entry)),
        _ => (setup.client.unwrap_or(entry), 0),
    };
    let st = Rc::clone(&state);
    sim.schedule(shipping, move |sim| {
        for t in ready {
            dispatch(sim, &st, t, origin);
        }
    });
    sim.run();

    let st = state.borrow();
    if st.finished != n_tasks {
        return Err(format!(
            "'{}' stalled with {}/{n_tasks} tasks finished: a queued task fits no core \
             or RAM its worker will ever free",
            profile.name, st.finished
        ));
    }
    Ok(RunReport {
        makespan_us: st.finish_time,
        cpu: sim.cpu_report(&setup.workers),
        bytes_moved: st.bytes_moved,
        tasks_run: n_tasks as u64,
    })
}

/// Places a ready task, routes it through the dispatch path, and starts
/// its fetch/claim sequence on arrival.
fn dispatch(sim: &mut Sim, state: &Shared, t: TaskId, origin: NodeId) {
    let (node, hop) = {
        let mut st = state.borrow_mut();
        let node = st.choose_node(t);
        // origin -> driver (completion notification / submission),
        // queueing at the single-threaded driver, then driver -> worker.
        let hop = st.profile.dispatch_via.map(|driver| {
            let arrive = sim.now() + sim.net().latency(origin, driver);
            st.driver_free_at = st.driver_free_at.max(arrive) + st.profile.dispatch_service_us;
            st.driver_free_at - sim.now() + sim.net().latency(driver, node)
        });
        (node, hop)
    };
    let s2 = Rc::clone(state);
    let arrive = move |sim: &mut Sim| {
        let binding = {
            let mut st = s2.borrow_mut();
            *st.assigned_load.entry(node).or_insert(0) += 1;
            st.profile.binding
        };
        let queue: Then = Box::new(move |sim, state| enqueue(sim, state, t, node));
        match binding {
            // Conventional platforms claim the slice first, then the
            // function performs its own I/O while the slice idles.
            Binding::Early => queue(sim, &s2),
            // Fetches need no cores: compete for them once inputs are local.
            Binding::Late => fetch_inputs(sim, &s2, t, node, queue),
        }
    };
    match hop {
        Some(delay) => sim.schedule(delay, arrive),
        None => arrive(sim),
    }
}

fn enqueue(sim: &mut Sim, state: &Shared, t: TaskId, node: NodeId) {
    let mut st = state.borrow_mut();
    st.runnable.entry(node).or_default().push_back(t);
    drop(st);
    pump(sim, state, node);
}

/// Grants cores to queued tasks in FIFO order while resources allow.
fn pump(sim: &mut Sim, state: &Shared, node: NodeId) {
    loop {
        let (t, cores, ram, binding) = {
            let st = state.borrow();
            let Some(&t) = st.runnable.get(&node).and_then(|q| q.front()) else {
                return;
            };
            let spec = st.graph.task(t);
            (t, spec.cores, spec.ram, st.profile.binding)
        };
        // Early binding claims in Waiting (it still has I/O to do);
        // late binding claims in System (about to run).
        let initial = match binding {
            Binding::Late => CoreState::System,
            Binding::Early => CoreState::Waiting,
        };
        let Some(claim) = sim.try_claim(node, cores, ram, initial) else {
            return; // Head of queue can't fit; wait for a release.
        };
        let mut st = state.borrow_mut();
        // invariant: `t` was read at this queue's front above, and
        // claiming cores touches only the simulator.
        st.runnable.get_mut(&node).expect("queue").pop_front();
        drop(st);
        let run: Then = Box::new(move |sim, state| run(sim, state, t, node, claim));
        let after_cold_start: Then = match binding {
            Binding::Late => run,
            Binding::Early => Box::new(move |sim, state| fetch_inputs(sim, state, t, node, run)),
        };
        cold_start(sim, state, t, node, after_cold_start);
    }
}

/// Container/binary cold start while holding the claim: the first run of
/// a function on a node pulls its image, then pays the start cost.
fn cold_start(sim: &mut Sim, state: &Shared, t: TaskId, node: NodeId, then: Then) {
    let (cold_us, cold_bytes, src) = {
        let mut st = state.borrow_mut();
        let func = st.graph.task(t).func;
        let (us, bytes) = (st.profile.cold_start_us, st.profile.cold_start_bytes);
        if (us == 0 && bytes == 0) || !st.warm.insert((func, node)) {
            drop(st);
            return then(sim, state);
        }
        let src = match st.profile.inputs_from_store.is_empty() {
            true => node,
            false => State::store_node(&st.profile.inputs_from_store, ObjectId(func as u64)),
        };
        if src != node {
            st.bytes_moved += bytes;
        }
        (us, bytes, src)
    };
    let s2 = Rc::clone(state);
    sim.transfer(src, node, cold_bytes, move |sim| {
        sim.schedule(cold_us, move |sim| then(sim, &s2));
    });
}

/// Fetches every missing input of `t` to `node`, then calls `done`.
///
/// Respects the profile's fetch mechanics: central store redirection,
/// per-fetch resolution round trips, and sequential (blocking-get)
/// ordering.
fn fetch_inputs(sim: &mut Sim, state: &Shared, t: TaskId, node: NodeId, done: Then) {
    let (missing, in_turn) = {
        let st = state.borrow();
        (st.missing_objects(t, node), st.profile.sequential_fetches)
    };
    if in_turn {
        return fetch_in_turn(sim, state, missing.into(), node, done);
    }
    if missing.is_empty() {
        return done(sim, state);
    }
    // All fetches in flight at once; every arrival drops its handle on
    // `done`, and the one that holds the last handle calls it.
    let done = Rc::new(done);
    for o in missing {
        let done = Rc::clone(&done);
        let arrived: Then = Box::new(move |sim, state| {
            if let Ok(done) = Rc::try_unwrap(done) {
                done(sim, state);
            }
        });
        fetch_one(sim, state, o, node, arrived);
    }
}

/// Blocking-get order: each fetch starts when the previous one lands.
fn fetch_in_turn(
    sim: &mut Sim,
    state: &Shared,
    mut missing: VecDeque<ObjectId>,
    node: NodeId,
    done: Then,
) {
    let Some(o) = missing.pop_front() else {
        return done(sim, state);
    };
    let rest: Then = Box::new(move |sim, state| fetch_in_turn(sim, state, missing, node, done));
    fetch_one(sim, state, o, node, rest);
}

/// One fetch: optional resolution round trip, store request overhead,
/// then the data transfer. Updates the location view on arrival.
fn fetch_one(sim: &mut Sim, state: &Shared, o: ObjectId, node: NodeId, then: Then) {
    let (src, size, delay) = {
        let mut st = state.borrow_mut();
        if st.profile.externalized_io {
            match st.in_flight.entry((o, node)) {
                // The platform is already moving this object here: join.
                Entry::Occupied(mut joiners) => return joiners.get_mut().push(then),
                Entry::Vacant(first) => first.insert(Vec::new()),
            };
        }
        let (src, size) = (st.source_of(o), st.graph.object(o).size);
        if src != node {
            st.bytes_moved += size;
        }
        let resolution = st.profile.fetch_roundtrip_via.map_or(0, |owner| {
            sim.net().latency(node, owner) + sim.net().latency(owner, node)
        });
        (src, size, resolution + st.profile.store_request_us)
    };
    let s2 = Rc::clone(state);
    let arrived = move |sim: &mut Sim| {
        let mut st = s2.borrow_mut();
        // Store inputs are per-invocation GETs: no local reuse.
        if !st.is_store_input(o) {
            st.locations[o.0 as usize].push(node);
        }
        let joiners = st.in_flight.remove(&(o, node)).unwrap_or_default();
        drop(st);
        then(sim, &s2);
        for joiner in joiners {
            joiner(sim, &s2);
        }
    };
    match delay {
        // Nothing to wait for: the NICs are reserved in this event, not
        // behind whatever else is already queued for this instant.
        0 => sim.transfer(src, node, size, arrived),
        _ => sim.schedule(delay, move |sim| sim.transfer(src, node, size, arrived)),
    }
}

/// Inputs local and cores claimed: platform overhead, then user compute.
fn run(sim: &mut Sim, state: &Shared, t: TaskId, node: NodeId, claim: ClaimId) {
    let (overhead, compute) = {
        let st = state.borrow();
        (
            st.profile.invocation_overhead_us,
            st.graph.task(t).compute_us,
        )
    };
    sim.set_claim_state(claim, CoreState::System);
    let s2 = Rc::clone(state);
    sim.schedule(overhead, move |sim| {
        sim.set_claim_state(claim, CoreState::User);
        sim.schedule(compute, move |sim| {
            sim.release(claim);
            sim.count_task(node);
            write_output(sim, &s2, t, node);
        });
    });
}

/// Materializes the output (locally or via the central store), then
/// wakes dependents.
fn write_output(sim: &mut Sim, state: &Shared, t: TaskId, node: NodeId) {
    let (out, size, home, store_us) = {
        let mut st = state.borrow_mut();
        let out = st.graph.output_of(t);
        let size = st.graph.object(out).size;
        let home = match st.profile.outputs_to_store.is_empty() {
            true => node,
            false => State::store_node(&st.profile.outputs_to_store, out),
        };
        if home != node {
            st.bytes_moved += size;
        }
        (out, size, home, st.profile.store_request_us)
    };
    let s2 = Rc::clone(state);
    let written = move |sim: &mut Sim| {
        s2.borrow_mut().locations[out.0 as usize].push(home);
        complete(sim, &s2, t, node);
    };
    if home == node {
        return written(sim);
    }
    sim.schedule(store_us, move |sim| sim.transfer(node, home, size, written));
}

/// Records completion, dispatches newly ready dependents, ships the last
/// result to the client, and lets freed cores admit the next queued task.
fn complete(sim: &mut Sim, state: &Shared, t: TaskId, node: NodeId) {
    let (newly_ready, last_result) = {
        let mut st = state.borrow_mut();
        if let Some(load) = st.assigned_load.get_mut(&node) {
            *load = load.saturating_sub(1);
        }
        st.finished += 1;
        let mut ready = Vec::new();
        for d in st.dependents[t.0 as usize].clone() {
            let r = &mut st.remaining_deps[d.0 as usize];
            *r -= 1;
            if *r == 0 {
                ready.push(d);
            }
        }
        let all_done = st.finished == st.graph.tasks.len();
        let out_size = st.graph.object(st.graph.output_of(t)).size;
        (ready, all_done.then_some((st.client, out_size)))
    };
    for d in newly_ready {
        dispatch(sim, state, d, node);
    }
    if let Some((client, out_size)) = last_result {
        let s2 = Rc::clone(state);
        let finish = move |sim: &mut Sim| s2.borrow_mut().finish_time = sim.now();
        match client {
            Some(client) if client != node => sim.transfer(node, client, out_size, finish),
            _ => finish(sim),
        }
    }
    pump(sim, state, node);
}
