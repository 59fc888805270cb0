//! The serving kernel: the one two-halves engine behind
//! [`serve`](crate::serve), [`adaptive_serve`](crate::adaptive_serve),
//! and [`dispatch`](crate::dispatch()). Those entry points translate their
//! configuration into a [`Config`], call in here, and wrap the report;
//! everything that admits, dispatches, executes, or settles a request
//! lives in this module and nowhere else.
//!
//! A run has two synchronized halves:
//!
//! 1. **Virtual time** ([`plan`]). One discrete-event loop orders four
//!    event classes by `(time, class)` — at equal instants a *fault*
//!    fires before an *arrival*, an arrival before a *control tick*, a
//!    tick before a *dispatch* — so a request arriving at the kill
//!    instant already routes to the survivors, a tick sees every arrival
//!    stamped at or before it, and a dispatch sees both. Arrivals come
//!    from data, not code paths: the pre-generated timeline (open-loop
//!    processes and SNF schedules, merged) and the closed-loop
//!    re-arrival heap. Each arrival is shed at capacity, priced by the
//!    optional [`AdmissionPolicy`], named, priced cold or warm against
//!    its node's memoization mirror, and queued on that node's
//!    [`TenantQueues`]; each dispatch expires deadline-passed work,
//!    serves one batch on the earliest-free active driver, and records
//!    the exact `latency = wait + service + fill` decomposition. Every
//!    decision is a pure function of the seed and the configuration, so
//!    two runs print identical tables.
//! 2. **Real execution** ([`execute`]). The exact batches the virtual
//!    drivers served are drained by one OS thread per driver, each
//!    keeping up to [`Config::inflight`] batches submitted through
//!    [`SubmitApi::submit_many`] and settling completions oldest-first.
//!    Order and expiry were decided on the virtual clock — the only
//!    tiered queue and the only deadline mechanism there is — so a
//!    batch goes to the backend as planned and an expired request is
//!    never submitted; thread
//!    interleaving can reorder *work* but never the virtual timeline,
//!    and content-addressed evaluation makes results order-independent.
//!    The wall-clock cost lands in [`ServeReport::execution_wall`],
//!    outside the deterministic tables.
//!
//! The plug points are values the loop observes, not modes: an absent
//! admission policy prices nothing, [`ScalerConfig::fixed`] never ticks,
//! one node has nothing to route (so a shed arrival costs O(1) — no
//! thunk is named for it), no [`FaultPlan`] queues no fault. With
//! several nodes the content-addressed handle is the routing key, so
//! the thunk is named first, on the planner's backend, and each node's
//! own backend re-mints it at execution ([`execute`]'s `remint`).
//!
//! A request is named once per distinct request, not once per arrival:
//! the run's name table maps `(tenant, kind, instance)`
//! ([`RequestKind::instance`]) to the thunk the first such arrival
//! minted on the planner's backend. It holds names, never results — the
//! relation cache stays the only memo, and warmth is priced by each
//! node's mirror as before — and it is bounded by the configuration
//! (per tenant, the instances its mix can draw).

use crate::closed_loop::ThinkStreams;
use crate::controller::{AdmissionPolicy, Autoscaler, PoolShape, ScalerConfig};
use crate::loadgen::{merge_timelines, tenant_seed, Arrival, Micros};
use crate::queue::{QueuedRequest, TenantClass, TenantQueues};
use crate::routing::{Router, RoutingPolicy};
use crate::server::{DriverReport, NodeReport, ServeConfig, ServeReport, TenantReport};
use crate::snf::SnfPipeline;
use crate::tenant::{draw_kind, RequestFactory, RequestKind, Tenant};
use fix_core::api::{BatchTicket, InvocationApi, SubmitApi};
use fix_core::error::{Error, Result};
use fix_core::handle::{trace_id, Handle, HandleBuildHasher, HandleSet};
use fix_obs::{EventKind, LogHistogram};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// How a killed node comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartKind {
    /// Reopen the node's durable log: memoized relations survive, so
    /// post-restart repeats are warm immediately. Requires durable node
    /// storage.
    Warm,
    /// Replace the node with an empty one: its memoization is gone and
    /// must be re-earned (the cold-replacement baseline).
    Cold,
}

/// A deterministic node-failure schedule: kill one node mid-run, then
/// bring it (or its replacement) back.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The node to kill.
    pub node: usize,
    /// Virtual instant of the kill. In-flight virtual batches complete
    /// (the kill lands on a batch boundary); the node's queued backlog
    /// is drained and re-routed to the survivors.
    pub kill_at_us: Micros,
    /// Virtual instant the node rejoins the alive set.
    pub restart_at_us: Micros,
    /// Warm (reopen the durable log) or cold (empty replacement).
    pub restart: RestartKind,
}

/// Everything one kernel run is a function of. [`plan`] checks it with
/// [`Config::validate`] before anything runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run seed; every random choice derives from it.
    pub seed: u64,
    /// Generation horizon, virtual µs.
    pub duration_us: Micros,
    /// Maximum requests per batch.
    pub batch: usize,
    /// Per-tenant, per-node queue bound; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Fixed per-batch dispatch overhead, virtual µs.
    pub batch_overhead_us: Micros,
    /// In-flight submission window per driver thread.
    pub inflight: usize,
    /// The tenants.
    pub tenants: Vec<Tenant>,
    /// The admission controller, or `None` for capacity-only admission.
    pub admission: Option<AdmissionPolicy>,
    /// Each node's driver-pool scaler; the pool is provisioned at
    /// `max_drivers` per node.
    pub scaler: ScalerConfig,
    /// Number of nodes (independent queues, memoization, and drivers).
    pub nodes: usize,
    /// The placement policy (consulted only with more than one node).
    pub policy: RoutingPolicy,
    /// The affinity policy's spill margin, in queued requests.
    pub spill_margin: usize,
    /// Optional deterministic node failure.
    pub fault: Option<FaultPlan>,
}

impl From<&ServeConfig> for Config {
    /// The plain serving shape: open-loop tenants on one node with a
    /// fixed pool, capacity-only admission, and no faults.
    fn from(cfg: &ServeConfig) -> Config {
        Config {
            seed: cfg.seed,
            duration_us: cfg.duration_us,
            batch: cfg.batch,
            queue_capacity: cfg.queue_capacity,
            batch_overhead_us: cfg.batch_overhead_us,
            inflight: cfg.inflight,
            tenants: cfg.tenants.iter().cloned().map(Tenant::Open).collect(),
            admission: None,
            scaler: ScalerConfig::fixed(cfg.drivers),
            nodes: 1,
            policy: RoutingPolicy::Affinity,
            spill_margin: 1,
            fault: None,
        }
    }
}

impl Config {
    /// Checks everything the event loop relies on, so a malformed
    /// configuration is an error instead of a hang (a zero batch or tick
    /// period never advances the clock) or a panic (an empty pool,
    /// queue, node set, or in-flight window). The entry points'
    /// `validate`s delegate here and add only what the kernel cannot
    /// see.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.batch == 0 {
            return Err("batch size must be positive".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be positive".into());
        }
        if self.duration_us == 0 {
            return Err("duration must be positive".into());
        }
        if self.inflight == 0 {
            return Err("in-flight window must hold at least one batch".into());
        }
        self.scaler.validate()?;
        if self.nodes == 0 {
            return Err("at least one node is required".into());
        }
        if self.spill_margin == 0 {
            return Err("spill margin must be positive".into());
        }
        if let Some(f) = &self.fault {
            if f.node >= self.nodes {
                return Err(format!("fault kills node {} of {}", f.node, self.nodes));
            }
            if self.nodes < 2 {
                return Err("a fault plan needs at least one survivor".into());
            }
            if f.restart_at_us <= f.kill_at_us {
                return Err("restart must come after the kill".into());
            }
        }
        if self.tenants.is_empty() {
            return Err("at least one tenant is required".into());
        }
        for t in &self.tenants {
            let name = t.name();
            if t.weight() == 0 {
                return Err(format!("tenant '{name}' has zero weight"));
            }
            match t {
                Tenant::Snf(s) if s.flows == 0 => {
                    return Err(format!("tenant '{name}' has no flows"));
                }
                Tenant::Snf(s) if s.batch_period_us == 0 => {
                    return Err(format!("tenant '{name}' needs a positive period"));
                }
                Tenant::Snf(_) => {}
                _ if t.mix().is_empty() => {
                    return Err(format!("tenant '{name}' has an empty mix"));
                }
                _ if t.mix().iter().all(|&(_, w)| w == 0) => {
                    return Err(format!("tenant '{name}' has only zero mix weights"));
                }
                Tenant::Open(o) => {
                    o.arrivals
                        .validate()
                        .map_err(|e| format!("tenant '{name}': {e}"))?;
                }
                Tenant::Closed(c) if c.clients == 0 => {
                    return Err(format!("tenant '{name}' has no clients"));
                }
                // NaN must fail too, hence the partial_cmp form.
                Tenant::Closed(c)
                    if c.think_mean_us.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) =>
                {
                    return Err(format!("tenant '{name}' needs a positive think time"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A virtual driver's planned batch: the requests it served, in order.
/// Their tier was decided when [`TenantQueues`] assembled the batch, so
/// the batch is submitted as it stands.
struct PlannedBatch {
    requests: Vec<QueuedRequest>,
}

/// One node incarnation's planned batches, per driver — the unit
/// [`execute`] replays on a backend. A node restart opens a new one.
pub struct Segment {
    per_driver: Vec<Vec<PlannedBatch>>,
}

impl Segment {
    fn new(drivers: usize) -> Segment {
        Segment {
            per_driver: (0..drivers).map(|_| Vec::new()).collect(),
        }
    }
}

/// Per-tenant outcome counters of the real execution half. (Expiry is
/// the virtual half's: an expired request is never submitted.)
pub struct Tally {
    ok: Vec<u64>,
    errors: Vec<u64>,
}

impl Tally {
    /// A zero tally over `n` tenants.
    pub fn new(n: usize) -> Tally {
        Tally {
            ok: vec![0; n],
            errors: vec![0; n],
        }
    }

    /// Adds `other`'s counts into `self`.
    pub fn absorb(&mut self, other: &Tally) {
        for t in 0..self.ok.len() {
            self.ok[t] += other.ok[t];
            self.errors[t] += other.errors[t];
        }
    }

    /// Settles one executed batch.
    fn settle(&mut self, batch: &PlannedBatch, results: Vec<Result<Handle>>) {
        for (result, req) in results.iter().zip(&batch.requests) {
            match result {
                Ok(_) => self.ok[req.tenant] += 1,
                Err(_) => self.errors[req.tenant] += 1,
            }
        }
    }
}

/// The virtual half's output: what to execute, and the report so far.
pub struct Plan {
    /// Per node, its incarnation segments in order (one unless the node
    /// was restarted).
    pub nodes: Vec<Vec<Segment>>,
    /// Virtual µs from the fault's restart instant to the restarted
    /// node's first warm placement; `None` when there was no fault or
    /// the node never re-warmed.
    pub recovery_window_us: Option<Micros>,
    report: ServeReport,
}

impl Plan {
    /// Closes the report with the execution half's outcome and publishes
    /// each tenant's latency histogram into the process-wide registry
    /// (accumulating across runs) under its serving name.
    pub fn into_report(self, tally: Tally, execution_wall: Duration) -> ServeReport {
        let mut report = self.report;
        for (i, t) in report.tenants.iter_mut().enumerate() {
            t.ok = tally.ok[i];
            t.errors = tally.errors[i];
            fix_obs::global()
                .histogram(&format!("serve.{}.latency_us", t.name))
                .merge_from(&t.latency);
        }
        report.completed = report.tenants.iter().map(|t| t.ok + t.errors).sum();
        report.execution_wall = execution_wall;
        report
    }
}

/// Both halves on one backend: plan on `rt`, then execute every segment
/// there with the thunks the plan already named. Nodes that share a
/// backend are not worth a table, so [`ServeReport::nodes`] stays empty.
pub fn run<A: SubmitApi + InvocationApi + Send + Sync>(
    rt: &A,
    cfg: &Config,
) -> Result<ServeReport> {
    let plan = plan(rt, cfg)?;
    let n_tenants = cfg.tenants.len();
    let started = Instant::now();
    let mut tally = Tally::new(n_tenants);
    for segment in plan.nodes.iter().flatten() {
        tally.absorb(&execute(rt, segment, cfg.inflight, n_tenants, None)?);
    }
    let mut report = plan.into_report(tally, started.elapsed());
    report.nodes.clear();
    Ok(report)
}

/// The real half: one OS thread per driver of `segment`, each keeping up
/// to `inflight` batches submitted to `rt` and settling them
/// oldest-first. With `remint`, every thunk is minted again on `rt` —
/// for a backend other than the one the plan was minted on; content
/// addressing guarantees the same handle.
pub fn execute<A: SubmitApi + InvocationApi + Send + Sync>(
    rt: &A,
    segment: &Segment,
    inflight: usize,
    n_tenants: usize,
    remint: Option<&RequestFactory>,
) -> Result<Tally> {
    let drive = |plan: &[PlannedBatch]| -> Result<Tally> {
        let mut tally = Tally::new(n_tenants);
        let mut window: VecDeque<(&PlannedBatch, BatchTicket)> = VecDeque::with_capacity(inflight);
        for batch in plan {
            while window.len() >= inflight {
                // invariant: `inflight` ≥ 1 (validated), so the window holds one.
                let (done, ticket) = window.pop_front().expect("window is non-empty");
                tally.settle(done, ticket.wait());
            }
            let mut thunks = Vec::with_capacity(batch.requests.len());
            for r in &batch.requests {
                thunks.push(match remint {
                    None => r.thunk,
                    Some(factory) => {
                        let minted = factory.mint(rt, r.tenant, r.seq, r.kind)?;
                        debug_assert_eq!(
                            minted, r.thunk,
                            "content addressing must reproduce the planned handle"
                        );
                        minted
                    }
                });
            }
            window.push_back((batch, rt.submit_many(&thunks)));
        }
        while let Some((done, ticket)) = window.pop_front() {
            tally.settle(done, ticket.wait());
        }
        Ok(tally)
    };
    let tallies: Vec<Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = segment
            .per_driver
            .iter()
            .map(|plan| scope.spawn(|| drive(plan.as_slice())))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(Error::Backend {
                        backend: "serve",
                        message: "a driver thread panicked".into(),
                    })
                })
            })
            .collect()
    });
    let mut total = Tally::new(n_tenants);
    for tally in tallies {
        total.absorb(&tally?);
    }
    Ok(total)
}

/// One node of the virtual half.
struct Node {
    queues: TenantQueues,
    /// Thunks admitted here: the virtual mirror of the node's
    /// memoization. First *admitted* sight pays the cold service time,
    /// repeats are warm (a shed request never executed, so it warms
    /// nothing).
    seen: HandleSet<Handle>,
    /// When each provisioned driver is next free.
    free: Vec<Micros>,
    /// Holds the active driver count and the scaling timeline.
    scaler: Autoscaler,
    segments: Vec<Segment>,
    report: NodeReport,
    restarted_at: Option<Micros>,
    depth_gauge: fix_obs::Gauge,
}

/// All mutable state of the virtual half.
struct Sim<'a, A: InvocationApi> {
    rt: &'a A,
    cfg: &'a Config,
    factory: RequestFactory,
    /// The run's name table: `(tenant, kind, instance)` → thunk, one
    /// entry per distinct request admitted or routed so far. Names, never
    /// results — warmth is each node's `seen` mirror. The keys are the
    /// kernel's own counters, hashed by the word fold, which skips a
    /// `usize` (it reads one as a length prefix): the tenant is widened
    /// to a `u64`. `Wordcount`'s `shard_bytes` stays a `usize` and is not
    /// folded, which loses nothing: a tenant's shards are sized by its
    /// first `Wordcount` kind, and its names are minted from the tenant
    /// and instance alone.
    names: HashMap<(u64, RequestKind, u64), Handle, HandleBuildHasher>,
    snf: Vec<Option<SnfPipeline>>,
    think: Vec<Option<ThinkStreams>>,
    router: Router,
    nodes: Vec<Node>,
    alive: Vec<bool>,
    /// Pre-generated arrivals (open-loop + SNF), merged and sorted.
    timeline: Vec<Arrival>,
    next: usize,
    /// Pending closed-loop re-arrivals: `Reverse((time, tenant,
    /// client))` — a deterministic min-heap order.
    heap: BinaryHeap<Reverse<(Micros, usize, usize)>>,
    /// Next sequence number per closed-loop tenant, assigned in
    /// processed-arrival order (which is time order).
    closed_seq: Vec<u64>,
    /// Outstanding closed-loop requests: (tenant, seq) → client.
    outstanding: HashMap<(u64, u64), usize, HandleBuildHasher>,
    tenants: Vec<TenantReport>,
    drivers: Vec<DriverReport>,
    tenant_gauges: Vec<fix_obs::Gauge>,
    makespan: Micros,
    recovery_window_us: Option<Micros>,
    /// One relaxed load for the whole run: the loop traces every
    /// lifecycle event or none (toggling mid-run would break cross-run
    /// comparability anyway).
    tracing: bool,
}

impl<'a, A: InvocationApi> Sim<'a, A> {
    fn new(rt: &'a A, cfg: &'a Config) -> Result<Self> {
        let factory =
            RequestFactory::install_mixes(rt, cfg.tenants.iter().map(Tenant::mix), cfg.seed)?;
        let classes: Vec<TenantClass> = cfg
            .tenants
            .iter()
            .map(|t| TenantClass {
                weight: t.weight(),
                priority: t.slo().priority,
                deadline_us: t.slo().deadline_us,
            })
            .collect();
        // Pre-generated arrivals: open-loop streams and SNF schedules
        // (closed-loop arrivals depend on completions, so they are
        // computed during the run, through the heap).
        let timeline = merge_timelines(
            cfg.tenants
                .iter()
                .enumerate()
                .map(|(i, t)| match t {
                    Tenant::Open(o) => o
                        .arrivals
                        .generate(tenant_seed(cfg.seed, i, 0), cfg.duration_us),
                    Tenant::Closed(_) => Vec::new(),
                    Tenant::Snf(s) => s.arrival_times(cfg.duration_us),
                })
                .collect(),
        );
        let max_drivers = cfg.scaler.max_drivers;
        let histogram = LogHistogram::new;
        let mut sim = Sim {
            rt,
            cfg,
            factory,
            names: HashMap::default(),
            snf: cfg
                .tenants
                .iter()
                .map(|t| match t {
                    Tenant::Snf(s) => Some(SnfPipeline::install(rt, s.flows)),
                    _ => None,
                })
                .collect(),
            think: cfg
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| match t {
                    Tenant::Closed(c) => {
                        Some(ThinkStreams::new(cfg.seed, i, c.clients, c.think_mean_us))
                    }
                    _ => None,
                })
                .collect(),
            router: Router::new(cfg.policy, cfg.spill_margin, cfg.seed),
            nodes: (0..cfg.nodes)
                .map(|i| Node {
                    queues: TenantQueues::new(classes.clone(), cfg.queue_capacity),
                    seen: HandleSet::default(),
                    free: vec![0; max_drivers],
                    scaler: Autoscaler::new(cfg.scaler),
                    segments: vec![Segment::new(max_drivers)],
                    report: NodeReport::default(),
                    restarted_at: None,
                    depth_gauge: fix_obs::global().gauge(&format!("dispatch.node{i}.queue_depth")),
                })
                .collect(),
            alive: vec![true; cfg.nodes],
            timeline,
            next: 0,
            heap: BinaryHeap::new(),
            closed_seq: vec![0; cfg.tenants.len()],
            outstanding: HashMap::default(),
            tenants: cfg
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.name().to_string(),
                    class: t.slo().priority.label(),
                    offered: 0,
                    admitted: 0,
                    dropped: 0,
                    rejected: 0,
                    ok: 0,
                    errors: 0,
                    expired: 0,
                    cancelled: 0,
                    latency: histogram(),
                    queue_wait: histogram(),
                    service: histogram(),
                    fill: histogram(),
                })
                .collect(),
            drivers: (0..cfg.nodes * max_drivers)
                .map(|_| DriverReport {
                    batches: 0,
                    requests: 0,
                    busy_us: 0,
                    latency: histogram(),
                })
                .collect(),
            tenant_gauges: cfg
                .tenants
                .iter()
                .map(|t| fix_obs::global().gauge(&format!("serve.{}.queue_depth", t.name())))
                .collect(),
            makespan: 0,
            recovery_window_us: None,
            tracing: fix_obs::tracing_enabled(),
        };
        // Every closed-loop client thinks once before its first request.
        for (i, t) in cfg.tenants.iter().enumerate() {
            if let Tenant::Closed(c) = t {
                for client in 0..c.clients {
                    sim.schedule_client(i, client, 0);
                }
            }
        }
        Ok(sim)
    }

    /// The next pending arrival's (time, tenant), across both sources.
    /// A tenant is exclusively open/SNF (timeline) or closed (heap), so
    /// the pair totally orders the merge.
    fn peek(&self) -> Option<(Micros, usize)> {
        let tl = self.timeline.get(self.next).map(|a| (a.time_us, a.tenant));
        let cl = self.heap.peek().map(|Reverse((t, ten, _))| (*t, *ten));
        match (tl, cl) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Schedules a closed-loop client's next arrival after a think
    /// (clients stop re-arriving past the horizon).
    fn schedule_client(&mut self, tenant: usize, client: usize, resolved_at: Micros) {
        // invariant: only closed-loop tenants, which have streams, get here.
        let think = self.think[tenant]
            .as_mut()
            .expect("closed tenant has think streams")
            .next(client);
        let at = resolved_at + think;
        if at < self.cfg.duration_us {
            self.heap.push(Reverse((at, tenant, client)));
        }
    }

    /// A closed-loop request resolved at `at` (served, expired, shed, or
    /// rejected): its client thinks, then re-arrives.
    fn resolve(&mut self, r: &QueuedRequest, at: Micros) {
        if self.think[r.tenant].is_none() {
            return; // Not a closed-loop tenant: no client waits on it.
        }
        if let Some(client) = self.outstanding.remove(&(r.tenant as u64, r.seq)) {
            self.schedule_client(r.tenant, client, at);
        }
    }

    /// Offers every pending arrival with time ≤ `t`, in (time, tenant)
    /// order.
    fn admit_up_to(&mut self, t: Micros) -> Result<()> {
        while let Some(next) = self.peek().filter(|&(at, _)| at <= t) {
            let from_timeline = self
                .timeline
                .get(self.next)
                .is_some_and(|a| (a.time_us, a.tenant) == next);
            if from_timeline {
                let a = self.timeline[self.next];
                self.next += 1;
                self.offer(a, None)?;
            } else {
                // invariant: `peek` saw this arrival, not on the timeline.
                let Reverse((time_us, tenant, client)) =
                    self.heap.pop().expect("peek saw a heap entry");
                let seq = self.closed_seq[tenant];
                self.closed_seq[tenant] += 1;
                self.offer(
                    Arrival {
                        time_us,
                        tenant,
                        seq,
                    },
                    Some(client),
                )?;
            }
        }
        Ok(())
    }

    /// The (content-addressed) thunk of arrival `a`: minted on the
    /// planning backend by the first arrival of its instance, looked up
    /// by every later one.
    fn name(&mut self, a: Arrival) -> Result<(RequestKind, Handle)> {
        if let Some(p) = &self.snf[a.tenant] {
            // The kind is a carrier field here: the SNF service model
            // prices the fold.
            let fold = p.mint(self.rt, p.flow_of(a.seq), p.batch_of(a.seq))?;
            return Ok((RequestKind::Add, fold));
        }
        let mix = self.cfg.tenants[a.tenant].mix();
        let kind = draw_kind(mix, tenant_seed(self.cfg.seed, a.tenant, 1), a.seq);
        let mint = || self.factory.mint(self.rt, a.tenant, a.seq, kind);
        let thunk = match kind.instance(a.seq) {
            None => mint()?,
            Some(instance) => match self.names.entry((a.tenant as u64, kind, instance)) {
                Entry::Occupied(named) => *named.get(),
                Entry::Vacant(slot) => *slot.insert(mint()?),
            },
        };
        Ok((kind, thunk))
    }

    /// Places `thunk` on an alive node by the routing policy.
    fn route(&mut self, thunk: Handle, t: Micros) -> usize {
        let key = trace_id(thunk.raw());
        let depths: Vec<usize> = self.nodes.iter().map(|n| n.queues.len()).collect();
        let d = self.router.route(key, &self.alive, &depths);
        if d.spilled {
            self.nodes[d.hrw].report.spilled_away += 1;
            if self.tracing {
                fix_obs::emit(EventKind::Spill, t, key, d.node as u32, d.hrw as u32);
            }
        }
        d.node
    }

    /// Counts a placement on node `n` as warm or cold and, if this is
    /// the restarted node's first warm placement, closes the recovery
    /// window.
    fn price_placement(&mut self, n: usize, warm: bool, now: Micros) {
        let node = &mut self.nodes[n];
        if !warm {
            node.report.cold_misses += 1;
            return;
        }
        node.report.warm_hits += 1;
        if self.recovery_window_us.is_none() {
            self.recovery_window_us = node.restarted_at.and_then(|r| now.checked_sub(r));
        }
    }

    /// Offers one arrival: route, capacity shed, admission pricing,
    /// name, cold/warm pricing, enqueue.
    fn offer(&mut self, a: Arrival, client: Option<usize>) -> Result<()> {
        let cfg = self.cfg;
        let deadline = cfg.tenants[a.tenant].slo().deadline_us;
        let deadline_us = deadline.map(|d| a.time_us + d);
        // With several nodes the handle is the routing key, so the
        // thunk is named first; with one node there is nothing to
        // route and a shed or rejected arrival stays O(1) — minting
        // builds and stores real objects on the backend, exactly what
        // overload protection is supposed to avoid.
        let (n, routed) = if self.nodes.len() > 1 {
            let named = self.name(a)?;
            (self.route(named.1, a.time_us), Some(named))
        } else {
            (0, None)
        };
        let key = routed.map_or(0, |(_, thunk)| trace_id(thunk.raw()));
        let node = &mut self.nodes[n];
        let refused = if node.queues.at_capacity(a.tenant) {
            node.queues.shed(a.tenant);
            Some((
                EventKind::ServeShed,
                node.queues.tenant_depth(a.tenant) as u32,
            ))
        } else {
            // Pricing mints nothing either: rejection must be cheap
            // under exactly the overload that triggers it.
            let pool = PoolShape {
                active_drivers: node.scaler.active(),
                batch: cfg.batch,
                batch_overhead_us: cfg.batch_overhead_us,
            };
            let wait = cfg.admission.and_then(|policy| {
                policy.price(&node.queues, a.tenant, a.time_us, deadline_us, pool)
            });
            wait.map(|wait| {
                node.queues.reject(a.tenant);
                (EventKind::CtrlReject, wait.min(u32::MAX as Micros) as u32)
            })
        };
        if let Some((kind, detail)) = refused {
            if self.tracing {
                fix_obs::emit(kind, a.time_us, key, a.tenant as u32, detail);
            }
            // A closed-loop client's request resolved (badly) on the
            // spot; it thinks, then retries.
            if let Some(c) = client {
                self.schedule_client(a.tenant, c, a.time_us);
            }
            return Ok(());
        }
        let (kind, thunk) = match routed {
            Some(named) => named,
            None => self.name(a)?,
        };
        let warm = self.nodes[n].seen.contains(&thunk);
        let service_us = match &self.snf[a.tenant] {
            Some(p) => p.service_us(p.flow_of(a.seq), p.batch_of(a.seq)),
            None => kind.service_us(warm),
        };
        let node = &mut self.nodes[n];
        let admitted = node.queues.offer(QueuedRequest {
            arrival_us: a.time_us,
            tenant: a.tenant,
            seq: a.seq,
            kind,
            thunk,
            service_us,
            deadline_us,
        });
        debug_assert!(admitted, "capacity was checked above");
        node.seen.insert(thunk);
        node.report.routed += 1;
        self.tenants[a.tenant].admitted += 1;
        self.price_placement(n, warm, a.time_us);
        if let Some(p) = &mut self.snf[a.tenant] {
            p.admit(p.flow_of(a.seq), p.batch_of(a.seq), thunk)?;
        }
        if let Some(c) = client {
            self.outstanding.insert((a.tenant as u64, a.seq), c);
        }
        if self.tracing {
            if routed.is_some() {
                fix_obs::emit(EventKind::Route, a.time_us, key, n as u32, warm as u32);
            }
            fix_obs::emit(
                EventKind::ServeAdmit,
                a.time_us,
                trace_id(thunk.raw()),
                a.tenant as u32,
                self.nodes[n].queues.tenant_depth(a.tenant) as u32,
            );
        }
        Ok(())
    }

    /// Kills `node` at virtual instant `t`: in-flight virtual batches
    /// have already completed (their completions were stamped at
    /// dispatch), so the kill drains the queued backlog and re-routes it
    /// among the survivors.
    fn kill(&mut self, node: usize, t: Micros) {
        self.alive[node] = false;
        self.nodes[node].report.kills += 1;
        let drained = self.nodes[node].queues.drain_all();
        if self.tracing {
            fix_obs::emit(EventKind::NodeKill, t, 0, node as u32, drained.len() as u32);
        }
        for mut req in drained {
            let m = self.route(req.thunk, t);
            // Re-price against the survivor's memoization: the dead
            // node's warmth does not transfer. An SNF fold keeps the
            // price `offer` gave it: its kind is a carrier field, and
            // its pipeline has already advanced past it.
            let warm = self.nodes[m].seen.contains(&req.thunk);
            if self.snf[req.tenant].is_none() {
                req.service_us = req.kind.service_us(warm);
            }
            // Force-enqueue: the request was admitted (and counted)
            // once already; failover must not shed or re-offer it.
            self.nodes[m].queues.requeue(req);
            self.nodes[m].seen.insert(req.thunk);
            self.nodes[m].report.rerouted_in += 1;
            self.price_placement(m, warm, t);
            if self.tracing {
                let key = trace_id(req.thunk.raw());
                fix_obs::emit(EventKind::Route, t, key, m as u32, warm as u32);
            }
        }
    }

    /// Restarts `node` at virtual instant `t`, warm or cold, opening a
    /// new incarnation segment for the real execution.
    fn restart(&mut self, node: usize, kind: RestartKind, t: Micros) {
        self.alive[node] = true;
        let n = &mut self.nodes[node];
        n.report.restarts += 1;
        if kind == RestartKind::Cold {
            n.seen.clear();
        }
        n.segments.push(Segment::new(n.free.len()));
        n.restarted_at = Some(t);
        if self.tracing {
            let warm = (kind == RestartKind::Warm) as u32;
            fix_obs::emit(EventKind::NodeRestart, t, 0, node as u32, warm);
        }
    }

    /// One controller tick at `t`: every node's scaler sees the modeled
    /// service queued on that node, across all tenants.
    fn tick(&mut self, t: Micros) {
        for node in &mut self.nodes {
            let tenants = 0..self.cfg.tenants.len();
            let backlog = tenants.map(|i| node.queues.tenant_backlog_us(i)).sum();
            node.scaler.tick(t, backlog, self.tracing);
        }
    }

    /// The next dispatch at or after `now`: over alive nodes, the
    /// earliest-free active driver (ties to the lowest node, then
    /// driver). A driver that went idle before work arrived picks up at
    /// the current instant, never in the past. A node is due while it
    /// has backlog or its earliest driver is still busy: a completion
    /// with nothing queued serves nothing, but the run — and so the
    /// controller's ticking — lasts until the pool has drained to it.
    fn next_dispatch(&self, now: Micros) -> Option<(Micros, usize, usize)> {
        let due = |n: usize| {
            let node = &self.nodes[n];
            let active = 0..node.scaler.active();
            let (t, d) = active.map(|d| (node.free[d].max(now), d)).min()?;
            (t > now || !node.queues.is_empty()).then_some((t, n, d))
        };
        (0..self.nodes.len())
            .filter(|&n| self.alive[n])
            .filter_map(due)
            .min()
    }

    /// Serves one batch on node `n`, driver `d`, at virtual time `now`.
    fn dispatch_on(&mut self, n: usize, d: usize, now: Micros) {
        let cfg = self.cfg;
        let dispatch = self.nodes[n].queues.next_dispatch(cfg.batch, now);
        // Deadline-passed requests were withdrawn at dispatch: they
        // consume no service and record no latency — dead work the
        // platform refused to execute, accounted as expired.
        for r in &dispatch.expired {
            self.tenants[r.tenant].expired += 1;
            self.nodes[n].report.expired += 1;
            if self.tracing {
                let id = trace_id(r.thunk.raw());
                fix_obs::emit(EventKind::ServeExpire, now, id, r.tenant as u32, 0);
            }
            self.resolve(r, now);
        }
        let batch = dispatch.requests;
        if batch.is_empty() {
            return; // Expiry emptied the backlog.
        }
        let service: Micros =
            cfg.batch_overhead_us + batch.iter().map(|r| r.service_us).sum::<Micros>();
        let done = now + service;
        // Queue-depth sample at dispatch, after the batch's pops: the
        // node's total, and one reading per tenant the batch drew from.
        let node = &mut self.nodes[n];
        node.depth_gauge.set(node.queues.len() as i64);
        let mut sampled: Vec<usize> = batch.iter().map(|r| r.tenant).collect();
        sampled.sort_unstable();
        sampled.dedup();
        for &t in &sampled {
            let depth = node.queues.tenant_depth(t);
            self.tenant_gauges[t].set(depth as i64);
            if self.tracing {
                fix_obs::emit(EventKind::ServeQueueDepth, now, 0, t as u32, depth as u32);
            }
        }
        let driver = &mut self.drivers[n * node.free.len() + d];
        for r in &batch {
            debug_assert!(r.arrival_us <= now, "service must not precede arrival");
            // The decomposition: latency = wait + own service + fill
            // (dispatch overhead + co-batched service), exactly.
            let latency = done - r.arrival_us;
            let wait = now - r.arrival_us;
            let tenant = &mut self.tenants[r.tenant];
            tenant.latency.record(latency);
            tenant.queue_wait.record(wait);
            tenant.service.record(r.service_us);
            tenant.fill.record(service - r.service_us);
            driver.latency.record(latency);
            if self.tracing {
                let id = trace_id(r.thunk.raw());
                let clamp = |v: Micros| v.min(u32::MAX as Micros) as u32;
                let tenant = r.tenant as u32;
                fix_obs::emit(EventKind::ServeDispatch, now, id, tenant, clamp(wait));
                fix_obs::emit(EventKind::ServeComplete, done, id, tenant, clamp(latency));
            }
        }
        driver.batches += 1;
        driver.requests += batch.len() as u64;
        driver.busy_us += service;
        node.report.served += batch.len() as u64;
        node.report.busy_us += service;
        node.free[d] = done;
        self.makespan = self.makespan.max(done);
        for r in &batch {
            self.resolve(r, done);
        }
        // invariant: `Sim::new` and every restart open a segment.
        self.nodes[n]
            .segments
            .last_mut()
            .expect("a node always has a current segment")
            .per_driver[d]
            .push(PlannedBatch { requests: batch });
    }

    /// The discrete-event loop (see the module docs for the order).
    fn run(&mut self) -> Result<()> {
        // The fault plan as an event queue: kill (`None`), then restart.
        let mut faults = VecDeque::new();
        if let Some(f) = self.cfg.fault {
            faults.push_back((f.kill_at_us, None));
            faults.push_back((f.restart_at_us, Some(f.restart)));
        }
        let interval = self.cfg.scaler.control_interval_us;
        let mut next_control = interval;
        let mut now: Micros = 0;
        loop {
            let dispatch = self.next_dispatch(now);
            let work = [
                faults.front().map(|&(t, _)| (t.max(now), 0u8)),
                self.peek().map(|(t, _)| (t.max(now), 1)),
                dispatch.map(|(t, _, _)| (t, 3)),
            ];
            // The controller ticks only while there is other work to
            // order it against: a drained system with no future
            // arrivals is done, not waiting for its next tick.
            let Some(first) = work.into_iter().flatten().min() else {
                break;
            };
            let (t, class) = first.min((next_control, 2));
            now = t;
            match class {
                0 => {
                    // invariant: class 0 is chosen only from a queued fault event.
                    let node = self.cfg.fault.expect("a fault event is due").node;
                    // invariant: the same queued fault event is popped here.
                    match faults.pop_front().expect("a fault event is due").1 {
                        None => self.kill(node, t),
                        Some(kind) => self.restart(node, kind, t),
                    }
                }
                1 => self.admit_up_to(t)?,
                2 => {
                    self.tick(t);
                    next_control = next_control.saturating_add(interval);
                }
                _ => {
                    // invariant: class 3 is chosen only from `Some(dispatch)`.
                    let (_, n, d) = dispatch.expect("a dispatch was selected");
                    self.dispatch_on(n, d, t);
                }
            }
        }
        debug_assert!(
            self.nodes.iter().all(|n| n.queues.is_empty()),
            "the loop drains every queue"
        );
        Ok(())
    }
}

/// The virtual half: generates the traffic and admits, routes, prices,
/// and schedules it on the virtual clock, minting thunks on `rt`.
pub fn plan<A: InvocationApi>(rt: &A, cfg: &Config) -> Result<Plan> {
    cfg.validate().map_err(|message| Error::Backend {
        backend: "serve",
        message,
    })?;
    let mut sim = Sim::new(rt, cfg)?;
    sim.run()?;
    let mut tenants = sim.tenants;
    for (i, t) in tenants.iter_mut().enumerate() {
        t.offered = sim.nodes.iter().map(|n| n.queues.offered[i]).sum();
        t.dropped = sim.nodes.iter().map(|n| n.queues.dropped[i]).sum();
        t.rejected = sim.nodes.iter().map(|n| n.queues.rejected[i]).sum();
    }
    let mut report = ServeReport {
        tenants,
        drivers: sim.drivers,
        nodes: Vec::new(),
        scaling: Vec::new(),
        makespan_us: sim.makespan,
        completed: 0,
        execution_wall: Duration::ZERO,
    };
    let mut nodes = Vec::with_capacity(sim.nodes.len());
    for node in sim.nodes {
        report.nodes.push(node.report);
        report.scaling.extend(node.scaler.into_timeline());
        nodes.push(node.segments);
    }
    report.scaling.sort_by_key(|s| s.at_us);
    Ok(Plan {
        nodes,
        recovery_window_us: sim.recovery_window_us,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::ClosedLoopSpec;
    use crate::loadgen::ArrivalProcess;
    use crate::snf::SnfSpec;
    use crate::tenant::{SloClass, TenantSpec};
    use fix_core::api::{NativeFn, ObjectApi};
    use fix_core::data::Node;
    use fix_core::limits::ResourceLimits;
    use fixpoint::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A runtime that counts the application trees put through it.
    struct CountingApplies {
        rt: Runtime,
        applies: AtomicU64,
    }

    impl ObjectApi for CountingApplies {
        fn put(&self, node: Node) -> Handle {
            self.rt.put(node)
        }
        fn get(&self, handle: Handle) -> Result<Node> {
            self.rt.get(handle)
        }
        fn contains(&self, handle: Handle) -> bool {
            self.rt.contains(handle)
        }
    }

    impl InvocationApi for CountingApplies {
        fn register_native(&self, name: &str, f: NativeFn) -> Handle {
            self.rt.register_native(name, f)
        }
        fn apply(
            &self,
            limits: ResourceLimits,
            procedure: Handle,
            args: &[Handle],
        ) -> Result<Handle> {
            self.applies.fetch_add(1, Ordering::Relaxed);
            self.rt.apply(limits, procedure, args)
        }
    }

    fn config(tenants: Vec<Tenant>, nodes: usize) -> Config {
        Config {
            seed: 17,
            duration_us: 10_000,
            batch: 8,
            queue_capacity: 1_000,
            batch_overhead_us: 5,
            inflight: 2,
            tenants,
            admission: None,
            scaler: ScalerConfig::fixed(2),
            nodes,
            policy: RoutingPolicy::Affinity,
            spill_margin: 1,
            fault: None,
        }
    }

    /// Every planned request, in segment order.
    fn planned(plan: &Plan) -> impl Iterator<Item = &QueuedRequest> {
        plan.nodes
            .iter()
            .flatten()
            .flat_map(|s| s.per_driver.iter().flatten())
            .flat_map(|b| &b.requests)
    }

    #[test]
    fn a_distinct_request_is_minted_once_per_run() {
        let fib = TenantSpec::uniform_mix(
            "fib",
            1,
            ArrivalProcess::Uniform { period_us: 10 },
            RequestKind::Fib { max_n: 4 },
        );
        for nodes in [1, 3] {
            let rt = CountingApplies {
                rt: Runtime::builder().build(),
                applies: AtomicU64::new(0),
            };
            let plan = plan(&rt, &config(vec![Tenant::Open(fib.clone())], nodes)).unwrap();
            assert_eq!(plan.report.tenants[0].admitted, 1_000);
            assert_eq!(planned(&plan).count(), 1_000);
            let applies = rt.applies.load(Ordering::Relaxed);
            assert!(applies <= 4, "{nodes} nodes: {applies} application trees");
        }
    }

    /// An open flash crowd, a closed-loop portal and an SNF tenant
    /// (tenant 2) on `nodes` nodes, under admission and a 1..=4 driver
    /// autoscaler.
    fn three_tenants(nodes: usize) -> Config {
        let crowd = TenantSpec {
            name: "crowd".into(),
            weight: 2,
            arrivals: ArrivalProcess::FlashCrowd {
                base_rps: 100_000.0,
                spike_at_us: 3_000,
                spike_len_us: 3_000,
                spike_rps: 600_000.0,
            },
            mix: vec![
                (RequestKind::Add, 1),
                (RequestKind::Fib { max_n: 32 }, 3),
                (RequestKind::Wordcount { shard_bytes: 1024 }, 1),
                (RequestKind::SebsHtml { users: 8 }, 1),
            ],
            slo: SloClass::latency(3_000),
        };
        let tenants = vec![
            Tenant::Open(crowd),
            Tenant::Closed(ClosedLoopSpec {
                name: "portal".into(),
                weight: 1,
                clients: 8,
                think_mean_us: 200.0,
                mix: vec![(RequestKind::SebsHtml { users: 4 }, 1)],
                slo: SloClass::latency(8_000),
            }),
            Tenant::Snf(SnfSpec {
                name: "snf".into(),
                weight: 1,
                flows: 4,
                batch_period_us: 500,
                slo: SloClass::default(),
            }),
        ];
        Config {
            admission: Some(AdmissionPolicy::default()),
            scaler: ScalerConfig {
                min_drivers: 1,
                max_drivers: 4,
                control_interval_us: 500,
                up_backlog_us: 400,
                down_backlog_us: 60,
                hold_ticks: 2,
            },
            ..config(tenants, nodes)
        }
    }

    #[test]
    fn the_name_table_holds_what_the_factory_mints() {
        for nodes in [1, 3] {
            let cfg = three_tenants(nodes);
            let plan = plan(&Runtime::builder().build(), &cfg).unwrap();
            assert!(plan.report.tenants[0].rejected > 0, "the crowd is refused");
            let cc = fix_cluster::ClusterClient::builder().build().unwrap();
            let factory =
                RequestFactory::install_mixes(&cc, cfg.tenants.iter().map(Tenant::mix), cfg.seed)
                    .unwrap();
            let mut checked = 0;
            for r in planned(&plan).filter(|r| !matches!(cfg.tenants[r.tenant], Tenant::Snf(_))) {
                let minted = factory.mint(&cc, r.tenant, r.seq, r.kind).unwrap();
                assert_eq!(minted, r.thunk, "{nodes} nodes: {r:?}");
                checked += 1;
            }
            assert!(checked > 1_000, "{nodes} nodes: {checked} requests checked");
        }
    }

    /// A fold rerouted off a killed node keeps the price `offer` gave
    /// it, `k × snf_step_us`: its kind is a carrier field, so repricing
    /// it by kind would charge a `k`-step fold as one native add.
    #[test]
    fn a_rerouted_snf_fold_keeps_its_price() {
        let step = fix_core::calibration::SERVICE_COSTS.snf_step_us;
        let mut rerouted = 0;
        for kill_at_us in (1_000..9_000).step_by(500) {
            let cfg = Config {
                fault: Some(FaultPlan {
                    node: 1,
                    kill_at_us,
                    restart_at_us: kill_at_us + 1_000,
                    restart: RestartKind::Cold,
                }),
                ..three_tenants(3)
            };
            let plan = plan(&Runtime::builder().build(), &cfg).unwrap();
            rerouted += plan.report.nodes.iter().map(|n| n.rerouted_in).sum::<u64>();
            for r in planned(&plan).filter(|r| r.tenant == 2) {
                assert_eq!(r.service_us % step, 0, "kill at {kill_at_us} µs: {r:?}");
            }
        }
        assert!(rerouted > 0, "no kill stranded a request");
    }
}
