//! The dispatcher entry point: [`dispatch`] configures the
//! [serving kernel](fix_serve::kernel) for N node backends behind one
//! routing front-end, with first-class node failure.
//!
//! The kernel's virtual half routes every arrival at admission — the
//! request's thunk is minted first, on the dispatcher's own router
//! runtime, because the content-addressed handle *is* the routing key
//! ([`handle_key`](crate::handle_key)): the front-end knows the name of
//! the computation before any node does. (The price is that shedding a
//! request is no longer O(1) as in single-node serve; that cost is
//! confined to the router runtime and never touches a node.) Each node
//! owns its queues, its memoization mirror, and its driver clocks, so
//! per-node occupancy, attainment, and warm-hit counters come off the
//! same virtual clock that makes the single-node tables bit-identical.
//!
//! What this module adds is the real half's *placement*: each node
//! executes exactly the batches its virtual drivers served on its
//! **own** backend — a fresh `fixpoint::Runtime` per node
//! ([`NodeStorage::Memory`]) or one rooted in the node's own durable
//! directory ([`NodeStorage::Durable`]). A restart splits the node's
//! plan into *incarnation segments*: each segment opens the backend
//! anew, so a warm restart of a durable node literally reopens its log
//! and re-serves memoized work with zero procedures run.
//!
//! Node failure is part of the model, not an afterthought:
//! [`FaultPlan`] kills a node at a deterministic virtual instant
//! (in-flight virtual batches complete — the kill lands on a batch
//! boundary), drains its queued backlog, and re-routes it among the
//! survivors via the same policy; the later restart either reopens the
//! node's durable log warm ([`RestartKind::Warm`]) or clears its
//! memoization ([`RestartKind::Cold`]), which is exactly the
//! affinity-recovery difference `figures route` measures.

use fix_core::api::Evaluator;
use fix_core::error::{Error, Result};
use fix_durable::{DurableOptions, DurableStore, FsyncPolicy};
use fix_serve::kernel::{self, Segment, Tally};
use fix_serve::routing::RoutingPolicy;
use fix_serve::{Micros, RequestFactory, ServeConfig, ServeReport};
use fixpoint::Runtime;
use std::path::PathBuf;

pub use fix_serve::kernel::{FaultPlan, RestartKind};

/// Where each node keeps its state.
#[derive(Debug, Clone)]
pub enum NodeStorage {
    /// Every node incarnation starts empty (a restart is always cold).
    Memory,
    /// Node `i` owns the durable directory `<root>/node<i>` (append-only
    /// log, `FsyncPolicy::Always`); a restart reopens it.
    Durable(PathBuf),
}

/// Configuration of one multi-node dispatch run.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// The per-node serving shape: tenants, traffic, batch size, queue
    /// capacity, and `drivers` — which here means drivers *per node*.
    pub base: ServeConfig,
    /// Number of node backends.
    pub nodes: usize,
    /// The placement policy.
    pub policy: RoutingPolicy,
    /// Backlog excess (queued requests) the rendezvous target must show
    /// over the least-loaded node before an affinity decision spills.
    pub spill_margin: usize,
    /// Per-node state backing.
    pub storage: NodeStorage,
    /// Optional deterministic node failure.
    pub fault: Option<FaultPlan>,
}

impl DispatchConfig {
    /// The kernel shape of this configuration: the base serving shape
    /// per node, under this routing policy and fault plan.
    fn kernel_config(&self) -> kernel::Config {
        kernel::Config {
            nodes: self.nodes,
            policy: self.policy,
            spill_margin: self.spill_margin,
            fault: self.fault,
            ..kernel::Config::from(&self.base)
        }
    }

    /// Validates the configuration: [`kernel::Config::validate`] on the
    /// kernel shape, plus the one invariant only the dispatcher can see
    /// — a warm restart reopens a log, so it needs durable storage.
    pub fn validate(&self) -> std::result::Result<(), String> {
        self.kernel_config().validate()?;
        let warm = matches!(self.fault, Some(f) if f.restart == RestartKind::Warm);
        if warm && matches!(self.storage, NodeStorage::Memory) {
            return Err("a warm restart needs durable node storage".into());
        }
        Ok(())
    }
}

/// Execution stats of one node incarnation (plan segment).
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentExec {
    /// Procedures actually executed (memoization misses) during the
    /// segment.
    pub procedures_run: u64,
    /// Memoized relations replayed from the node's log when the
    /// segment opened (0 for memory nodes and first cold opens).
    pub replayed_relations: u64,
    /// Objects indexed from disk at open.
    pub replayed_nodes: u64,
}

/// Per-node real-execution stats, one entry per incarnation.
#[derive(Debug, Clone, Default)]
pub struct NodeExecStats {
    /// Segment stats in incarnation order (index 0 is the initial
    /// incarnation; a restarted node has one more).
    pub segments: Vec<SegmentExec>,
}

impl NodeExecStats {
    /// Total procedures executed by this node across incarnations.
    pub fn procedures_run(&self) -> u64 {
        self.segments.iter().map(|s| s.procedures_run).sum()
    }
}

/// The outcome of one dispatch run.
pub struct DispatchOutcome {
    /// The aggregate serve report, with [`ServeReport::nodes`]
    /// populated (the per-node table is part of the deterministic
    /// `Display` surface).
    pub report: ServeReport,
    /// Per-node real-execution stats (wall-clock half; not part of the
    /// deterministic tables).
    pub exec: Vec<NodeExecStats>,
    /// Virtual µs from the fault's restart instant to the restarted
    /// node's first warm placement — the recovery window a warm
    /// restart shrinks and a cold replacement stretches. `None` when
    /// there was no fault or the node never re-warmed.
    pub recovery_window_us: Option<Micros>,
}

impl DispatchOutcome {
    /// The deterministic `Display` table (what must be bit-identical
    /// across runs and across the failure boundary).
    pub fn table(&self) -> String {
        self.report.to_string()
    }

    /// Total procedures executed across all nodes and incarnations.
    pub fn procedures_run(&self) -> u64 {
        self.exec.iter().map(|e| e.procedures_run()).sum()
    }

    /// Warm-hit rate across all placements (the number affinity routing
    /// is supposed to win on).
    pub fn hit_rate(&self) -> f64 {
        let warm: u64 = self.report.nodes.iter().map(|n| n.warm_hits).sum();
        let cold: u64 = self.report.nodes.iter().map(|n| n.cold_misses).sum();
        if warm + cold == 0 {
            return 0.0;
        }
        warm as f64 / (warm + cold) as f64
    }

    /// The accounting-closure identities every dispatch run must
    /// satisfy, fault or not. Panics when violated.
    ///
    /// * per tenant: [`ServeReport::assert_accounting_closure`];
    /// * per run: every admitted request was routed exactly once
    ///   (`Σ routed == Σ admitted`), every placement was priced
    ///   (`Σ (warm + cold) == Σ (routed + rerouted_in)`), and every
    ///   routed request was eventually served or expired *somewhere*
    ///   (`Σ (served + expired) == Σ admitted`) — re-routing moves
    ///   work, it never loses or double-counts it.
    pub fn assert_accounting_closure(&self) {
        self.report.assert_accounting_closure();
        let admitted: u64 = self.report.tenants.iter().map(|t| t.admitted).sum();
        let nodes = &self.report.nodes;
        let routed: u64 = nodes.iter().map(|n| n.routed).sum();
        assert_eq!(routed, admitted, "every admitted request is routed");
        let placements: u64 = nodes.iter().map(|n| n.routed + n.rerouted_in).sum();
        let priced: u64 = nodes.iter().map(|n| n.warm_hits + n.cold_misses).sum();
        assert_eq!(priced, placements, "every placement is priced warm or cold");
        let settled: u64 = nodes.iter().map(|n| n.served + n.expired).sum();
        assert_eq!(
            settled, admitted,
            "every admitted request is served or expired on some node"
        );
    }
}

/// Executes all of one node's incarnation segments in order, opening
/// the node's backend anew for each (which is what makes a durable
/// node's restart a real log reopen) and re-minting the planned thunks
/// there.
fn run_node(
    node: usize,
    segments: &[Segment],
    cfg: &DispatchConfig,
) -> Result<(Tally, NodeExecStats)> {
    let base = &cfg.base;
    let n_tenants = base.tenants.len();
    let mut tally = Tally::new(n_tenants);
    let mut stats = NodeExecStats::default();
    // A cold restart is a *replacement* node: later incarnations open a
    // fresh directory instead of the original log, so the real
    // execution matches the virtual model's cleared memoization.
    let cold_replacement = matches!(
        cfg.fault,
        Some(f) if f.node == node && f.restart == RestartKind::Cold
    );
    for (si, segment) in segments.iter().enumerate() {
        let builder = Runtime::builder();
        let (rt, at_open) = match &cfg.storage {
            NodeStorage::Memory => (builder.build(), Default::default()),
            NodeStorage::Durable(root) => {
                let dir = if cold_replacement && si > 0 {
                    root.join(format!("node{node}.r{si}"))
                } else {
                    root.join(format!("node{node}"))
                };
                let options = DurableOptions {
                    fsync: FsyncPolicy::Always,
                };
                let store = DurableStore::open(&dir, options)?;
                let at_open = store.stats();
                (builder.durable(store).build(), at_open)
            }
        };
        let factory = RequestFactory::install(&rt, &base.tenants, base.seed)?;
        let executed = kernel::execute(&rt, segment, base.inflight, n_tenants, Some(&factory))?;
        tally.absorb(&executed);
        if let Some(durable) = rt.durable() {
            durable.flush()?;
        }
        stats.segments.push(SegmentExec {
            procedures_run: rt.procedures_run(),
            replayed_relations: at_open.replayed_relations,
            replayed_nodes: at_open.replayed_nodes,
        });
    }
    Ok((tally, stats))
}

/// Runs the serving kernel across `cfg.nodes` nodes: plan on the
/// dispatcher's own router runtime (routing every arrival and applying
/// the fault plan, if any), then execute every node's planned batches
/// on its own real backend — nodes in parallel, drivers within a node
/// in parallel, a node's incarnation segments in order.
pub fn dispatch(cfg: &DispatchConfig) -> Result<DispatchOutcome> {
    cfg.validate().map_err(|message| Error::Backend {
        backend: "dispatch",
        message,
    })?;
    let plan = kernel::plan(&Runtime::builder().build(), &cfg.kernel_config())?;
    let exec_start = std::time::Instant::now();
    let results: Vec<Result<(Tally, NodeExecStats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .nodes
            .iter()
            .enumerate()
            .map(|(n, segments)| scope.spawn(move || run_node(n, segments, cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread must not panic"))
            .collect()
    });
    let execution_wall = exec_start.elapsed();
    let mut totals = Tally::new(cfg.base.tenants.len());
    let mut exec = Vec::with_capacity(cfg.nodes);
    for r in results {
        let (tally, stats) = r?;
        totals.absorb(&tally);
        exec.push(stats);
    }
    Ok(DispatchOutcome {
        recovery_window_us: plan.recovery_window_us,
        report: plan.into_report(totals, execution_wall),
        exec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_serve::{ArrivalProcess, RequestKind, TenantSpec};
    use std::path::Path;

    /// A repeat-heavy two-tenant workload: fib cycles 6 distinct
    /// thunks, the SeBS renders cycle 3 users — exactly the traffic
    /// shape where placement decides the memoization hit rate.
    fn base_cfg(seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            duration_us: 60_000,
            drivers: 1, // per node
            batch: 8,
            queue_capacity: 64,
            batch_overhead_us: 5,
            inflight: 2,
            tenants: vec![
                TenantSpec::uniform_mix(
                    "fib",
                    2,
                    ArrivalProcess::Poisson { rate_rps: 2500.0 },
                    RequestKind::Fib { max_n: 6 },
                ),
                TenantSpec::uniform_mix(
                    "renders",
                    1,
                    ArrivalProcess::Uniform { period_us: 500 },
                    RequestKind::SebsHtml { users: 3 },
                ),
            ],
        }
    }

    fn cfg(seed: u64, nodes: usize, policy: RoutingPolicy) -> DispatchConfig {
        DispatchConfig {
            base: base_cfg(seed),
            nodes,
            policy,
            spill_margin: 16,
            storage: NodeStorage::Memory,
            fault: None,
        }
    }

    fn fault_cfg(root: &Path, restart: RestartKind) -> DispatchConfig {
        let mut base = base_cfg(17);
        // A burst landing 100 µs before the kill guarantees the dead
        // node has queued work to strand (single driver per node, cold
        // wordcount service ≫ 100 µs).
        base.tenants.push(TenantSpec::uniform_mix(
            "bursty",
            1,
            ArrivalProcess::Bursts {
                period_us: 19_900,
                burst: 48,
            },
            RequestKind::Wordcount { shard_bytes: 4096 },
        ));
        DispatchConfig {
            base,
            nodes: 3,
            policy: RoutingPolicy::Affinity,
            spill_margin: 16,
            storage: NodeStorage::Durable(root.to_path_buf()),
            fault: Some(FaultPlan {
                node: 1,
                kill_at_us: 20_000,
                restart_at_us: 30_000,
                restart,
            }),
        }
    }

    #[test]
    fn same_seed_same_tables_across_policies() {
        for policy in [
            RoutingPolicy::Affinity,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Random,
        ] {
            let a = dispatch(&cfg(11, 4, policy)).unwrap();
            let b = dispatch(&cfg(11, 4, policy)).unwrap();
            assert_eq!(a.table(), b.table(), "{policy:?} must be deterministic");
            a.assert_accounting_closure();
            let c = dispatch(&cfg(12, 4, policy)).unwrap();
            assert_ne!(a.table(), c.table(), "a different seed must shift traffic");
        }
    }

    /// The tentpole acceptance pin: under the same seed, affinity
    /// routing concentrates repeats so each distinct thunk goes cold on
    /// exactly one node, while random / round-robin pay the cold cost
    /// on (up to) every node.
    #[test]
    fn affinity_strictly_beats_random_and_round_robin() {
        let affinity = dispatch(&cfg(29, 4, RoutingPolicy::Affinity)).unwrap();
        let random = dispatch(&cfg(29, 4, RoutingPolicy::Random)).unwrap();
        let rr = dispatch(&cfg(29, 4, RoutingPolicy::RoundRobin)).unwrap();
        for o in [&affinity, &random, &rr] {
            o.assert_accounting_closure();
        }
        assert!(
            affinity.hit_rate() > random.hit_rate(),
            "affinity {:.3} must beat random {:.3}",
            affinity.hit_rate(),
            random.hit_rate()
        );
        assert!(
            affinity.hit_rate() > rr.hit_rate(),
            "affinity {:.3} must beat round-robin {:.3}",
            affinity.hit_rate(),
            rr.hit_rate()
        );
    }

    #[test]
    fn single_node_dispatch_degenerates_cleanly() {
        let o = dispatch(&cfg(5, 1, RoutingPolicy::Affinity)).unwrap();
        o.assert_accounting_closure();
        assert_eq!(o.report.nodes.len(), 1);
        assert_eq!(o.report.nodes[0].spilled_away, 0, "nowhere to spill to");
    }

    #[test]
    fn kill_reroute_and_warm_restart_close_accounting_bit_identically() {
        let dir_a = tempfile::tempdir().unwrap();
        let a = dispatch(&fault_cfg(dir_a.path(), RestartKind::Warm)).unwrap();
        a.assert_accounting_closure();
        let killed = &a.report.nodes[1];
        assert_eq!((killed.kills, killed.restarts), (1, 1));
        let rerouted: u64 = a.report.nodes.iter().map(|n| n.rerouted_in).sum();
        assert!(rerouted > 0, "the kill must strand queued work");
        assert_eq!(
            a.report.nodes[0].rerouted_in + a.report.nodes[2].rerouted_in,
            rerouted,
            "failover lands only on survivors"
        );
        assert_eq!(
            a.exec[1].segments.len(),
            2,
            "restart opens a new incarnation"
        );
        assert!(
            a.exec[1].segments[1].replayed_relations > 0,
            "the warm restart replays the node's own log"
        );

        // Same config, fresh directories: bit-identical tables across
        // the failure boundary.
        let dir_b = tempfile::tempdir().unwrap();
        let b = dispatch(&fault_cfg(dir_b.path(), RestartKind::Warm)).unwrap();
        assert_eq!(a.table(), b.table());

        // Same config, same directories: every relation is already
        // logged, so the whole re-run replays with zero procedures.
        let c = dispatch(&fault_cfg(dir_a.path(), RestartKind::Warm)).unwrap();
        assert_eq!(a.table(), c.table());
        assert_eq!(c.procedures_run(), 0, "a warm re-serve replays everything");
        assert!(a.procedures_run() > 0, "the first pass really executed");
    }

    #[test]
    fn warm_restart_rewarms_faster_than_a_cold_replacement() {
        let warm_dir = tempfile::tempdir().unwrap();
        let cold_dir = tempfile::tempdir().unwrap();
        let warm = dispatch(&fault_cfg(warm_dir.path(), RestartKind::Warm)).unwrap();
        let cold = dispatch(&fault_cfg(cold_dir.path(), RestartKind::Cold)).unwrap();
        warm.assert_accounting_closure();
        cold.assert_accounting_closure();
        let w = warm.recovery_window_us.expect("warm node re-warms");
        let c = cold
            .recovery_window_us
            .expect("cold node re-warms eventually");
        assert!(
            w < c,
            "warm restart must re-warm sooner ({w} µs) than a cold replacement ({c} µs)"
        );
    }

    /// Failover under deadlines. A 200-request burst at t=0 is half
    /// served when a 60-request burst lands at t=200 and node 0 dies:
    /// its first-burst leftovers (deadline 500) re-queue onto a survivor
    /// already holding second-burst requests (deadline 700), and the
    /// survivor works down to them at about t=550 — past their
    /// deadline, while its own front is still live. Re-queued in
    /// deadline order they are served in time or expired; appended at
    /// the back, the first few ride into a batch behind a live front
    /// and are served late.
    #[test]
    fn failover_never_serves_a_request_past_its_deadline() {
        use fix_serve::SloClass;
        let deadline_us = 500;
        let mut arrivals = vec![0; 200];
        arrivals.extend([200; 60]);
        let c = DispatchConfig {
            base: ServeConfig {
                seed: 23,
                duration_us: 1_000,
                drivers: 1,
                batch: 4,
                queue_capacity: 512,
                batch_overhead_us: 5,
                inflight: 2,
                tenants: vec![TenantSpec::uniform_mix(
                    "spiky",
                    1,
                    ArrivalProcess::Trace(arrivals),
                    RequestKind::Add,
                )
                .with_slo(SloClass::latency(deadline_us))],
            },
            nodes: 2,
            policy: RoutingPolicy::Affinity,
            spill_margin: 512, // Never spill: keep both queues deep.
            storage: NodeStorage::Memory,
            fault: Some(FaultPlan {
                node: 0,
                kill_at_us: 201,
                restart_at_us: 900,
                restart: RestartKind::Cold,
            }),
        };
        let o = dispatch(&c).unwrap();
        o.assert_accounting_closure();
        let t = &o.report.tenants[0];
        assert!(o.report.nodes[1].rerouted_in > 0, "the kill strands work");
        assert!(
            t.queue_wait.max() <= deadline_us,
            "a request dispatched {} µs after arrival outlived its {deadline_us} µs deadline",
            t.queue_wait.max()
        );
    }

    #[test]
    fn validation_rejects_degenerate_setups() {
        let mut c = cfg(1, 0, RoutingPolicy::Affinity);
        assert!(dispatch(&c).is_err());
        c = cfg(1, 2, RoutingPolicy::Affinity);
        c.spill_margin = 0;
        assert!(dispatch(&c).is_err());
        // A fault needs a survivor.
        c = cfg(1, 1, RoutingPolicy::Affinity);
        c.fault = Some(FaultPlan {
            node: 0,
            kill_at_us: 10,
            restart_at_us: 20,
            restart: RestartKind::Cold,
        });
        assert!(dispatch(&c).is_err());
        // Warm restarts need durable storage.
        c = cfg(1, 2, RoutingPolicy::Affinity);
        c.fault = Some(FaultPlan {
            node: 0,
            kill_at_us: 10,
            restart_at_us: 20,
            restart: RestartKind::Warm,
        });
        assert!(dispatch(&c).is_err());
        // Restart must follow the kill.
        c = cfg(1, 2, RoutingPolicy::Affinity);
        c.fault = Some(FaultPlan {
            node: 0,
            kill_at_us: 20,
            restart_at_us: 20,
            restart: RestartKind::Cold,
        });
        assert!(dispatch(&c).is_err());
    }
}
