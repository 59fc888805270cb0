//! The plain serving entry point and the report types every serving
//! tier shares.
//!
//! [`serve`] configures the [serving kernel](crate::kernel) for the
//! static single-backend case: open-loop tenants, one node, a fixed
//! pool of [`ServeConfig::drivers`], capacity-only admission, no
//! faults. The kernel module documents the two-halves engine — a
//! deterministic virtual-time plan, then a real driver-thread pool
//! executing exactly the planned batches — and why that split makes the
//! tables below bit-identical across runs and backends while every
//! result still comes from a real evaluation.

use crate::kernel;
use crate::loadgen::Micros;
use crate::telemetry::LatencyHistogram;
use crate::tenant::TenantSpec;
use fix_core::api::{InvocationApi, SubmitApi};
use fix_core::error::Result;

/// Configuration of one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Run seed; every random choice (arrivals, mixes, corpora) derives
    /// from it.
    pub seed: u64,
    /// Open-loop generation horizon, in virtual µs.
    pub duration_us: Micros,
    /// Driver pool size: virtual servers in the simulation, real OS
    /// threads in the execution phase.
    pub drivers: usize,
    /// Maximum requests per `eval_many` batch.
    pub batch: usize,
    /// Per-tenant queue bound; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Fixed per-batch dispatch overhead, in virtual µs (the one
    /// scheduler-lock round the batch amortizes).
    pub batch_overhead_us: Micros,
    /// In-flight submission window per driver thread in the real
    /// execution phase: how many batches a driver keeps submitted
    /// before it must wait for the oldest. `1` is the blocking driver
    /// pool (submit, wait, repeat); larger windows pipeline — batch
    /// *k+1* is submitted while *k* executes. Affects only wall-clock
    /// execution ([`ServeReport::execution_wall`]); the virtual-time
    /// tables are identical for every window.
    pub inflight: usize,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

impl ServeConfig {
    /// Validates structural invariants (positive pool, batch, horizon,
    /// at least one tenant): exactly [`kernel::Config::validate`] on
    /// the kernel shape this configuration translates to.
    pub fn validate(&self) -> std::result::Result<(), String> {
        kernel::Config::from(self).validate()
    }
}

/// Per-tenant serving outcome.
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// The tenant's SLO class label (priority tier) for the table.
    pub class: &'static str,
    /// Arrivals generated for this tenant.
    pub offered: u64,
    /// Arrivals admitted past the bounded queue.
    pub admitted: u64,
    /// Arrivals shed at admission.
    pub dropped: u64,
    /// Arrivals refused by an admission *controller* (priced to expire
    /// before they could dispatch — see
    /// [`AdmissionPolicy`](crate::controller::AdmissionPolicy)), accounted
    /// separately from capacity sheds: a `dropped` arrival found no
    /// queue space, a `rejected` one was refused on policy. Plain
    /// [`serve`] runs have no controller, so this column is zero there.
    pub rejected: u64,
    /// Requests that completed real evaluation successfully.
    pub ok: u64,
    /// Requests whose real evaluation returned an error.
    pub errors: u64,
    /// Admitted requests expired instead of served: their SLO deadline
    /// passed on the virtual clock while they queued, and dispatch
    /// withdrew them before submission rather than burning a driver on
    /// dead work. Accounted separately from `dropped` (shed at
    /// admission).
    pub expired: u64,
    /// Always 0: the kernel waits on every ticket it submits, so no
    /// admitted request is cancelled. Kept because `fixbench` and the
    /// serve tables read it.
    pub cancelled: u64,
    /// Virtual queueing + service latency of admitted requests.
    pub latency: LatencyHistogram,
    /// Queue-wait component of each served request's latency (admission
    /// to dispatch), in virtual µs.
    pub queue_wait: LatencyHistogram,
    /// Own-service component (the request's modeled service time).
    pub service: LatencyHistogram,
    /// Batch-fill component: everything else — the fixed per-batch
    /// dispatch overhead plus the co-batched requests' service the
    /// request waits out. For every sample,
    /// `latency = queue_wait + service + fill` exactly.
    pub fill: LatencyHistogram,
}

impl TenantReport {
    /// SLO attainment: the fraction of *offered* requests served to a
    /// successful completion. Capacity sheds, admission rejections,
    /// queue expiries, cancellations, and evaluation errors all count
    /// against it — attainment measures what the platform delivered,
    /// not what it excused.
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.ok as f64 / self.offered as f64
    }
}

/// One driver-pool resize in an adaptive run's deterministic scaling
/// timeline: at virtual instant `at_us` the controller moved the active
/// driver count `from → to`. Plain [`serve`] runs (fixed pool) carry an
/// empty timeline; [`adaptive_serve`](crate::adaptive_serve) populates
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Virtual instant of the resize decision, µs.
    pub at_us: Micros,
    /// Active drivers before the resize.
    pub from: usize,
    /// Active drivers after the resize.
    pub to: usize,
}

/// Per-driver serving outcome.
pub struct DriverReport {
    /// Batches this driver served.
    pub batches: u64,
    /// Requests this driver served.
    pub requests: u64,
    /// Virtual µs spent serving (vs. idle).
    pub busy_us: Micros,
    /// Virtual latency recorded by this driver alone (merging these
    /// across drivers equals the union of tenant histograms).
    pub latency: LatencyHistogram,
}

/// Per-node serving outcome for multi-node (dispatcher) runs.
///
/// Populated by [`dispatch`](crate::dispatch()); a single-backend
/// [`serve`] run leaves [`ServeReport::nodes`] empty. Every field is
/// derived from the virtual clock, so the node table is part of the
/// deterministic (bit-identical) report surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeReport {
    /// Requests routed to this node (admitted onto its queues).
    pub routed: u64,
    /// Requests this node served to completion.
    pub served: u64,
    /// Admitted requests that expired on this node's queues.
    pub expired: u64,
    /// Placements (admissions + failover re-routes) that found their
    /// thunk already memoized on this node, so
    /// `warm_hits + cold_misses == routed + rerouted_in`.
    pub warm_hits: u64,
    /// Placements this node had to price as cold evaluations.
    pub cold_misses: u64,
    /// Requests whose rendezvous target was this node but which the
    /// load-based spill diverted elsewhere.
    pub spilled_away: u64,
    /// Requests re-queued onto this node after another node was killed.
    pub rerouted_in: u64,
    /// Virtual µs this node's drivers spent serving.
    pub busy_us: Micros,
    /// Times this node was killed during the run.
    pub kills: u32,
    /// Times this node was restarted during the run.
    pub restarts: u32,
}

impl NodeReport {
    /// Warm-memoization hit rate among served requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.cold_misses;
        if total == 0 {
            return 0.0;
        }
        self.warm_hits as f64 / total as f64
    }

    /// SLO attainment on this node: served fraction of routed work
    /// (the complement expired on its queues).
    pub fn attainment(&self) -> f64 {
        if self.routed == 0 {
            return 0.0;
        }
        self.served as f64 / self.routed as f64
    }
}

/// The outcome of one serve run.
pub struct ServeReport {
    /// Per-tenant rows, in configuration order.
    pub tenants: Vec<TenantReport>,
    /// Per-driver rows.
    pub drivers: Vec<DriverReport>,
    /// Per-node rows for multi-node (dispatcher) runs; empty for a
    /// single-backend [`serve`] run.
    pub nodes: Vec<NodeReport>,
    /// The deterministic driver-pool scaling timeline, in virtual-time
    /// order. Empty for fixed-pool [`serve`] runs; an adaptive run
    /// ([`adaptive_serve`](crate::adaptive_serve)) records every
    /// controller resize here, and the timeline prints with the table —
    /// it is part of the bit-identical report surface.
    pub scaling: Vec<ScaleEvent>,
    /// Virtual end-to-end makespan (origin to last completion).
    pub makespan_us: Micros,
    /// Requests that completed (ok + errors, real evaluations).
    pub completed: u64,
    /// Wall-clock duration of the real execution phase (the driver
    /// threads draining their plans through `submit_many`/`wait`).
    /// Machine-dependent by nature, so it is *not* part of the
    /// deterministic [`Display`](std::fmt::Display) table — it exists
    /// for the pipelined-vs-blocking throughput comparison the
    /// `serve_throughput` bench reports.
    pub execution_wall: std::time::Duration,
}

impl ServeReport {
    /// Served request throughput over the virtual makespan, in
    /// requests/second.
    fn throughput_rps(&self) -> f64 {
        if self.makespan_us == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e6 / self.makespan_us as f64
    }

    /// Real-execution throughput in requests/second of wall-clock time
    /// (see [`execution_wall`](Self::execution_wall)); this is the
    /// number the in-flight window moves.
    pub fn wall_rps(&self) -> f64 {
        let secs = self.execution_wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Union latency across all tenants (equivalently: across all
    /// drivers — the merge-equality the telemetry tests pin down).
    fn total_latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for d in &self.drivers {
            h.merge(&d.latency);
        }
        h
    }

    /// Total arrivals shed across tenants.
    pub fn total_dropped(&self) -> u64 {
        self.tenants.iter().map(|t| t.dropped).sum()
    }

    /// Total arrivals refused by an admission controller.
    pub fn total_rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }

    /// Total admitted requests expired (deadline passed in queue).
    pub fn total_expired(&self) -> u64 {
        self.tenants.iter().map(|t| t.expired).sum()
    }

    /// Run-wide SLO attainment: successfully served fraction of all
    /// offered arrivals (see [`TenantReport::attainment`]).
    pub fn attainment(&self) -> f64 {
        let offered: u64 = self.tenants.iter().map(|t| t.offered).sum();
        if offered == 0 {
            return 0.0;
        }
        let ok: u64 = self.tenants.iter().map(|t| t.ok).sum();
        ok as f64 / offered as f64
    }

    /// Total admitted requests cancelled mid-flight.
    pub fn total_cancelled(&self) -> u64 {
        self.tenants.iter().map(|t| t.cancelled).sum()
    }

    /// The accounting-closure identities every serving run must
    /// satisfy, on every tier: per tenant, every offered arrival was
    /// admitted, shed, or rejected (`offered == admitted + dropped +
    /// rejected`), and every admitted request ended exactly one way
    /// (`admitted == ok + errors + expired + cancelled`). Panics when
    /// violated.
    pub fn assert_accounting_closure(&self) {
        for t in &self.tenants {
            assert_eq!(
                t.offered,
                t.admitted + t.dropped + t.rejected,
                "tenant '{}': offered != admitted + dropped + rejected",
                t.name
            );
            assert_eq!(
                t.admitted,
                t.ok + t.errors + t.expired + t.cancelled,
                "tenant '{}': admitted != ok + errors + expired + cancelled",
                t.name
            );
        }
    }

    /// The deterministic latency decomposition table: per tenant, how
    /// much of the end-to-end latency was queue wait, own service, and
    /// batch fill (dispatch overhead + co-batched service). All virtual
    /// µs, so the table is bit-identical across runs and backends for
    /// the same seed.
    pub fn decomposition_table(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "latency decomposition (virtual µs)");
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "tenant",
            "served",
            "wait p50",
            "wait p99",
            "svc p50",
            "svc p99",
            "fill p50",
            "fill p99"
        );
        for t in &self.tenants {
            let _ = writeln!(
                s,
                "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                t.name,
                t.queue_wait.count(),
                t.queue_wait.quantile(0.50),
                t.queue_wait.quantile(0.99),
                t.service.quantile(0.50),
                t.service.quantile(0.99),
                t.fill.quantile(0.50),
                t.fill.quantile(0.99),
            );
        }
        s
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total_latency();
        let (p50, p90, p99, p999) = total.tail_summary();
        writeln!(
            f,
            "served {} requests in {:.3} s virtual ({:.0} req/s), {} dropped, {} rejected, {} expired, {} cancelled",
            self.completed,
            self.makespan_us as f64 / 1e6,
            self.throughput_rps(),
            self.total_dropped(),
            self.total_rejected(),
            self.total_expired(),
            self.total_cancelled(),
        )?;
        writeln!(
            f,
            "latency µs: p50 {p50}  p90 {p90}  p99 {p99}  p999 {p999}  max {}",
            total.max()
        )?;
        writeln!(
            f,
            "{:<12} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>7} {:>6} {:>8} {:>8} {:>8} {:>8}",
            "tenant",
            "class",
            "offered",
            "admitted",
            "dropped",
            "rejectd",
            "ok",
            "err",
            "expired",
            "cancl",
            "p50",
            "p99",
            "p999",
            "mean"
        )?;
        for t in &self.tenants {
            let (tp50, _, tp99, tp999) = t.latency.tail_summary();
            writeln!(
                f,
                "{:<12} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>7} {:>6} {:>8} {:>8} {:>8} {:>8.0}",
                t.name,
                t.class,
                t.offered,
                t.admitted,
                t.dropped,
                t.rejected,
                t.ok,
                t.errors,
                t.expired,
                t.cancelled,
                tp50,
                tp99,
                tp999,
                t.latency.mean(),
            )?;
        }
        for s in &self.scaling {
            writeln!(
                f,
                "scale @{:>9} µs: {} -> {} drivers",
                s.at_us, s.from, s.to
            )?;
        }
        for (i, d) in self.drivers.iter().enumerate() {
            writeln!(
                f,
                "driver {i}: {} batches, {} requests, occupancy {:.0}%",
                d.batches,
                d.requests,
                if self.makespan_us == 0 {
                    0.0
                } else {
                    d.busy_us as f64 * 100.0 / self.makespan_us as f64
                },
            )?;
        }
        if !self.nodes.is_empty() {
            writeln!(
                f,
                "{:<6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>7} {:>7} {:>6} {:>7} {:>6} {:>6}",
                "node",
                "routed",
                "served",
                "expired",
                "warm",
                "cold",
                "hit%",
                "attain%",
                "occ%",
                "spill",
                "kills",
                "rstrt"
            )?;
            for (i, n) in self.nodes.iter().enumerate() {
                writeln!(
                    f,
                    "n{i:<5} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6.1}% {:>6.1}% {:>5.0}% {:>7} {:>6} {:>6}",
                    n.routed,
                    n.served,
                    n.expired,
                    n.warm_hits,
                    n.cold_misses,
                    n.hit_rate() * 100.0,
                    n.attainment() * 100.0,
                    if self.makespan_us == 0 {
                        0.0
                    } else {
                        n.busy_us as f64 * 100.0 / self.makespan_us as f64
                    },
                    n.spilled_away,
                    n.kills,
                    n.restarts,
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the full serve pipeline against `rt`: generate traffic, admit
/// and schedule it in virtual time, then execute the planned batches on
/// a real driver-thread pool through the submission API (each driver
/// keeps up to [`ServeConfig::inflight`] batches in flight).
///
/// Every One-Fix-API backend implements [`SubmitApi`] —
/// `fixpoint::Runtime` and `fix_cluster::ClusterClient` (under any
/// profile) are passed here bare. A malformed configuration is refused by the kernel
/// ([`kernel::Config::validate`]) before anything runs.
///
/// # Examples
///
/// ```
/// use fix_serve::{ArrivalProcess, RequestKind, ServeConfig, TenantSpec};
///
/// let cfg = ServeConfig {
///     seed: 7,
///     duration_us: 50_000,
///     drivers: 2,
///     batch: 8,
///     queue_capacity: 64,
///     batch_overhead_us: 5,
///     inflight: 2,
///     tenants: vec![TenantSpec::uniform_mix(
///         "t0",
///         1,
///         ArrivalProcess::Uniform { period_us: 500 },
///         RequestKind::Add,
///     )],
/// };
/// let rt = fixpoint::Runtime::builder().build();
/// let report = fix_serve::serve(&rt, &cfg).unwrap();
/// assert_eq!(report.completed, 100);
/// assert_eq!(report.total_dropped(), 0);
/// ```
pub fn serve<A: SubmitApi + InvocationApi + Send + Sync>(
    rt: &A,
    cfg: &ServeConfig,
) -> Result<ServeReport> {
    kernel::run(rt, &kernel::Config::from(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::ArrivalProcess;
    use crate::tenant::RequestKind;
    use fixpoint::Runtime;

    fn two_tenant_cfg(seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            duration_us: 100_000,
            drivers: 3,
            batch: 16,
            queue_capacity: 32,
            batch_overhead_us: 5,
            inflight: 2,
            tenants: vec![
                TenantSpec {
                    name: "poisson".into(),
                    weight: 2,
                    arrivals: ArrivalProcess::Poisson { rate_rps: 3000.0 },
                    mix: vec![(RequestKind::Add, 3), (RequestKind::Fib { max_n: 8 }, 1)],
                    slo: crate::tenant::SloClass::default(),
                },
                TenantSpec::uniform_mix(
                    "bursty",
                    1,
                    ArrivalProcess::Bursts {
                        period_us: 20_000,
                        burst: 64,
                    },
                    RequestKind::Add,
                ),
            ],
        }
    }

    #[test]
    fn serve_accounts_for_every_arrival() {
        let rt = Runtime::builder().build();
        let report = serve(&rt, &two_tenant_cfg(11)).unwrap();
        report.assert_accounting_closure();
        for t in &report.tenants {
            assert_eq!(t.admitted, t.ok, "tenant {}", t.name);
            assert_eq!(t.admitted, t.latency.count(), "tenant {}", t.name);
        }
        assert!(report.completed > 0);
        assert!(report.makespan_us > 0);
        // Driver-side and tenant-side accounting agree.
        let driver_reqs: u64 = report.drivers.iter().map(|d| d.requests).sum();
        assert_eq!(driver_reqs, report.completed);
        let mut tenant_union = LatencyHistogram::new();
        for t in &report.tenants {
            tenant_union.merge(&t.latency);
        }
        assert_eq!(
            tenant_union.tail_summary(),
            report.total_latency().tail_summary(),
            "per-driver merge must equal per-tenant merge"
        );
    }

    #[test]
    fn same_seed_same_tables() {
        let report_a = serve(&Runtime::builder().build(), &two_tenant_cfg(5)).unwrap();
        let report_b = serve(&Runtime::builder().build(), &two_tenant_cfg(5)).unwrap();
        assert_eq!(report_a.to_string(), report_b.to_string());
        let report_c = serve(&Runtime::builder().build(), &two_tenant_cfg(6)).unwrap();
        assert_ne!(
            report_a.to_string(),
            report_c.to_string(),
            "a different seed must shift the traffic"
        );
    }

    #[test]
    fn overload_sheds_deterministically() {
        // One driver, tiny queue, heavy bursts: shedding is guaranteed.
        let cfg = ServeConfig {
            seed: 3,
            duration_us: 50_000,
            drivers: 1,
            batch: 4,
            queue_capacity: 8,
            batch_overhead_us: 10,
            inflight: 1,
            tenants: vec![TenantSpec::uniform_mix(
                "flood",
                1,
                ArrivalProcess::Bursts {
                    period_us: 10_000,
                    burst: 200,
                },
                RequestKind::SebsHtml { users: 2 },
            )],
        };
        let rt = Runtime::builder().build();
        let report = serve(&rt, &cfg).unwrap();
        assert!(report.total_dropped() > 0, "overload must shed");
        let again = serve(&Runtime::builder().build(), &cfg).unwrap();
        assert_eq!(report.total_dropped(), again.total_dropped());
        assert_eq!(report.to_string(), again.to_string());
    }

    #[test]
    fn config_validation_rejects_degenerate_setups() {
        let with = |edit: &dyn Fn(&mut ServeConfig)| {
            let mut cfg = two_tenant_cfg(1);
            edit(&mut cfg);
            cfg
        };
        let arrivals = |a: ArrivalProcess| with(&move |c| c.tenants[0].arrivals = a.clone());
        let flash = |base_rps, spike_rps| ArrivalProcess::FlashCrowd {
            base_rps,
            spike_at_us: 10_000,
            spike_len_us: 10_000,
            spike_rps,
        };
        let degenerate = [
            with(&|c| c.drivers = 0),
            with(&|c| c.tenants.clear()),
            with(&|c| c.tenants[0].mix.clear()),
            with(&|c| c.tenants[0].mix = vec![(RequestKind::Add, 0)]),
            with(&|c| c.inflight = 0),
            arrivals(ArrivalProcess::Poisson { rate_rps: 0.0 }),
            arrivals(ArrivalProcess::Poisson { rate_rps: f64::NAN }),
            arrivals(ArrivalProcess::Uniform { period_us: 0 }),
            arrivals(ArrivalProcess::Bursts {
                period_us: 0,
                burst: 4,
            }),
            arrivals(flash(0.0, 1_000.0)),
            arrivals(flash(1_000.0, f64::NAN)),
        ];
        let rt = Runtime::builder().build();
        // Every entry point delegates to the kernel's check.
        for cfg in &degenerate {
            assert!(kernel::Config::from(cfg).validate().is_err(), "{cfg:?}");
            assert!(serve(&rt, cfg).is_err(), "{cfg:?}");
            let adapt = crate::AdaptConfig {
                seed: cfg.seed,
                duration_us: cfg.duration_us,
                batch: cfg.batch,
                queue_capacity: cfg.queue_capacity,
                batch_overhead_us: cfg.batch_overhead_us,
                inflight: cfg.inflight,
                admission: None,
                scaler: crate::ScalerConfig::fixed(cfg.drivers),
                tenants: cfg
                    .tenants
                    .iter()
                    .cloned()
                    .map(crate::Tenant::Open)
                    .collect(),
            };
            assert!(crate::adaptive_serve(&rt, &adapt).is_err(), "{cfg:?}");
            let dispatch = crate::DispatchConfig {
                base: cfg.clone(),
                nodes: 1,
                policy: crate::RoutingPolicy::Affinity,
                spill_margin: 1,
                storage: crate::NodeStorage::Memory,
                fault: None,
            };
            assert!(crate::dispatch(&dispatch).is_err(), "{cfg:?}");
        }
    }

    /// The in-flight window changes only wall-clock execution, never
    /// the deterministic tables or the per-tenant accounting.
    #[test]
    fn pipelined_execution_matches_blocking() {
        let blocking = ServeConfig {
            inflight: 1,
            ..two_tenant_cfg(21)
        };
        let pipelined = ServeConfig {
            inflight: 4,
            ..two_tenant_cfg(21)
        };
        let a = serve(&Runtime::builder().build(), &blocking).unwrap();
        let b = serve(&Runtime::builder().build(), &pipelined).unwrap();
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "the window must not perturb the virtual tables"
        );
        assert!(a.execution_wall > std::time::Duration::ZERO);
        assert!(b.execution_wall > std::time::Duration::ZERO);
        assert!(b.wall_rps() > 0.0);
    }

    /// The cluster client is served bare — it submits through its
    /// embedded node's scheduler — and is indistinguishable from a
    /// `Runtime` in everything but its simulated-run telemetry, for a
    /// blocking window and a pipelined one, under Fixpoint's profile
    /// and under a comparator's (OpenWhisk).
    #[test]
    fn runs_identically_on_the_cluster_backend() {
        use fix_core::api::Evaluator;
        let workers: Vec<fix_netsim::NodeId> = (0..10).map(fix_netsim::NodeId).collect();
        let openwhisk =
            fix_baselines::profiles::openwhisk(&workers, &fix_baselines::CostModel::default());
        for inflight in [1, 4] {
            let cfg = ServeConfig {
                duration_us: 30_000,
                inflight,
                ..two_tenant_cfg(9)
            };
            let rt = Runtime::builder().build();
            let rt_report = serve(&rt, &cfg).unwrap();
            let clients = [
                fix_cluster::ClusterClient::builder().build().unwrap(),
                fix_cluster::ClusterClient::builder()
                    .profile(openwhisk.clone())
                    .build()
                    .unwrap(),
            ];
            for cc in &clients {
                let cc_report = serve(cc, &cfg).unwrap();
                // The virtual-time telemetry is backend-independent; so
                // are the (content-addressed) evaluation outcomes and
                // the work it took to produce them.
                assert_eq!(rt_report.to_string(), cc_report.to_string());
                assert_eq!(rt.procedures_run(), cc.procedures_run());
                assert!(!cc.reports().is_empty(), "real cluster runs were recorded");
                assert_eq!(cc.inner().submission_watchers(), 0);
                assert_eq!(cc.inner().queued_jobs(), 0);
            }
        }
    }

    /// Two-level SLO dispatch: the latency tier preempts the batch
    /// tier, deterministically, and the accounting identity extends to
    /// the new expired/cancelled columns.
    #[test]
    fn slo_tiers_are_deterministic_and_ordered() {
        use crate::tenant::SloClass;
        let cfg = ServeConfig {
            seed: 33,
            duration_us: 120_000,
            drivers: 2,
            batch: 16,
            queue_capacity: 128,
            batch_overhead_us: 5,
            inflight: 2,
            tenants: vec![
                TenantSpec::uniform_mix(
                    "frontend",
                    1,
                    ArrivalProcess::Poisson { rate_rps: 2000.0 },
                    RequestKind::Add,
                )
                .with_slo(SloClass::latency(50_000)),
                TenantSpec::uniform_mix(
                    "reports",
                    1,
                    ArrivalProcess::Bursts {
                        period_us: 30_000,
                        burst: 100,
                    },
                    RequestKind::Fib { max_n: 8 },
                )
                .with_slo(SloClass::batch()),
            ],
        };
        let report = serve(&Runtime::builder().build(), &cfg).unwrap();
        let again = serve(&Runtime::builder().build(), &cfg).unwrap();
        assert_eq!(
            report.to_string(),
            again.to_string(),
            "SLO dispatch must stay deterministic"
        );
        report.assert_accounting_closure();
        let (_, _, frontend_p99, _) = report.tenants[0].latency.tail_summary();
        let (_, _, reports_p99, _) = report.tenants[1].latency.tail_summary();
        assert!(
            frontend_p99 < reports_p99,
            "the latency tier (p99 {frontend_p99}) must beat the batch tier (p99 {reports_p99})"
        );
    }

    /// A tenant whose own backlog blows through its deadline sees the
    /// overflow *expired* at dispatch — withdrawn and accounted, never
    /// executed — not served late and not conflated with sheds.
    #[test]
    fn deadline_expiry_withdraws_queued_requests() {
        use crate::tenant::SloClass;
        let cfg = ServeConfig {
            seed: 9,
            duration_us: 60_000,
            drivers: 1,
            batch: 8,
            queue_capacity: 256,
            batch_overhead_us: 5,
            inflight: 1,
            // Every Add request is distinct (never warms), so a burst
            // of 120 cold adds piles ~400 µs of backlog behind a
            // 100 µs deadline: the tail must expire.
            tenants: vec![TenantSpec::uniform_mix(
                "spiky",
                1,
                ArrivalProcess::Bursts {
                    period_us: 20_000,
                    burst: 120,
                },
                RequestKind::Add,
            )
            .with_slo(SloClass::latency(100))],
        };
        let rt = Runtime::builder().build();
        let report = serve(&rt, &cfg).unwrap();
        let t = &report.tenants[0];
        assert!(t.expired > 0, "the burst must overrun its deadline");
        report.assert_accounting_closure();
        assert_eq!(t.errors, 0);
        assert_eq!(
            t.latency.count(),
            t.ok,
            "expired requests record no latency sample"
        );
        // Expired requests were withdrawn before execution: the only
        // distinct procedures that ran are the served (cold) renders.
        let again = serve(&Runtime::builder().build(), &cfg).unwrap();
        assert_eq!(report.to_string(), again.to_string());
    }
}
