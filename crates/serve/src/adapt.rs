//! The adaptive entry point: [`adaptive_serve`] configures the
//! [serving kernel](crate::kernel) with the control plane closed over
//! it.
//!
//! Three arrival sources feed the kernel's one event loop (open-loop
//! timelines, closed-loop client re-arrivals, SNF packet-batch
//! schedules), an [`AdmissionPolicy`] prices deadline arrivals at the
//! door, and a [`ScalerConfig`] lets the autoscaler tick between
//! dispatches, resizing the active driver pool. Every decision is a
//! pure function of the seed and configuration, so the report —
//! including the rejection column and the scaling timeline — is
//! bit-identical across runs and across backends. The real pool is
//! provisioned at `scaler.max_drivers`; drivers the controller never
//! activated simply carry empty plans.

use crate::controller::{AdmissionPolicy, ScalerConfig};
use crate::routing::RoutingPolicy;
use crate::{kernel, Micros, ServeReport, Tenant};
use fix_core::api::{InvocationApi, SubmitApi};
use fix_core::error::Result;

/// Configuration of one adaptive serve run.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Run seed; every random choice derives from it.
    pub seed: u64,
    /// Generation horizon, in virtual µs (closed-loop clients stop
    /// re-arriving past it).
    pub duration_us: Micros,
    /// Maximum requests per batch.
    pub batch: usize,
    /// Per-tenant queue bound; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Fixed per-batch dispatch overhead, virtual µs.
    pub batch_overhead_us: Micros,
    /// In-flight submission window per driver thread (see
    /// [`ServeConfig::inflight`](crate::ServeConfig::inflight)).
    pub inflight: usize,
    /// The admission controller, or `None` for capacity-only admission
    /// (the static baseline).
    pub admission: Option<AdmissionPolicy>,
    /// The driver-pool scaler ([`ScalerConfig::fixed`] expresses a
    /// static pool in the same engine).
    pub scaler: ScalerConfig,
    /// The tenants.
    pub tenants: Vec<Tenant>,
}

impl AdaptConfig {
    /// The kernel shape of this configuration: one node, no faults.
    fn kernel_config(&self) -> kernel::Config {
        kernel::Config {
            seed: self.seed,
            duration_us: self.duration_us,
            batch: self.batch,
            queue_capacity: self.queue_capacity,
            batch_overhead_us: self.batch_overhead_us,
            inflight: self.inflight,
            tenants: self.tenants.clone(),
            admission: self.admission,
            scaler: self.scaler,
            nodes: 1,
            policy: RoutingPolicy::Affinity,
            spill_margin: 1,
            fault: None,
        }
    }

    /// Validates structural invariants: exactly
    /// [`kernel::Config::validate`] on the kernel shape this
    /// configuration translates to (every field here is the kernel's).
    pub fn validate(&self) -> std::result::Result<(), String> {
        self.kernel_config().validate()
    }
}

/// The outcome of one adaptive serve run: the full (deterministic)
/// [`ServeReport`], rejection column and scaling timeline populated.
pub struct AdaptReport {
    /// The deterministic report (its `Display` is the bit-identical
    /// table surface).
    pub serve: ServeReport,
}

impl std::fmt::Display for AdaptReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.serve.fmt(f)
    }
}

/// Runs the serving kernel against `rt` under the adaptive control
/// plane: the three arrival sources, admission pricing, and the
/// autoscaling pool of `cfg`, on one node (see the module docs).
///
/// # Examples
///
/// ```
/// use fix_serve::{
///     adaptive_serve, AdaptConfig, ArrivalProcess, RequestKind, ScalerConfig, Tenant, TenantSpec,
/// };
///
/// let cfg = AdaptConfig {
///     seed: 7,
///     duration_us: 50_000,
///     batch: 8,
///     queue_capacity: 64,
///     batch_overhead_us: 5,
///     inflight: 2,
///     admission: None,
///     scaler: ScalerConfig::fixed(2),
///     tenants: vec![Tenant::Open(TenantSpec::uniform_mix(
///         "t0",
///         1,
///         ArrivalProcess::Uniform { period_us: 500 },
///         RequestKind::Add,
///     ))],
/// };
/// let rt = fixpoint::Runtime::builder().build();
/// let report = adaptive_serve(&rt, &cfg).unwrap();
/// assert_eq!(report.serve.completed, 100);
/// ```
pub fn adaptive_serve<A: SubmitApi + InvocationApi + Send + Sync>(
    rt: &A,
    cfg: &AdaptConfig,
) -> Result<AdaptReport> {
    let serve = kernel::run(rt, &cfg.kernel_config())?;
    Ok(AdaptReport { serve })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalProcess, ClosedLoopSpec, RequestKind, SloClass, SnfSpec, TenantSpec};
    use fixpoint::Runtime;

    fn hostile_cfg(seed: u64) -> AdaptConfig {
        AdaptConfig {
            seed,
            duration_us: 150_000,
            batch: 8,
            queue_capacity: 128,
            batch_overhead_us: 5,
            inflight: 2,
            admission: Some(AdmissionPolicy::default()),
            scaler: ScalerConfig {
                min_drivers: 2,
                max_drivers: 6,
                control_interval_us: 2_000,
                up_backlog_us: 400,
                down_backlog_us: 60,
                hold_ticks: 2,
            },
            tenants: vec![
                Tenant::Open(
                    TenantSpec::uniform_mix(
                        "crowd",
                        1,
                        ArrivalProcess::FlashCrowd {
                            base_rps: 2_000.0,
                            spike_at_us: 40_000,
                            spike_len_us: 40_000,
                            spike_rps: 20_000.0,
                        },
                        RequestKind::Fib { max_n: 256 },
                    )
                    .with_slo(SloClass::latency(3_000)),
                ),
                Tenant::Closed(ClosedLoopSpec {
                    name: "portal".into(),
                    weight: 1,
                    clients: 8,
                    think_mean_us: 2_000.0,
                    mix: vec![(RequestKind::SebsHtml { users: 4 }, 1)],
                    slo: SloClass::latency(8_000),
                }),
                Tenant::Snf(SnfSpec {
                    name: "snf".into(),
                    weight: 1,
                    flows: 4,
                    batch_period_us: 2_000,
                    slo: SloClass::default(),
                }),
            ],
        }
    }

    #[test]
    fn adaptive_run_accounts_for_every_arrival() {
        let rt = Runtime::builder().build();
        let r = adaptive_serve(&rt, &hostile_cfg(42)).unwrap().serve;
        r.assert_accounting_closure();
        for t in &r.tenants {
            assert_eq!(
                t.errors, 0,
                "tenant {}: all minted requests are valid",
                t.name
            );
        }
        // The flash crowd forces the controller's hand and the scaler up.
        assert!(
            r.total_rejected() > 0,
            "admission must reject under the spike"
        );
        assert!(
            r.scaling.iter().any(|s| s.to > s.from),
            "the spike must scale the pool up"
        );
        assert!(
            r.scaling.iter().any(|s| s.to < s.from),
            "the drain must scale the pool back down"
        );
        // The SNF tenant never sheds: its chains stay gap-free.
        let snf = &r.tenants[2];
        assert_eq!(snf.offered, snf.admitted);
        assert_eq!(snf.ok, snf.admitted);
    }

    #[test]
    fn same_seed_same_tables_and_timeline() {
        let a = adaptive_serve(&Runtime::builder().build(), &hostile_cfg(42)).unwrap();
        let b = adaptive_serve(&Runtime::builder().build(), &hostile_cfg(42)).unwrap();
        assert_eq!(a.serve.to_string(), b.serve.to_string());
        assert_eq!(a.serve.scaling, b.serve.scaling);
        let c = adaptive_serve(&Runtime::builder().build(), &hostile_cfg(43)).unwrap();
        assert_ne!(a.serve.to_string(), c.serve.to_string());
    }

    #[test]
    fn identical_on_a_worker_pool_runtime() {
        let cfg = hostile_cfg(11);
        let inline = adaptive_serve(&Runtime::builder().build(), &cfg).unwrap();
        let workers = adaptive_serve(&Runtime::builder().workers(4).build(), &cfg).unwrap();
        assert_eq!(inline.serve.to_string(), workers.serve.to_string());
    }

    #[test]
    fn closed_loop_self_throttles_under_a_slow_pool() {
        // One driver, expensive requests: an open-loop tenant at the
        // same nominal rate would shed; the closed population limits
        // its own offered load to clients × completions.
        let cfg = AdaptConfig {
            seed: 3,
            duration_us: 100_000,
            batch: 4,
            queue_capacity: 16,
            batch_overhead_us: 10,
            inflight: 1,
            admission: None,
            scaler: ScalerConfig::fixed(1),
            tenants: vec![Tenant::Closed(ClosedLoopSpec {
                name: "clients".into(),
                weight: 1,
                clients: 4,
                think_mean_us: 500.0,
                mix: vec![(
                    RequestKind::Wordcount {
                        shard_bytes: 65_536,
                    },
                    1,
                )],
                slo: SloClass::default(),
            })],
        };
        let r = adaptive_serve(&Runtime::builder().build(), &cfg)
            .unwrap()
            .serve;
        let t = &r.tenants[0];
        assert_eq!(t.offered, t.admitted, "a closed population never floods");
        assert_eq!(t.dropped, 0);
        assert!(t.ok > 0);
        // Never more requests outstanding than clients: the queue bound
        // was never even approachable.
        assert!(t.offered <= 4 * (t.ok + 1));
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let rt = Runtime::builder().build();
        let mut cfg = hostile_cfg(1);
        cfg.tenants.clear();
        assert!(adaptive_serve(&rt, &cfg).is_err());
        let mut cfg = hostile_cfg(1);
        cfg.scaler.max_drivers = 1; // < min_drivers = 2
        assert!(adaptive_serve(&rt, &cfg).is_err());
        let mut cfg = hostile_cfg(1);
        cfg.scaler.down_backlog_us = cfg.scaler.up_backlog_us; // no dead band
        assert!(adaptive_serve(&rt, &cfg).is_err());
        let mut cfg = hostile_cfg(1);
        if let Tenant::Closed(c) = &mut cfg.tenants[1] {
            c.clients = 0;
        }
        assert!(adaptive_serve(&rt, &cfg).is_err());
    }
}
