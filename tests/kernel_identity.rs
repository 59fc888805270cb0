//! Degenerate identities of the serving kernel.
//!
//! `serve`, `adaptive_serve`, and `dispatch` are three configurations
//! of one engine (`fix_serve::kernel`), so wherever two of them describe
//! the same system they must render the same tables, byte for byte:
//!
//! * `dispatch` over **one node with no fault** is `serve` (the node
//!   table aside) — under every routing policy, since there is nothing
//!   to route;
//! * `adaptive_serve` with **a fixed pool, no admission policy, and
//!   open-loop tenants only** is `serve`.
//!
//! Both are swept over seeds on a configuration that sheds and one that
//! expires, so the identity covers the capacity and deadline paths, not
//! just the happy one.

use fix::prelude::*;
use fix::serve::{
    adaptive_serve, dispatch, serve, AdaptConfig, ArrivalProcess, DispatchConfig, NodeStorage,
    RequestKind, RoutingPolicy, ScalerConfig, ServeConfig, ServeReport, SloClass, Tenant,
    TenantSpec,
};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=12;

/// Bursts of slow renders into a 12-deep queue beside steady mixed
/// traffic: the bursty tenant sheds on every period.
fn shedding(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        duration_us: 40_000,
        drivers: 2,
        batch: 8,
        queue_capacity: 12,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec {
                name: "steady".into(),
                weight: 3,
                arrivals: ArrivalProcess::Poisson { rate_rps: 3000.0 },
                mix: vec![(RequestKind::Add, 3), (RequestKind::Fib { max_n: 8 }, 1)],
                slo: SloClass::default(),
            },
            TenantSpec::uniform_mix(
                "flood",
                1,
                ArrivalProcess::Bursts {
                    period_us: 8_000,
                    burst: 60,
                },
                RequestKind::SebsHtml { users: 3 },
            ),
        ],
    }
}

/// A latency tenant whose bursts overrun a 100 µs deadline, over a
/// batch-tier tenant that only runs in the gaps.
fn expiring(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        duration_us: 40_000,
        drivers: 2,
        batch: 8,
        queue_capacity: 256,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec::uniform_mix(
                "spiky",
                1,
                ArrivalProcess::Bursts {
                    period_us: 10_000,
                    burst: 120,
                },
                RequestKind::Add,
            )
            .with_slo(SloClass::latency(100)),
            TenantSpec::uniform_mix(
                "reports",
                1,
                ArrivalProcess::Poisson { rate_rps: 1500.0 },
                RequestKind::Fib { max_n: 6 },
            )
            .with_slo(SloClass::batch()),
        ],
    }
}

/// The tenant rows, scaling timeline, driver rows and the latency
/// decomposition — everything but wall-clock readings.
fn tables(report: &ServeReport) -> String {
    format!("{report}{}", report.decomposition_table())
}

fn plain(cfg: &ServeConfig) -> ServeReport {
    serve(&Runtime::builder().build(), cfg).expect("serve run")
}

#[test]
fn one_node_dispatch_without_faults_is_serve() {
    let (mut shed, mut expired) = (0, 0);
    for seed in SEEDS {
        for cfg in [shedding(seed), expiring(seed)] {
            let reference = plain(&cfg);
            shed += reference.total_dropped();
            expired += reference.total_expired();
            for policy in [
                RoutingPolicy::Affinity,
                RoutingPolicy::RoundRobin,
                RoutingPolicy::Random,
            ] {
                let outcome = dispatch(&DispatchConfig {
                    base: cfg.clone(),
                    nodes: 1,
                    policy,
                    spill_margin: 4,
                    storage: NodeStorage::Memory,
                    fault: None,
                })
                .expect("dispatch run");
                outcome.assert_accounting_closure();
                let mut report = outcome.report;
                assert_eq!(report.nodes.len(), 1);
                report.nodes.clear();
                assert_eq!(
                    tables(&report),
                    tables(&reference),
                    "seed {seed}, {policy:?}"
                );
            }
        }
    }
    assert!(shed > 0, "the shedding configuration must shed");
    assert!(expired > 0, "the expiring configuration must expire");
}

#[test]
fn fixed_pool_adaptive_serve_without_admission_is_serve() {
    for seed in SEEDS {
        for cfg in [shedding(seed), expiring(seed)] {
            let adaptive = adaptive_serve(
                &Runtime::builder().build(),
                &AdaptConfig {
                    seed: cfg.seed,
                    duration_us: cfg.duration_us,
                    batch: cfg.batch,
                    queue_capacity: cfg.queue_capacity,
                    batch_overhead_us: cfg.batch_overhead_us,
                    inflight: cfg.inflight,
                    admission: None,
                    scaler: ScalerConfig::fixed(cfg.drivers),
                    tenants: cfg.tenants.iter().cloned().map(Tenant::Open).collect(),
                },
            )
            .expect("adaptive run")
            .serve;
            adaptive.assert_accounting_closure();
            assert_eq!(tables(&adaptive), tables(&plain(&cfg)), "seed {seed}");
        }
    }
}

/// `kernel::run` is public, so it validates what it is given: each
/// configuration below used to spin forever (a zero tick period or batch
/// never advances the clock) or panic (an empty queue, node set, window,
/// or pool). The watchdog turns a regression into a failure, not a hung
/// suite.
#[test]
fn degenerate_kernel_configs_are_errors_not_hangs() {
    use fix::serve::kernel::{self, Config};
    use std::sync::mpsc;
    use std::time::Duration;

    type Breakage = fn(&mut Config);
    let degenerate: [(&str, Breakage); 6] = [
        ("control_interval_us: 0", |c| {
            c.scaler.control_interval_us = 0
        }),
        ("batch: 0", |c| c.batch = 0),
        ("queue_capacity: 0", |c| c.queue_capacity = 0),
        ("nodes: 0", |c| c.nodes = 0),
        ("inflight: 0", |c| c.inflight = 0),
        ("drivers: 0", |c| c.scaler = ScalerConfig::fixed(0)),
    ];
    for (what, breakage) in degenerate {
        let mut cfg = Config::from(&shedding(1));
        breakage(&mut cfg);
        assert!(cfg.validate().is_err(), "{what} must not validate");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = kernel::run(&Runtime::builder().build(), &cfg);
            let _ = tx.send(outcome.map(|report| report.completed));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Err(Error::Backend { .. })) => {}
            Ok(other) => panic!("{what}: expected a backend error, got {other:?}"),
            Err(_) => panic!("{what}: kernel::run hung or panicked"),
        }
    }
}
