//! `serve_tiers`: one operation is a *round* — `serve()`,
//! `adaptive_serve()` and `dispatch()` on one seed, each on fresh
//! runtimes — so the three discrete-event serving kernels' own cost
//! (planning plus the real execution phase, ≈ 97 % warm) is what is
//! timed. `req_per_s` counts requests completed across the three calls.
//! The guard for folding the three kernels into one.
//!
//! The configurations are copies of the ones behind `figures serve`,
//! `figures adapt --quick` and `figures route`, with thread counts
//! pinned for two cores: 2 serve drivers, an adaptive pool of 2..=4,
//! and 2 dispatch nodes of 1 driver. They live here so the benchmark
//! does not move when those tables are re-tuned.

use crate::harness::{Epoch, Rng, Size, Tally, Workload};
use crate::spans;
use fix::adapt::{
    adaptive_serve, AdaptConfig, AdaptTenant, AdmissionPolicy, ClosedLoopSpec, ScalerConfig,
    SnfSpec,
};
use fix::dispatch::{dispatch, DispatchConfig, NodeStorage, RoutingPolicy};
use fix::prelude::*;
use fix::serve::{
    serve, ArrivalProcess, RequestKind, ServeConfig, ServeReport, SloClass, TenantSpec,
};

const ROUNDS: u64 = 3;

/// The three-tenant mix of `figures serve` over 1 s of virtual time.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        duration_us: 1_000_000,
        drivers: 2,
        batch: 32,
        queue_capacity: 96,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec {
                name: "interactive".into(),
                weight: 4,
                arrivals: ArrivalProcess::Poisson { rate_rps: 4000.0 },
                mix: vec![(RequestKind::Add, 3), (RequestKind::Fib { max_n: 10 }, 1)],
                slo: SloClass::default(),
            },
            TenantSpec::uniform_mix(
                "analytics",
                2,
                ArrivalProcess::Bursts {
                    period_us: 50_000,
                    burst: 160,
                },
                RequestKind::Wordcount {
                    shard_bytes: 16 << 10,
                },
            ),
            TenantSpec::uniform_mix(
                "webapp",
                1,
                ArrivalProcess::Poisson { rate_rps: 600.0 },
                RequestKind::SebsHtml { users: 8 },
            ),
        ],
    }
}

/// The flash crowd of `figures adapt --quick` under the adaptive
/// control plane (provable-expiry admission + hysteresis autoscaler).
pub fn adapt_config(seed: u64) -> AdaptConfig {
    AdaptConfig {
        seed,
        duration_us: 60_000,
        batch: 8,
        queue_capacity: 16_384,
        batch_overhead_us: 1,
        inflight: 2,
        admission: Some(AdmissionPolicy::default()),
        scaler: ScalerConfig {
            min_drivers: 2,
            max_drivers: 4,
            control_interval_us: 2_000,
            up_backlog_us: 400,
            down_backlog_us: 50,
            hold_ticks: 2,
        },
        tenants: vec![
            AdaptTenant::Open(
                TenantSpec::uniform_mix(
                    "crowd",
                    2,
                    ArrivalProcess::FlashCrowd {
                        base_rps: 2_000.0,
                        spike_at_us: 20_000,
                        spike_len_us: 20_000,
                        spike_rps: 3_500_000.0,
                    },
                    RequestKind::Fib { max_n: 32 },
                )
                .with_slo(SloClass::latency(3_000)),
            ),
            AdaptTenant::Closed(ClosedLoopSpec {
                name: "portal".into(),
                weight: 1,
                clients: 8,
                think_mean_us: 2_000.0,
                mix: vec![(RequestKind::SebsHtml { users: 4 }, 1)],
                slo: SloClass::latency(8_000),
            }),
            AdaptTenant::Snf(SnfSpec {
                name: "snf".into(),
                weight: 1,
                flows: 4,
                batch_period_us: 2_000,
                slo: SloClass::default(),
            }),
        ],
    }
}

/// The repeat-heavy mix of `figures route` over two in-memory nodes
/// under memoization-affinity routing.
pub fn dispatch_config(seed: u64) -> DispatchConfig {
    DispatchConfig {
        base: ServeConfig {
            seed,
            duration_us: 300_000,
            drivers: 1,
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
                TenantSpec::uniform_mix(
                    "bursty",
                    1,
                    ArrivalProcess::Bursts {
                        period_us: 19_900,
                        burst: 48,
                    },
                    RequestKind::Wordcount { shard_bytes: 4096 },
                ),
            ],
        },
        nodes: 2,
        policy: RoutingPolicy::Affinity,
        spill_margin: 16,
        storage: NodeStorage::Memory,
        fault: None,
    }
}

/// Accounting closure of one report: every offered arrival is admitted,
/// dropped or rejected, and every admitted one ends exactly one way.
fn closes(report: &ServeReport) -> bool {
    report.tenants.iter().all(|t| {
        t.offered == t.admitted + t.dropped + t.rejected
            && t.admitted == t.ok + t.errors + t.expired + t.cancelled
    })
}

/// What one round produced: the three deterministic tables, and the
/// requests that completed and failed.
pub struct Round {
    pub tables: String,
    pub completed: u64,
    pub failed: u64,
}

/// Runs the three tiers on `seed`, adding each tier's counts to `tally`.
/// The runtimes' own counters (`runtime.*`, `storage.*`) are not
/// collected and read 0 on this workload: `dispatch` owns its nodes'
/// runtimes, so a tally of the other two tiers would be a partial one.
pub fn round(seed: u64, tally: &mut Tally) -> Round {
    let mut out = Round {
        tables: String::new(),
        completed: 0,
        failed: 0,
    };
    let mut account = |tier: [&'static str; 2], report: &ServeReport, closed: bool| {
        let errors: u64 = report.tenants.iter().map(|t| t.errors).sum();
        // A report whose books do not close is wrong as a whole.
        out.failed += if closed { errors } else { report.completed };
        out.completed += report.completed;
        out.tables.push_str(&report.to_string());
        tally.add(tier[0], report.completed as f64);
        tally.add(tier[1], report.execution_wall.as_secs_f64());
    };

    let report = {
        let _s = spans::enter("serve.call");
        let rt = Runtime::builder().build();
        serve(&rt, &serve_config(seed)).expect("serve run")
    };
    account(
        ["serve.completed", "serve.exec_s"],
        &report,
        closes(&report),
    );

    let report = {
        let _s = spans::enter("adapt.call");
        let rt = Runtime::builder().build();
        adaptive_serve(&rt, &adapt_config(seed))
            .expect("adaptive serve run")
            .serve
    };
    account(
        ["adapt.completed", "adapt.exec_s"],
        &report,
        closes(&report),
    );

    let outcome = {
        let _s = spans::enter("dispatch.call");
        dispatch(&dispatch_config(seed)).expect("dispatch run")
    };
    let node_books = std::panic::catch_unwind(|| outcome.assert_accounting_closure()).is_ok();
    account(
        ["dispatch.completed", "dispatch.exec_s"],
        &outcome.report,
        node_books && closes(&outcome.report),
    );
    let (warm, cold) = outcome
        .report
        .nodes
        .iter()
        .fold((0, 0), |(w, c), n| (w + n.warm_hits, c + n.cold_misses));
    tally.add("dispatch.warm", warm as f64);
    tally.add("dispatch.cold", cold as f64);
    out
}

pub struct ServeTiers {
    seeds: Vec<u64>,
    first_tables: String,
}

impl Workload for ServeTiers {
    fn setup(rng: &mut Rng, size: &Size) -> Self {
        let base = rng.next() >> 8;
        // One untimed round warms the code paths (and is the reference
        // the repeated-seed check compares against).
        let first_tables = round(base, &mut Tally::default()).tables;
        ServeTiers {
            seeds: (0..size.ops(ROUNDS, 1)).map(|r| base + r).collect(),
            first_tables,
        }
    }

    fn run(&mut self, ep: &mut Epoch) {
        ep.window(|ep| {
            for (i, &seed) in self.seeds.iter().enumerate() {
                let mut tally = Tally::default();
                let r = ep.op(|| round(seed, &mut tally));
                ep.tally.merge(&tally);
                ep.requests += r.completed;
                ep.attempted += r.completed;
                ep.failed += r.failed;
                // The first round repeats the set-up round's seed: the
                // virtual clock must render the same tables again.
                if i == 0 {
                    ep.check(r.tables == self.first_tables);
                }
            }
        });
    }

    fn finish(self, _ep: &mut Epoch) {}
}
