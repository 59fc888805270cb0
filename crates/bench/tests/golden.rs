//! Golden pins across the commit boundary.
//!
//! Every other determinism test compares two runs of the *same* build;
//! these files were recorded at the commit before the three serving
//! engines were folded into one kernel, so a refactor that keeps the
//! tables self-consistent but moves them still fails here.
//!
//! Two families, all pure functions of the virtual clock:
//!
//! * `figures_*_quick.txt` — what `figures serve|adapt|sweep|route|trace
//!   --quick` print, rendered through the same `fix_bench` functions;
//! * `kernel_*.txt` — `to_string()` + `decomposition_table()` of
//!   `serve` / `adaptive_serve` / `dispatch` on copies of the `fixbench`
//!   `serve_tiers` configurations (seeds 1–3), and of the warm- and
//!   cold-restart fault configuration from `fix-dispatch`'s own tests.
//!
//! Refresh (only when a table is *meant* to move):
//! `cargo test --release -p fix-bench --test golden -- --ignored refresh`.

use fix_adapt::{
    adaptive_serve, AdaptConfig, AdaptTenant, AdmissionPolicy, ClosedLoopSpec, ScalerConfig,
    SnfSpec,
};
use fix_dispatch::{dispatch, DispatchConfig, FaultPlan, NodeStorage, RestartKind, RoutingPolicy};
use fix_serve::{
    serve, ArrivalProcess, RequestKind, ServeConfig, ServeReport, SloClass, TenantSpec,
};
use fixpoint::Runtime;
use std::path::Path;

/// `fixbench/src/workloads/serve.rs::serve_config`, copied.
fn serve_config(seed: u64) -> ServeConfig {
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

/// `fixbench/src/workloads/serve.rs::adapt_config`, copied.
fn adapt_config(seed: u64) -> AdaptConfig {
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

/// The repeat-heavy three-tenant mix shared by `fixbench`'s dispatch
/// configuration and the dispatcher's fault tests.
fn route_tenants() -> Vec<TenantSpec> {
    vec![
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
    ]
}

/// `fixbench/src/workloads/serve.rs::dispatch_config`, copied.
fn dispatch_config(seed: u64) -> DispatchConfig {
    DispatchConfig {
        base: ServeConfig {
            seed,
            duration_us: 300_000,
            drivers: 1,
            batch: 8,
            queue_capacity: 64,
            batch_overhead_us: 5,
            inflight: 2,
            tenants: route_tenants(),
        },
        nodes: 2,
        policy: RoutingPolicy::Affinity,
        spill_margin: 16,
        storage: NodeStorage::Memory,
        fault: None,
    }
}

/// `fix-dispatch`'s `fault_cfg` test configuration, copied: node 1 of 3
/// durable nodes dies with a stranded burst and comes back.
fn fault_config(root: &Path, restart: RestartKind) -> DispatchConfig {
    DispatchConfig {
        base: ServeConfig {
            seed: 17,
            duration_us: 60_000,
            drivers: 1,
            batch: 8,
            queue_capacity: 64,
            batch_overhead_us: 5,
            inflight: 2,
            tenants: route_tenants(),
        },
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

fn tables(report: &ServeReport) -> String {
    format!("{report}{}", report.decomposition_table())
}

fn over_seeds(run: impl Fn(u64) -> ServeReport) -> String {
    (1..=3)
        .map(|seed| format!("seed {seed}\n{}", tables(&run(seed))))
        .collect()
}

fn kernel_serve() -> String {
    over_seeds(|seed| serve(&Runtime::builder().build(), &serve_config(seed)).unwrap())
}

fn kernel_adapt() -> String {
    over_seeds(|seed| {
        adaptive_serve(&Runtime::builder().build(), &adapt_config(seed))
            .unwrap()
            .serve
    })
}

fn kernel_dispatch() -> String {
    over_seeds(|seed| dispatch(&dispatch_config(seed)).unwrap().report)
}

fn kernel_fault() -> String {
    [RestartKind::Warm, RestartKind::Cold]
        .into_iter()
        .map(|restart| {
            let dir = tempfile::tempdir().unwrap();
            let outcome = dispatch(&fault_config(dir.path(), restart)).unwrap();
            outcome.assert_accounting_closure();
            format!(
                "{restart:?} restart, recovery window {:?}\n{}",
                outcome.recovery_window_us,
                tables(&outcome.report)
            )
        })
        .collect()
}

fn figures_trace() -> String {
    let dir = tempfile::tempdir().unwrap();
    fix_bench::trace::run(1, dir.path())
}

/// One golden file: its name, the committed bytes, and the renderer.
type Golden = (&'static str, &'static str, fn() -> String);

macro_rules! golden {
    ($name:literal, $render:expr) => {
        ($name, include_str!(concat!("golden/", $name)), $render)
    };
}

const GOLDEN: &[Golden] = &[
    golden!("figures_serve_quick.txt", || {
        fix_bench::serve_report::table_text(1)
    }),
    golden!("figures_adapt_quick.txt", || {
        fix_bench::adapt_table::table_text(1)
    }),
    golden!("figures_sweep_quick.txt", || {
        fix_bench::serve_report::sweep(&[2026, 7, 99, 1234], 1, true)
    }),
    golden!("figures_route_quick.txt", || {
        fix_bench::route::table_text(1, 4)
    }),
    golden!("figures_trace_quick.txt", figures_trace),
    golden!("kernel_serve.txt", kernel_serve),
    golden!("kernel_adapt.txt", kernel_adapt),
    golden!("kernel_dispatch.txt", kernel_dispatch),
    golden!("kernel_fault.txt", kernel_fault),
];

#[test]
fn tables_match_the_committed_golden_files() {
    for (name, committed, render) in GOLDEN {
        let rendered = render();
        assert!(
            rendered == *committed,
            "{name} moved.\n--- committed ---\n{committed}\n--- rendered ---\n{rendered}"
        );
    }
}

/// Rewrites every golden file from the current build.
#[test]
#[ignore = "rewrites the golden files; run it on purpose"]
fn refresh() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, _, render) in GOLDEN {
        std::fs::write(dir.join(name), render()).unwrap();
    }
}
