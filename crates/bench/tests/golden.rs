//! Golden pins across the commit boundary.
//!
//! Every other determinism test compares two runs of the *same* build;
//! these files were recorded at the commit before the refactor they
//! guard (the serving tables before the three serving engines were
//! folded into one kernel, the cluster tables before the two task-graph
//! simulators were), so a refactor that keeps the tables self-consistent
//! but moves them still fails here.
//!
//! Four families, all pure functions of the virtual clock:
//!
//! * `figures_*_quick.txt` — what `figures serve|adapt|sweep|route|trace
//!   --quick` print, rendered through the same `fix_bench` functions;
//! * `kernel_*.txt` — `to_string()` + `decomposition_table()` of
//!   `serve` / `adaptive_serve` / `dispatch` on copies of the `fixbench`
//!   `serve_tiers` configurations (seeds 1–3), of the warm- and
//!   cold-restart fault configuration from `fix_serve::dispatch`'s own
//!   tests, and of `kernel::run` on one composed `kernel::Config` literal
//!   with and without a cold restart (`kernel_composed.txt`);
//! * `figures_{fig7b,fig8a}.txt` and `figures_{fig8b,fig10,comparators,
//!   extbilling}{_quick,}.txt` — what `figures <name> [--quick]` print
//!   (`fig7b` and `fig8a` have one scale);
//! * `sim_reports.txt` — `{:?}` of the `RunReport` of `run_fix` over
//!   seven figure graphs × {Locality, Random} × {Late, Early}, and of
//!   every baseline profile on the graphs the figures run it on.
//!
//! Refresh (only when a table is *meant* to move):
//! `cargo test --release -p fix-bench --test golden -- --ignored refresh`.

use fix_baselines::{profiles, run_baseline, CostModel};
use fix_bench::{fig10, fig7b, fig8a, fig8b};
use fix_cluster::{
    run_fix, small_task, Binding, ClusterClient, ClusterSetup, FixConfig, JobGraph,
    JobGraphBuilder, Placement,
};
use fix_core::calibration::SERVICE_COSTS;
use fix_netsim::{NetConfig, NodeId, NodeSpec};
use fix_serve::{
    adaptive_serve, dispatch, kernel, serve, AdaptConfig, AdmissionPolicy, ArrivalProcess,
    ClosedLoopSpec, DispatchConfig, FaultPlan, NodeStorage, RequestKind, RestartKind,
    RoutingPolicy, ScalerConfig, ServeConfig, ServeReport, SloClass, SnfSpec, Tenant, TenantSpec,
};
use fix_workloads::compile::{fig10_graph, Fig10Params};
use fix_workloads::wordcount::{
    fig8a_graph, fig8b_graph, run_wordcount_fix, store_shards, Fig8aParams, Fig8bParams,
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
            Tenant::Open(
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

/// `fix_serve::dispatch`'s `fault_cfg` test configuration, copied: node 1 of 3
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

/// The kernel's plug points composed in one literal, with no engine code
/// of its own: three nodes under HRW affinity, per-node admission and a
/// 2..=4 driver autoscaler, serving an open flash crowd, a closed-loop
/// portal and an SNF tenant.
fn composed_config(fault: Option<FaultPlan>) -> kernel::Config {
    kernel::Config {
        seed: 29,
        duration_us: 60_000,
        batch: 8,
        queue_capacity: 64,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            Tenant::Open(TenantSpec {
                name: "crowd".into(),
                weight: 2,
                arrivals: ArrivalProcess::FlashCrowd {
                    base_rps: 4_000.0,
                    spike_at_us: 20_000,
                    spike_len_us: 15_000,
                    spike_rps: 60_000.0,
                },
                mix: vec![(RequestKind::Fib { max_n: 96 }, 1)],
                slo: SloClass::latency(3_000),
            }),
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
        admission: Some(AdmissionPolicy::default()),
        scaler: ScalerConfig {
            min_drivers: 2,
            max_drivers: 4,
            control_interval_us: 1_000,
            up_backlog_us: 400,
            down_backlog_us: 60,
            hold_ticks: 2,
        },
        nodes: 3,
        policy: RoutingPolicy::Affinity,
        spill_margin: 16,
        fault,
    }
}

/// The composed scenario's tables with no fault and with node 1 killed
/// and restarted cold, each run on a fresh runtime from `runtime`.
fn kernel_composed_on(runtime: impl Fn() -> Runtime) -> String {
    let cold = FaultPlan {
        node: 1,
        kill_at_us: 20_000,
        restart_at_us: 40_000,
        restart: RestartKind::Cold,
    };
    [None, Some(cold)]
        .into_iter()
        .map(|fault| {
            let report = kernel::run(&runtime(), &composed_config(fault)).unwrap();
            report.assert_accounting_closure();
            // An SNF fold costs whole steps, also once a kill reroutes it.
            let snf = &report.tenants[2];
            assert!(snf.service.min() >= SERVICE_COSTS.snf_step_us, "{fault:?}");
            format!("fault {fault:?}\n{}", tables(&report))
        })
        .collect()
}

fn kernel_composed() -> String {
    kernel_composed_on(|| Runtime::builder().build())
}

/// The composed tables are a function of the configuration, not of the
/// runtime that executes it.
#[test]
fn the_composed_kernel_is_the_same_inline_and_on_two_workers() {
    assert_eq!(
        kernel_composed(),
        kernel_composed_on(|| Runtime::builder().workers(2).build())
    );
}

fn figures_trace() -> String {
    let dir = tempfile::tempdir().unwrap();
    fix_bench::trace::run(1, dir.path())
}

/// A hinted pipeline (`f`'s 4 GiB output is consumed next to an 8 GiB
/// object on node 7) beside a 200-task fan-out over one shared 64 MiB
/// input, submitted from a client: the graph on which output hints,
/// transfer coalescing and the one-message submission all show.
fn hinted_fanout_case() -> (ClusterSetup, JobGraph) {
    let mut b = JobGraphBuilder::new();
    let x = b.object_at(1 << 10, &[NodeId(2)]);
    let z = b.object_at(8 << 30, &[NodeId(7)]);
    let mut f = small_task(1_000, 4 << 30);
    f.inputs.push(x);
    f.output_hint = Some(4 << 30);
    let f = b.task(f);
    let mut g = small_task(1_000, 8);
    g.inputs.push(z);
    g.deps.push(f);
    b.task(g);
    let shared = b.object_at(64 << 20, &[NodeId(3)]);
    for i in 0..200 {
        let mut t = small_task(2_000, 8);
        t.inputs.push(shared);
        t.inputs.push(b.object_at(1 << 20, &[NodeId(i % 10)]));
        b.task(t);
    }
    let setup = ClusterSetup {
        specs: vec![NodeSpec::default(); 12],
        net: NetConfig::default().with_extra_latency(NodeId(11), 5_000),
        workers: (0..10).map(NodeId).collect(),
        client: Some(NodeId(11)),
    };
    (setup, b.build())
}

/// Fig. 8a's graph on its cluster with `worker_cores` cores.
fn fig8a_case(worker_cores: u32) -> (ClusterSetup, JobGraph) {
    let graph = fig8a_graph(&Fig8aParams::default());
    (fig8a::setup(worker_cores), graph)
}

/// Fig. 10's graph at `--quick` scale (500 files), sources at `home`.
fn fig10_case(home: NodeId) -> (ClusterSetup, JobGraph) {
    let graph = fig10_graph(&Fig10Params {
        n_files: 500,
        source_home: home,
        ..Fig10Params::default()
    });
    (fig10::setup(), graph)
}

fn sim_reports() -> String {
    use std::fmt::Write as _;
    let cost = CostModel::default();
    let params = Fig8bParams::default();
    let fig8b = (fig8b::setup(&params, 32), fig8b_graph(&params));
    let chain = fig7b::chain_graph(500);
    let [near, remote] = fig7b::CLIENT_EXTRA_US.map(|extra| (fig7b::setup(extra), chain.clone()));
    let mut out = String::new();

    let matrix = [
        ("fig8b", &fig8b),
        ("fig7b-near", &near),
        ("fig7b-remote", &remote),
        ("fig8a-32", &fig8a_case(32)),
        ("fig8a-200", &fig8a_case(200)),
        ("fig10", &fig10_case(fig10::CLIENT)),
        ("hinted-fanout", &hinted_fanout_case()),
    ];
    for (name, (setup, graph)) in matrix {
        for placement in [Placement::Locality, Placement::Random] {
            for binding in [Binding::Late, Binding::Early] {
                let cfg = FixConfig {
                    placement,
                    binding,
                    ..FixConfig::default()
                };
                let report = run_fix(setup, graph, &cfg);
                writeln!(out, "run_fix {name} {placement:?}/{binding:?}: {report:?}").unwrap();
            }
        }
    }

    let (store, driver) = (&params.nodes, NodeId(11));
    let (setup, graph) = &fig8b;
    let map_only = JobGraph {
        objects: graph.objects.clone(),
        tasks: graph.tasks[..984].to_vec(),
        outputs: graph.outputs[..984].to_vec(),
    };
    let fig10 = fig10_case(NodeId(0));
    let chain_store = [NodeId(1)];
    let baselines = [
        (
            "ray_cps fig8b",
            setup,
            graph,
            profiles::ray_cps(driver, &cost),
        ),
        (
            "ray_blocking fig8b",
            setup,
            graph,
            profiles::ray_blocking(driver, &cost),
        ),
        (
            "pheromone fig8b-map",
            setup,
            &map_only,
            profiles::pheromone(store, &cost),
        ),
        (
            "openwhisk fig8b",
            setup,
            graph,
            profiles::openwhisk(store, &cost),
        ),
        (
            "pheromone fig7b-near",
            &near.0,
            &near.1,
            profiles::pheromone(&chain_store, &cost),
        ),
        (
            "ray_cps fig7b-near",
            &near.0,
            &near.1,
            profiles::ray_cps(NodeId(2), &cost),
        ),
        (
            "pheromone fig7b-remote",
            &remote.0,
            &remote.1,
            profiles::pheromone(&chain_store, &cost),
        ),
        (
            "ray_cps fig7b-remote",
            &remote.0,
            &remote.1,
            profiles::ray_cps(NodeId(2), &cost),
        ),
        (
            "ray_minio fig10",
            &fig10.0,
            &fig10.1,
            profiles::ray_minio(driver, store, 100 << 20, &cost),
        ),
        (
            "openwhisk fig10",
            &fig10.0,
            &fig10.1,
            profiles::openwhisk(store, &cost),
        ),
    ];
    for (name, setup, graph, profile) in baselines {
        let report = run_baseline(setup, graph, &profile);
        writeln!(out, "{name}: {report:?}").unwrap();
    }
    // Faasm only appears in `figures comparators`: the wordcount's
    // derived graphs under a `ClusterClient` with Faasm's profile.
    let faasm = ClusterClient::builder()
        .profile(profiles::faasm(&cost))
        .build()
        .unwrap();
    let shards = store_shards(&faasm, 11, 16, 16 << 10);
    run_wordcount_fix(&faasm, &shards, b"of").unwrap();
    for (i, report) in faasm.reports().into_iter().enumerate() {
        writeln!(out, "faasm comparators-run{i}: {report:?}").unwrap();
    }
    out
}

fn quick_fig8b() -> Fig8bParams {
    Fig8bParams {
        n_shards: 123,
        ..Fig8bParams::default()
    }
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
    golden!("kernel_composed.txt", kernel_composed),
    golden!("figures_fig7b.txt", || fix_bench::fig7b::run(500)
        .to_string()),
    golden!("figures_fig8a.txt", || fix_bench::fig8a::run(1024)
        .to_string()),
    golden!("figures_fig8b_quick.txt", || {
        fix_bench::fig8b::run(&quick_fig8b()).to_string()
    }),
    golden!("figures_fig8b.txt", || {
        fix_bench::fig8b::run(&Fig8bParams::default()).to_string()
    }),
    golden!("figures_fig10_quick.txt", || fix_bench::fig10::run(500)
        .to_string()),
    golden!("figures_fig10.txt", || fix_bench::fig10::run(2000)
        .to_string()),
    golden!("figures_comparators_quick.txt", || {
        fix_bench::comparators::run(16, 16 << 10).to_string()
    }),
    golden!("figures_comparators.txt", || {
        fix_bench::comparators::run(64, 64 << 10).to_string()
    }),
    golden!("figures_extbilling_quick.txt", || {
        fix_bench::ext_billing::run(128)
    }),
    golden!("figures_extbilling.txt", || fix_bench::ext_billing::run(
        1024
    )),
    golden!("sim_reports.txt", sim_reports),
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
