//! The simulated 10-node cluster (Figs. 8a/8b in miniature), two ways:
//!
//! 1. **through the One Fix API** — the real count-string workload,
//!    written once against the backend-agnostic traits, executed by the
//!    netsim-backed `ClusterClient` under Fixpoint's profile and under
//!    a baseline's, with bit-identical results and per-backend run
//!    reports;
//! 2. **as a Fig. 8b job graph** — the paper-scale workload under the
//!    Fix engine, its ablations, and the Ray/OpenWhisk baselines.
//!
//! Run with: `cargo run --release --example cluster_sim [n_shards]`

use fix::baselines::{profiles, run_baseline, CostModel};
use fix::cluster::{run_fix, Binding, ClusterSetup, FixConfig, Placement};
use fix::netsim::{NetConfig, NodeId, NodeSpec};
use fix::prelude::*;
use fix::workloads::wordcount::{fig8b_graph, run_wordcount_fix, store_shards, Fig8bParams};

/// The real workload, against any backend: count "the" in a small
/// generated corpus.
fn wordcount_on<R: InvocationApi + Evaluator>(rt: &R) -> Result<u64> {
    let shards = store_shards(rt, 42, 32, 64 << 10);
    run_wordcount_fix(rt, &shards, b"the")
}

fn main() {
    // ------------------------------------------------------------------
    // Part 1: one workload, three backends, via the One Fix API.
    // ------------------------------------------------------------------
    println!("== the same workload through the One Fix API ==\n");
    let cost = CostModel::default();

    let rt = Runtime::builder().build();
    let on_runtime = wordcount_on(&rt).expect("runtime");
    println!("{:<28} count = {on_runtime}   (ran for real)", "Runtime");

    let cc = ClusterClient::builder().build().expect("client");
    let on_cluster = wordcount_on(&cc).expect("cluster");
    println!(
        "{:<28} count = {on_cluster}   ({})",
        "ClusterClient (Fix engine)",
        cc.last_report().expect("report")
    );

    let rb = ClusterClient::builder()
        .profile(profiles::openwhisk(&[NodeId(0)], &cost))
        .build()
        .expect("client");
    let on_baseline = wordcount_on(&rb).expect("baseline");
    println!(
        "{:<28} count = {on_baseline}   ({})",
        "ClusterClient (OpenWhisk)",
        rb.last_report().expect("report")
    );

    assert!(on_runtime == on_cluster && on_cluster == on_baseline);
    println!("\nall backends agree: {on_runtime} ✓\n");

    // ------------------------------------------------------------------
    // Part 2: the paper-scale Fig. 8b graph under engines and ablations.
    // ------------------------------------------------------------------
    let n_shards: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(246);

    let params = Fig8bParams {
        n_shards,
        ..Fig8bParams::default()
    };
    let graph = fig8b_graph(&params);
    println!(
        "== Fig. 8b: {} map tasks + {} merges over {:.1} GiB of shards ==\n",
        n_shards,
        n_shards - 1,
        graph.total_input_bytes() as f64 / (1 << 30) as f64
    );

    let workers: Vec<NodeId> = (0..10).map(NodeId).collect();
    let setup = ClusterSetup {
        specs: vec![NodeSpec::default(); 12],
        net: NetConfig::default().with_bandwidth_bps(300_000_000),
        workers: workers.clone(),
        client: None,
    };

    println!("{:<42} {:>10} {:>12}", "system", "time", "CPU waiting");
    let show = |name: &str, r: &fix::cluster::RunReport| {
        println!(
            "{:<42} {:>8.2} s {:>11.0}%",
            name,
            r.makespan_secs(),
            r.cpu.waiting_percent()
        );
    };

    show("Fixpoint", &run_fix(&setup, &graph, &FixConfig::default()));
    show(
        "Fixpoint (no locality)",
        &run_fix(
            &setup,
            &graph,
            &FixConfig {
                placement: Placement::Random,
                ..FixConfig::default()
            },
        ),
    );
    show(
        "Fixpoint (no locality + internal I/O)",
        &run_fix(
            &setup,
            &graph,
            &FixConfig {
                placement: Placement::Random,
                binding: Binding::Early,
                ..FixConfig::default()
            },
        ),
    );
    show(
        "Ray (continuation-passing)",
        &run_baseline(&setup, &graph, &profiles::ray_cps(NodeId(11), &cost)),
    );
    show(
        "Ray (blocking)",
        &run_baseline(&setup, &graph, &profiles::ray_blocking(NodeId(11), &cost)),
    );
    show(
        "OpenWhisk + MinIO + K8s",
        &run_baseline(&setup, &graph, &profiles::openwhisk(&workers, &cost)),
    );
    println!("\n(see `cargo run -p fix-bench --bin figures` for the full paper tables)");
}
