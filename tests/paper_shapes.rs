//! Integration tests asserting the *shapes* of the paper's evaluation:
//! who wins, by roughly what factor, and where the crossovers fall.
//! These are the repository's executable version of EXPERIMENTS.md.

use fix::baselines::{profiles, run_baseline, CostModel};
use fix::cluster::{run_fix, Binding, FixConfig, Placement};
use fix::workloads::wordcount::{fig8a_graph, fig8b_graph, Fig8aParams, Fig8bParams};
use fix_bench::{fig8a, fig8b};

/// §1 summary table 2 / Fig. 8b: Fixpoint avoids CPU starvation.
#[test]
fn summary_table_cpu_starvation() {
    let params = Fig8bParams {
        n_shards: 150,
        ..Fig8bParams::default()
    };
    let graph = fig8b_graph(&params);
    let setup = fig8b::setup(&params, 32);
    let fix = run_fix(&setup, &graph, &FixConfig::default());
    let internal = run_fix(
        &fig8b::setup(&params, 128),
        &graph,
        &FixConfig {
            placement: Placement::Random,
            binding: Binding::Early,
            ..FixConfig::default()
        },
    );
    let ow = run_baseline(
        &setup,
        &graph,
        &profiles::openwhisk(&params.nodes, &CostModel::default()),
    );

    // Paper: Fix 3.25 s / 37% waiting; internal 33.8 s / 92%; OW 63.9 s / 92%.
    assert!(fix.makespan_us < internal.makespan_us / 3);
    assert!(fix.makespan_us < ow.makespan_us / 4);
    assert!(fix.cpu.waiting_percent() < 75.0);
    assert!(internal.cpu.waiting_percent() > 85.0);
    assert!(ow.cpu.waiting_percent() > 85.0);
}

/// Fig. 8a headline: late binding buys close to an order of magnitude.
#[test]
fn late_binding_order_of_magnitude() {
    let graph = fig8a_graph(&Fig8aParams::default());
    let fix = run_fix(&fig8a::setup(32), &graph, &FixConfig::default());
    let internal = run_fix(
        &fig8a::setup(200),
        &graph,
        &FixConfig {
            binding: Binding::Early,
            ..FixConfig::default()
        },
    );
    let speedup = internal.makespan_us as f64 / fix.makespan_us as f64;
    // Paper: 8.7×.
    assert!((4.0..20.0).contains(&speedup), "speedup {speedup:.1}");
    // Throughput shape: thousands vs hundreds of tasks/s.
    assert!(fix.throughput() > 2_000.0, "{}", fix.throughput());
    assert!(internal.throughput() < 1_000.0, "{}", internal.throughput());
}

/// Fig. 7b headline: chain composition costs per system.
#[test]
fn chain_composition_costs() {
    let fig = fix_bench::fig7b::run(500);
    let fix = &fig.rows[0];
    let pher = &fig.rows[1];
    let ray = &fig.rows[2];
    // Nearby: Fix single-digit ms (paper 5 ms), Pheromone tens of ms
    // (paper 17.6), Ray high hundreds (paper 821).
    assert!(fix.nearby_us < 10_000);
    assert!((5_000..60_000).contains(&pher.nearby_us));
    assert!(ray.nearby_us > 400_000);
    // Remote: Fix ≈ RTT + ε (paper 25.7 ms); Ray ≈ 500 RTTs (paper 11.7 s).
    assert!((21_000..40_000).contains(&fix.remote_us));
    assert!((8_000_000..16_000_000).contains(&ray.remote_us));
}

/// Fig. 9 headline factors at arity 2^6 (paper: blocking 22.3×, CPS 49.9×).
#[test]
fn bptree_slowdowns_at_fine_granularity() {
    let fig = fix_bench::fig9::run(4096, &[4]);
    let row = fig.model.iter().find(|r| r.log2_arity == 6).unwrap();
    let blocking = row.ray_blocking_us as f64 / row.fix_us as f64;
    let cps = row.ray_cps_us as f64 / row.fix_us as f64;
    assert!(
        (8.0..60.0).contains(&blocking),
        "blocking slowdown {blocking:.1}"
    );
    assert!(cps > blocking, "CPS must be the worst at fine granularity");
    // And the real runtime agrees structurally: one invocation per level.
    let real = &fig.real[0];
    assert_eq!(real.invocations_per_lookup, real.depth as u64);
}

/// Fig. 10 headline: Fixpoint beats Ray+MinIO beats OpenWhisk.
#[test]
fn compile_job_ordering() {
    let fig = fix_bench::fig10::run(400);
    assert!(fig.rows[0].secs < fig.rows[1].secs);
    assert!(fig.rows[1].secs < fig.rows[2].secs);
    // Fixpoint ships each source once; the baselines re-fetch headers per
    // compile, so they move far more data (the paper's visibility story).
    assert!(fig.rows[1].bytes_moved > 10 * fig.rows[0].bytes_moved.max(1));
}
