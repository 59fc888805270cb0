//! Fig. 8b: counting a 3-character string over 984 × 100 MiB Wikipedia
//! shards on a 10-node, 320-vCPU cluster.
//!
//! Compares Fixpoint against its own ablations (no locality; no
//! locality + internal I/O with the paper's 128-thread
//! oversubscription), the two Ray styles, Pheromone (map phase only,
//! as in the paper), and OpenWhisk + MinIO + K8s.

use fix_baselines::{profiles, run_baseline, CostModel};
use fix_cluster::{run_fix, Binding, ClusterSetup, FixConfig, Placement, RunReport};
use fix_netsim::{NetConfig, NodeId, NodeSpec};
use fix_workloads::wordcount::{fig8b_graph, Fig8bParams};

/// One system's bar in the figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub name: String,
    /// End-to-end time, seconds.
    pub secs: f64,
    /// CPU waiting percentage over the worker nodes.
    pub cpu_waiting_pct: f64,
    /// Bytes moved over the network.
    pub bytes_moved: u64,
}

/// The completed figure.
#[derive(Debug, Clone)]
pub struct Fig8b {
    /// All systems, Fixpoint first.
    pub rows: Vec<Row>,
}

fn row(name: &str, r: &RunReport) -> Row {
    Row {
        name: name.into(),
        secs: r.makespan_secs(),
        cpu_waiting_pct: r.cpu.waiting_percent(),
        bytes_moved: r.bytes_moved,
    }
}

/// The cluster: `params.nodes` as workers plus two more nodes (the
/// last is the Ray driver), each with `cores` cores (32, or the 128 of
/// the paper's oversubscribed ablation) and 128 GiB. Shards live on EBS
/// gp3 volumes (paper §5.1), so a node streams at the volume's
/// ~300 MB/s, not the 10 Gb NIC's.
pub fn setup(params: &Fig8bParams, cores: u32) -> ClusterSetup {
    ClusterSetup {
        specs: vec![
            NodeSpec {
                cores,
                ram_bytes: 128 << 30,
            };
            params.nodes.len() + 2
        ],
        net: NetConfig::default().with_bandwidth_bps(300_000_000),
        workers: params.nodes.clone(),
        client: None,
    }
}

/// Runs the figure. `params` defaults reproduce the paper's scale
/// (984 × 100 MiB); smaller values keep tests fast.
pub fn run(params: &Fig8bParams) -> Fig8b {
    let cost = CostModel::default();
    let graph = fig8b_graph(params);
    // Map-only graph for Pheromone (its reduce never ran in the paper).
    let map_only = {
        let mut p = params.clone();
        p.merge_us = 0;
        let g = fig8b_graph(&p);
        // Keep only the map tasks.
        let map_count = params.n_shards;
        fix_cluster::JobGraph {
            objects: g.objects.clone(),
            tasks: g.tasks[..map_count].to_vec(),
            outputs: g.outputs[..map_count].to_vec(),
        }
    };

    // MinIO is deployed across the same cluster (paper §5.1), so store
    // traffic spreads over every node's bandwidth.
    let store = &params.nodes;
    let driver = NodeId(params.nodes.len() + 1); // Ray driver / client.
    let cluster = setup(params, 32);

    let fix = run_fix(&cluster, &graph, &FixConfig::default());
    let no_loc = run_fix(
        &cluster,
        &graph,
        &FixConfig {
            placement: Placement::Random,
            ..FixConfig::default()
        },
    );
    // Paper: "oversubscribes the CPU, running 128 threads instead of 31".
    let no_loc_internal = run_fix(
        &setup(params, 128),
        &graph,
        &FixConfig {
            placement: Placement::Random,
            binding: Binding::Early,
            ..FixConfig::default()
        },
    );
    let ray_cps = run_baseline(&cluster, &graph, &profiles::ray_cps(driver, &cost));
    let ray_blocking = run_baseline(&cluster, &graph, &profiles::ray_blocking(driver, &cost));
    let pheromone = run_baseline(&cluster, &map_only, &profiles::pheromone(store, &cost));
    let openwhisk = run_baseline(&cluster, &graph, &profiles::openwhisk(store, &cost));

    Fig8b {
        rows: vec![
            row("Fixpoint", &fix),
            row("Fixpoint (no locality)", &no_loc),
            row("Fixpoint (no locality + internal I/O)", &no_loc_internal),
            row("Ray (continuation-passing)", &ray_cps),
            row("Ray (blocking)", &ray_blocking),
            row("Pheromone + MinIO (map only)", &pheromone),
            row("OpenWhisk + MinIO + K8s", &openwhisk),
        ],
    }
}

impl std::fmt::Display for Fig8b {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 8b — count-string over sharded corpus, 10 nodes / 320 vCPUs"
        )?;
        writeln!(
            f,
            "{:<40} {:>9} {:>13} {:>13}",
            "system", "time", "CPU waiting", "data moved"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<40} {:>7.2} s {:>12.0}% {:>10.1} GiB",
                r.name,
                r.secs,
                r.cpu_waiting_pct,
                r.bytes_moved as f64 / (1u64 << 30) as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_at_reduced_scale() {
        // 1/8 scale for test speed; the structure is identical.
        let fig = run(&Fig8bParams {
            n_shards: 123,
            shard_size: 100 << 20,
            ..Fig8bParams::default()
        });
        let get = |name: &str| fig.rows.iter().find(|r| r.name.starts_with(name)).unwrap();
        let fix = get("Fixpoint");
        let no_loc = get("Fixpoint (no locality)");
        let internal = get("Fixpoint (no locality + internal");
        let cps = get("Ray (continuation");
        let blocking = get("Ray (blocking");
        let ow = get("OpenWhisk");

        // Paper's ordering: Fix < Ray CPS < Ray blocking < ... < OpenWhisk,
        // and the ablations sit far above Fix.
        assert!(fix.secs < cps.secs, "fix {} cps {}", fix.secs, cps.secs);
        assert!(cps.secs < blocking.secs);
        assert!(blocking.secs < ow.secs);
        assert!(no_loc.secs > 3.0 * fix.secs, "locality ablation too weak");
        assert!(internal.secs >= no_loc.secs * 0.9);

        // Paper: Fix 37% CPU waiting vs 92% for internal I/O / OpenWhisk.
        assert!(fix.cpu_waiting_pct < internal.cpu_waiting_pct);
        assert!(ow.cpu_waiting_pct > 80.0);

        // Locality means Fixpoint moves only tiny merge outputs (bytes),
        // while the ablations ship 100 MiB shards around.
        assert!(fix.bytes_moved < 1 << 20, "fix moved {}", fix.bytes_moved);
        assert!(no_loc.bytes_moved > 100 * fix.bytes_moved.max(1));
    }
}
