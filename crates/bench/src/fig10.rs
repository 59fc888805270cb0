//! Fig. 10: the burst-parallel compilation job on the 10-node cluster.
//!
//! ≈2000 parallel compiles plus one link. For Fixpoint, all dependencies
//! (sources, headers, binaries) are uploaded from the client and shipped
//! with the invocations; Ray+MinIO launches executables via Popen and
//! reads/writes MinIO; OpenWhisk actions pull everything from MinIO with
//! per-node container cold starts.

use fix_baselines::{profiles, run_baseline, CostModel};
use fix_cluster::{run_fix, ClusterSetup, FixConfig, RunReport};
use fix_netsim::{NetConfig, NodeId, NodeSpec};
use fix_workloads::compile::{fig10_graph, Fig10Params};

/// One system's bar.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub name: String,
    /// End-to-end build time, seconds.
    pub secs: f64,
    /// Bytes moved.
    pub bytes_moved: u64,
}

/// The completed figure.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Fixpoint, Ray + MinIO, OpenWhisk.
    pub rows: Vec<Row>,
}

fn row(name: &str, r: &RunReport) -> Row {
    Row {
        name: name.into(),
        secs: r.makespan_secs(),
        bytes_moved: r.bytes_moved,
    }
}

/// The client node, where Fixpoint's sources start.
pub const CLIENT: NodeId = NodeId(11);

/// The compile cluster: ten workers (`NodeId(0..10)`), a spare node and
/// the [`CLIENT`], each a default node on the default network.
pub fn setup() -> ClusterSetup {
    ClusterSetup {
        specs: vec![NodeSpec::default(); 12],
        net: NetConfig::default(),
        workers: (0..10).map(NodeId).collect(),
        client: Some(CLIENT),
    }
}

/// Runs the figure with `n_files` translation units.
pub fn run(n_files: usize) -> Fig10 {
    let cost = CostModel::default();
    let setup = setup();
    // MinIO is spread over the cluster nodes (paper §5.1).
    let store = &setup.workers;

    // Fixpoint: dependencies ship from the client with the invocations.
    let fix_graph = fig10_graph(&Fig10Params {
        n_files,
        source_home: CLIENT,
        ..Fig10Params::default()
    });
    let fix = run_fix(&setup, &fix_graph, &FixConfig::default());

    // Baselines read sources/headers from MinIO.
    let minio_graph = fig10_graph(&Fig10Params {
        n_files,
        source_home: store[0],
        ..Fig10Params::default()
    });
    // libclang + liblld executables are ~100 MB pulled per node on first
    // use (the paper's Ray setup loads binaries on demand).
    let ray = run_baseline(
        &setup,
        &minio_graph,
        &profiles::ray_minio(CLIENT, store, 100 << 20, &cost),
    );
    let ow = run_baseline(&setup, &minio_graph, &profiles::openwhisk(store, &cost));

    Fig10 {
        rows: vec![
            row("Fixpoint", &fix),
            row("Ray + MinIO", &ray),
            row("OpenWhisk + MinIO + K8s", &ow),
        ],
    }
}

impl std::fmt::Display for Fig10 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 10 — compile ~2000 C files + link, 10 nodes / 320 vCPUs"
        )?;
        writeln!(f, "{:<26} {:>9} {:>14}", "system", "time", "data moved")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<26} {:>7.2} s {:>11.2} GiB",
                r.name,
                r.secs,
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
    fn ordering_matches_paper() {
        let fig = run(500); // Quarter scale for test speed.
        let fix = &fig.rows[0];
        let ray = &fig.rows[1];
        let ow = &fig.rows[2];
        // Paper: Fixpoint 39.5 s < Ray 76.9 s < OpenWhisk 100.0 s.
        assert!(fix.secs < ray.secs, "fix {} ray {}", fix.secs, ray.secs);
        assert!(ray.secs < ow.secs, "ray {} ow {}", ray.secs, ow.secs);
        // Speedup bands around the paper's 1.9× and 2.5×.
        let vs_ray = ray.secs / fix.secs;
        let vs_ow = ow.secs / fix.secs;
        assert!((1.2..6.0).contains(&vs_ray), "vs ray {vs_ray:.2}");
        assert!(vs_ow > vs_ray, "vs ow {vs_ow:.2}");
    }
}
