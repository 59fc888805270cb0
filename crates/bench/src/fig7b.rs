//! Fig. 7b: a chain of 500 function invocations, client near or far.
//!
//! Fixpoint and Pheromone ship the whole chain's control flow in one
//! message; Ray resolves every dependency through the (possibly remote)
//! driver. Run on the simulated cluster.

use fix_baselines::{profiles, run_baseline, CostModel};
use fix_cluster::{run_fix, ClusterSetup, FixConfig, JobGraph, JobGraphBuilder, TaskId};
use fix_netsim::{NetConfig, NodeId, NodeSpec, Time};

/// One measured system at one client distance.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub system: String,
    /// End-to-end chain latency with a nearby client, µs.
    pub nearby_us: Time,
    /// End-to-end chain latency with a remote client (21.3 ms RTT), µs.
    pub remote_us: Time,
}

/// The completed figure.
#[derive(Debug, Clone)]
pub struct Fig7b {
    /// Chain length used.
    pub chain_len: usize,
    /// Rows: Fixpoint, Pheromone, Ray.
    pub rows: Vec<Row>,
}

/// The client's one-way latency beyond the base, nearby and remote: the
/// remote client sits 21.3 ms RTT away, like the paper's.
pub const CLIENT_EXTRA_US: [Time; 2] = [0, 10_650 - 50];

/// A chain of `n` one-µs invocations, each depending on the last.
pub fn chain_graph(n: usize) -> JobGraph {
    let mut b = JobGraphBuilder::new();
    let mut prev: Option<TaskId> = None;
    for _ in 0..n {
        let mut t = fix_cluster::small_task(1, 8);
        if let Some(p) = prev {
            t.deps.push(p);
        }
        prev = Some(b.task(t));
    }
    b.build()
}

/// Two workers and a client node (`NodeId(2)`) `client_extra_us` beyond
/// the base latency.
pub fn setup(client_extra_us: Time) -> ClusterSetup {
    let client = NodeId(2);
    let net = NetConfig::default().with_extra_latency(client, client_extra_us);
    ClusterSetup {
        specs: vec![NodeSpec::default(); 3],
        net,
        workers: vec![NodeId(0), NodeId(1)],
        client: Some(client),
    }
}

/// Runs the figure for a chain of `n` invocations.
pub fn run(n: usize) -> Fig7b {
    let cost = CostModel::default();
    let graph = chain_graph(n);
    let mut fix = Vec::new();
    let mut pher = Vec::new();
    let mut ray = Vec::new();
    for extra in CLIENT_EXTRA_US {
        let s = setup(extra);
        fix.push(run_fix(&s, &graph, &FixConfig::default()).makespan_us);
        pher.push(run_baseline(&s, &graph, &profiles::pheromone(&[NodeId(1)], &cost)).makespan_us);
        ray.push(run_baseline(&s, &graph, &profiles::ray_cps(NodeId(2), &cost)).makespan_us);
    }
    Fig7b {
        chain_len: n,
        rows: vec![
            Row {
                system: "Fixpoint".into(),
                nearby_us: fix[0],
                remote_us: fix[1],
            },
            Row {
                system: "Pheromone".into(),
                nearby_us: pher[0],
                remote_us: pher[1],
            },
            Row {
                system: "Ray".into(),
                nearby_us: ray[0],
                remote_us: ray[1],
            },
        ],
    }
}

impl std::fmt::Display for Fig7b {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 7b — chain of {} invocations (simulated cluster)",
            self.chain_len
        )?;
        writeln!(
            f,
            "{:<12} {:>16} {:>24}",
            "system", "nearby client", "remote client (21.3ms RTT)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>13.1} ms {:>21.1} ms",
                r.system,
                r.nearby_us as f64 / 1e3,
                r.remote_us as f64 / 1e3
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = run(500);
        let get = |name: &str| fig.rows.iter().find(|r| r.system == name).unwrap();
        let fix = get("Fixpoint");
        let pher = get("Pheromone");
        let ray = get("Ray");

        // Paper: Fixpoint 5 ms / 25.7 ms; Pheromone 17.6 / 38.7; Ray 821 / 11700.
        assert!(fix.nearby_us < pher.nearby_us);
        assert!(pher.nearby_us < ray.nearby_us);
        // Remote: Fix/Pheromone pay ~1 extra RTT; Ray pays ~500.
        assert!(fix.remote_us < fix.nearby_us + 30_000);
        assert!(
            ray.remote_us > ray.nearby_us + 400 * 21_300,
            "ray remote {} nearby {}",
            ray.remote_us,
            ray.nearby_us
        );
        // Ray remote lands in the ~10 s regime (paper: 11.7 s).
        assert!(ray.remote_us > 8_000_000 && ray.remote_us < 20_000_000);
    }
}
