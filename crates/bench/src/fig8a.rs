//! Fig. 8a: late binding vs "internal" I/O for one-off functions.
//!
//! 1024 invocations, each needing one small input from a storage service
//! 150 ms away, on a 32-core / 64 GiB server. Fixpoint fetches inputs
//! *before* committing cores and RAM; the "internal I/O" ablation claims
//! resources first (with the paper's 200-way core oversubscription) and
//! stalls them during the fetch.

use fix_cluster::{run_fix, Binding, ClusterSetup, FixConfig, RunReport};
use fix_netsim::{NetConfig, NodeId, NodeSpec, MS};
use fix_workloads::wordcount::{fig8a_graph, Fig8aParams};

/// One system's row in the paper's Fig. 8a table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label.
    pub name: String,
    /// User CPU time (core-µs converted to wall-equivalent ms).
    pub user_ms: f64,
    /// System CPU time, ms.
    pub system_ms: f64,
    /// I/O + wait time, ms.
    pub io_wait_ms: f64,
    /// End-to-end duration, ms.
    pub total_ms: f64,
    /// Task throughput.
    pub tasks_per_s: f64,
}

/// The completed figure.
#[derive(Debug, Clone)]
pub struct Fig8a {
    /// Fix (late binding) and the internal-I/O ablation.
    pub rows: Vec<Row>,
}

const WORKER: NodeId = NodeId(0);
const STORAGE: NodeId = NodeId(1);

/// One worker with `worker_cores` cores and 64 GiB, and the storage node
/// (`NodeId(1)`, Fig. 8a's default `storage`) 150 ms away.
pub fn setup(worker_cores: u32) -> ClusterSetup {
    ClusterSetup {
        specs: vec![
            NodeSpec {
                cores: worker_cores,
                ram_bytes: 64 << 30,
            },
            NodeSpec::default(),
        ],
        net: NetConfig::default().with_extra_latency(STORAGE, 150 * MS),
        workers: vec![WORKER],
        client: None,
    }
}

fn to_row(name: &str, report: &RunReport, cores: u64) -> Row {
    // Express CPU states as wall-equivalent time on the node (divide
    // core-µs by core count), matching the paper's per-run table.
    Row {
        name: name.into(),
        user_ms: report.cpu.user_core_us as f64 / cores as f64 / 1e3,
        system_ms: report.cpu.system_core_us as f64 / cores as f64 / 1e3,
        io_wait_ms: report.cpu.waiting_core_us as f64 / cores as f64 / 1e3,
        total_ms: report.makespan_us as f64 / 1e3,
        tasks_per_s: report.throughput(),
    }
}

/// Runs the figure with the paper's parameters (scaled by `n_tasks`).
pub fn run(n_tasks: usize) -> Fig8a {
    let params = Fig8aParams {
        n_tasks,
        storage: STORAGE,
        ..Fig8aParams::default()
    };
    let graph = fig8a_graph(&params);

    // Fixpoint: late binding, 32 real cores.
    let fix = run_fix(&setup(32), &graph, &FixConfig::default());

    // Internal I/O: claim-then-fetch, cores oversubscribed to 200 (the
    // paper's configuration); RAM is NOT oversubscribed, so at most 64
    // one-GB invocations hold slices concurrently.
    let internal = run_fix(
        &setup(200),
        &graph,
        &FixConfig {
            binding: Binding::Early,
            ..FixConfig::default()
        },
    );

    Fig8a {
        rows: vec![
            to_row("Fix", &fix, 32),
            to_row("Fix (with \"internal\" I/O)", &internal, 200),
        ],
    }
}

impl std::fmt::Display for Fig8a {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 8a — 1024 one-off invocations, inputs behind 150 ms storage"
        )?;
        writeln!(
            f,
            "{:<28} {:>9} {:>9} {:>10} {:>9} {:>12}",
            "", "user", "system", "I/O+wait", "total", "throughput"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<28} {:>6.0} ms {:>6.0} ms {:>7.0} ms {:>6.0} ms {:>7.0} task/s",
                r.name, r.user_ms, r.system_ms, r.io_wait_ms, r.total_ms, r.tasks_per_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_binding_is_many_times_faster() {
        let fig = run(1024);
        let fix = &fig.rows[0];
        let internal = &fig.rows[1];
        let speedup = internal.total_ms / fix.total_ms;
        // Paper: 8.7×. Accept a generous band around it.
        assert!(
            (4.0..20.0).contains(&speedup),
            "speedup {speedup:.1} (fix {:.0} ms, internal {:.0} ms)",
            fix.total_ms,
            internal.total_ms
        );
        // Internal I/O spends its life waiting (paper: 2621 of 2638 ms).
        assert!(internal.io_wait_ms > 10.0 * internal.user_ms);
        // Fix total is in the few-hundred-ms regime (paper: 268 ms).
        assert!(fix.total_ms > 100.0 && fix.total_ms < 1_000.0);
        // Throughput ratio is paper-like (3827 vs 388 tasks/s ≈ 10×).
        assert!(fix.tasks_per_s > 3.0 * internal.tasks_per_s);
    }
}
