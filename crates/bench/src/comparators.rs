//! Comparator table: Fix and every baseline costed side-by-side from
//! one generic workload (the open ROADMAP item from PR 2).
//!
//! The One Fix API makes each backend interchangeable, so the same
//! count-string map-reduce — written once against the traits — runs on
//! one client type, [`fix_cluster::ClusterClient`], under Fixpoint's own
//! [`Profile`] and under every baseline profile, and the resulting
//! `RunReport`s drop into one table. Results are asserted
//! bit-identical across rows (content addressing guarantees it); only
//! the *costs* differ.

use fix_baselines::{profiles, CostModel, Profile};
use fix_cluster::ClusterClient;
use fix_netsim::NodeId;
use fix_workloads::wordcount::{run_wordcount_fix, store_shards};

/// One system's row.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub name: String,
    /// The workload's answer on this backend (must agree everywhere).
    pub total: u64,
    /// Aggregated simulated cost across the workload's cluster runs.
    pub makespan_us: u64,
    /// Tasks executed in simulation.
    pub tasks: u64,
    /// Bytes moved over the simulated network.
    pub bytes_moved: u64,
}

/// The completed table.
#[derive(Debug, Clone)]
pub struct Comparators {
    /// Fix first, then the baseline profiles.
    pub rows: Vec<Row>,
    /// Workload scale, for the header.
    pub n_shards: usize,
    /// Shard size in bytes, for the header.
    pub shard_bytes: usize,
}

/// Corpus seed: fixed so every row sees bit-identical shards.
const SEED: u64 = 11;

fn run_workload(name: &str, cc: &ClusterClient, n_shards: usize, shard_bytes: usize) -> Row {
    let shards = store_shards(cc, SEED, n_shards, shard_bytes);
    let total = run_wordcount_fix(cc, &shards, b"of").expect("workload runs");
    let rs = cc.reports();
    Row {
        name: name.into(),
        total,
        makespan_us: rs.iter().map(|r| r.makespan_us).sum(),
        tasks: rs.iter().map(|r| r.tasks_run).sum(),
        bytes_moved: rs.iter().map(|r| r.bytes_moved).sum(),
    }
}

/// The baseline profiles worth a row, over the default 10-worker setup.
fn baseline_profiles() -> Vec<Profile> {
    let cost = CostModel::default();
    let workers: Vec<NodeId> = (0..10).map(NodeId).collect();
    vec![
        profiles::openwhisk(&workers, &cost),
        profiles::ray_cps(workers[0], &cost),
        profiles::ray_blocking(workers[0], &cost),
        profiles::pheromone(&workers, &cost),
        profiles::faasm(&cost),
    ]
}

/// Runs the comparator table at the given workload scale.
pub fn run(n_shards: usize, shard_bytes: usize) -> Comparators {
    // One client type; a row is the profile it was built with.
    let mut systems = vec![("Fix (cluster engine)".to_string(), ClusterClient::builder())];
    for profile in baseline_profiles() {
        systems.push((
            profile.name.clone(),
            ClusterClient::builder().profile(profile),
        ));
    }
    let rows: Vec<Row> = systems
        .into_iter()
        .map(|(name, builder)| {
            let cc = builder.build().expect("cluster client");
            run_workload(&name, &cc, n_shards, shard_bytes)
        })
        .collect();

    let expected = rows[0].total;
    for r in &rows {
        assert_eq!(
            r.total, expected,
            "backend '{}' disagrees on the workload result",
            r.name
        );
    }
    Comparators {
        rows,
        n_shards,
        shard_bytes,
    }
}

impl std::fmt::Display for Comparators {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Comparators — count-string map-reduce over the One Fix API \
             ({} shards × {} KiB, identical result {} on every backend)",
            self.n_shards,
            self.shard_bytes / 1024,
            self.rows.first().map(|r| r.total).unwrap_or(0),
        )?;
        writeln!(
            f,
            "{:<28} {:>12} {:>8} {:>14}",
            "system", "sim time", "tasks", "data moved"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<28} {:>10.1} ms {:>8} {:>10.2} MiB",
                r.name,
                r.makespan_us as f64 / 1e3,
                r.tasks,
                r.bytes_moved as f64 / (1 << 20) as f64,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fix_beats_every_baseline_and_all_agree() {
        let table = run(8, 8 << 10);
        assert_eq!(table.rows.len(), 6);
        let fix = &table.rows[0];
        assert!(fix.tasks > 0, "fix row must have simulated tasks");
        for b in &table.rows[1..] {
            assert!(
                fix.makespan_us < b.makespan_us,
                "Fix ({} µs) should undercut {} ({} µs)",
                fix.makespan_us,
                b.name,
                b.makespan_us
            );
        }
    }
}
