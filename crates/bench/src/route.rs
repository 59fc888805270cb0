//! `route`: memoization-affinity routing vs the placement baselines.
//!
//! The dispatcher's pitch is that content-addressed requests make
//! cache-aware placement *information rather than a heuristic*: the
//! front-end computes the root handle before any node is involved, so
//! rendezvous hashing on that handle sends repeats where their results
//! already live. This module measures exactly that, twice:
//!
//! * **policy table** — the same seeded multi-tenant workload dispatched
//!   across the same nodes under [`RoutingPolicy::Affinity`],
//!   [`RoutingPolicy::RoundRobin`], and [`RoutingPolicy::Random`];
//!   affinity's warm-hit rate is the win, spills are its cost;
//! * **recovery window** — the same node killed at the same instant,
//!   brought back once as a [`RestartKind::Warm`] log-reopen and once as
//!   a [`RestartKind::Cold`] empty replacement; the window is the
//!   virtual time from restart to the node's first warm placement.
//!
//! Every number is a pure function of the virtual clock — bit-identical
//! across runs — but the recovery half populates real durable
//! directories, so (like `trace`) this table is *not* part of
//! `figures all`; run `figures route` explicitly.

use fix_serve::{
    dispatch, ArrivalProcess, DispatchConfig, DispatchOutcome, FaultPlan, NodeStorage, RequestKind,
    RestartKind, RoutingPolicy, ServeConfig, TenantSpec,
};
use std::fmt;

/// One policy's row in the comparison table.
pub struct PolicyRow {
    /// The policy's display label.
    pub policy: &'static str,
    /// Placements that found their thunk already memoized on the node.
    pub warm_hits: u64,
    /// Placements that had to run the procedure cold.
    pub cold_misses: u64,
    /// Requests diverted off their rendezvous node by load (affinity
    /// only; the baselines never consult the queue depths).
    pub spilled: u64,
    /// Requests served within their deadline, summed over nodes.
    pub served: u64,
    /// Requests expired in queue, summed over nodes.
    pub expired: u64,
    /// warm_hits / (warm_hits + cold_misses), as a percentage.
    pub hit_pct: f64,
}

/// The routing comparison plus the warm-vs-cold recovery windows.
pub struct RouteReport {
    /// Nodes behind the dispatcher in the policy comparison.
    pub nodes: usize,
    /// One row per routing policy, affinity first.
    pub rows: Vec<PolicyRow>,
    /// The affinity run's full serve report (tenant + node tables).
    pub affinity_tables: String,
    /// Virtual µs from warm restart to the node's first warm placement.
    pub warm_window_us: u64,
    /// Same window when the node comes back as an empty replacement.
    pub cold_window_us: u64,
}

impl fmt::Display for RouteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "route — placement policy vs memoization hit rate \
             ({} nodes, same seed; virtual clock, deterministic)",
            self.nodes
        )?;
        writeln!(
            f,
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
            "policy", "warm", "cold", "hit%", "served", "expired", "spill"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>8} {:>8} {:>7.1}% {:>8} {:>8} {:>7}",
                r.policy, r.warm_hits, r.cold_misses, r.hit_pct, r.served, r.expired, r.spilled
            )?;
        }
        let base = self
            .rows
            .iter()
            .skip(1)
            .map(|r| r.hit_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        writeln!(
            f,
            "affinity hit-rate delta over best baseline: {:+.1} points",
            self.rows[0].hit_pct - base
        )?;
        writeln!(f)?;
        writeln!(f, "affinity run, per-tenant and per-node:")?;
        writeln!(f, "{}", self.affinity_tables)?;
        writeln!(
            f,
            "recovery window (restart → first warm placement on the node):"
        )?;
        writeln!(f, "{:<18} {:>12}", "restart", "window µs")?;
        writeln!(f, "{:<18} {:>12}", "warm (log reopen)", self.warm_window_us)?;
        writeln!(
            f,
            "{:<18} {:>12}",
            "cold (replacement)", self.cold_window_us
        )
    }
}

/// The fixed-seed workload behind both halves: a repeat-heavy mix
/// (small Fib and SeBS key spaces) where memoization placement has
/// something to win, plus a bursty tenant so the kill in the recovery
/// half lands on a stranded backlog. `scale` stretches the horizon.
pub fn base_config(scale: u32) -> ServeConfig {
    ServeConfig {
        seed: 17,
        duration_us: 60_000 * scale as u64,
        drivers: 1, // per node
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
    }
}

fn policy_config(scale: u32, nodes: usize, policy: RoutingPolicy) -> DispatchConfig {
    DispatchConfig {
        base: base_config(scale),
        nodes,
        policy,
        spill_margin: 16,
        storage: NodeStorage::Memory,
        fault: None,
    }
}

fn summarize(policy: &'static str, outcome: &DispatchOutcome) -> PolicyRow {
    let nodes = &outcome.report.nodes;
    let sum = |f: fn(&fix_serve::NodeReport) -> u64| nodes.iter().map(f).sum();
    PolicyRow {
        policy,
        warm_hits: sum(|n| n.warm_hits),
        cold_misses: sum(|n| n.cold_misses),
        spilled: sum(|n| n.spilled_away),
        served: sum(|n| n.served),
        expired: sum(|n| n.expired),
        hit_pct: outcome.hit_rate() * 100.0,
    }
}

/// One faulted run: kill node 1 mid-burst, bring it back per `restart`,
/// and return the virtual recovery window.
fn recovery_window(scale: u32, restart: RestartKind) -> u64 {
    let dir = tempfile::tempdir().expect("tempdir");
    let cfg = DispatchConfig {
        base: base_config(scale),
        nodes: 3,
        policy: RoutingPolicy::Affinity,
        spill_margin: 16,
        storage: NodeStorage::Durable(dir.path().to_path_buf()),
        fault: Some(FaultPlan {
            node: 1,
            kill_at_us: 20_000,
            restart_at_us: 30_000,
            restart,
        }),
    };
    let outcome = dispatch(&cfg).expect("faulted dispatch run");
    outcome.assert_accounting_closure();
    outcome
        .recovery_window_us
        .expect("the restarted node must re-earn a warm placement")
}

/// Runs both halves and assembles the report.
pub fn run(scale: u32, nodes: usize) -> RouteReport {
    let policies = [
        ("affinity", RoutingPolicy::Affinity),
        ("round-robin", RoutingPolicy::RoundRobin),
        ("random", RoutingPolicy::Random),
    ];
    let mut rows = Vec::with_capacity(policies.len());
    let mut affinity_tables = String::new();
    for (label, policy) in policies {
        let outcome = dispatch(&policy_config(scale, nodes, policy)).expect("dispatch run");
        outcome.assert_accounting_closure();
        if policy == RoutingPolicy::Affinity {
            affinity_tables = outcome.report.to_string();
        }
        rows.push(summarize(label, &outcome));
    }
    RouteReport {
        nodes,
        rows,
        affinity_tables,
        warm_window_us: recovery_window(scale, RestartKind::Warm),
        cold_window_us: recovery_window(scale, RestartKind::Cold),
    }
}

/// Renders the table with its header.
pub fn table_text(scale: u32, nodes: usize) -> String {
    run(scale, nodes).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_table_is_deterministic_and_affinity_wins() {
        let report = run(1, 4);
        let affinity = &report.rows[0];
        assert_eq!(affinity.policy, "affinity");
        for baseline in &report.rows[1..] {
            assert!(
                affinity.hit_pct > baseline.hit_pct,
                "affinity ({:.1}%) must beat {} ({:.1}%)",
                affinity.hit_pct,
                baseline.policy,
                baseline.hit_pct
            );
        }
        assert!(
            report.warm_window_us < report.cold_window_us,
            "a log reopen ({} µs) must re-warm faster than an empty \
             replacement ({} µs)",
            report.warm_window_us,
            report.cold_window_us
        );
        assert_eq!(
            table_text(1, 4),
            report.to_string(),
            "same seed must print the same table"
        );
    }
}
