//! The two billing experiments behind the paper's §6 argument.
//!
//! 1. **Noisy neighbor**: the same logical work runs on a dedicated
//!    socket and next to a cache-thrashing tenant. Pay-for-effort bills
//!    the inflated wall time to the customer; pay-for-results charges
//!    identically, because instructions and L1/L2 misses don't change.
//!
//! 2. **Scheduling incentive**: the Fig. 8a workload (1,024 one-off
//!    invocations, inputs behind 150 ms storage) runs on the simulated
//!    cluster with late binding (Fix) and with early binding (status
//!    quo "internal" I/O). Under pay-for-effort the *same results* cost
//!    the customer ~10× more on the poorly-scheduled platform — and the
//!    provider pockets it, which is the perverse incentive the paper
//!    calls out. Under pay-for-results the bills are equal, so the
//!    provider only profits by scheduling better.

use crate::bill::{bill_effort, bill_results, Invoice};
use crate::money::Money;
use crate::perf::{project, CacheSpec, Contention, PerfSample};
use crate::price::PriceSheet;
use crate::usage::InvocationUsage;
use fix_cluster::{run_fix, Binding, ClusterSetup, FixConfig, RunReport};
use fix_netsim::{NetConfig, NodeId, NodeSpec, MS};
use fix_workloads::wordcount::{fig8a_graph, Fig8aParams};

/// Outcome of the noisy-neighbor experiment.
#[derive(Debug, Clone)]
pub struct NoisyNeighborOutcome {
    /// Counters on the dedicated socket.
    pub isolated: PerfSample,
    /// Counters next to the noisy tenant.
    pub contended: PerfSample,
    /// (effort, results) invoices on the dedicated socket.
    pub isolated_bills: (Invoice, Invoice),
    /// (effort, results) invoices under contention.
    pub contended_bills: (Invoice, Invoice),
}

/// Runs the noisy-neighbor experiment: 10⁹ instructions over a 24 MiB
/// working set, billed under both models with and without a neighbor
/// taking half the L3 and a third of the memory bandwidth.
pub fn noisy_neighbor(price: &PriceSheet) -> NoisyNeighborOutcome {
    let instructions = 1_000_000_000;
    let working_set = 24 << 20;
    let ram = 1u64 << 30;
    let cache = CacheSpec::default();

    let isolated = project(instructions, working_set, cache, Contention::Isolated);
    let contended = project(
        instructions,
        working_set,
        cache,
        Contention::Noisy {
            l3_available_percent: 50,
            dram_slowdown_percent: 30,
        },
    );
    let usage = |s: PerfSample| InvocationUsage::from_perf(working_set, ram, s, 0);
    NoisyNeighborOutcome {
        isolated,
        contended,
        isolated_bills: (
            bill_effort(&usage(isolated), price),
            bill_results(&usage(isolated), price),
        ),
        contended_bills: (
            bill_effort(&usage(contended), price),
            bill_results(&usage(contended), price),
        ),
    }
}

/// Outcome of the scheduling-incentive experiment.
#[derive(Debug, Clone)]
pub struct SchedulingIncentiveOutcome {
    /// Cluster run with late binding (Fix).
    pub late: RunReport,
    /// Cluster run with early binding ("internal" I/O).
    pub early: RunReport,
    /// Aggregate customer bill under pay-for-effort: (late, early).
    pub effort_bills: (Money, Money),
    /// Aggregate customer bill under pay-for-results: (late, early) —
    /// equal by construction, shown for the table.
    pub results_bills: (Money, Money),
}

/// Builds the paper's Fig. 8a cluster: one 32-core/64-GiB worker and a
/// storage node 150 ms away holding every input. The figure's own
/// definition is `fix_bench::fig8a::setup`; fix-bench depends on this
/// crate, so this one cannot call it and keeps its copy.
fn fig8a_setup(params: &Fig8aParams) -> ClusterSetup {
    let net = NetConfig::default().with_extra_latency(params.storage, 150 * MS);
    ClusterSetup {
        specs: vec![
            NodeSpec {
                cores: 32,
                ram_bytes: 64 << 30,
            },
            NodeSpec::default(),
        ],
        net,
        workers: vec![NodeId(0)],
        client: None,
    }
}

/// Runs Fig. 8a under both binding policies and bills the aggregate.
///
/// Effort billing charges each invocation's slice occupancy — which the
/// simulator reports as busy + claimed-but-waiting core time; with one
/// core and `ram` per task, GiB-ms occupancy is that time scaled by the
/// per-task RAM. Results billing uses the task shape only (inputs, RAM,
/// instructions projected from the task's compute time), so both runs
/// bill identically.
pub fn scheduling_incentive(
    price: &PriceSheet,
    params: &Fig8aParams,
) -> SchedulingIncentiveOutcome {
    let setup = fig8a_setup(params);
    let graph = fig8a_graph(params);
    let late = run_fix(&setup, &graph, &FixConfig::default());
    let early = run_fix(
        &setup,
        &graph,
        &FixConfig {
            binding: Binding::Early,
            ..FixConfig::default()
        },
    );

    let n = params.n_tasks as u64;
    let effort_total = |r: &RunReport| {
        // Slice occupancy across all invocations, in core-µs.
        let occupancy_us = r.cpu.user_core_us + r.cpu.system_core_us + r.cpu.waiting_core_us;
        let per_task = InvocationUsage {
            ram_reserved_bytes: params.ram,
            wall_us: occupancy_us / n,
            ..InvocationUsage::default()
        };
        bill_effort(&per_task, price).total() * n as u128
    };

    // Pay-for-results: identical per-task shape on both runs.
    // Instructions: compute_us at 2 IPC × 3 GHz (the perf model's base).
    let instructions = params.compute_us * 6_000;
    let sample = project(
        instructions,
        params.input_size,
        CacheSpec::default(),
        Contention::Isolated,
    );
    let per_task = InvocationUsage::from_perf(params.input_size, params.ram, sample, 0);
    let results_total = bill_results(&per_task, price).total() * n as u128;

    SchedulingIncentiveOutcome {
        late,
        early,
        effort_bills: (effort_total(&late), effort_total(&early)),
        results_bills: (results_total, results_total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_neighbor_inflates_effort_not_results() {
        let p = PriceSheet::default();
        let out = noisy_neighbor(&p);
        assert!(out.contended.wall_us > out.isolated.wall_us);
        // Effort: the customer pays for the neighbor.
        assert!(out.contended_bills.0.total() > out.isolated_bills.0.total());
        // Results: immunized.
        assert_eq!(out.contended_bills.1.total(), out.isolated_bills.1.total());
    }

    #[test]
    fn early_binding_costs_customers_under_effort_billing() {
        let p = PriceSheet::default();
        // Shrink the workload for test speed; shape is unchanged.
        let params = Fig8aParams {
            n_tasks: 128,
            ..Fig8aParams::default()
        };
        let out = scheduling_incentive(&p, &params);
        let (late_effort, early_effort) = out.effort_bills;
        // The paper's 8.7× throughput gap shows up as a similar billing
        // gap: holding a slice through a 150 ms fetch is ~1000× the
        // occupancy of a 100 µs compute, so demand at least 5×.
        assert!(
            early_effort > late_effort.scaled(5, 1),
            "early {early_effort} vs late {late_effort}"
        );
        // Results: placement-invariant.
        assert_eq!(out.results_bills.0, out.results_bills.1);
        assert!(out.results_bills.0 > Money::ZERO);
        // And the runs really were different.
        assert!(out.early.makespan_us > out.late.makespan_us);
    }
}
