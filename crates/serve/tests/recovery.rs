//! The crash-recovery contract for durable serving, through a one-node
//! [`dispatch`] whose node keeps its state in a durable directory:
//! accounting closure on both sides of a crash, bit-identical
//! deterministic tables across the boundary, zero recomputation of
//! replayed memoized requests, a torn final frame tolerated at recovery,
//! and a recovered table equal to an in-memory run's, with replayed
//! results served from disk.
//!
//! A crash is made offline: a pass serves and flushes, then
//! [`tear_log`] cuts its node's log to a frame prefix plus the torn
//! frame a crash leaves (the in-memory half of the node died with the
//! pass), and the next pass over the same directory recovers from it.

use fix_core::api::Evaluator;
use fix_durable::{tear_log, DurableOptions, DurableStore, FsyncPolicy};
use fix_serve::dispatch::SegmentExec;
use fix_serve::{
    dispatch, serve, ArrivalProcess, DispatchConfig, DispatchOutcome, NodeStorage, RequestKind,
    RoutingPolicy, ServeConfig, TenantSpec,
};
use fixpoint::Runtime;
use std::path::{Path, PathBuf};

fn config() -> ServeConfig {
    ServeConfig {
        seed: 7,
        duration_us: 30_000,
        drivers: 2,
        batch: 4,
        queue_capacity: 64,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec::uniform_mix(
                "interactive",
                3,
                ArrivalProcess::Poisson { rate_rps: 900.0 },
                RequestKind::Add,
            ),
            TenantSpec::uniform_mix(
                "batchy",
                1,
                ArrivalProcess::Bursts {
                    period_us: 10_000,
                    burst: 6,
                },
                RequestKind::Fib { max_n: 7 },
            ),
        ],
    }
}

/// One durable serving pass: a one-node dispatch rooted at `root`,
/// flushed before it returns. The outcome, the node's one incarnation,
/// and its deterministic table.
fn pass(root: &Path, cfg: &ServeConfig) -> (DispatchOutcome, SegmentExec, String) {
    let outcome = dispatch(&DispatchConfig {
        base: cfg.clone(),
        nodes: 1,
        policy: RoutingPolicy::Affinity,
        spill_margin: 1,
        storage: NodeStorage::Durable(root.to_path_buf()),
        fault: None,
    })
    .expect("durable pass");
    outcome.assert_accounting_closure();
    let segment = outcome.exec[0].segments[0];
    let table = outcome.report.to_string();
    (outcome, segment, table)
}

/// The node's durable directory under `root`.
fn node_dir(root: &Path) -> PathBuf {
    root.join("node0")
}

#[test]
fn warm_restart_replays_everything_with_zero_procedures() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = config();
    let (cold_run, cold, cold_table) = pass(dir.path(), &cfg);
    assert!(cold.procedures_run > 0, "the cold run computes");
    assert!(cold_run.report.completed > 0);

    let (_, warm, warm_table) = pass(dir.path(), &cfg);
    assert_eq!(
        warm_table, cold_table,
        "deterministic tables must be bit-identical across a restart"
    );
    assert_eq!(
        warm.procedures_run, 0,
        "every request is memoized on disk: a warm restart recomputes nothing"
    );
    assert!(
        warm.replayed_relations > 0,
        "the restart replays memoized relations from the log"
    );
    assert!(warm.replayed_nodes > 0);
}

#[test]
fn kill_mid_batch_recovers_the_persisted_prefix() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = config();
    let (_, killed, killed_table) = pass(dir.path(), &cfg);
    tear_log(node_dir(dir.path()), 90).unwrap();
    let (_, recovered, recovered_table) = pass(dir.path(), &cfg);

    // The deterministic tables are virtual-time constructs of the config
    // alone, so the crash cannot perturb them.
    assert_eq!(
        recovered_table, killed_table,
        "deterministic tables must be bit-identical across the crash boundary"
    );

    // The crash leaves a torn final frame; recovery truncates it.
    assert!(
        recovered.truncated_bytes > 0,
        "recovery must tolerate (and count) the torn final frame"
    );

    // Relations that survived the crash serve from the log: the
    // recovered run redoes strictly less work than the crashed one, but
    // (having lost the tail) not zero.
    assert!(recovered.replayed_relations > 0);
    assert!(
        recovered.procedures_run < killed.procedures_run,
        "recovered work must not be recomputed ({} vs {})",
        recovered.procedures_run,
        killed.procedures_run
    );

    // A second restart — now past the crash — replays everything.
    let (_, settled, settled_table) = pass(dir.path(), &cfg);
    assert_eq!(settled_table, killed_table);
    assert_eq!(
        settled.procedures_run, 0,
        "once re-served and re-persisted, the workload is fully memoized again"
    );
}

/// A crash mid-log, recovered: the recovered run's table is the one
/// `serve` prints on a fresh in-memory runtime for the same config (the
/// node table aside), it re-runs fewer procedures than that runtime, and
/// a replayed (non-literal) result is read back by a disk fault, not
/// recomputed.
#[test]
fn a_recovered_run_matches_memory_and_faults_its_results_from_disk() {
    let cfg = ServeConfig {
        seed: 42,
        duration_us: 40_000,
        drivers: 2,
        batch: 8,
        queue_capacity: 64,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec::uniform_mix(
                "interactive",
                3,
                ArrivalProcess::Poisson { rate_rps: 900.0 },
                RequestKind::Add,
            ),
            // Renders produce large (non-literal) result blobs, so a
            // replayed result has bytes in the log to fault.
            TenantSpec::uniform_mix(
                "webapp",
                1,
                ArrivalProcess::Poisson { rate_rps: 300.0 },
                RequestKind::SebsHtml { users: 4 },
            ),
        ],
    };
    let dir = tempfile::tempdir().unwrap();
    // The run appends about 98 frames: frame 60 is mid-run.
    pass(dir.path(), &cfg);
    tear_log(node_dir(dir.path()), 60).unwrap();
    let (recovered_run, recovered, _) = pass(dir.path(), &cfg);
    assert!(recovered.truncated_bytes > 0, "the torn frame is cut");
    assert!(recovered.replayed_relations > 0, "the log prefix replays");

    let memory = Runtime::builder().build();
    let reference = serve(&memory, &cfg).unwrap();
    let mut report = recovered_run.report;
    report.nodes.clear();
    assert_eq!(
        report.to_string(),
        reference.to_string(),
        "the recovered table is the in-memory one"
    );
    assert!(
        recovered.procedures_run < memory.procedures_run(),
        "replayed work must not be recomputed ({} vs {})",
        recovered.procedures_run,
        memory.procedures_run()
    );

    let options = DurableOptions {
        fsync: FsyncPolicy::Always,
    };
    let d = DurableStore::open(node_dir(dir.path()), options).unwrap();
    let (_, _, output) = d
        .cache()
        .entries()
        .into_iter()
        .find(|(_, _, out)| out.is_value() && !out.is_literal())
        .expect("some replayed relation has a stored result");
    d.store().get(output).unwrap();
    assert_eq!(d.stats().faults, 1, "the result came from disk");
}
