//! The crash-recovery contract for durable serving (see
//! `fix_serve::recovery`): accounting closure on both sides of a crash,
//! bit-identical deterministic tables across the boundary, zero
//! recomputation of replayed memoized requests, and a torn final frame
//! tolerated at recovery.

use fix_durable::{DurableOptions, FsyncPolicy};
use fix_serve::{
    kill_and_recover, serve_durable, ArrivalProcess, RequestKind, ServeConfig, TenantSpec,
};

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

fn clean_options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
    }
}

#[test]
fn warm_restart_replays_everything_with_zero_procedures() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = config();
    let cold = serve_durable(dir.path(), &cfg, clean_options()).unwrap();
    cold.assert_accounting_closure();
    assert!(cold.procedures_run > 0, "the cold run computes");
    assert!(cold.report.completed > 0);

    let warm = serve_durable(dir.path(), &cfg, clean_options()).unwrap();
    warm.assert_accounting_closure();
    assert_eq!(
        warm.table, cold.table,
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
    let (killed, recovered) = kill_and_recover(dir.path(), &cfg, 90).unwrap();

    killed.assert_accounting_closure();
    recovered.assert_accounting_closure();

    // The deterministic tables are virtual-time constructs of the config
    // alone, so the crash cannot perturb them.
    assert_eq!(
        recovered.table, killed.table,
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
    let settled = serve_durable(dir.path(), &cfg, clean_options()).unwrap();
    settled.assert_accounting_closure();
    assert_eq!(settled.table, killed.table);
    assert_eq!(
        settled.procedures_run, 0,
        "once re-served and re-persisted, the workload is fully memoized again"
    );
}
