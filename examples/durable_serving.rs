//! Crash-recoverable serving end to end: durable multi-tenant serving,
//! a crash after a chosen log frame, restart, and self-asserted recovery.
//!
//! A crash leaves a prefix of the log and a torn final frame; this
//! example makes one by cutting a finished run's log with
//! `fix::durable::tear_log`. Three modes:
//!
//! * no arguments — in-process demo: serve durably into a temp dir,
//!   crash after a log frame mid-run, reopen, re-serve, and assert the
//!   crash-recovery contract (bit-identical tables, accounting closure,
//!   replayed work not recomputed);
//! * `--kill-at N --dir PATH` — serve durably into `PATH`, leave in it
//!   what a crash after frame `N` leaves, and exit with code 113 as the
//!   crashed process would (the CI recovery smoke asserts that exit);
//! * `--recover --dir PATH` — reopen `PATH` after such a crash and
//!   self-assert recovery: the torn frame was truncated, the recovered
//!   table is bit-identical to a fresh in-memory reference, replayed
//!   (memoized) work re-serves with fewer procedures than a cold run,
//!   and a replayed result is served from disk (a real fault), not from
//!   recomputation.
//!
//! Run with: `cargo run --release --example durable_serving`

use fix::durable::{tear_log, DurableOptions, DurableStore, FsyncPolicy};
use fix::prelude::*;
use fix::serve::recovery::{kill_and_recover, serve_durable};
use fix::serve::{serve, ArrivalProcess, RequestKind, ServeConfig, TenantSpec};
use std::path::PathBuf;

fn config() -> ServeConfig {
    ServeConfig {
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
            // Renders produce large (non-literal) result blobs, so the
            // recovery probe can demonstrate a real disk fault.
            TenantSpec::uniform_mix(
                "webapp",
                1,
                ArrivalProcess::Poisson { rate_rps: 300.0 },
                RequestKind::SebsHtml { users: 4 },
            ),
        ],
    }
}

fn clean() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
    }
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let cfg = config();
    let dir: Option<PathBuf> = arg_value("--dir").map(PathBuf::from);

    if let Some(kill_at) = arg_value("--kill-at") {
        let after_frames: u64 = kill_at.parse().expect("--kill-at takes a frame count");
        let dir = dir.expect("--kill-at requires --dir");
        println!(
            "serving durably into {}, crashing after frame {after_frames}…",
            dir.display()
        );
        serve_durable(&dir, &cfg, clean()).expect("serve");
        // A run that appended fewer frames cannot crash after frame N:
        // that is a configuration error.
        if let Err(e) = tear_log(&dir, after_frames) {
            eprintln!("error: cannot crash after frame {after_frames}: {e}");
            std::process::exit(1);
        }
        std::process::exit(113);
    }

    if std::env::args().any(|a| a == "--recover") {
        let dir = dir.expect("--recover requires --dir");
        println!("recovering {} after the crash…", dir.display());
        let recovered = serve_durable(&dir, &cfg, clean()).expect("recover");
        recovered.assert_accounting_closure();
        assert!(
            recovered.truncated_bytes > 0,
            "the crash left a torn final frame; recovery must truncate it"
        );
        assert!(recovered.replayed_relations > 0, "the log prefix replays");

        // The deterministic tables are a function of the config alone:
        // the recovered run must match a fresh in-memory reference bit
        // for bit — and redo strictly less work than it.
        let reference_rt = Runtime::builder().build();
        let reference = serve(&reference_rt, &cfg).expect("reference serve");
        assert_eq!(
            recovered.table,
            reference.to_string(),
            "recovered table must be bit-identical to the reference"
        );
        assert!(
            recovered.procedures_run < reference_rt.procedures_run(),
            "replayed memoized work must not be recomputed ({} vs {})",
            recovered.procedures_run,
            reference_rt.procedures_run()
        );

        // Warm restarts serve from disk: reopen once more and read a
        // replayed (non-literal) result — it must arrive via a real
        // disk fault, not recomputation.
        let d = DurableStore::open(&dir, clean()).expect("reopen");
        let (_, _, output) = d
            .cache()
            .entries()
            .into_iter()
            .find(|(_, _, o)| o.is_value() && !o.is_literal())
            .expect("some replayed relation has a stored result");
        d.store().get(output).expect("replayed result readable");
        assert_eq!(d.stats().faults, 1, "the result came from disk");

        println!("{}", recovered.table);
        println!(
            "recovered: {} relations replayed, {} torn bytes truncated, \
             {} procedures re-run (reference: {})",
            recovered.replayed_relations,
            recovered.truncated_bytes,
            recovered.procedures_run,
            reference_rt.procedures_run(),
        );
        println!("OK: crash-recovery contract holds");
        return;
    }

    // ------------------------------------------------------------------
    // Default: the whole scenario in-process.
    // ------------------------------------------------------------------
    let tmp = tempfile::tempdir().expect("tempdir");
    println!("== durable serving with an in-process crash ==\n");

    // The run appends about 98 frames: frame 60 is mid-run.
    let (killed, recovered) = kill_and_recover(tmp.path(), &cfg, 60).expect("kill and recover");
    killed.assert_accounting_closure();
    recovered.assert_accounting_closure();
    assert_eq!(
        recovered.table, killed.table,
        "tables must be bit-identical across the crash boundary"
    );
    assert!(recovered.truncated_bytes > 0, "torn final frame tolerated");
    assert!(
        recovered.procedures_run < killed.procedures_run,
        "recovered work is replayed, not recomputed"
    );

    println!("-- crashed run (its log cut after frame 60) --");
    println!("{}", killed.table);
    println!("-- recovered run (same directory) --");
    println!("{}", recovered.table);
    println!(
        "crash boundary: {} relations replayed, {} torn bytes truncated, \
         procedures {} -> {}",
        recovered.replayed_relations,
        recovered.truncated_bytes,
        killed.procedures_run,
        recovered.procedures_run,
    );

    // And with no crash at all, a warm restart recomputes *nothing*.
    let warm = serve_durable(tmp.path(), &cfg, clean()).expect("warm restart");
    warm.assert_accounting_closure();
    assert_eq!(warm.table, killed.table);
    assert_eq!(
        warm.procedures_run, 0,
        "a clean warm restart serves entirely from the log"
    );
    println!(
        "warm restart: {} relations replayed, 0 procedures run",
        warm.replayed_relations
    );
    println!("\nOK: crash-recovery contract holds");
}
