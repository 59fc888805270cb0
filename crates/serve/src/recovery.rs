//! Kill-and-recover serving: crash a durable serve run mid-log, then
//! reopen the same directory and prove the restart serves from disk.
//!
//! The scenario the paper's serving story needs but a purely in-memory
//! runtime cannot provide: a node crashes partway through its log (what
//! it leaves is a prefix of the log and a torn final frame, which
//! [`tear_log`] cuts from the finished run's log), the process restarts,
//! and the recovered store replays the log prefix. Because Fix evaluation is deterministic
//! and memoized, everything whose relation survived the crash re-serves
//! with **zero procedures run** — and because `fix-serve`'s latency and
//! accounting tables are virtual-time constructs of the config alone,
//! the recovered run's table is **bit-identical** to the pre-crash one.
//! Those two properties together are the crash-recovery contract, and
//! [`kill_and_recover`] packages them as a reusable scenario (used by
//! the crate's `recovery` tests).

use crate::server::{serve, ServeConfig, ServeReport};
use fix_core::api::Evaluator;
use fix_core::error::Result;
use fix_durable::{tear_log, DurableOptions, DurableStore, FsyncPolicy};
use fixpoint::Runtime;
use std::path::Path;

/// One durable serve pass: everything the crash-boundary assertions
/// compare between the pre-crash and the recovered run.
pub struct RecoveryOutcome {
    /// The full serve report of this pass.
    pub report: ServeReport,
    /// The deterministic `Display` table of `report` (what must be
    /// bit-identical across the crash boundary).
    pub table: String,
    /// Procedures actually executed during this pass (memoization cache
    /// misses). Zero on a clean warm restart: every request replayed.
    pub procedures_run: u64,
    /// Memoized relations recovered from disk when this pass opened.
    pub replayed_relations: u64,
    /// Objects indexed (not loaded — restart is lazy) at open.
    pub replayed_nodes: u64,
    /// Torn tail bytes truncated during recovery at open.
    pub truncated_bytes: u64,
    /// Objects faulted in from disk during this pass (warm restarts
    /// serve from disk, not from recomputation).
    pub faults: u64,
}

impl RecoveryOutcome {
    /// [`ServeReport::assert_accounting_closure`] on this pass's report.
    pub fn assert_accounting_closure(&self) {
        self.report.assert_accounting_closure();
    }
}

/// Runs one serve pass on a durable runtime rooted at `dir`, flushing
/// the log before returning (so a subsequent open sees everything this
/// pass persisted).
pub fn serve_durable(
    dir: &Path,
    cfg: &ServeConfig,
    options: DurableOptions,
) -> Result<RecoveryOutcome> {
    let durable = DurableStore::open(dir, options)?;
    let at_open = durable.stats();
    let rt = Runtime::builder().durable(durable).build();
    let report = serve(&rt, cfg)?;
    let procedures_run = rt.procedures_run();
    // invariant: the runtime was built with `.durable(durable)` above.
    let d = rt.durable().expect("built durable");
    d.flush()?;
    let now = d.stats();
    Ok(RecoveryOutcome {
        table: report.to_string(),
        procedures_run,
        replayed_relations: at_open.replayed_relations,
        replayed_nodes: at_open.replayed_nodes,
        truncated_bytes: at_open.truncated_bytes,
        faults: now.faults,
        report,
    })
}

/// The kill-and-recover scenario: a serve pass whose node dies right
/// after its log's `kill_after_frames`-th frame, then a second pass over
/// the same directory that recovers and re-serves the identical workload.
///
/// The first pass serves and flushes; its log is then cut to the prefix
/// and torn frame that crash leaves ([`tear_log`], an error if the pass
/// wrote fewer frames). Returns `(killed, recovered)`. The crash-recovery
/// contract, asserted by the callers:
///
/// * both passes satisfy [accounting closure](RecoveryOutcome::assert_accounting_closure);
/// * `recovered.table == killed.table` — the deterministic tables are
///   bit-identical across the crash boundary;
/// * `recovered.procedures_run < killed.procedures_run` — relations that
///   survived the crash are served from the log, not recomputed (with no
///   crash at all, `recovered.procedures_run == 0`);
/// * `recovered.truncated_bytes > 0` — the torn final frame the crash
///   leaves behind was tolerated and truncated.
pub fn kill_and_recover(
    dir: &Path,
    cfg: &ServeConfig,
    kill_after_frames: u64,
) -> Result<(RecoveryOutcome, RecoveryOutcome)> {
    let options = DurableOptions {
        fsync: FsyncPolicy::Always,
    };
    let killed = serve_durable(dir, cfg, options)?;
    // The in-memory half of the crashed node died with `killed`'s
    // runtime (dropped above); only the log prefix survives.
    tear_log(dir, kill_after_frames)?;
    let recovered = serve_durable(dir, cfg, options)?;
    Ok((killed, recovered))
}
