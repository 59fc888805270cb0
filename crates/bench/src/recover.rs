//! `recover`: cold start vs. warm restart, per log size.
//!
//! The durable tier's pitch is that restart cost becomes an *open* cost
//! (index build + relation replay; object bytes fault in lazily), and
//! first-request latency on a warm restart becomes a cache hit plus a
//! disk fault instead of a recomputation. This module measures exactly
//! that, at three log sizes: populate a durable store with `n` memoized
//! invocations, drop it, then time
//!
//! * **cold start** — a fresh in-memory runtime evaluating request #1
//!   from scratch (the recomputation the log makes unnecessary);
//! * **replay** — `DurableStore::open` over the populated directory
//!   (scan + index build + relation replay, no object bytes loaded);
//! * **warm restart** — the recovered runtime serving request #1: a
//!   memoization hit plus one disk fault for the result bytes.
//!
//! Wall-clock by nature (like `calibrate`), so it is *not* part of
//! `figures all`; run `figures recover` explicitly.

use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::Blob;
use fix_core::limits::ResourceLimits;
use fix_durable::{DurableOptions, DurableStore, FsyncPolicy};
use fixpoint::Runtime;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The result blob size each invocation produces: comfortably past the
/// literal bound, so every result is stored (and faulted) for real.
const RESULT_BYTES: usize = 1024;

/// One measured log size.
pub struct RecoverRow {
    /// Memoized invocations in the log.
    pub n: usize,
    /// Log size on disk at open, in bytes.
    pub log_bytes: u64,
    /// Relations replayed at open.
    pub replayed_relations: u64,
    /// Objects indexed (not loaded) at open.
    pub replayed_nodes: u64,
    /// Wall time of `DurableStore::open` (scan + index + replay), µs.
    pub replay_us: f64,
    /// Cold first-request latency: fresh runtime, full recomputation, µs.
    pub cold_first_us: f64,
    /// Warm first-request latency: memoization hit + one disk fault, µs.
    pub warm_first_us: f64,
}

/// The sweep across log sizes.
pub struct RecoverReport {
    /// One row per populated size.
    pub rows: Vec<RecoverRow>,
}

impl fmt::Display for RecoverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recovery: cold start vs warm restart by log size \
             (fix-durable, wall-clock)"
        )?;
        writeln!(
            f,
            "{:>8} {:>12} {:>8} {:>8} {:>12} {:>14} {:>14}",
            "requests", "log bytes", "nodes", "rels", "replay µs", "cold 1st µs", "warm 1st µs"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>12} {:>8} {:>8} {:>12.1} {:>14.1} {:>14.1}",
                r.n,
                r.log_bytes,
                r.replayed_nodes,
                r.replayed_relations,
                r.replay_us,
                r.cold_first_us,
                r.warm_first_us,
            )?;
        }
        Ok(())
    }
}

/// Registers the measured procedure: expand a u64 seed into a
/// `RESULT_BYTES` blob with a little arithmetic per byte (enough work
/// that a recomputation is visibly more than a disk fault).
fn register_expand<R: InvocationApi>(rt: &R) -> fix_core::handle::Handle {
    rt.register_native(
        "bench/recover-expand",
        Arc::new(|ctx| {
            let seed = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            let mut out = Vec::with_capacity(RESULT_BYTES);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for _ in 0..RESULT_BYTES {
                // 64 mixing rounds per byte: a procedure whose
                // recomputation visibly costs more than a disk fault.
                for _ in 0..64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                out.push(x as u8);
            }
            ctx.host.create_blob(out)
        }),
    )
}

fn mint<R: InvocationApi + ObjectApi>(
    rt: &R,
    proc_handle: fix_core::handle::Handle,
    seed: u64,
) -> fix_core::handle::Handle {
    rt.apply(
        ResourceLimits::default_limits(),
        proc_handle,
        &[rt.put_blob(Blob::from_u64(seed))],
    )
    .expect("apply")
}

/// Runs the sweep at the given sizes (three by convention).
pub fn run(sizes: &[usize]) -> RecoverReport {
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let dir = tempfile::tempdir().expect("tempdir");
        let options = DurableOptions {
            fsync: FsyncPolicy::EveryN(256),
            ..DurableOptions::default()
        };

        // Populate: n memoized invocations, persisted and flushed.
        {
            let durable = DurableStore::open(dir.path(), options).expect("open");
            let rt = Runtime::builder().durable(durable).build();
            let expand = register_expand(&rt);
            for seed in 0..n as u64 {
                let thunk = mint(&rt, expand, seed);
                rt.eval(thunk).expect("populate eval");
            }
            rt.durable().expect("durable").flush().expect("flush");
        }
        let log_bytes = std::fs::metadata(dir.path().join("log.fixlog"))
            .map(|m| m.len())
            .unwrap_or(0);

        // Cold start: recompute request #1 from nothing.
        let cold_first_us = {
            let rt = Runtime::builder().build();
            let expand = register_expand(&rt);
            let thunk = mint(&rt, expand, 0);
            let t = Instant::now();
            let result = rt.eval(thunk).expect("cold eval");
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(rt.get_blob(result).is_ok());
            us
        };

        // Replay: open cost over the populated directory.
        let t = Instant::now();
        let durable = DurableStore::open(dir.path(), options).expect("reopen");
        let replay_us = t.elapsed().as_secs_f64() * 1e6;
        let stats = durable.stats();

        // Warm restart: request #1 is a memoization hit + one fault.
        let warm_first_us = {
            let rt = Runtime::builder().durable(durable).build();
            let expand = register_expand(&rt);
            let thunk = mint(&rt, expand, 0);
            let t = Instant::now();
            let result = rt.eval(thunk).expect("warm eval");
            let blob = rt.get_blob(result).expect("warm fault");
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(blob.len(), RESULT_BYTES);
            assert_eq!(
                rt.procedures_run(),
                0,
                "the warm first request must be served from the log"
            );
            let d = rt.durable().expect("durable");
            assert!(d.stats().faults >= 1, "the result bytes came from disk");
            us
        };

        rows.push(RecoverRow {
            n,
            log_bytes,
            replayed_relations: stats.replayed_relations,
            replayed_nodes: stats.replayed_nodes,
            replay_us,
            cold_first_us,
            warm_first_us,
        });
    }
    RecoverReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_restart_serves_from_the_log() {
        let report = run(&[24]);
        let row = &report.rows[0];
        assert_eq!(row.n, 24);
        assert!(row.log_bytes > 24 * RESULT_BYTES as u64);
        assert!(row.replayed_relations > 0);
        // n results + n seed... seeds are literals; at least the n
        // result blobs and the application trees are indexed.
        assert!(row.replayed_nodes >= 24);
        assert!(row.replay_us > 0.0 && row.cold_first_us > 0.0 && row.warm_first_us > 0.0);
    }
}
