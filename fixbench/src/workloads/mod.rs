//! The seven workloads. Each file states its operation, its sizes at
//! scale 1 (chosen so an epoch's window lasts roughly half a second to
//! a second and a half on the reference box), and what it checks.

use crate::harness::Tally;
use fix::prelude::*;

pub mod durable;
pub mod native;
pub mod pooled;
pub mod serve;
pub mod vm;

/// Span around minting a request: `put_blob` of its arguments + `apply`.
pub const MINT: &str = "core.mint";
/// Span around `eval`/`eval_strict` on the inline runtime.
pub const EVAL: &str = "runtime.eval";
/// Span around fetching the result object.
pub const READ: &str = "storage.read";
/// Leaf span inside a benchmark-owned native procedure: its argument
/// loads and its computation, not the host call that stores the result
/// (that is the runtime's and the store's time).
pub const PROC: &str = "workloads.proc";

/// Reads the runtime's and its store's public counters into the tally.
pub fn runtime_counts(rt: &Runtime, t: &mut Tally) {
    t.add("runtime.procedures_run", rt.procedures_run() as f64);
    t.add("runtime.work_steals", rt.work_steals() as f64);
    t.add("storage.objects", rt.store().object_count() as f64);
    t.add("storage.bytes", rt.store().total_bytes() as f64);
    let (hits, misses) = rt.cache().stats();
    t.add("storage.rel_hits", hits as f64);
    t.add("storage.rel_misses", misses as f64);
}
