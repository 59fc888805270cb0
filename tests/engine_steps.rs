//! The engine's step contract on two of the benchmark's requests: one
//! salted FixVM `fib(12)` (`vm_guest`) and one 32-shard count-string job
//! (`pooled_mapreduce`), each evaluated inline.
//!
//! A request costs a fixed number of procedure runs however it is
//! scheduled, and on the inline runtime a fixed number of scheduler
//! steps: an application waits directly on the `Eval` and then the
//! `Force` of each strict encode, never on an intermediate job that only
//! forwards what the relation cache already derives, and a job whose
//! result is its tail call's is completed by that call, never stepped
//! again to copy it.
//!
//! Each fact is recorded once: a finished application leaves one
//! relation, its `Eval`, and `Apply` only where a tail call needs it.

use fix::obs::{self, EventKind};
use fix::prelude::*;
use fix::workloads::mapreduce::MapReduce;
use fix::workloads::{guests, wordcount};
use fix_storage::Relation;

const FIB_12: u64 = 144;

/// The benchmark's salting: the fuel limit is part of every application
/// tree, so a fresh salt shares no memoized step with another request.
fn salted_fib12(rt: &Runtime, salt: u64) -> Handle {
    let fib = guests::install_fib(rt).expect("fib guest assembles");
    let add = guests::install_add(rt).expect("add guest assembles");
    let n = rt.put_blob(Blob::from_u64(12));
    let limits = ResourceLimits::new(64 << 20, (1 << 32) + salt);
    rt.apply(limits, fib, &[add, n]).expect("apply")
}

fn procedures_run(rt: &Runtime) -> u64 {
    rt.procedures_run()
}

/// The relations `rt` holds, counted by kind: `[Apply, Eval, Force]`.
fn relations(rt: &Runtime) -> [usize; 3] {
    let mut counts = [0; 3];
    for (relation, _, _) in rt.cache().entries() {
        counts[match relation {
            Relation::Apply => 0,
            Relation::Eval => 1,
            Relation::Force => 2,
        }] += 1;
    }
    counts
}

/// Scheduler steps (`SchedExecute` spans) `request` takes on this thread.
fn steps_of<T>(request: impl FnOnce() -> T) -> (T, usize) {
    obs::recorder().clear();
    obs::set_tracing(true);
    let out = request();
    obs::set_tracing(false);
    let steps = obs::recorder()
        .drain()
        .iter()
        .filter(|ev| ev.kind == EventKind::SchedExecute)
        .count();
    (out, steps)
}

/// One test, not several: the recorder is process-global, and no run may
/// emit spans into another's count.
#[test]
fn requests_cost_a_fixed_number_of_procedures_and_steps() {
    a_cold_native_add_is_one_relation();
    salted_fib12_is_24_procedures_and_30_steps();
    absent_needle_count_string_is_63_procedures_and_94_steps();
}

/// A procedure that returns a value: one run, and its `Eval` is all the
/// cache keeps (no `Apply` naming the same output beside it).
fn a_cold_native_add_is_one_relation() {
    let rt = Runtime::builder().build();
    let add = rt.register_native(
        "engine-steps/add",
        std::sync::Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );
    let args = [2, 3].map(|n| rt.put_blob(Blob::from_u64(n)));
    let thunk = rt
        .apply(ResourceLimits::default_limits(), add, &args)
        .unwrap();
    assert_eq!(rt.get_u64(rt.eval(thunk).unwrap()).unwrap(), 5);
    assert_eq!(procedures_run(&rt), 1);
    assert_eq!(relations(&rt), [0, 1, 0], "[Apply, Eval, Force]");
}

/// 30 steps: `fib(n)` for n = 12..=2 runs once and parks on the `add`
/// application it returned (11 steps, 11 runs — that tail call's
/// completion completes it, where it used to be stepped a second time
/// only to copy the value: 41 before); `fib(1)` and `fib(0)` run (2, 2);
/// each of the 11 adds runs (11, 11); and the six adds reached before
/// their operands (n even: the door's stack runs a dependency list
/// last-first, as the LIFO deque did before it, so `fib(n-2)` is
/// computed first and the odd adds find both operands memoized) take
/// one more step to find their two strict encodes unresolved and park
/// on them. Those six stay: they discover the operands, and copy
/// nothing.
///
/// The cache then holds 24 `Eval`s (one per application), 12 `Force`s
/// (one per distinct value, 0 to 144) and 11 `Apply`s: the tail calls of
/// `fib(n)` for n = 12..=2. The 13 runs that returned a value recorded
/// no `Apply`.
fn salted_fib12_is_24_procedures_and_30_steps() {
    let inline = Runtime::builder().build();
    let out = inline.eval_strict(salted_fib12(&inline, 7)).unwrap();
    assert_eq!(inline.get_u64(out).unwrap(), FIB_12);
    assert_eq!(procedures_run(&inline), 24);
    assert_eq!(relations(&inline), [11, 24, 12], "[Apply, Eval, Force]");

    // The steady state the benchmark measures: a second salt is a fully
    // distinct request (24 more runs), but the Fibonacci *values* are
    // not salted, so their deep-forcings are already memoized and every
    // step left is an `Eval` of an application.
    let thunk = salted_fib12(&inline, 8);
    let (again, steps) = steps_of(|| inline.eval_strict(thunk));
    assert_eq!(again.unwrap(), out);
    assert_eq!(procedures_run(&inline), 48);
    assert_eq!(steps, 30, "scheduler steps for one salted fib(12)");

    // Same handle and the same 24 runs with four workers stealing.
    let pooled = Runtime::builder().workers(4).build();
    let pooled_out = pooled.eval_strict(salted_fib12(&pooled, 7)).unwrap();
    assert_eq!(pooled_out, out);
    assert_eq!(procedures_run(&pooled), 24);
}

/// 94 steps, before and after tail completion — the job has no tail
/// call: 32 maps run (32 steps) and each of the 31 merges parks once on
/// its two strict encodes and then runs (62). Every count is zero, so
/// after the first job `Force(0)` is memoized; a job whose counts are
/// non-zero and distinct adds one `Force` job per new value.
fn absent_needle_count_string_is_63_procedures_and_94_steps() {
    let rt = Runtime::builder().build();
    let job = MapReduce {
        map_proc: wordcount::register_count_string(&rt),
        reduce_proc: wordcount::register_merge_counts(&rt),
        limits: ResourceLimits::default_limits(),
    };
    let shards = wordcount::store_shards(&rt, 5, 32, 16 << 10);
    let count = |needle: &[u8]| {
        let needle = rt.put_blob(Blob::from_slice(needle));
        let root = job.describe(&rt, &shards, &[needle]).expect("describe");
        rt.eval_strict(root).and_then(|out| rt.get_u64(out))
    };
    assert_eq!(count(b"qzqz").unwrap(), 0);
    assert_eq!(procedures_run(&rt), 63);

    let (again, steps) = steps_of(|| count(b"zqzq"));
    assert_eq!(again.unwrap(), 0);
    assert_eq!(procedures_run(&rt), 126);
    assert_eq!(steps, 94, "scheduler steps for one count-string job");
}
