//! The engine's step contract on the benchmark's `vm_guest` request: one
//! salted FixVM `fib(12)`, evaluated strictly.
//!
//! A request costs 24 guest runs (fib(12..=0) plus eleven adds) however
//! it is scheduled, and on the inline runtime it costs a fixed number of
//! scheduler steps: an application waits directly on the `Eval` and then
//! the `Force` of each strict encode, never on an intermediate job that
//! only forwards what the relation cache already derives.

use fix::obs::{self, EventKind};
use fix::prelude::*;
use fix::workloads::guests;
use std::sync::atomic::Ordering;

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
    rt.engine().stats.procedures_run.load(Ordering::Relaxed)
}

/// One test, not two: the recorder is process-global, and the pooled run
/// must not emit spans into the inline run's count.
#[test]
fn salted_fib12_costs_24_procedures_and_41_steps() {
    let inline = Runtime::builder().build();
    let out = inline.eval_strict(salted_fib12(&inline, 7)).unwrap();
    assert_eq!(inline.get_u64(out).unwrap(), FIB_12);
    assert_eq!(procedures_run(&inline), 24);

    // The steady state the benchmark measures: a second salt is a fully
    // distinct request (24 more runs), but the Fibonacci *values* are
    // not salted, so their deep-forcings are already memoized and every
    // step left is an `Eval` of an application.
    let thunk = salted_fib12(&inline, 8);
    obs::recorder().clear();
    obs::set_tracing(true);
    let again = inline.eval_strict(thunk);
    obs::set_tracing(false);
    let trace = obs::recorder().drain();
    assert_eq!(again.unwrap(), out);
    assert_eq!(procedures_run(&inline), 48);
    let steps = trace
        .iter()
        .filter(|ev| ev.kind == EventKind::SchedExecute)
        .count();
    assert_eq!(steps, 41, "scheduler steps for one salted fib(12)");

    // Same handle and the same 24 runs with four workers stealing.
    let pooled = Runtime::builder().workers(4).build();
    let pooled_out = pooled.eval_strict(salted_fib12(&pooled, 7)).unwrap();
    assert_eq!(pooled_out, out);
    assert_eq!(procedures_run(&pooled), 24);
}
