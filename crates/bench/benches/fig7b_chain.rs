//! The real-runtime side of Fig. 7b: a chain of dependent invocations
//! on the Fixpoint runtime (the simulated-cluster figure is `figures
//! fig7b`).
//!
//! Each step increments its input by one and tail-calls the next, so a
//! whole chain is one trampolined evaluation: no blocked threads, no
//! per-step round trips. Prints, per chain length, µs per step, median
//! [min, max] over fresh chains (each starts from a new value, so none
//! is memoized).

mod common;

use common::Spread;
use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::Blob;
use fix_core::invocation::Invocation;
use fix_core::limits::ResourceLimits;
use fixpoint::Runtime;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fresh chains timed per row.
const REPS: u64 = 20;

fn chain_runtime() -> (Runtime, fix_core::Handle) {
    let rt = Runtime::builder().build();
    let marker: Arc<parking_lot::Mutex<Option<fix_core::Handle>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let m2 = Arc::clone(&marker);
    let proc_h = rt.register_native(
        "bench/chain-step",
        Arc::new(move |ctx| {
            let remaining = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            let value = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
            if remaining == 0 {
                return ctx.host.create_blob(value.to_le_bytes().to_vec());
            }
            let self_h = m2.lock().expect("registered");
            let next = Invocation {
                limits: ResourceLimits::default_limits(),
                procedure: self_h,
                args: vec![
                    Blob::from_u64(remaining - 1).handle(),
                    Blob::from_u64(value + 1).handle(),
                ],
            }
            .to_tree();
            ctx.host.create_tree(next.entries().to_vec())?.application()
        }),
    );
    *marker.lock() = Some(proc_h);
    (rt, proc_h)
}

fn main() {
    println!(
        "fig7b_chain: tail-calling chains on the inline runtime; µs per step, \
         median [min, max] of {REPS} fresh chains"
    );
    let (rt, step) = chain_runtime();
    let mut salt = 0u64;
    for n in [100u64, 500] {
        let us = (0..REPS).map(|_| {
            salt += 1;
            let args = [Blob::from_u64(n), Blob::from_u64(salt << 20)].map(|b| rt.put_blob(b));
            let thunk = rt
                .apply(ResourceLimits::default_limits(), step, &args)
                .expect("apply");
            let t = Instant::now();
            black_box(rt.eval(thunk).expect("eval"));
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        });
        println!("{n:>5} steps {:>8.3}", Spread::of(us.collect()));
    }
}
