//! Criterion bench for the real-runtime side of Fig. 7b: a chain of 500
//! dependent invocations executed on the actual Fixpoint runtime (the
//! simulated-cluster version lives in the `figures` binary).
//!
//! Each step increments its input by one; steps are expressed as
//! tail-calling applications, so the whole chain is one trampolined
//! evaluation — no blocked threads, no per-step round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::Blob;
use fix_core::invocation::Invocation;
use fix_core::limits::ResourceLimits;
use fixpoint::Runtime;
use std::hint::black_box;
use std::sync::Arc;

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

fn bench_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b_chain_real_runtime");
    group.sample_size(20);
    for n in [100u64, 500] {
        group.bench_function(format!("chain_{n}"), |b| {
            let (rt, proc_h) = chain_runtime();
            let mut salt = 0u64;
            b.iter(|| {
                // A fresh starting value defeats memoization of the chain.
                salt += 1;
                let thunk = rt
                    .apply(
                        ResourceLimits::default_limits(),
                        proc_h,
                        &[
                            rt.put_blob(Blob::from_u64(n)),
                            rt.put_blob(Blob::from_u64(salt << 20)),
                        ],
                    )
                    .expect("apply");
                black_box(rt.eval(thunk).expect("eval"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chain);
criterion_main!(benches);
