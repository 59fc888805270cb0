//! What each of four design choices buys on the real runtime, as a pair
//! of rows with the choice and without it:
//!
//! * **memoization**: fib(16) with the relation cache cleared before
//!   each evaluation vs warm (the call tree collapses to one hit);
//! * **literal handles**: a put and get of an 8-byte value, inline in its
//!   handle, vs a 64-byte one, hashed and stored;
//! * **pinpoint selection**: one child of a wide tree through a
//!   Selection thunk vs loading the whole entry list;
//! * **batched dispatch**: N warm (memoized) requests through one
//!   `eval_many`, or one strict submission, vs a loop of single calls.
//!   The warm path is where per-request scheduler cost is the largest
//!   share of the total, so it bounds what batching can ever save.
//!
//! Prints ns per item, median [min, max] over runs. The rows nothing
//! else times are here; BLAKE3 throughput is fixbench's
//! `hash.ns_per_byte_*` and a recomputing cold read is `figures extgc`.

mod common;

use common::Spread;
use fix_core::api::{Evaluator, InvocationApi, NativeCtx, ObjectApi, SubmitApi, SubmitOptions};
use fix_core::data::{Blob, Tree};
use fix_core::handle::Handle;
use fix_core::invocation::Invocation;
use fix_core::limits::ResourceLimits;
use fixpoint::Runtime;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs timed per row.
const REPS: usize = 11;

/// ns per item, over `REPS` runs of `calls` calls of `call` (given a
/// running count), each of which handles `items` items.
fn ns_per_item(calls: u64, items: u64, mut call: impl FnMut(u64)) -> Spread {
    let mut i = 0;
    let run = |_| {
        let t = Instant::now();
        for _ in 0..calls {
            i += 1;
            call(i);
        }
        t.elapsed().as_nanos() as f64 / (calls * items) as f64
    };
    Spread::of((0..REPS).map(run).collect())
}

fn row(name: &str, ns: Spread) {
    println!("  {name:<34} {ns:>10.1}");
}

/// A runtime with a native fib that calls itself through strict
/// encodes and sums them with a second native, `bench/fib-add`.
fn fib_runtime() -> (Runtime, Handle) {
    let rt = Runtime::builder().build();
    let marker: Arc<parking_lot::Mutex<Option<Handle>>> = Arc::new(parking_lot::Mutex::new(None));
    let m2 = Arc::clone(&marker);
    let fib = rt.register_native(
        "bench/fib",
        Arc::new(move |ctx| {
            let n = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            if n < 2 {
                return ctx.host.create_blob(n.to_le_bytes().to_vec());
            }
            let self_h = m2.lock().expect("registered");
            let limits = ResourceLimits::default_limits();
            let call = |ctx: &mut NativeCtx<'_>, k: u64| -> fix_core::Result<Handle> {
                let t = Invocation {
                    limits,
                    procedure: self_h,
                    args: vec![Blob::from_u64(k).handle()],
                }
                .to_tree();
                ctx.host
                    .create_tree(t.entries().to_vec())?
                    .application()?
                    .strict()
            };
            let e1 = call(ctx, n - 1)?;
            let e2 = call(ctx, n - 2)?;
            let sum = Invocation {
                limits,
                procedure: fixpoint::native_marker("bench/fib-add").handle(),
                args: vec![e1, e2],
            }
            .to_tree();
            ctx.host.create_tree(sum.entries().to_vec())?.application()
        }),
    );
    rt.register_native(
        "bench/fib-add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
            ctx.host.create_blob((a + b).to_le_bytes().to_vec())
        }),
    );
    *marker.lock() = Some(fib);
    (rt, fib)
}

fn memoization() {
    println!("memoization");
    let (rt, fib) = fib_runtime();
    let thunk = rt
        .apply(
            ResourceLimits::default_limits(),
            fib,
            &[rt.put_blob(Blob::from_u64(16))],
        )
        .expect("apply");
    let cold = ns_per_item(20, 1, |_| {
        rt.cache().clear();
        black_box(rt.eval(thunk).expect("eval"));
    });
    row("fib(16), cache cleared", cold);
    let warm = ns_per_item(20_000, 1, |_| {
        black_box(rt.eval(thunk).expect("eval"));
    });
    row("fib(16), warm", warm);
}

fn literal_handles() {
    println!("literal handles");
    let rt = Runtime::builder().build();
    let literal = ns_per_item(100_000, 1, |i| {
        let h = rt.put_blob(Blob::from_u64(i));
        black_box(rt.get_blob(h).expect("literal"));
    });
    row("put + get, 8 B literal", literal);
    let stored = ns_per_item(100_000, 1, |i| {
        let mut data = [0u8; 64];
        data[..8].copy_from_slice(&i.to_le_bytes());
        let h = rt.put_blob(Blob::from_slice(&data));
        black_box(rt.get_blob(h).expect("stored"));
    });
    row("put + get, 64 B stored", stored);
}

fn pinpoint_selection() {
    const WIDTH: u64 = 4096;
    println!("pinpoint selection ({WIDTH} children of 256 B)");
    let rt = Runtime::builder().build();
    let children: Vec<Handle> = (0..WIDTH)
        .map(|i| {
            let mut v = vec![0u8; 256];
            v[..8].copy_from_slice(&i.to_le_bytes());
            rt.put_blob(Blob::from_vec(v))
        })
        .collect();
    let tree = rt.put_tree(Tree::from_handles(children));
    let select = ns_per_item(WIDTH, 1, |i| {
        let sel = rt.select(tree, i % WIDTH).expect("selection");
        black_box(rt.eval(sel).expect("eval"));
    });
    row("select one child", select);
    let load = ns_per_item(WIDTH, 1, |i| {
        let t = rt.get_tree(tree).expect("tree");
        black_box(t.get((i % WIDTH) as usize));
    });
    row("load the whole entry list", load);
}

/// A runtime with `n` distinct add thunks, each evaluated (and forced)
/// once, so every later request is a relation-cache hit.
fn warm_batch(n: u64) -> (Runtime, Vec<Handle>) {
    let rt = Runtime::builder().build();
    let add = rt.register_native(
        "bench/add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );
    let thunks: Vec<Handle> = (0..n)
        .map(|i| {
            let args = [Blob::from_u64(i), Blob::from_u64(1)].map(|b| rt.put_blob(b));
            rt.apply(ResourceLimits::default_limits(), add, &args)
                .unwrap()
        })
        .collect();
    for r in rt.submit_with(&thunks, SubmitOptions::strict()).wait() {
        r.expect("warm-up");
    }
    (rt, thunks)
}

fn batched_dispatch() {
    println!("batched dispatch (warm requests)");
    for n in [16u64, 256] {
        let (rt, thunks) = warm_batch(n);
        let calls = 100_000 / n;
        let each = ns_per_item(calls, n, |_| {
            for &t in &thunks {
                black_box(rt.eval(t).unwrap());
            }
        });
        row(&format!("{n} x eval"), each);
        let batched = ns_per_item(calls, n, |_| {
            for r in rt.eval_many(black_box(&thunks)) {
                black_box(r.unwrap());
            }
        });
        row(&format!("eval_many of {n}"), batched);
        let each = ns_per_item(calls, n, |_| {
            for &t in &thunks {
                black_box(rt.eval_strict(t).unwrap());
            }
        });
        row(&format!("{n} x eval_strict"), each);
        let batched = ns_per_item(calls, n, |_| {
            let ticket = rt.submit_with(black_box(&thunks), SubmitOptions::strict());
            for r in ticket.wait() {
                black_box(r.unwrap());
            }
        });
        row(&format!("strict submission of {n}"), batched);
    }
}

fn main() {
    println!("ablations: ns per item, median [min, max] of {REPS} runs");
    memoization();
    literal_handles();
    pinpoint_selection();
    batched_dispatch();
}
