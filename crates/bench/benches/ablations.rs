//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **memoization** — evaluating a recursive Fix program with a warm vs
//!   cleared relation cache (fib's call tree collapses from exponential
//!   to linear);
//! * **literal handles** — small values inline in handles vs forced
//!   through storage;
//! * **pinpoint selection** — fetching one child of a wide tree via a
//!   Selection thunk vs loading the whole entry list;
//! * **BLAKE3 content addressing** — the hash substrate's throughput;
//! * **computational GC** — a warm read vs a cold read that recomputes
//!   an evicted result chain (paper §6's delayed-availability storage).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fix_core::api::{Evaluator, InvocationApi, NativeCtx, ObjectApi};
use fix_core::data::{Blob, Tree};
use fix_core::limits::ResourceLimits;
use fixpoint::Runtime;
use std::hint::black_box;
use std::sync::Arc;

fn fib_runtime() -> (Runtime, fix_core::Handle) {
    let rt = Runtime::builder().build();
    let marker: Arc<parking_lot::Mutex<Option<fix_core::Handle>>> =
        Arc::new(parking_lot::Mutex::new(None));
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
            let call = |ctx: &mut NativeCtx<'_>, k: u64| -> fix_core::Result<fix_core::Handle> {
                let t = fix_core::invocation::Invocation {
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
            // add(e1, e2) via a tiny summing procedure baked in here: use
            // the same fib proc with a marker? Simplest: a second native.
            let add = fixpoint::native_marker("bench/fib-add").handle();
            let sum = fix_core::invocation::Invocation {
                limits,
                procedure: add,
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

fn bench_memoization(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_memoization");
    group.sample_size(20);
    let (rt, fib) = fib_runtime();
    let eval_fib = |rt: &Runtime, n: u64| {
        let thunk = rt
            .apply(
                ResourceLimits::default_limits(),
                fib,
                &[rt.put_blob(Blob::from_u64(n))],
            )
            .expect("apply");
        rt.eval(thunk).expect("eval")
    };
    group.bench_function("fib16_cold_cache", |b| {
        b.iter(|| {
            rt.cache().clear();
            black_box(eval_fib(&rt, 16))
        })
    });
    group.bench_function("fib16_warm_cache", |b| {
        eval_fib(&rt, 16);
        b.iter(|| black_box(eval_fib(&rt, 16)))
    });
    group.finish();
}

fn bench_literals(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_literal_handles");
    // 8-byte value: inline literal, storage never touched.
    group.bench_function("put_get_8B_literal", |b| {
        let rt = Runtime::builder().build();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let h = rt.put_blob(Blob::from_u64(i));
            black_box(rt.get_blob(h).expect("literal"))
        })
    });
    // 64-byte value: hashed, stored, fetched.
    group.bench_function("put_get_64B_stored", |b| {
        let rt = Runtime::builder().build();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut data = [0u8; 64];
            data[..8].copy_from_slice(&i.to_le_bytes());
            let h = rt.put_blob(Blob::from_slice(&data));
            black_box(rt.get_blob(h).expect("stored"))
        })
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pinpoint_selection");
    group.sample_size(30);
    let rt = Runtime::builder().build();
    // A wide tree of 4096 big children.
    let children: Vec<fix_core::Handle> = (0..4096u64)
        .map(|i| {
            let mut v = vec![0u8; 256];
            v[..8].copy_from_slice(&i.to_le_bytes());
            rt.put_blob(Blob::from_vec(v))
        })
        .collect();
    let tree = rt.put_tree(Tree::from_handles(children));

    group.bench_function("selection_one_child", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            let sel = rt.select(tree, i).expect("selection");
            black_box(rt.eval(sel).expect("eval"))
        })
    });
    group.bench_function("load_whole_entry_list", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            let t = rt.get_tree(tree).expect("tree");
            black_box(t.get(i as usize))
        })
    });
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_blake3");
    for size in [64usize, 4096, 1 << 20] {
        group.throughput(Throughput::Bytes(size as u64));
        let data = vec![0xABu8; size];
        group.bench_function(format!("hash_{size}B"), |b| {
            b.iter(|| black_box(fix_hash::hash(black_box(&data))))
        });
    }
    group.finish();
}

fn bench_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_computational_gc");
    group.sample_size(20);

    // A 4-stage transform chain over a 4 KiB blob; every stage's output
    // has its recipe in the relation cache.
    let build = || {
        let rt = Runtime::builder().build();
        let step = rt.register_native(
            "bench/rot",
            Arc::new(|ctx| {
                let data = ctx.arg_blob(0)?;
                let out: Vec<u8> = data
                    .as_slice()
                    .iter()
                    .map(|b| b.rotate_left(3) ^ 0x5A)
                    .collect();
                ctx.host.create_blob(out)
            }),
        );
        let mut cur = rt.put_blob(Blob::from_vec(vec![0xCD; 4096]));
        for _ in 0..4 {
            let t = rt
                .apply(ResourceLimits::default_limits(), step, &[cur])
                .expect("apply");
            cur = rt.eval(t).expect("eval");
        }
        (rt, cur)
    };

    group.bench_function("warm_read_4stage", |b| {
        let (rt, out) = build();
        b.iter(|| black_box(rt.get_blob(out).expect("resident")))
    });
    group.bench_function("cold_read_recompute_4stage", |b| {
        let (rt, out) = build();
        b.iter(|| {
            rt.evict_recomputable(&[]).expect("evict");
            rt.materialize(out).expect("materialize");
            black_box(rt.get_blob(out).expect("recomputed"))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_memoization,
    bench_literals,
    bench_selection,
    bench_hash,
    bench_recompute
);
criterion_main!(benches);
