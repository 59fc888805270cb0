//! Criterion bench for the One Fix API's batched dispatch: N warm
//! (fully memoized) requests evaluated through `eval_many` — one
//! scheduler lock acquisition per batch — versus a loop of single
//! `eval` calls, which pays the submit/notify round per request.
//!
//! The warm-memoized path (~0.8 µs/request, Fig. 7a) is exactly where
//! per-request scheduler overhead is the largest *fraction* of total
//! cost, so it bounds the benefit batching can ever deliver.

use criterion::{criterion_group, criterion_main, Criterion};
use fix_core::api::{Evaluator, InvocationApi, ObjectApi, SubmitApi, SubmitOptions};
use fix_core::data::Blob;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fixpoint::Runtime;
use std::hint::black_box;
use std::sync::Arc;

/// A runtime with `n` distinct add-thunks, all evaluated once so each
/// subsequent request is a pure relation-cache hit.
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
            rt.apply(
                ResourceLimits::default_limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(i)),
                    rt.put_blob(Blob::from_u64(1)),
                ],
            )
            .unwrap()
        })
        .collect();
    for r in rt.eval_many(&thunks) {
        r.expect("warmup eval");
    }
    (rt, thunks)
}

fn bench_batched_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("api_eval_many");
    for n in [16u64, 256] {
        let (rt, thunks) = warm_batch(n);
        group.bench_function(format!("single_eval_loop/{n}"), |b| {
            b.iter(|| {
                for &t in &thunks {
                    black_box(rt.eval(t).unwrap());
                }
            })
        });
        let (rt, thunks) = warm_batch(n);
        group.bench_function(format!("eval_many_batched/{n}"), |b| {
            b.iter(|| {
                for r in rt.eval_many(black_box(&thunks)) {
                    black_box(r.unwrap());
                }
            })
        });
        // Strict submission: the eval→force chain watched as one batch.
        // Warm both stages first so the rows isolate dispatch overhead
        // (each strict slot watches two memoized jobs instead of one).
        let (rt, thunks) = warm_batch(n);
        for r in rt.submit_with(&thunks, SubmitOptions::strict()).wait() {
            r.expect("strict warmup");
        }
        group.bench_function(format!("strict_eval_loop/{n}"), |b| {
            b.iter(|| {
                for &t in &thunks {
                    black_box(rt.eval_strict(t).unwrap());
                }
            })
        });
        group.bench_function(format!("strict_submit_batched/{n}"), |b| {
            b.iter(|| {
                for r in rt
                    .submit_with(black_box(&thunks), SubmitOptions::strict())
                    .wait()
                {
                    black_box(r.unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched_dispatch);
criterion_main!(benches);
