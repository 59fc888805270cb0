//! Criterion bench for the real-runtime side of Fig. 9: B+-tree lookups
//! through the Fix-level continuation-passing codelet, across arities.
//!
//! The paper's claim: because Fix invocations are cheap and selections
//! are pinpoint, *finer granularity wins* — smaller arity means less
//! data touched per query, and the added invocations cost microseconds.

use criterion::{criterion_group, criterion_main, Criterion};
use fix_workloads::bptree::{build, lookup_fix, register_lookup};
use fix_workloads::titles::generate_sorted_titles;
use fixpoint::Runtime;
use std::hint::black_box;

fn bench_bptree(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_bptree_real_runtime");
    group.sample_size(20);

    let n_keys = 16_384;
    let titles = generate_sorted_titles(17, n_keys);
    let pairs: Vec<(String, Vec<u8>)> = titles
        .iter()
        .map(|t| (t.clone(), format!("v:{t}").into_bytes()))
        .collect();

    for log_arity in [14u32, 10, 7, 4, 2] {
        let arity = 1usize << log_arity;
        group.bench_function(format!("lookup_arity_2^{log_arity}"), |b| {
            let rt = Runtime::builder().build();
            let tree = build(rt.store(), &pairs, arity);
            let proc_h = register_lookup(&rt);
            let mut q = 0usize;
            b.iter(|| {
                // Rotate through query keys; memoization is shared, so
                // forget it to measure cold traversals like the paper's
                // independent query sets.
                q = (q + 7919) % n_keys;
                rt.cache().clear();
                black_box(lookup_fix(&rt, proc_h, &tree, &titles[q]).expect("hit"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bptree);
criterion_main!(benches);
