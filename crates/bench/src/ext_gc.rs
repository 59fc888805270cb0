//! Extension experiment: computational garbage collection (paper §6).
//!
//! Not a paper figure — the paper proposes this as future work — but
//! the design decision it rests on (recipes read from the relation
//! cache) deserves numbers: how much storage does eviction
//! reclaim, and what does a cold read cost at each cascade depth?
//!
//! The workload is a binary histogram-merge tree over `width` shards
//! (depth grows with log₂ width), on the *real* runtime.

use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::Blob;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fixpoint::Runtime;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

fn limits() -> ResourceLimits {
    ResourceLimits::default_limits()
}

/// Builds the histogram pipeline over `width` shards of `shard_size`
/// bytes; returns the final handle.
fn pipeline(rt: &Runtime, width: usize, shard_size: usize) -> Handle {
    let histogram = rt.register_native(
        "bench/histogram",
        Arc::new(|ctx| {
            let shard = ctx.arg_blob(0)?;
            let mut counts = [0u64; 256];
            for &b in shard.as_slice() {
                counts[b as usize] += 1;
            }
            ctx.host
                .create_blob(counts.iter().flat_map(|c| c.to_le_bytes()).collect())
        }),
    );
    let merge = rt.register_native(
        "bench/merge",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?;
            let b = ctx.arg_blob(1)?;
            let sum: Vec<u8> = a
                .as_slice()
                .chunks_exact(8)
                .zip(b.as_slice().chunks_exact(8))
                .flat_map(|(x, y)| {
                    (u64::from_le_bytes(x.try_into().expect("8B"))
                        + u64::from_le_bytes(y.try_into().expect("8B")))
                    .to_le_bytes()
                })
                .collect();
            ctx.host.create_blob(sum)
        }),
    );
    let mut layer: Vec<Handle> = (0..width)
        .map(|i| {
            let shard = rt.put_blob(Blob::from_vec(fix_workloads::corpus::generate_shard(
                99, i as u64, shard_size,
            )));
            rt.eval(rt.apply(limits(), histogram, &[shard]).expect("apply"))
                .expect("eval")
        })
        .collect();
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            next.push(if pair.len() == 2 {
                rt.eval(
                    rt.apply(limits(), merge, &[pair[0], pair[1]])
                        .expect("apply"),
                )
                .expect("eval")
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    layer[0]
}

/// Runs the experiment across pipeline widths and renders the table.
pub fn run(widths: &[usize], shard_size: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== extension: computational GC (delayed-availability storage) =="
    )
    .unwrap();
    writeln!(
        out,
        "{:>6} {:>6} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "width", "depth", "stored B", "evicted B", "victims", "warm read", "cold read"
    )
    .unwrap();
    for &width in widths {
        let rt = Runtime::builder().build();
        let total = pipeline(&rt, width, shard_size);

        let warm_t = Instant::now();
        let _ = rt.get_blob(total).expect("warm read");
        let warm = warm_t.elapsed();

        let stored = rt.store().total_bytes();
        let outcome = rt.evict_recomputable(&[]).expect("evict");

        let cold_t = Instant::now();
        let report = rt.materialize(total).expect("materialize");
        let _ = rt.get_blob(total).expect("cold read");
        let cold = cold_t.elapsed();

        writeln!(
            out,
            "{:>6} {:>6} {:>10} {:>10} {:>9} {:>9} µs {:>9} µs",
            width,
            outcome.plan.max_depth(),
            stored,
            outcome.bytes_reclaimed,
            report.objects_materialized,
            warm.as_micros(),
            cold.as_micros(),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(cold reads re-run the recorded recipes; the provider trades\n\
         bytes held for deterministic recompute within the SLA window)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shows_growing_cascades() {
        let text = run(&[2, 8], 4 << 10);
        assert!(text.contains("width"));
        // Two data rows plus header and footer.
        assert!(text.lines().count() >= 5);
    }
}
