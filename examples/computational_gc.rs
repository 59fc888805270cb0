//! Computational garbage collection (paper §6): because every Fix
//! object is the deterministic product of known dependencies, a
//! provider offering "delayed-availability" storage may *delete* stored
//! bytes it knows how to recompute, and answer later reads by
//! re-running the recipe within an SLA window.
//!
//! This example computes per-shard byte histograms over a corpus and
//! merges them in a binary-reduction tree (each intermediate is a 2 KiB
//! blob — real bytes, unlike tiny literal counts). It then evicts every
//! recomputable object and reads the final histogram back cold,
//! watching the runtime restore the whole cascade by re-running
//! procedures.
//!
//! Run with: `cargo run --example computational_gc`

use fix::prelude::*;
use fix_workloads::wordcount::store_shards;
use std::sync::Arc;

/// Parses a 2048-byte histogram blob (256 × u64, little-endian).
fn parse_hist(blob: &Blob) -> [u64; 256] {
    let mut out = [0u64; 256];
    for (i, chunk) in blob.as_slice().chunks_exact(8).enumerate().take(256) {
        out[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    out
}

fn main() -> Result<()> {
    let rt = Runtime::builder().build();

    // histogram(shard): 256 × u64 counts of each byte value.
    let histogram = rt.register_native(
        "histogram",
        Arc::new(|ctx| {
            let shard = ctx.arg_blob(0)?;
            let mut counts = [0u64; 256];
            for &b in shard.as_slice() {
                counts[b as usize] += 1;
            }
            let bytes: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
            ctx.host.create_blob(bytes)
        }),
    );
    // merge(a, b): element-wise sum of two histograms.
    let merge = rt.register_native(
        "merge-histograms",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?;
            let b = ctx.arg_blob(1)?;
            let (ha, hb) = (parse_hist(&a), parse_hist(&b));
            let bytes: Vec<u8> = ha
                .iter()
                .zip(&hb)
                .flat_map(|(x, y)| (x + y).to_le_bytes())
                .collect();
            ctx.host.create_blob(bytes)
        }),
    );

    // A small corpus: 8 shards of deterministic pseudo-text.
    let shards = store_shards(&rt, 42, 8, 64 * 1024);
    println!(
        "corpus stored: {} objects, {} KiB",
        rt.store().object_count(),
        rt.store().total_bytes() / 1024
    );

    // Map, then binary reduce. Each stage's memoized relation is the
    // recipe eviction will read back.
    let limits = ResourceLimits::default_limits();
    let mut layer: Vec<Handle> = Vec::new();
    for &shard in &shards {
        let t = rt.apply(limits, histogram, &[shard])?;
        layer.push(rt.eval(t)?);
    }
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                let t = rt.apply(limits, merge, &[pair[0], pair[1]])?;
                next.push(rt.eval(t)?);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    let total = layer[0];
    let count_e = parse_hist(&rt.get_blob(total)?)[b'e' as usize];
    println!("total 'e' bytes in corpus: {count_e}");

    let procedures = |rt: &Runtime| rt.procedures_run();
    let before_bytes = rt.store().total_bytes();
    let before_runs = procedures(&rt);

    // --- Evict: every computed object goes (a provider would pin -----
    // whatever its customers hold leases on; here, nothing).
    let outcome = rt.evict_recomputable(&[])?;
    println!(
        "\nevicted {} objects ({} bytes), max recompute depth {}",
        outcome.plan.victims.len(),
        outcome.bytes_reclaimed,
        outcome.plan.max_depth()
    );
    println!(
        "store: {} -> {} bytes",
        before_bytes,
        rt.store().total_bytes()
    );
    assert!(!rt.store().contains(total), "final histogram was evicted");

    // --- Cold read: the platform restores the cascade on demand. ------
    let report = rt.materialize(total)?;
    println!(
        "\ncold read materialized {} objects (depth {}), re-ran {} procedures",
        report.objects_materialized,
        report.max_depth,
        procedures(&rt) - before_runs
    );
    let recomputed = parse_hist(&rt.get_blob(total)?)[b'e' as usize];
    println!("total 'e' bytes in corpus: {recomputed}  (recomputed)");
    assert_eq!(recomputed, count_e, "determinism: same bytes back");

    // Warm read: free.
    let warm = rt.materialize(total)?;
    assert_eq!(warm.objects_materialized, 0);
    println!("\nwarm read touched nothing — bytes are resident again");
    Ok(())
}
