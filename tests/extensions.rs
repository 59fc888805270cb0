//! Integration tests for the paper-§6 extension systems: computational
//! garbage collection and pay-for-results billing — exercised together,
//! across crates.

use fix::prelude::*;
use fix_billing::{bill_effort, bill_results, meter_eval, Money, PriceSheet};
use fix_storage::Relation;
use std::sync::Arc;

fn limits() -> ResourceLimits {
    ResourceLimits::default_limits()
}

/// Registers a histogram + merge pipeline and evaluates it over shards,
/// returning the final (non-literal) result handle.
fn histogram_pipeline(rt: &Runtime, n_shards: usize) -> Handle {
    let histogram = rt.register_native(
        "histogram",
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
        "merge-histograms",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?;
            let b = ctx.arg_blob(1)?;
            let sum: Vec<u8> = a
                .as_slice()
                .chunks_exact(8)
                .zip(b.as_slice().chunks_exact(8))
                .flat_map(|(x, y)| {
                    (u64::from_le_bytes(x.try_into().unwrap())
                        + u64::from_le_bytes(y.try_into().unwrap()))
                    .to_le_bytes()
                })
                .collect();
            ctx.host.create_blob(sum)
        }),
    );
    let shards = fix_workloads::wordcount::store_shards(rt, 7, n_shards, 16 << 10);
    let mut layer: Vec<Handle> = shards
        .iter()
        .map(|&s| {
            rt.eval(rt.apply(limits(), histogram, &[s]).unwrap())
                .unwrap()
        })
        .collect();
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            next.push(if pair.len() == 2 {
                rt.eval(rt.apply(limits(), merge, &[pair[0], pair[1]]).unwrap())
                    .unwrap()
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    layer[0]
}

#[test]
fn evicted_pipeline_recomputes_byte_identical_results() {
    let rt = Runtime::builder().build();
    let total = histogram_pipeline(&rt, 8);
    let original = rt.get_blob(total).unwrap();

    let outcome = rt.evict_recomputable(&[]).unwrap();
    // 8 histograms + 7 merges, all 2 KiB.
    assert_eq!(outcome.plan.victims.len(), 15);
    assert_eq!(outcome.bytes_reclaimed, 15 * 2048);
    assert!(rt.get_blob(total).is_err(), "bytes must really be gone");

    let report = rt.materialize(total).unwrap();
    assert_eq!(report.objects_materialized, 15);
    assert_eq!(rt.get_blob(total).unwrap(), original);
}

#[test]
fn partial_eviction_with_pins_limits_recompute_cascade() {
    let rt = Runtime::builder().build();
    let total = histogram_pipeline(&rt, 8);

    // Pin the final result: only intermediates are evicted.
    let outcome = rt.evict_recomputable(&[total]).unwrap();
    assert_eq!(outcome.plan.victims.len(), 14);
    assert!(rt.store().contains(total));

    // Reading the pinned result costs nothing.
    let report = rt.materialize(total).unwrap();
    assert_eq!(report.objects_materialized, 0);
}

#[test]
fn eviction_is_idempotent_and_safe_to_repeat() {
    let rt = Runtime::builder().build();
    let total = histogram_pipeline(&rt, 4);
    let first = rt.evict_recomputable(&[]).unwrap();
    assert!(first.bytes_reclaimed > 0);
    // Nothing recomputable remains resident: a second pass is a no-op.
    let second = rt.evict_recomputable(&[]).unwrap();
    assert_eq!(second.bytes_reclaimed, 0);
    // And the data still comes back.
    rt.materialize(total).unwrap();
    assert!(rt.store().contains(total));
}

#[test]
fn billing_disagrees_across_models_for_io_bound_work() {
    // An I/O-heavy invocation (per Fig. 8a): big footprint, tiny
    // compute. Effort billing charges the occupancy; results billing
    // charges mostly the upfront data/RAM terms.
    let usage = fix_billing::InvocationUsage {
        input_bytes: 1 << 30,
        ram_reserved_bytes: 1 << 30,
        instructions: 600_000, // 100 µs of real work.
        l1_misses: 3_000,
        l2_misses: 600,
        l3_misses: 200,
        wall_us: 150_100, // Held through a 150 ms fetch.
        deadline_slack_us: 0,
    };
    let price = PriceSheet::default();
    let effort = bill_effort(&usage, &price).total();
    let results = bill_results(&usage, &price).total();

    // If the platform had fetched before binding (Fix), occupancy
    // drops to the compute time and the effort bill collapses…
    let mut fixed = usage;
    fixed.wall_us = 100;
    let effort_fixed = bill_effort(&fixed, &price).total();
    assert!(effort > effort_fixed.scaled(1000, 1));
    // …while the results bill does not move at all.
    assert_eq!(results, bill_results(&fixed, &price).total());
}

#[test]
fn metered_real_evaluation_produces_consistent_invoices() {
    let rt = Runtime::builder().build();
    let count_down = rt
        .install_vm_module(
            r#"
            func apply args=0 locals=1
              const 0
              const 2
              tree.get
              const 0
              blob.read_u64
              local.set 0
            loop:
              local.get 0
              eqz
              jump_if done
              local.get 0
              const 1
              sub
              local.set 0
              jump loop
            done:
              const 0
              blob.create_u64
              ret_handle
            end
            "#,
        )
        .unwrap();
    let thunk = rt
        .apply(
            ResourceLimits::new(1 << 20, 1 << 24),
            count_down,
            &[rt.put_blob(Blob::from_u64(10_000))],
        )
        .unwrap();
    let (out, usage) = meter_eval(&rt, thunk).unwrap();
    assert_eq!(rt.get_u64(out).unwrap(), 0);
    // The loop burns fuel proportional to its trip count.
    assert!(usage.instructions >= 10_000, "fuel: {}", usage.instructions);
    let price = PriceSheet::default();
    assert!(bill_results(&usage, &price).total() > Money::ZERO);
}

#[test]
fn recompute_fails_cleanly_when_procedure_is_gone() {
    // A recipe is only as good as the code it names: ship the evicted
    // store to a runtime that never registered the procedure and the
    // cold read must fail with UnknownProcedure — not hang or corrupt.
    let rt = Runtime::builder().build();
    let double = rt.register_native(
        "ephemeral/double",
        Arc::new(|ctx| {
            let v = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            let mut out = vec![0u8; 64];
            out[..8].copy_from_slice(&(v * 2).to_le_bytes());
            ctx.host.create_blob(out)
        }),
    );
    let out = rt
        .eval(
            rt.apply(limits(), double, &[rt.put_blob(Blob::from_u64(4))])
                .unwrap(),
        )
        .unwrap();
    rt.evict_recomputable(&[]).unwrap();

    // Simulate provider restart without the codelet: re-register the
    // name with a failing stub is not possible (same handle would run);
    // instead, rebuild the runtime and import everything except the
    // procedure's implementation.
    let cold = Runtime::builder().build();
    for h in rt.store().inventory() {
        let node = rt.store().get(h).unwrap();
        cold.store().put(node);
    }
    // Copy the recipe: the application's `Eval`, the relation that
    // produced `out`.
    for (relation, input, output) in rt.cache().entries() {
        if relation == Relation::Eval && output == out {
            cold.cache().put(relation, input, output);
        }
    }
    // A failed re-run keeps its recipe: the second cold read fails the
    // same way, not with NotFound.
    let first = cold.materialize(out).unwrap_err();
    assert!(
        matches!(first, Error::UnknownProcedure(_)),
        "unexpected error: {first}"
    );
    let second = cold.materialize(out).unwrap_err();
    assert_eq!(second.to_string(), first.to_string());
}

#[test]
fn recompute_counts_procedures_not_cache_hits() {
    let rt = Runtime::builder().build();
    let total = histogram_pipeline(&rt, 4);
    let runs_before = rt.procedures_run();
    rt.evict_recomputable(&[]).unwrap();
    rt.materialize(total).unwrap();
    let reran = rt.procedures_run() - runs_before;
    // 4 histograms + 3 merges re-ran; nothing else.
    assert_eq!(reran, 7);
}
