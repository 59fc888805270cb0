//! Durable-runtime integration: the persistence tier through the full
//! `fixpoint::Runtime` stack — gc routing, eviction vs. the log, and
//! memoized work surviving a restart with zero recomputation.

use fix::durable::{DurableOptions, DurableStore, FsyncPolicy};
use fix::prelude::*;
use fix_storage::Relation;
use std::sync::Arc;

fn options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        ..DurableOptions::default()
    }
}

fn register_double(rt: &Runtime) -> Handle {
    rt.register_native(
        "durability/double",
        Arc::new(|ctx| {
            let x = ctx.arg_blob(0)?.as_u64().unwrap();
            // A result comfortably past the literal bound, so it is
            // stored (and must be persisted) for real.
            let mut out = (2 * x).to_le_bytes().to_vec();
            out.resize(64, 0xD0);
            ctx.host.create_blob(out)
        }),
    )
}

#[test]
fn memoized_work_survives_a_restart_through_the_runtime() {
    let dir = tempfile::tempdir().unwrap();
    let result_cold;
    {
        let durable = DurableStore::open(dir.path(), options()).unwrap();
        let rt = Runtime::builder().durable(durable).build();
        let double = register_double(&rt);
        let thunk = rt
            .apply(
                ResourceLimits::default_limits(),
                double,
                &[rt.put_blob(Blob::from_u64(21))],
            )
            .unwrap();
        result_cold = rt.eval(thunk).unwrap();
        assert_eq!(rt.procedures_run(), 1);
        rt.durable().unwrap().flush().unwrap();
    }
    // Restart: same request, zero procedures, bit-identical result,
    // bytes faulted from disk on first read.
    let durable = DurableStore::open(dir.path(), options()).unwrap();
    let rt = Runtime::builder().durable(durable).build();
    let double = register_double(&rt);
    let thunk = rt
        .apply(
            ResourceLimits::default_limits(),
            double,
            &[rt.put_blob(Blob::from_u64(21))],
        )
        .unwrap();
    let result_warm = rt.eval(thunk).unwrap();
    assert_eq!(result_warm, result_cold);
    assert_eq!(rt.procedures_run(), 0, "replayed, not recomputed");
    let blob = rt.get_blob(result_warm).unwrap();
    assert_eq!(&blob.as_slice()[..8], &42u64.to_le_bytes());
    assert!(rt.durable().unwrap().stats().faults >= 1);
}

/// An older writer recorded `Apply(tree) → out` for every finished
/// application, beside its `Eval` — or alone, if it stopped between the
/// two. Such a log serves both requests with nothing recomputed, and a
/// fresh request appends three frames: its tree, its result and its
/// `Eval`.
#[test]
fn a_log_with_an_apply_per_application_serves_without_recomputing() {
    let dir = tempfile::tempdir().unwrap();
    let request = |rt: &Runtime, double: Handle, x: u64| {
        rt.apply(
            ResourceLimits::default_limits(),
            double,
            &[rt.put_blob(Blob::from_u64(x))],
        )
        .unwrap()
    };
    let (both, apply_only, out_both, out_apply_only);
    {
        let durable = DurableStore::open(dir.path(), options()).unwrap();
        let rt = Runtime::builder().durable(durable).build();
        let double = register_double(&rt);
        both = request(&rt, double, 21);
        out_both = rt.eval(both).unwrap();
        rt.cache()
            .put(Relation::Apply, both.thunk_definition().unwrap(), out_both);
        // The request that stopped after its `Apply`: its tree, its
        // result and that one relation are on disk.
        apply_only = request(&rt, double, 22);
        let mut bytes = 44u64.to_le_bytes().to_vec();
        bytes.resize(64, 0xD0);
        out_apply_only = rt.put_blob(Blob::from_vec(bytes));
        rt.cache().put(
            Relation::Apply,
            apply_only.thunk_definition().unwrap(),
            out_apply_only,
        );
        assert_eq!(rt.procedures_run(), 1);
        rt.durable().unwrap().flush().unwrap();
    }
    let durable = DurableStore::open(dir.path(), options()).unwrap();
    assert_eq!(durable.replayed_relations().len(), 3);
    let rt = Runtime::builder().durable(durable).build();
    let double = register_double(&rt);
    assert_eq!(rt.eval(request(&rt, double, 21)).unwrap(), out_both);
    assert_eq!(rt.eval(request(&rt, double, 22)).unwrap(), out_apply_only);
    assert_eq!(rt.procedures_run(), 0, "replayed, not recomputed");

    rt.durable().unwrap().flush().unwrap();
    let before = rt.durable().unwrap().stats().appended_frames;
    let fresh = request(&rt, double, 23);
    let out = rt.eval(fresh).unwrap();
    assert_eq!(
        &rt.get_blob(out).unwrap().as_slice()[..8],
        &46u64.to_le_bytes()
    );
    rt.durable().unwrap().flush().unwrap();
    assert_eq!(rt.durable().unwrap().stats().appended_frames - before, 3);
}

#[test]
fn runtime_gc_routes_through_the_durable_index() {
    let dir = tempfile::tempdir().unwrap();
    let durable = DurableStore::open(dir.path(), options()).unwrap();
    let rt = Runtime::builder().durable(durable).build();
    let live = rt.put_blob(Blob::from_vec(vec![1u8; 80]));
    let dead = rt.put_blob(Blob::from_vec(vec![2u8; 80]));
    rt.durable().unwrap().flush().unwrap();

    let collected = rt.gc(&[live]);
    assert!(collected >= 1);
    assert!(rt.get_blob(live).is_ok());
    // Without index routing, the collected object would silently refault
    // from the log with stale bytes. Through Runtime::gc it stays dead.
    assert!(rt.get_blob(dead).is_err(), "no resurrection from the log");
    assert!(!rt.contains(dead));
}

#[test]
fn a_collected_object_stays_dead_across_a_restart_through_the_runtime() {
    let dir = tempfile::tempdir().unwrap();
    let (live, dead);
    {
        let durable = DurableStore::open(dir.path(), options()).unwrap();
        let rt = Runtime::builder().durable(durable).build();
        live = rt.put_blob(Blob::from_vec(vec![1u8; 80]));
        dead = rt.put_blob(Blob::from_vec(vec![2u8; 80]));
        rt.durable().unwrap().flush().unwrap();
        assert_eq!(rt.gc(&[live]), 1);
    }
    // A restart replays the log, which records the collection itself.
    let durable = DurableStore::open(dir.path(), options()).unwrap();
    let rt = Runtime::builder().durable(durable).build();
    assert_eq!(rt.durable().unwrap().stats().replayed_nodes, 1);
    assert!(
        rt.get_blob(dead).is_err(),
        "no resurrection after a restart"
    );
    assert!(!rt.contains(dead));
    assert_eq!(rt.get_blob(live).unwrap().as_slice(), &[1u8; 80][..]);
}

/// On a durable node, computational GC's planner is the one eviction
/// entry point: what the log holds goes at depth 0, and its way back is
/// one fault, not a recompute.
#[test]
fn evict_recomputable_frees_logged_objects_that_refault_without_recomputing() {
    const K: u64 = 8;
    let dir = tempfile::tempdir().unwrap();
    let durable = DurableStore::open(dir.path(), options()).unwrap();
    let rt = Runtime::builder().durable(durable.clone()).build();
    let double = register_double(&rt);
    let serve = || -> Vec<Handle> {
        (0..K)
            .map(|x| {
                let input = rt.put_blob(Blob::from_u64(x));
                let thunk = rt
                    .apply(ResourceLimits::default_limits(), double, &[input])
                    .unwrap();
                rt.eval(thunk).unwrap()
            })
            .collect()
    };
    let outputs = serve();
    assert_eq!(rt.procedures_run(), K);
    durable.flush().unwrap();
    let before = rt.store().total_bytes();

    let outcome = rt.evict_recomputable(&[]).unwrap();
    assert!(outcome.plan.victims.iter().all(|v| v.depth == 0));
    assert!(outcome.bytes_reclaimed > 0);
    assert_eq!(rt.store().total_bytes(), before - outcome.bytes_reclaimed);
    assert!(outputs.iter().all(|out| !rt.store().resident(*out)));

    let faults = durable.stats().faults;
    assert_eq!(serve(), outputs);
    assert_eq!(rt.procedures_run(), K, "memoized, not recomputed");
    for (x, out) in (0..K).zip(&outputs) {
        for _ in 0..2 {
            let bytes = rt.get_blob(*out).unwrap();
            assert_eq!(&bytes.as_slice()[..8], &(2 * x).to_le_bytes());
        }
    }
    assert_eq!(durable.stats().faults - faults, K, "one fault per output");
}

#[test]
fn eviction_round_trips_keep_total_bytes_consistent_through_the_runtime() {
    let dir = tempfile::tempdir().unwrap();
    let durable = DurableStore::open(dir.path(), options()).unwrap();
    let rt = Runtime::builder().durable(durable).build();
    let handles: Vec<Handle> = (0u8..5)
        .map(|i| rt.put_blob(Blob::from_vec(vec![i; 200])))
        .collect();
    rt.durable().unwrap().flush().unwrap();
    let store = rt.durable().unwrap().store().clone();
    assert_eq!(store.total_bytes(), 1000);

    // Evict persisted objects, then read everything
    // back: each read refaults from the log and the byte accounting
    // returns to exactly where it started.
    for h in &handles[..3] {
        assert_eq!(store.evict(*h), Some(200));
    }
    assert_eq!(store.total_bytes(), 400);
    for (i, h) in handles.iter().enumerate() {
        assert_eq!(rt.get_blob(*h).unwrap().as_slice(), &[i as u8; 200][..]);
    }
    assert_eq!(store.total_bytes(), 1000, "evict → refault is byte-neutral");
    assert_eq!(store.object_count(), 5);
}
