//! Durable-runtime integration: the persistence tier through the full
//! `fixpoint::Runtime` stack — gc routing, eviction vs. the log, and
//! memoized work surviving a restart with zero recomputation.

use fix::durable::{DurableOptions, DurableStore, FsyncPolicy};
use fix::prelude::*;
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

    // Evict persisted objects (the spill path), then read everything
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
