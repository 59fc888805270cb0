//! Crash-recovery, compaction, eviction, and gc semantics for `DurableStore`.

use fix_core::data::{Blob, Node, Tree};
use fix_core::error::Error;
use fix_core::handle::Handle;
use fix_core::wire::Parcel;
use fix_durable::LOG_MAGIC;
use fix_durable::{crc32, tear_log, DurableOptions, DurableStore, FsyncPolicy};
use fix_storage::{payload_key, Relation};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

fn opts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
    }
}

/// One frame around `payload`, as the format has always framed it.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A node frame filed under `key` whose parcel holds `node`, built the
/// way the first format writer did: through `Parcel::to_bytes`.
fn node_frame_keyed(key: [u8; 32], node: &Node) -> Vec<u8> {
    let mut payload = vec![1u8];
    payload.extend_from_slice(&key);
    payload.extend_from_slice(&Parcel::new(node.handle(), vec![node.clone()]).to_bytes());
    framed(&payload)
}

fn blob(seed: u8, len: usize) -> Blob {
    // > 30 bytes so it is a stored object, not a handle-resident literal.
    Blob::from_vec((0..len).map(|i| seed.wrapping_add(i as u8)).collect())
}

/// What a store leaves in its directory: the log, and nothing else.
fn assert_only_the_log(dir: &Path) {
    let names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, ["log.fixlog"]);
}

fn log_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("log.fixlog")).unwrap().len()
}

/// The length of an object's node frame.
fn frame_len(node: &Node) -> u64 {
    node_frame_keyed(payload_key(node.handle()), node).len() as u64
}

#[test]
fn reopen_faults_objects_lazily() {
    let dir = tempfile::tempdir().unwrap();
    let b = blob(1, 100);
    let t_handle;
    let b_handle;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        b_handle = d.store().put_blob(b.clone());
        t_handle = d.store().put_tree(Tree::from_handles(vec![b_handle]));
        d.flush().unwrap();
    }
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.store().object_count(), 0, "restart must be lazy");
    assert_eq!(d.stats().replayed_nodes, 2);
    assert!(
        d.store().contains(b_handle),
        "contains() consults the index"
    );
    let t = d.store().get_tree(t_handle).unwrap();
    assert_eq!(t.entries(), &[b_handle]);
    assert_eq!(d.store().get_blob(b_handle).unwrap(), b);
    assert_eq!(d.stats().faults, 2);
    assert_eq!(
        d.store().object_count(),
        2,
        "faulted objects become resident"
    );
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn torn_final_frame_is_truncated() {
    let dir = tempfile::tempdir().unwrap();
    let keep = blob(2, 64);
    let keep_handle;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        keep_handle = d.store().put_blob(keep.clone());
        d.flush().unwrap();
    }
    // Simulate a crash mid-append: a frame header promising more bytes
    // than the file holds.
    let log = dir.path().join("log.fixlog");
    let mut f = OpenOptions::new().append(true).open(&log).unwrap();
    f.write_all(&500u32.to_le_bytes()).unwrap();
    f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
    f.write_all(&[0xAB; 17]).unwrap();
    drop(f);

    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().truncated_bytes, 8 + 17);
    assert_eq!(d.stats().replayed_nodes, 1);
    assert_eq!(d.store().get_blob(keep_handle).unwrap(), keep);

    // The truncated log is clean: appends after recovery survive another
    // reopen.
    let extra_handle = d.store().put_blob(blob(3, 80));
    d.flush().unwrap();
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().truncated_bytes, 0);
    assert_eq!(d.stats().replayed_nodes, 2);
    assert!(d.store().contains(extra_handle));
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_snapshot_is_a_barrier_and_rewrites_only_a_log_with_dead_bytes() {
    let dir = tempfile::tempdir().unwrap();
    let blobs: Vec<Blob> = (0..8).map(|i| blob(10 + i, 50 + i as usize)).collect();
    let handles: Vec<Handle>;
    {
        let d = DurableStore::open(
            dir.path(),
            DurableOptions {
                fsync: FsyncPolicy::OnSnapshot,
            },
        )
        .unwrap();
        handles = blobs
            .iter()
            .map(|b| d.store().put_blob(b.clone()))
            .collect();
        d.cache().put(Relation::Eval, handles[0], handles[1]);
        // Nothing is dead: the snapshot syncs the log and leaves it be.
        d.snapshot().unwrap();
        assert_eq!(d.stats().snapshots, 0);
        assert_eq!(d.stats().fsyncs, 1, "the barrier synced the log");
        assert_eq!(log_len(dir.path()), 8 + d.stats().appended_bytes);

        // Forgetting half the objects leaves their frames and their four
        // tombstones dead: the next snapshot rewrites the live rest.
        for h in &handles[4..] {
            d.forget(*h).unwrap();
        }
        d.snapshot().unwrap();
        assert_eq!(d.stats().snapshots, 1);
        let live: u64 = blobs[..4]
            .iter()
            .map(|b| frame_len(&Node::Blob(b.clone())))
            .sum();
        assert_eq!(log_len(dir.path()), 8 + 74 + live);
        for (b, h) in blobs.iter().zip(&handles).take(4) {
            assert_eq!(&d.store().get_blob(*h).unwrap(), b);
        }
        for h in &handles[4..] {
            assert!(d.store().get(*h).is_err());
        }
        // The rewritten log holds no dead bytes: a barrier again.
        d.snapshot().unwrap();
        assert_eq!(d.stats().snapshots, 1);
    }
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 4);
    assert_eq!(d.stats().replayed_relations, 1);
    assert_eq!(
        d.cache().get(Relation::Eval, handles[0]),
        Some(handles[1]),
        "memoized relations survive the compaction"
    );
    for (b, h) in blobs.iter().zip(&handles).take(4) {
        assert_eq!(&d.store().get_blob(*h).unwrap(), b);
    }
    for h in &handles[4..] {
        assert!(!d.store().contains(*h));
    }
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_partial_compaction_is_ignored_and_removed() {
    let dir = tempfile::tempdir().unwrap();
    let b = blob(4, 90);
    let h;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        h = d.store().put_blob(b.clone());
        d.flush().unwrap();
    }
    // A crash mid-compaction leaves the log's successor half written and
    // never renamed.
    let mut partial = LOG_MAGIC.to_vec();
    partial.extend_from_slice(b"junk");
    std::fs::write(dir.path().join("log.fixlog.tmp"), partial).unwrap();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(
        d.store().get_blob(h).unwrap(),
        b,
        "the log is authoritative"
    );
    assert_eq!(d.stats().truncated_bytes, 0);
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_snapshot_file_of_the_older_layout_is_refused_by_name() {
    let dir = tempfile::tempdir().unwrap();
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        d.store().put_blob(blob(3, 90));
        d.flush().unwrap();
    }
    let name = "snap-00000000000000ab.fixsnap";
    std::fs::write(dir.path().join(name), b"FIXSNAP1").unwrap();
    match DurableStore::open(dir.path(), opts()) {
        Err(err @ Error::Backend { .. }) => assert!(err.to_string().contains(name), "{err}"),
        Err(err) => panic!("expected a backend error, got {err}"),
        Ok(_) => panic!("opened without the snapshot's state"),
    }
}

#[test]
fn kill_point_crashes_and_recovery_keeps_the_prefix() {
    let dir = tempfile::tempdir().unwrap();
    let survivors: Vec<Blob> = (0..3).map(|i| blob(20 + i, 40)).collect();
    let lost = blob(99, 40);
    let survivor_handles: Vec<Handle>;
    let lost_handle;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        survivor_handles = survivors
            .iter()
            .map(|b| d.store().put_blob(b.clone()))
            .collect();
        lost_handle = d.store().put_blob(lost.clone());
        d.flush().unwrap();
    }
    // The node died right after its third frame reached the disk.
    tear_log(dir.path(), 3).unwrap();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(
        d.stats().truncated_bytes,
        19,
        "the crash leaves a torn frame for recovery to drop"
    );
    assert_eq!(d.stats().replayed_nodes, 3);
    for (b, h) in survivors.iter().zip(&survivor_handles) {
        assert_eq!(&d.store().get_blob(*h).unwrap(), b);
    }
    assert!(
        !d.store().contains(lost_handle),
        "what followed the crash is lost"
    );
    drop(d);
    assert_only_the_log(dir.path());
    assert!(
        tear_log(dir.path(), 4).is_err(),
        "the recovered log holds three frames"
    );
}

#[test]
fn an_evicted_logged_object_refaults_on_demand() {
    let dir = tempfile::tempdir().unwrap();
    let blobs: Vec<Blob> = (0..10).map(|i| blob(30 + i, 100)).collect();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let handles: Vec<Handle> = blobs
        .iter()
        .map(|b| d.store().put_blob(b.clone()))
        .collect();
    d.flush().unwrap();
    for h in &handles[..6] {
        assert_eq!(d.store().evict(*h), Some(100));
        assert!(d.store().contains(*h), "the log still holds it");
    }
    assert_eq!(d.store().total_bytes(), 4 * 100);
    // Everything is still readable; evicted objects refault transparently
    // and total_bytes stays consistent across the evict→refault round trip.
    for (b, h) in blobs.iter().zip(&handles) {
        assert_eq!(&d.store().get_blob(*h).unwrap(), b);
    }
    assert_eq!(d.store().object_count(), 10);
    assert_eq!(d.store().total_bytes(), 10 * 100);
    assert_eq!(d.stats().faults, 6, "one fault per evicted object");
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn the_tables_own_gc_on_a_durable_table_drops_bytes_only() {
    // `Store::gc` on the table under a durable store frees memory, like an
    // eviction: the object stays located, so it faults back in now and
    // comes back after a restart, and the table keeps matching the log.
    let dir = tempfile::tempdir().unwrap();
    let (kept, collected) = (blob(40, 90), blob(41, 90));
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let kept_handle = d.store().put_blob(kept.clone());
    let collected_handle = d.store().put_blob(collected.clone());
    d.flush().unwrap();
    assert_eq!(d.store().gc(&[kept_handle]), 1);
    assert!(!d.store().resident(collected_handle));
    assert!(d.store().contains(collected_handle) && d.store().backed(collected_handle));
    assert_eq!(d.store().total_bytes(), 90);
    assert_eq!(d.store().get_blob(collected_handle).unwrap(), collected);
    assert_eq!(d.stats().faults, 1);
    d.store().gc(&[kept_handle]);
    drop(d);

    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 2);
    assert_eq!(d.store().get_blob(collected_handle).unwrap(), collected);
    assert_eq!(d.store().get_blob(kept_handle).unwrap(), kept);
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn gc_prunes_the_index_so_collected_objects_cannot_resurrect() {
    let dir = tempfile::tempdir().unwrap();
    let live = blob(5, 70);
    let dead = blob(6, 70);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let live_handle = d.store().put_blob(live.clone());
    let dead_handle = d.store().put_blob(dead.clone());
    let root = d.store().put_tree(Tree::from_handles(vec![live_handle]));
    d.flush().unwrap();

    let collected = d.gc(&[root]).unwrap();
    assert_eq!(collected, 1);
    assert_eq!(d.store().get_blob(live_handle).unwrap(), live);
    // The dead object is gone from memory AND the durable index: no
    // silent resurrection with stale bytes.
    assert!(d.store().get(dead_handle).is_err());
    assert!(!d.store().contains(dead_handle));
    assert_eq!(d.store().total_bytes(), 70 + 32);

    // ... and it stays dead across a compaction + reopen.
    d.snapshot().unwrap();
    assert_eq!(d.stats().snapshots, 1);
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 2);
    assert!(d.store().get(dead_handle).is_err());
    assert_eq!(d.store().get_blob(live_handle).unwrap(), live);
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_collected_object_stays_dead_across_a_restart() {
    let dir = tempfile::tempdir().unwrap();
    let (live, dead) = (blob(5, 70), blob(6, 70));
    let (live_handle, dead_handle);
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        live_handle = d.store().put_blob(live.clone());
        dead_handle = d.store().put_blob(dead);
        let root = d.store().put_tree(Tree::from_handles(vec![live_handle]));
        d.flush().unwrap();
        assert_eq!(d.gc(&[root]).unwrap(), 1);
    }
    // No snapshot in between: the log itself records the collection.
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 2);
    assert!(d.store().get(dead_handle).is_err(), "no resurrection");
    assert!(!d.store().contains(dead_handle));
    assert_eq!(d.store().get_blob(live_handle).unwrap(), live);
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_forgotten_object_stays_dead_across_a_restart() {
    let dir = tempfile::tempdir().unwrap();
    let h;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        h = d.store().put_blob(blob(8, 55));
        d.flush().unwrap();
        assert_eq!(d.forget(h).unwrap(), Some(55));
    }
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 0);
    assert!(d.store().get(h).is_err(), "no resurrection");
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn an_object_put_again_after_gc_survives_a_restart() {
    let dir = tempfile::tempdir().unwrap();
    let b = blob(9, 80);
    let h;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        h = d.store().put_blob(b.clone());
        d.flush().unwrap();
        assert_eq!(d.gc(&[]).unwrap(), 1);
        assert!(d.store().get(h).is_err());
        // Node, tombstone, node: the later frame wins.
        assert_eq!(d.store().put_blob(b.clone()), h);
        d.flush().unwrap();
        assert_eq!(d.stats().appended_frames, 3);
    }
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 1);
    assert_eq!(d.store().get_blob(h).unwrap(), b);
    // The first frame and the tombstone are dead; compacting them away
    // keeps the object.
    d.snapshot().unwrap();
    assert_eq!(d.stats().snapshots, 1);
    assert_eq!(log_len(dir.path()), 8 + frame_len(&Node::Blob(b.clone())));
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.store().get_blob(h).unwrap(), b);
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn gc_descends_through_non_resident_trees() {
    let dir = tempfile::tempdir().unwrap();
    let leaf = blob(7, 60);
    let root;
    let leaf_handle;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        leaf_handle = d.store().put_blob(leaf.clone());
        root = d.store().put_tree(Tree::from_handles(vec![leaf_handle]));
        d.flush().unwrap();
    }
    // Nothing resident: the reachability walk must fault trees in to
    // find the leaf, and keep both.
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.gc(&[root]).unwrap(), 0);
    assert_eq!(d.store().get_blob(leaf_handle).unwrap(), leaf);
}

#[test]
fn gc_on_a_reopened_store_reads_each_reachable_tree_once() {
    let dir = tempfile::tempdir().unwrap();
    let (root, dead);
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        let s = d.store();
        // Leaves are literals (they ride in the handle), so the only
        // disk reads the walk can cause are its three reachable trees.
        let lit = |v: u64| Blob::from_u64(v).handle();
        let left = s.put_tree(Tree::from_handles(vec![lit(1), lit(2)]));
        let right = s.put_tree(Tree::from_handles(vec![lit(3), lit(4)]));
        root = s.put_tree(Tree::from_handles(vec![left, right, left]));
        dead = s.put_tree(Tree::from_handles(vec![lit(5), s.put_blob(blob(9, 40))]));
        d.flush().unwrap();
    }
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.store().object_count(), 0, "restart must be lazy");
    // The dead tree and its blob are disk-only: pruned from the index,
    // counted, never read.
    assert_eq!(d.gc(&[root]).unwrap(), 2);
    assert_eq!(d.stats().faults, 3, "one mark walk, one fault per tree");
    assert_eq!(d.store().object_count(), 3);
    assert!(!d.store().contains(dead));
    assert_eq!(d.store().get_tree(root).unwrap().len(), 3);
    assert_eq!(d.stats().faults, 3, "the walk left its trees resident");
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn forget_drops_an_object_for_good() {
    let dir = tempfile::tempdir().unwrap();
    let b = blob(8, 55);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let h = d.store().put_blob(b);
    d.flush().unwrap();
    assert_eq!(d.forget(h).unwrap(), Some(55));
    assert!(!d.store().contains(h));
    assert!(d.store().get(h).is_err(), "forget() means no refault");
    assert_eq!(d.store().total_bytes(), 0);
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_compaction_that_cannot_read_a_live_object_fails_alone() {
    let dir = tempfile::tempdir().unwrap();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let a = Node::Blob(blob(70, 200));
    let a_handle = d.store().put(a.clone());
    let garbage = d.store().put_blob(blob(71, 200));
    d.forget(garbage).unwrap();
    assert_eq!(d.store().evict(a_handle), Some(200));
    // Corrupt `a` on disk behind a valid checksum: the log still scans,
    // but `a`'s frame (the first) no longer hashes to its name.
    let log = dir.path().join("log.fixlog");
    let mut bytes = std::fs::read(&log).unwrap();
    let end = 8 + frame_len(&a) as usize;
    bytes[end - 5] ^= 0xFF;
    let crc = crc32(&bytes[16..end]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&log, &bytes).unwrap();

    assert!(d.snapshot().is_err(), "the compaction cannot read `a`");
    assert!(!dir.path().join("log.fixlog.tmp").exists());
    // Persistence goes on in the log it had.
    let fresh = blob(72, 90);
    let fresh_handle = d.store().put_blob(fresh.clone());
    d.flush().expect("appends survive a failed compaction");
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().truncated_bytes, 0);
    assert_eq!(d.store().get_blob(fresh_handle).unwrap(), fresh);
    assert!(d.store().get(a_handle).is_err(), "never the wrong bytes");
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn relations_referencing_lost_tail_data_are_dropped_on_replay() {
    let dir = tempfile::tempdir().unwrap();
    let input = blob(9, 45);
    let output = blob(10, 45);
    let input_handle;
    let output_handle;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        input_handle = d.store().put_blob(input);
        output_handle = d.store().put_blob(output);
        d.cache().put(Relation::Apply, input_handle, output_handle);
        d.flush().unwrap();
    }
    // Corrupt the output object's frame: recovery stops there, losing
    // both the output bytes and the relation record behind it — so the
    // cache must not claim the apply is memoized.
    let log = dir.path().join("log.fixlog");
    let mut bytes = std::fs::read(&log).unwrap();
    let second_frame = 8 + 8 + 4 + 1 + 32 + 73 + 45; // header + frame(node: tag+key+parcel(73+45))
    bytes[second_frame + 20] ^= 0xFF;
    std::fs::write(&log, &bytes).unwrap();

    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 1);
    assert_eq!(d.stats().replayed_relations, 0);
    assert_eq!(d.cache().get(Relation::Apply, input_handle), None);
    assert!(!d.store().contains(output_handle));
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn the_writer_compacts_by_itself_once_dead_bytes_outweigh_live_ones() {
    let dir = tempfile::tempdir().unwrap();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let keep = Node::Blob(blob(1, 4096));
    let keep_handle = d.store().put(keep.clone());
    // Past the writer's 1 MiB floor once collected.
    let dropped: Vec<Handle> = (0..300)
        .map(|i| d.store().put_blob(blob(i as u8, 4097 + i)))
        .collect();
    d.flush().unwrap();
    assert_eq!(d.gc(&[keep_handle]).unwrap(), 300);
    assert_eq!(d.stats().snapshots, 1, "no snapshot was asked for");
    assert_eq!(log_len(dir.path()), 8 + frame_len(&keep));
    assert_eq!(d.store().get(keep_handle).unwrap(), keep);
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 1);
    assert!(dropped.iter().all(|h| !d.store().contains(*h)));
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn literals_are_never_logged() {
    let dir = tempfile::tempdir().unwrap();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let h = d.store().put(Node::Blob(Blob::from_vec(vec![1, 2, 3])));
    assert!(h.is_literal());
    d.flush().unwrap();
    assert_eq!(d.stats().appended_frames, 0);
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 0);
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_frame_keyed_for_another_object_is_never_served() {
    let dir = tempfile::tempdir().unwrap();
    let (a, b) = (blob(50, 64), blob(51, 64));
    // A structurally perfect frame — checksum right, parcel verifies —
    // that files B's bytes under A's key.
    let mut log = LOG_MAGIC.to_vec();
    log.extend(node_frame_keyed(
        payload_key(a.handle()),
        &Node::Blob(b.clone()),
    ));
    std::fs::write(dir.path().join("log.fixlog"), &log).unwrap();

    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().truncated_bytes, 0, "the frame itself is valid");
    assert_eq!(d.stats().replayed_nodes, 1);
    assert!(
        d.store().get_blob(a.handle()).is_err(),
        "asking for A must never return B's bytes"
    );
    assert!(
        d.store().get_blob(b.handle()).is_err(),
        "B's key is not indexed"
    );
    assert_eq!(d.stats().faults, 0);
    assert_eq!(d.store().object_count(), 0, "nothing was made resident");
    drop(d);
    assert_only_the_log(dir.path());
}

#[test]
fn a_log_from_the_first_format_writer_opens_faults_and_compacts() {
    let dir = tempfile::tempdir().unwrap();
    let log_path = dir.path().join("log.fixlog");
    let leaf = blob(60, 200);
    let nodes = [
        Node::Blob(leaf.clone()),
        Node::Tree(Tree::from_handles(vec![])),
        Node::Tree(Tree::from_handles(vec![
            leaf.handle(),
            Blob::from_slice(b"lit").handle(),
            leaf.handle().as_ref_handle(),
        ])),
    ];
    let frames: Vec<Vec<u8>> = nodes
        .iter()
        .map(|n| node_frame_keyed(payload_key(n.handle()), n))
        .collect();
    let input = nodes[2].handle().application().unwrap();
    let mut relation = vec![2u8, 0];
    relation.extend_from_slice(input.raw());
    relation.extend_from_slice(leaf.handle().raw());
    let relation_frame = framed(&relation);
    let mut log = LOG_MAGIC.to_vec();
    for frame in &frames {
        log.extend(frame);
    }
    log.extend(&relation_frame);
    // The leaf written twice: the first copy is dead.
    log.extend(&frames[0]);
    std::fs::write(&log_path, &log).unwrap();

    let read_all = |d: &DurableStore| {
        for node in &nodes {
            assert_eq!(&d.store().get(node.handle()).unwrap(), node);
        }
        assert_eq!(d.cache().get(Relation::Eval, input), Some(leaf.handle()));
    };
    // A compaction writes what the first writer would have written for
    // the same state: the relation, then the node frames (in index order,
    // so compared as a set), and nothing else.
    let assert_compacted = || {
        let log = std::fs::read(&log_path).unwrap();
        let (head, rest) = log.split_at(LOG_MAGIC.len());
        assert_eq!(head, LOG_MAGIC);
        let (first, body) = rest.split_at(relation_frame.len());
        assert_eq!(first, &relation_frame[..]);
        let mut got = Vec::new();
        let mut at = 0;
        while at < body.len() {
            let len = 8 + u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
            got.push(body[at..at + len].to_vec());
            at += len;
        }
        got.sort();
        let mut expect = frames.clone();
        expect.sort();
        assert_eq!(got, expect);
    };

    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().truncated_bytes, 0);
    assert_eq!(d.stats().replayed_nodes, 3);
    assert_eq!(d.stats().replayed_relations, 1);
    read_all(&d);
    assert_eq!(d.stats().faults, 3);
    // Everything resident: the compaction encodes from memory.
    d.snapshot().unwrap();
    assert_eq!(d.stats().snapshots, 1);
    drop(d);
    assert_compacted();

    // Nothing resident: the compaction copies each frame through the
    // verifying decode, without faulting anything in.
    let mut f = OpenOptions::new().append(true).open(&log_path).unwrap();
    f.write_all(&frames[1]).unwrap();
    drop(f);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 3);
    d.snapshot().unwrap();
    assert_eq!(d.stats().snapshots, 1);
    assert_eq!(d.stats().faults, 0, "a compaction faults nothing in");
    drop(d);
    assert_compacted();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    read_all(&d);
    assert_eq!(d.stats().faults, 3);
    drop(d);
    assert_only_the_log(dir.path());
}

/// The scripted run of the crash sweep: 20 rounds of three frames — an
/// output blob, a tree over it, and the relation `tree() → blob` — and,
/// after every fourth round, a gc that drops the blob and tree of the
/// round two before it: two tombstones, in key order. Odd rounds record
/// the relation *first*, so a crash between the two leaves a relation on
/// disk whose output is not.
struct Script {
    /// Each round's output blob and the tree over it.
    rounds: Vec<(Blob, Tree)>,
}

/// One frame of the scripted log.
enum Frame {
    Node(Handle),
    /// The relation of this round.
    Relation(usize),
    Tombstone(Handle),
}

impl Script {
    const ROUNDS: usize = 20;

    fn new() -> Script {
        let rounds = (0..Script::ROUNDS)
            .map(|i| {
                let out = blob(100 + i as u8, 40 + i);
                let tree =
                    Tree::from_handles(vec![out.handle(), Blob::from_u64(i as u64).handle()]);
                (out, tree)
            })
            .collect();
        Script { rounds }
    }

    fn input(&self, round: usize) -> Handle {
        self.rounds[round].1.handle().application().unwrap()
    }

    /// The round whose objects the gc after `round` drops.
    fn collected_after(round: usize) -> Option<usize> {
        (round % 4 == 3).then(|| round - 2)
    }

    /// Round `round`'s blob and tree, in the order of their tombstones.
    fn dropped(&self, round: usize) -> [Handle; 2] {
        let (out, tree) = &self.rounds[round];
        let mut handles = [out.handle(), tree.handle()];
        handles.sort_by_key(|h| payload_key(*h));
        handles
    }

    /// Every frame the run appends, in log order.
    fn frames(&self) -> Vec<Frame> {
        let mut frames = Vec::new();
        for (i, (out, tree)) in self.rounds.iter().enumerate() {
            if i % 2 == 1 {
                frames.push(Frame::Relation(i));
            }
            frames.push(Frame::Node(out.handle()));
            frames.push(Frame::Node(tree.handle()));
            if i % 2 == 0 {
                frames.push(Frame::Relation(i));
            }
            if let Some(j) = Script::collected_after(i) {
                frames.extend(self.dropped(j).map(Frame::Tombstone));
            }
        }
        frames
    }

    /// Submits the frames in bursts of 1, 2, 3, … rounds with a flush
    /// between bursts, so a burst tends to reach the writer as one batch
    /// and crash points fall at the start, middle and end of batches.
    fn run(&self, d: &DurableStore) {
        let (mut round, mut burst) = (0, 1);
        let mut live: Vec<usize> = Vec::new();
        while round < Script::ROUNDS {
            for i in round..(round + burst).min(Script::ROUNDS) {
                let (out, tree) = &self.rounds[i];
                let relate = || d.cache().put(Relation::Eval, self.input(i), out.handle());
                if i % 2 == 1 {
                    relate();
                }
                d.store().put_blob(out.clone());
                d.store().put_tree(tree.clone());
                if i % 2 == 0 {
                    relate();
                }
                live.push(i);
                if let Some(j) = Script::collected_after(i) {
                    live.retain(|&r| r != j);
                    let roots: Vec<Handle> = live
                        .iter()
                        .flat_map(|&r| [self.rounds[r].0.handle(), self.rounds[r].1.handle()])
                        .collect();
                    d.gc(&roots).unwrap();
                }
            }
            d.flush().unwrap();
            round += burst;
            burst += 1;
        }
    }

    /// What a replay of the first `frames` frames of the log serves: an
    /// object whose node frame is among them and not undone by a later
    /// tombstone among them, and a relation whose frame is among them.
    fn survivors(&self, frames: usize) -> (Vec<Handle>, Vec<usize>) {
        let (mut objects, mut relations) = (Vec::new(), Vec::new());
        for frame in self.frames().into_iter().take(frames) {
            match frame {
                Frame::Node(h) => objects.push(h),
                Frame::Tombstone(h) => objects.retain(|&o| o != h),
                Frame::Relation(i) => relations.push(i),
            }
        }
        (objects, relations)
    }
}

#[test]
fn every_kill_point_recovers_exactly_the_frames_before_it() {
    let script = Script::new();
    let total = script.frames().len() as u64;
    assert_eq!(total, 70);
    let run = tempfile::tempdir().unwrap();
    {
        let d = DurableStore::open(
            run.path(),
            DurableOptions {
                fsync: FsyncPolicy::EveryN(4),
            },
        )
        .unwrap();
        script.run(&d);
        assert_eq!(d.stats().appended_frames, total);
    }
    let log = std::fs::read(run.path().join("log.fixlog")).unwrap();
    for after_frames in 1..=total {
        let dir = tempfile::tempdir().unwrap();
        std::fs::write(dir.path().join("log.fixlog"), &log).unwrap();
        tear_log(dir.path(), after_frames).unwrap();
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        let (objects, relations) = script.survivors(after_frames as usize);
        let served = |h: Handle| objects.contains(&h);
        let tag = format!("crash after {after_frames}");
        assert_eq!(d.stats().truncated_bytes, 19, "{tag}");
        assert_eq!(d.stats().replayed_nodes, objects.len() as u64, "{tag}");
        // A relation frame counts only if its output is served too.
        let memoized = |i: usize| relations.contains(&i) && served(script.rounds[i].0.handle());
        let expected_relations = (0..Script::ROUNDS).filter(|&i| memoized(i)).count();
        assert_eq!(
            d.stats().replayed_relations,
            expected_relations as u64,
            "{tag}"
        );
        for (i, (out, tree)) in script.rounds.iter().enumerate() {
            let tag = format!("{tag} round {i}");
            assert_eq!(
                d.store().contains(out.handle()),
                served(out.handle()),
                "{tag}"
            );
            assert_eq!(
                d.store().contains(tree.handle()),
                served(tree.handle()),
                "{tag}"
            );
            let memo = d.cache().get(Relation::Eval, script.input(i));
            assert_eq!(memo.is_some(), memoized(i), "{tag}");
            if let Some(memo) = memo {
                assert_eq!(&d.store().get_blob(memo).unwrap(), out, "{tag}");
            }
            if served(tree.handle()) {
                assert_eq!(&d.store().get_tree(tree.handle()).unwrap(), tree, "{tag}");
            } else {
                assert!(d.store().get(tree.handle()).is_err(), "{tag}");
            }
        }
        drop(d);
        assert_only_the_log(dir.path());
    }
}

/// Two readers evict and fault objects back in while the writer compacts
/// again and again, and a third thread forgets a third of them, one at a
/// time. A fault can hold a location a compaction is moving, or one whose
/// file it has retired: every read of an object whose `forget` has not
/// begun returns its bytes, never `NotFound`, and an object whose
/// `forget` has returned never refaults, then or after a restart.
#[test]
fn faults_and_forgets_race_repeated_compactions() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    const OBJECTS: usize = 48;
    const FORGOTTEN: usize = 16;
    const COMPACTIONS: u64 = 64;
    let dir = tempfile::tempdir().unwrap();
    let options = DurableOptions {
        fsync: FsyncPolicy::OnSnapshot,
    };
    let d = DurableStore::open(dir.path(), options).unwrap();
    let objects: Vec<(Handle, Blob)> = (0..OBJECTS)
        .map(|i| {
            let b = blob(i as u8, 1000 + i);
            (d.store().put_blob(b.clone()), b)
        })
        .collect();
    d.flush().unwrap();
    // Forgets begun and returned, in object order.
    let (begun, returned) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(SeqCst) {
                    for (i, (h, b)) in objects.iter().enumerate() {
                        let forgotten = i < returned.load(SeqCst);
                        d.store().evict(*h);
                        let read = d.store().get_blob(*h);
                        if forgotten {
                            assert!(matches!(read, Err(Error::NotFound(_))), "{i} refaulted");
                        } else if i >= begun.load(SeqCst) {
                            assert_eq!(read.as_ref().ok(), Some(b), "{i}: {read:?}");
                        }
                    }
                }
            });
        }
        s.spawn(|| {
            for (i, (h, _)) in objects[..FORGOTTEN].iter().enumerate() {
                begun.store(i + 1, SeqCst);
                d.forget(*h).unwrap();
                returned.store(i + 1, SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        for round in 0..COMPACTIONS {
            // Dead bytes for each snapshot to compact: an object's frame
            // and its tombstone.
            let dead = d.store().put_blob(blob(200, 64 + round as usize));
            d.forget(dead).unwrap();
            d.snapshot().unwrap();
        }
        stop.store(true, SeqCst);
    });
    assert_eq!(d.stats().snapshots, COMPACTIONS);
    drop(d);
    let d = DurableStore::open(dir.path(), options).unwrap();
    assert_eq!(d.stats().replayed_nodes, (OBJECTS - FORGOTTEN) as u64);
    for (i, (h, b)) in objects.iter().enumerate() {
        let read = d.store().get_blob(*h);
        if i < FORGOTTEN {
            assert!(read.is_err(), "{i} came back after a restart");
        } else {
            assert_eq!(read.unwrap(), *b);
        }
    }
    drop(d);
    assert_only_the_log(dir.path());
}
