//! Crash-recovery, snapshot, spill, and gc semantics for `DurableStore`.

use fix_core::data::{Blob, Node, Tree};
use fix_core::handle::Handle;
use fix_core::wire::Parcel;
use fix_durable::{crc32, DurableOptions, DurableStore, FsyncPolicy, KillMode, KillPoint};
use fix_durable::{LOG_MAGIC, SNAP_MAGIC};
use fix_storage::{payload_key, Relation};
use std::fs::OpenOptions;
use std::io::Write;

fn opts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        ..DurableOptions::default()
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
}

#[test]
fn snapshot_compacts_and_truncates_the_log() {
    let dir = tempfile::tempdir().unwrap();
    let blobs: Vec<Blob> = (0..8).map(|i| blob(10 + i, 50 + i as usize)).collect();
    let handles: Vec<Handle>;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        handles = blobs
            .iter()
            .map(|b| d.store().put_blob(b.clone()))
            .collect();
        d.cache().put(Relation::Eval, handles[0], handles[1]);
        d.snapshot().unwrap();
        assert_eq!(d.stats().snapshots, 1);
        // The log is truncated back to its 8-byte magic header.
        let log_len = std::fs::metadata(dir.path().join("log.fixlog"))
            .unwrap()
            .len();
        assert_eq!(log_len, 8);
        // Objects still read fine (now from the snapshot file).
        for (b, h) in blobs.iter().zip(&handles) {
            assert_eq!(&d.store().get_blob(*h).unwrap(), b);
        }
    }
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 8);
    assert_eq!(d.stats().replayed_relations, 1);
    assert_eq!(
        d.cache().get(Relation::Eval, handles[0]),
        Some(handles[1]),
        "memoized relations survive the snapshot"
    );
    for (b, h) in blobs.iter().zip(&handles) {
        assert_eq!(&d.store().get_blob(*h).unwrap(), b);
    }
}

#[test]
fn interrupted_snapshot_tmp_is_ignored() {
    let dir = tempfile::tempdir().unwrap();
    let b = blob(4, 90);
    let h;
    {
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        h = d.store().put_blob(b.clone());
        d.flush().unwrap();
    }
    // A crash mid-snapshot leaves a partial .tmp (never renamed) and, in
    // the worst case, a garbage .fixsnap with no commit record.
    std::fs::write(
        dir.path().join("snap-00000000000000aa.tmp"),
        b"FIXSNAP8junk",
    )
    .unwrap();
    std::fs::write(
        dir.path().join("snap-00000000000000ab.fixsnap"),
        b"FIXSNAP8",
    )
    .unwrap();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.store().get_blob(h).unwrap(), b, "log still authoritative");
}

#[test]
fn kill_point_crashes_and_recovery_keeps_the_prefix() {
    let dir = tempfile::tempdir().unwrap();
    let survivors: Vec<Blob> = (0..3).map(|i| blob(20 + i, 40)).collect();
    let lost = blob(99, 40);
    let survivor_handles: Vec<Handle>;
    let lost_handle;
    {
        let d = DurableStore::open(
            dir.path(),
            DurableOptions {
                fsync: FsyncPolicy::Always,
                kill: Some(KillPoint {
                    after_frames: 3,
                    mode: KillMode::Stop,
                }),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        survivor_handles = survivors
            .iter()
            .map(|b| d.store().put_blob(b.clone()))
            .collect();
        d.flush().unwrap();
        assert!(d.crashed(), "the third frame trips the kill point");
        // Appends after the crash are dropped, and flush doesn't hang.
        lost_handle = d.store().put_blob(lost.clone());
        d.flush().unwrap();
    }
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert!(
        d.stats().truncated_bytes > 0,
        "the kill point leaves a torn frame for recovery to drop"
    );
    assert_eq!(d.stats().replayed_nodes, 3);
    for (b, h) in survivors.iter().zip(&survivor_handles) {
        assert_eq!(&d.store().get_blob(*h).unwrap(), b);
    }
    assert!(
        !d.store().contains(lost_handle),
        "post-crash appends are lost"
    );
}

#[test]
fn spill_evicts_cold_objects_and_refaults_on_demand() {
    let dir = tempfile::tempdir().unwrap();
    let blobs: Vec<Blob> = (0..10).map(|i| blob(30 + i, 100)).collect();
    let d = DurableStore::open(
        dir.path(),
        DurableOptions {
            fsync: FsyncPolicy::Always,
            spill_watermark_bytes: Some(450),
            ..DurableOptions::default()
        },
    )
    .unwrap();
    let handles: Vec<Handle> = blobs
        .iter()
        .map(|b| d.store().put_blob(b.clone()))
        .collect();
    d.flush().unwrap();
    assert!(
        d.store().total_bytes() <= 450,
        "spill holds resident bytes under the watermark, got {}",
        d.store().total_bytes()
    );
    assert!(d.stats().spills >= 6);
    // Everything is still readable; spilled objects refault transparently
    // and total_bytes stays consistent across the evict→refault round trip.
    for (b, h) in blobs.iter().zip(&handles) {
        assert_eq!(&d.store().get_blob(*h).unwrap(), b);
    }
    assert_eq!(d.store().object_count(), 10);
    assert_eq!(d.store().total_bytes(), 10 * 100);
    assert!(d.stats().faults >= 6);
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

    let collected = d.gc(&[root]);
    assert_eq!(collected, 1);
    assert_eq!(d.store().get_blob(live_handle).unwrap(), live);
    // The dead object is gone from memory AND the durable index: no
    // silent resurrection with stale bytes.
    assert!(d.store().get(dead_handle).is_err());
    assert!(!d.store().contains(dead_handle));
    assert_eq!(d.store().total_bytes(), 70 + 32);

    // ... and it stays dead across a snapshot + reopen.
    d.snapshot().unwrap();
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 2);
    assert!(d.store().get(dead_handle).is_err());
    assert_eq!(d.store().get_blob(live_handle).unwrap(), live);
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
    assert_eq!(d.gc(&[root]), 0);
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
    assert_eq!(d.gc(&[root]), 2);
    assert_eq!(d.stats().faults, 3, "one mark walk, one fault per tree");
    assert_eq!(d.store().object_count(), 3);
    assert!(!d.store().contains(dead));
    assert_eq!(d.store().get_tree(root).unwrap().len(), 3);
    assert_eq!(d.stats().faults, 3, "the walk left its trees resident");
}

#[test]
fn forget_drops_an_object_for_good() {
    let dir = tempfile::tempdir().unwrap();
    let b = blob(8, 55);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let h = d.store().put_blob(b);
    d.flush().unwrap();
    assert_eq!(d.forget(h), Some(55));
    assert!(!d.store().contains(h));
    assert!(d.store().get(h).is_err(), "forget() means no refault");
    assert_eq!(d.store().total_bytes(), 0);
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
}

#[test]
fn auto_snapshot_triggers_on_log_size() {
    let dir = tempfile::tempdir().unwrap();
    let d = DurableStore::open(
        dir.path(),
        DurableOptions {
            fsync: FsyncPolicy::Always,
            snapshot_log_bytes: Some(600),
            ..DurableOptions::default()
        },
    )
    .unwrap();
    let handles: Vec<Handle> = (0..12)
        .map(|i| d.store().put_blob(blob(40 + i, 120)))
        .collect();
    d.flush().unwrap();
    assert!(
        d.stats().snapshots >= 1,
        "log growth must trigger compaction"
    );
    for h in &handles {
        assert!(d.store().get(*h).is_ok());
    }
}

#[test]
fn literals_are_never_logged() {
    let dir = tempfile::tempdir().unwrap();
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    let h = d.store().put(Node::Blob(Blob::from_vec(vec![1, 2, 3])));
    assert!(h.is_literal());
    d.flush().unwrap();
    assert_eq!(d.stats().appended_frames, 0);
    assert_eq!(d.indexed_objects(), 0);
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
}

#[test]
fn a_log_from_the_first_format_writer_opens_faults_and_snapshots() {
    let dir = tempfile::tempdir().unwrap();
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
    let input = nodes[2].handle().application().unwrap();
    let mut log = LOG_MAGIC.to_vec();
    for node in &nodes {
        log.extend(node_frame_keyed(payload_key(node.handle()), node));
    }
    let mut relation = vec![2u8, 0];
    relation.extend_from_slice(input.raw());
    relation.extend_from_slice(leaf.handle().raw());
    log.extend(framed(&relation));
    std::fs::write(dir.path().join("log.fixlog"), &log).unwrap();

    let read_all = |d: &DurableStore| {
        for node in &nodes {
            assert_eq!(&d.store().get(node.handle()).unwrap(), node);
        }
        assert_eq!(d.cache().get(Relation::Eval, input), Some(leaf.handle()));
    };
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().truncated_bytes, 0);
    assert_eq!(d.stats().replayed_nodes, 3);
    assert_eq!(d.stats().replayed_relations, 1);
    read_all(&d);
    assert_eq!(d.stats().faults, 3);
    // Snapshot with everything resident, reopen, read from the snapshot;
    // then snapshot again with nothing resident (frame-to-frame copy).
    d.snapshot().unwrap();
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    assert_eq!(d.stats().replayed_nodes, 3);
    d.snapshot().unwrap();
    assert_eq!(d.stats().faults, 0, "a snapshot faults nothing in");
    drop(d);
    let d = DurableStore::open(dir.path(), opts()).unwrap();
    read_all(&d);
    assert_eq!(d.stats().faults, 3);

    // The snapshot the new writer produced is, frame for frame, what the
    // first writer would have written for the same state.
    let snap = std::fs::read(dir.path().join("snap-0000000000000001.fixsnap")).unwrap();
    let mut expect: Vec<Vec<u8>> = nodes
        .iter()
        .map(|n| node_frame_keyed(payload_key(n.handle()), n))
        .collect();
    expect.sort();
    let relation_frame = framed(&relation);
    let (head, rest) = snap.split_at(SNAP_MAGIC.len());
    assert_eq!(head, SNAP_MAGIC);
    assert_eq!(&rest[..relation_frame.len()], &relation_frame[..]);
    let mut commit = vec![3u8];
    commit.extend_from_slice(&4u64.to_le_bytes());
    let commit = framed(&commit);
    let body = &rest[relation_frame.len()..rest.len() - commit.len()];
    assert_eq!(&rest[rest.len() - commit.len()..], &commit[..]);
    // Node frames come out in index (hash map) order: compare as a set.
    let mut got = Vec::new();
    let mut at = 0;
    while at < body.len() {
        let len = 8 + u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
        got.push(body[at..at + len].to_vec());
        at += len;
    }
    got.sort();
    assert_eq!(got, expect);
}

/// The scripted run of the kill sweep: 20 rounds of three frames — an
/// output blob, a tree over it, and the relation `tree() → blob`. Odd
/// rounds record the relation *first*, so a kill between the two leaves
/// a relation on disk whose output is not.
struct Script {
    /// Each round's output blob and the tree over it.
    rounds: Vec<(Blob, Tree)>,
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

    /// Submits the 60 frames in bursts of 1, 2, 3, … rounds with a flush
    /// between bursts, so a burst tends to reach the writer as one batch
    /// and kill points land at the start, middle and end of batches.
    fn run(&self, d: &DurableStore) {
        let (mut round, mut burst) = (0, 1);
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
            }
            d.flush().unwrap();
            round += burst;
            burst += 1;
        }
    }

    /// Which rounds have their blob, tree and relation frame among the
    /// first `frames` frames of the log.
    fn survivors(&self, frames: usize) -> Vec<(bool, bool, bool)> {
        (0..Script::ROUNDS)
            .map(|i| {
                let at = |slot: usize| 3 * i + slot < frames;
                if i % 2 == 1 {
                    (at(1), at(2), at(0))
                } else {
                    (at(0), at(1), at(2))
                }
            })
            .collect()
    }
}

#[test]
fn every_kill_point_recovers_exactly_the_frames_before_it() {
    let script = Script::new();
    for after_frames in 1..=40u64 {
        let dir = tempfile::tempdir().unwrap();
        {
            let d = DurableStore::open(
                dir.path(),
                DurableOptions {
                    fsync: FsyncPolicy::EveryN(4),
                    kill: Some(KillPoint {
                        after_frames,
                        mode: KillMode::Stop,
                    }),
                    ..DurableOptions::default()
                },
            )
            .unwrap();
            script.run(&d);
            assert!(d.crashed(), "kill point {after_frames} tripped");
            assert_eq!(d.stats().appended_frames, after_frames);
        }
        let d = DurableStore::open(dir.path(), opts()).unwrap();
        let survivors = script.survivors(after_frames as usize);
        let nodes = survivors
            .iter()
            .map(|s| s.0 as u64 + s.1 as u64)
            .sum::<u64>();
        // A relation frame counts only if its output's frame made it too.
        let relations = survivors.iter().filter(|s| s.2 && s.0).count() as u64;
        let tag = format!("kill after {after_frames}");
        assert_eq!(d.stats().truncated_bytes, 19, "{tag}");
        assert_eq!(d.stats().replayed_nodes, nodes, "{tag}");
        assert_eq!(d.stats().replayed_relations, relations, "{tag}");
        for (i, &(has_blob, has_tree, has_relation)) in survivors.iter().enumerate() {
            let (out, tree) = &script.rounds[i];
            assert_eq!(
                d.store().contains(out.handle()),
                has_blob,
                "{tag} round {i}"
            );
            assert_eq!(
                d.store().contains(tree.handle()),
                has_tree,
                "{tag} round {i}"
            );
            let memo = d.cache().get(Relation::Eval, script.input(i));
            assert_eq!(memo.is_some(), has_relation && has_blob, "{tag} round {i}");
            if let Some(memo) = memo {
                assert_eq!(&d.store().get_blob(memo).unwrap(), out, "{tag} round {i}");
            }
            if has_tree {
                assert_eq!(&d.store().get_tree(tree.handle()).unwrap(), tree);
            }
        }
    }
}
