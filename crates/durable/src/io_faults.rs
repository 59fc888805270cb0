//! The durable store under injected I/O faults.
//!
//! [`crate::faulty`] makes one file call fail, tear or flip. The sweep
//! does that to every call of a scripted run in turn, then reopens the
//! directory on the real file system and checks what a failed disk may
//! leave: the store opens, serves exactly what a replay of some prefix of
//! the frames the script asked for serves — no shorter than the last
//! barrier that returned `Ok` — never brings back what a `gc` or `forget`
//! that returned `Ok` dropped, serves each object under its own name, and
//! backs every relation it replays.
//!
//! The script also races a compaction: parked at its rename, it has
//! copied every located object, and a fault and a `forget` run before it
//! moves their locations. The fault must read its object, and an object
//! whose `forget` returned `Ok` must never refault.
//!
//! A second sweep flips bits in the reads a reopen of a finished run
//! makes, streamed and positional: open must tell a misread from a torn
//! log, so it either fails and leaves the file as it was, or serves the
//! whole log.

use crate::faulty::{arm, Fault, Plan};
use crate::{DurableOptions, DurableStore, FsyncPolicy};
use fix_core::data::{Blob, Node, Tree};
use fix_core::error::Result;
use fix_core::handle::Handle;
use fix_storage::{payload_key, Relation};
use std::path::Path;

const OPTIONS: DurableOptions = DurableOptions {
    fsync: FsyncPolicy::OnSnapshot,
};
/// The sweep's one seed: it picks each call's fault and flipped bit.
const SEED: u64 = 0x5EED_F1A7;
/// Times the sweep faults each call.
const PASSES: usize = 8;
/// Bits the open-time sweep flips in each read.
const FLIPS: usize = 32;

fn open(dir: &Path) -> DurableStore {
    DurableStore::open(dir, OPTIONS).unwrap()
}

fn blob(seed: u8, len: usize) -> Node {
    // Past the literal bound, so each is a stored object.
    Node::Blob(Blob::from_vec(
        (0..len).map(|i| seed.wrapping_add(i as u8)).collect(),
    ))
}

fn tree(entries: &[Handle]) -> Node {
    Node::Tree(Tree::from_handles(entries.to_vec()))
}

/// SplitMix64: the next value of the stream at `state`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One frame the script asks the log for.
#[derive(Clone, Copy)]
enum Frame {
    Node(Handle),
    /// `Eval(input) → output`.
    Relation(Handle, Handle),
    Tombstone(Handle),
}

/// What a scripted run asked for, and what it was told.
#[derive(Default)]
struct Run {
    /// Every frame the script asks for, in order, taken or not.
    frames: Vec<Frame>,
    /// How many of `frames` a barrier that returned `Ok` covers.
    acked: usize,
    /// What a `gc` or `forget` that returned `Ok` dropped.
    collected: Vec<Handle>,
    /// The raced compaction waited at its rename for the fault and the
    /// `forget`.
    raced: bool,
}

impl Run {
    fn barrier(&mut self, answer: Result<()>) {
        if answer.is_ok() {
            self.acked = self.frames.len();
        }
    }

    /// Puts `node`, then flushes: a batch of one frame keeps the run's
    /// file calls the same from run to run.
    fn put(&mut self, d: &DurableStore, node: Node) -> Handle {
        let handle = d.store().put(node);
        self.frames.push(Frame::Node(handle));
        self.barrier(d.flush());
        handle
    }

    fn relate(&mut self, d: &DurableStore, input: Handle, output: Handle) {
        d.cache().put(Relation::Eval, input, output);
        self.frames.push(Frame::Relation(input, output));
        self.barrier(d.flush());
    }

    /// A `gc` that drops `dropped`, whose tombstones go out in key order.
    fn gc(&mut self, d: &DurableStore, roots: &[Handle], dropped: &[Handle]) {
        let mut tombstones = dropped.to_vec();
        tombstones.sort_by_key(|h| payload_key(*h));
        self.frames
            .extend(tombstones.into_iter().map(Frame::Tombstone));
        if let Ok(collected) = d.gc(roots) {
            assert_eq!(collected, dropped.len());
            self.acked = self.frames.len();
            self.collected.extend_from_slice(dropped);
        }
    }

    /// A `forget` of `handle` that answered `answer`.
    fn forget(&mut self, handle: Handle, answer: Result<Option<u64>>) {
        self.frames.push(Frame::Tombstone(handle));
        if answer.is_ok() {
            self.acked = self.frames.len();
            self.collected.push(handle);
        }
    }

    /// A snapshot that a fault of `faulted` (evicted) and a `forget` of
    /// `forgotten` race: both run while the compaction waits at its
    /// rename, or, if it fails or never starts, once it has answered.
    fn race(&mut self, d: &DurableStore, plan: &Plan, faulted: Handle, forgotten: Handle) {
        d.store().evict(faulted);
        let gate = plan.park("rename");
        let (snapshot, forget) = std::thread::scope(|s| {
            let snapshot = s.spawn(|| d.snapshot());
            while !gate.holds_a_call() && !snapshot.is_finished() {
                std::thread::yield_now();
            }
            self.raced = gate.holds_a_call();
            if d.store().backed(faulted) {
                let read = d.store().get(faulted).map(|node| node.handle());
                assert_eq!(read.ok(), Some(faulted), "a fault racing a compaction");
            }
            let forget = s.spawn(|| d.forget(forgotten));
            // Its tombstone is queued once the object is unlocated; the
            // `forget` then waits for the writer.
            while d.store().backed(forgotten) && !forget.is_finished() {
                std::thread::yield_now();
            }
            drop(gate);
            (snapshot.join().unwrap(), forget.join().unwrap())
        });
        self.barrier(snapshot);
        if forget.is_ok() {
            assert!(
                d.store().get(forgotten).is_err(),
                "a forgotten object refaulted"
            );
        }
        self.forget(forgotten, forget);
    }
}

/// The scripted run: puts, relations, an eviction and its refault, two
/// `gc`s, a `forget`, a compaction, a second one raced by a fault and a
/// `forget`, and a restart that reads everything back. It stops where
/// `open` fails. `plan` is `dir`'s.
fn script(dir: &Path, plan: &Plan) -> Run {
    let mut run = Run::default();
    let Ok(d) = DurableStore::open(dir, OPTIONS) else {
        return run;
    };
    let blobs: Vec<Node> = (0..9u8)
        .map(|i| blob(16 * i, 40 + 8 * i as usize))
        .collect();
    let mut h: Vec<Handle> = blobs[..5].iter().map(|b| run.put(&d, b.clone())).collect();
    let t0 = run.put(&d, tree(&[h[0], h[1]]));
    run.relate(&d, t0.application().unwrap(), h[2]);
    d.store().evict(h[0]);
    let _ = d.store().get(h[0]);
    run.gc(&d, &[t0, h[2]], &[h[3], h[4]]);
    // The first relation's output: that relation is no longer backed.
    run.forget(h[2], d.forget(h[2]));
    h.extend(blobs[5..8].iter().map(|b| run.put(&d, b.clone())));
    let t1 = run.put(&d, tree(&[h[5], h[6]]));
    run.relate(&d, t1.application().unwrap(), h[7]);
    // Not resident, so the compaction reads it from the log.
    d.store().evict(h[5]);
    run.barrier(d.snapshot());
    h.push(run.put(&d, blobs[8].clone()));
    run.gc(&d, &[t0, t1, h[7]], &[h[8]]);
    run.race(&d, plan, h[6], h[1]);
    drop(d);
    let Ok(d) = DurableStore::open(dir, OPTIONS) else {
        return run;
    };
    for frame in &run.frames {
        if let Frame::Node(handle) = frame {
            let _ = d.store().get(*handle);
        }
    }
    run
}

/// The objects and the `Eval` relations a store serves.
type Served = (Vec<Handle>, Vec<(Handle, Handle)>);

/// Every object and relation a script names.
struct Universe {
    objects: Vec<Handle>,
    relations: Vec<(Handle, Handle)>,
}

impl Universe {
    fn of(run: &Run) -> Universe {
        let mut universe = Universe {
            objects: Vec::new(),
            relations: Vec::new(),
        };
        for frame in &run.frames {
            match *frame {
                Frame::Node(h) => universe.objects.push(h),
                Frame::Relation(i, o) => universe.relations.push((i, o)),
                Frame::Tombstone(_) => {}
            }
        }
        universe
    }

    /// What a replay of `frames` serves: each object whose node frame no
    /// later tombstone undoes, and each relation whose output is served.
    fn replay(&self, frames: &[Frame]) -> Served {
        let (mut live, mut related) = (Vec::new(), Vec::new());
        for frame in frames {
            match *frame {
                Frame::Node(h) => live.push(h),
                Frame::Tombstone(h) => live.retain(|&o| o != h),
                Frame::Relation(i, o) => related.push((i, o)),
            }
        }
        let objects = self.objects.iter().filter(|h| live.contains(h));
        let relations = self
            .relations
            .iter()
            .filter(|&&(i, o)| related.contains(&(i, o)) && live.contains(&o));
        (objects.copied().collect(), relations.copied().collect())
    }
}

/// Reopens `dir` on the real file system and checks it against what
/// `run` asked for and was told.
fn check(dir: &Path, run: &Run, universe: &Universe, tag: &str) {
    let d = DurableStore::open(dir, OPTIONS).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let served: Vec<Handle> = universe
        .objects
        .iter()
        .copied()
        .filter(|&h| d.store().contains(h))
        .collect();
    let memoized: Vec<(Handle, Handle)> = universe
        .relations
        .iter()
        .copied()
        .filter(|&(i, o)| d.cache().get(Relation::Eval, i) == Some(o))
        .collect();
    assert_eq!(d.cache().len(), memoized.len(), "{tag}");
    let seen = (served, memoized);
    assert!(
        (run.acked..=run.frames.len()).any(|k| universe.replay(&run.frames[..k]) == seen),
        "{tag}: {seen:?} is no replay of {} or more frames",
        run.acked
    );
    for h in &run.collected {
        assert!(!seen.0.contains(h), "{tag}: collected {h} came back");
    }
    for &h in &seen.0 {
        let node = d
            .store()
            .get(h)
            .unwrap_or_else(|e| panic!("{tag}: {h}: {e}"));
        assert_eq!(node.handle(), h, "{tag}: wrong bytes for {h}");
    }
    for (_, _, output) in d.cache().entries() {
        assert!(d.store().get(output).is_ok(), "{tag}: {output} unbacked");
    }
    drop(d);
    let names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["log.fixlog"], "{tag}");
}

#[test]
fn every_file_call_of_a_scripted_run_can_fail() {
    let dir = tempfile::tempdir().unwrap();
    let plan = arm(dir.path());
    let clean = script(dir.path(), &plan);
    let calls = plan.calls();
    drop(plan);
    let universe = Universe::of(&clean);
    assert_eq!(clean.frames.len(), 18);
    assert_eq!(clean.acked, 18, "a run without faults is acknowledged");
    assert!(clean.raced, "the compaction waited at its rename");
    check(dir.path(), &clean, &universe, "no fault");

    // Each pass faults every call once; the seed's stream picks a fresh
    // fault for each call on each pass.
    let mut seed = SEED;
    for _ in 0..PASSES {
        for (at, &name) in calls.iter().enumerate() {
            let fault = Fault::from_seed(splitmix(&mut seed));
            let dir = tempfile::tempdir().unwrap();
            let plan = arm(dir.path());
            plan.fault(at, fault);
            let run = script(dir.path(), &plan);
            assert_eq!(plan.calls().get(at), Some(&name), "call {at} moved");
            drop(plan);
            let tag = format!("{fault:?} at call {at}, {name}");
            check(dir.path(), &run, &universe, &tag);
        }
    }
    eprintln!(
        "swept {} file calls, {PASSES} injected faults each",
        calls.len()
    );
}

/// A flipped bit in a read at open is a misread, not a torn log: open
/// must not cut the log at it (which would make the misread permanent,
/// and bring back an object whose tombstone lay past the cut).
#[test]
fn a_flipped_read_at_open_cuts_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let plan = arm(dir.path());
    let run = script(dir.path(), &plan);
    drop(plan);
    let universe = Universe::of(&run);
    assert_eq!(
        run.acked,
        run.frames.len(),
        "a run without faults is acknowledged"
    );
    let plan = arm(dir.path());
    drop(open(dir.path()));
    let calls = plan.calls();
    drop(plan);
    let log = dir.path().join("log.fixlog");
    let bytes = std::fs::read(&log).unwrap();

    let mut seed = SEED;
    let mut flipped = 0;
    for (at, &name) in calls.iter().enumerate() {
        if name != "read" && name != "read_at" {
            continue;
        }
        for _ in 0..FLIPS {
            let fault = Fault::Flip(splitmix(&mut seed));
            let plan = arm(dir.path());
            plan.fault(at, fault);
            let opened = DurableStore::open(dir.path(), OPTIONS);
            let tag = format!("{fault:?} at call {at}, {name}");
            if opened.is_err() {
                assert_eq!(
                    std::fs::read(&log).unwrap(),
                    bytes,
                    "{tag}: the log changed"
                );
            }
            drop(opened);
            drop(plan);
            // Served or refused, the next open serves the whole log.
            check(dir.path(), &run, &universe, &tag);
            flipped += 1;
        }
    }
    assert!(flipped > 0, "a reopen reads the log");
}

#[test]
fn a_failed_read_at_open_is_an_error_and_erases_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let (object, input) = {
        let d = open(dir.path());
        let object = d.store().put(blob(1, 90));
        let input = d.store().put(tree(&[object])).application().unwrap();
        d.cache().put(Relation::Eval, input, object);
        d.flush().unwrap();
        (object, input)
    };
    let plan = arm(dir.path());
    drop(open(dir.path()));
    let first_read = plan.calls().iter().position(|&c| c == "read").unwrap();
    drop(plan);

    let plan = arm(dir.path());
    plan.fault(first_read, Fault::Fail);
    assert!(
        DurableStore::open(dir.path(), OPTIONS).is_err(),
        "a log that cannot be read is not a new log"
    );
    drop(plan);
    let d = open(dir.path());
    assert_eq!(d.stats().truncated_bytes, 0);
    assert_eq!(d.stats().replayed_nodes, 2);
    assert_eq!(d.cache().get(Relation::Eval, input), Some(object));
    assert!(d.store().get(object).is_ok());
}

#[test]
fn a_gc_whose_tombstones_fail_to_write_is_an_error() {
    // A flush per put keeps the calls the same from run to run.
    let scenario = |dir: &Path| {
        let d = open(dir);
        let [live, dead] = [2, 3].map(|seed| {
            let handle = d.store().put(blob(seed, 60));
            d.flush().unwrap();
            handle
        });
        (d.gc(&[live]), live, dead)
    };
    let counted = tempfile::tempdir().unwrap();
    let plan = arm(counted.path());
    assert_eq!(scenario(counted.path()).0.unwrap(), 1);
    // The tombstone is the last frame the scenario writes.
    let tombstone = plan.calls().iter().rposition(|&c| c == "write_at").unwrap();
    drop(plan);

    let dir = tempfile::tempdir().unwrap();
    let plan = arm(dir.path());
    plan.fault(tombstone, Fault::Fail);
    let (collected, live, dead) = scenario(dir.path());
    drop(plan);
    assert!(collected.is_err(), "the log never took the tombstone");
    // What a restart brings back is what no `Ok` promised to drop.
    let d = open(dir.path());
    assert!(d.store().contains(live));
    assert!(d.store().contains(dead));
}
