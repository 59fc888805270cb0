//! Hostile bytes into the log scanner: a seeded mutation fuzz over a
//! valid log holding nodes, relations and tombstones. Every mutant must
//! open without a panic and without one allocation larger than the file
//! (or open's fixed read buffer), truncate exactly the bytes past its
//! valid prefix, and serve exactly the objects that prefix leaves
//! indexed — each hashing to the name it was asked for.
//!
//! A log whose frames are all valid can still name two outputs for one
//! `(relation, input)`. Every such insertion into the seed log must open
//! too, and serve the first output the log backs, before and after a
//! compaction.
//!
//! The fuzz kit (`tests/support/hostile.rs`) installs a global allocator;
//! the test reads its process-wide maximum (`open`'s writer thread
//! allocates too), which any concurrent test would disturb.

use fix_core::data::{Blob, Node, Tree};
use fix_core::handle::Handle;
use fix_durable::{crc32, DurableOptions, DurableStore, FsyncPolicy, LOG_MAGIC};
use fix_storage::{payload_key, Relation};
use hostile::{Cases, Rng};
use std::collections::BTreeSet;
use std::path::Path;

#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

/// The buffer `open` streams the log through, whatever its length.
const OPEN_READ_BUFFER: usize = 64 << 10;
/// Mutants besides the truncations at every length: 10⁵ at release
/// speed (CI's durable step), a tenth in a debug build.
const RANDOM_CASES: u64 = if cfg!(debug_assertions) {
    10_000
} else {
    100_000
};

const OPTIONS: DurableOptions = DurableOptions {
    fsync: FsyncPolicy::OnSnapshot,
};

/// A log the writer produced: node frames (blobs and a tree), relation
/// frames (one with a literal output), two tombstones, and an object put
/// again after its tombstone. Returns its bytes and every object in it.
fn seed_log() -> (Vec<u8>, Vec<Node>) {
    let dir = tempfile::tempdir().unwrap();
    let blobs: Vec<Node> = [40usize, 64, 100, 250, 33]
        .iter()
        .enumerate()
        .map(|(i, &len)| Node::Blob(Blob::from_vec(vec![i as u8 + 1; len])))
        .collect();
    let h: Vec<Handle> = blobs.iter().map(Node::handle).collect();
    let tree = Node::Tree(Tree::from_handles(vec![
        h[0],
        h[1],
        Blob::from_u64(7).handle(),
    ]));
    let thunk = tree.handle().application().unwrap();
    {
        let d = DurableStore::open(dir.path(), OPTIONS).unwrap();
        for node in blobs.iter().chain([&tree]) {
            d.store().put(node.clone());
        }
        d.cache().put(Relation::Eval, thunk, h[0]);
        d.cache().put(Relation::Apply, thunk, h[2]);
        d.cache()
            .put(Relation::Force, thunk, Blob::from_u64(9).handle());
        d.forget(h[3]).unwrap();
        d.store().put(blobs[3].clone());
        d.forget(h[4]).unwrap();
        d.flush().unwrap();
    }
    let log = std::fs::read(dir.path().join("log.fixlog")).unwrap();
    let mut nodes = blobs;
    nodes.push(tree);
    (log, nodes)
}

/// What opening `log` must find, worked out apart from the crate's
/// scanner: the valid prefix's length, the payload keys it leaves
/// indexed, and the relations it replays.
#[derive(Default)]
struct Expected {
    valid: usize,
    indexed: BTreeSet<[u8; 32]>,
    /// `(relation, input, output)` per replayed `(relation, input)`: its
    /// first frame whose output can be served.
    relations: Vec<(Relation, Handle, Handle)>,
    /// Where each frame of the valid prefix starts.
    starts: Vec<usize>,
}

const RELATIONS: [Relation; 3] = [Relation::Eval, Relation::Apply, Relation::Force];

fn expected(log: &[u8]) -> Expected {
    let mut e = Expected::default();
    if log.get(..8) != Some(&LOG_MAGIC[..]) {
        return e;
    }
    let handle = |bytes: &[u8]| Handle::from_raw(bytes.try_into().unwrap()).ok();
    let mut outputs = Vec::new();
    let mut at = 8;
    while let Some(header) = log.get(at..at + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        let Some(payload) = log.get(at + 8..at + 8 + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let key = |p: &[u8]| -> [u8; 32] { p[1..33].try_into().unwrap() };
        match payload.first() {
            Some(1)
                if payload.len() >= 73
                    && payload[33..41] == fix_core::wire::MAGIC[..]
                    && handle(&payload[41..73]).is_some() =>
            {
                e.indexed.insert(key(payload));
            }
            Some(2) if payload.len() == 66 && payload[1] <= 2 => {
                match (handle(&payload[2..34]), handle(&payload[34..66])) {
                    (Some(input), Some(out)) => {
                        outputs.push((RELATIONS[payload[1] as usize], input, out))
                    }
                    _ => break,
                }
            }
            Some(4) if payload.len() == 33 => {
                e.indexed.remove(&key(payload));
            }
            _ => break,
        }
        e.starts.push(at);
        at += 8 + len;
    }
    e.valid = at;
    // A relation is replayed once per (relation, input), from the first
    // of its frames whose output can be served.
    let backed =
        |out: Handle| out.is_literal() || !out.is_value() || e.indexed.contains(&payload_key(out));
    for (relation, input, out) in outputs {
        let replayed = e
            .relations
            .iter()
            .any(|&(r, i, _)| (r, i) == (relation, input));
        if !replayed && backed(out) {
            e.relations.push((relation, input, out));
        }
    }
    e
}

/// Opens `log` and checks it against [`expected`]; true if every byte
/// of it was valid.
fn check(dir: &Path, log: &[u8], nodes: &[Node]) -> bool {
    std::fs::write(dir.join("log.fixlog"), log).unwrap();
    let e = expected(log);
    hostile::reset();
    let d = DurableStore::open(dir, OPTIONS).expect("a hostile log opens");
    let stats = d.stats();
    assert_eq!(stats.truncated_bytes, (log.len() - e.valid) as u64);
    assert_eq!(stats.replayed_nodes, e.indexed.len() as u64);
    check_relations(&d, &e);
    for node in nodes {
        let asked = node.handle();
        let indexed = e.indexed.contains(&payload_key(asked));
        match d.store().get(asked) {
            Ok(got) => {
                assert_eq!(got.handle(), asked, "served under another name");
                assert!(indexed, "served {asked}, which the prefix drops");
            }
            Err(_) => assert!(!indexed, "lost {asked}"),
        }
    }
    let largest = hostile::process_largest();
    assert!(
        largest <= log.len().max(OPEN_READ_BUFFER),
        "allocated {largest} bytes for a {}-byte log",
        log.len()
    );
    e.valid == log.len()
}

/// The store replays exactly the expected relations, each with its
/// expected output.
fn check_relations(d: &DurableStore, e: &Expected) {
    assert_eq!(d.stats().replayed_relations, e.relations.len() as u64);
    for &(relation, input, out) in &e.relations {
        assert_eq!(
            d.cache().get(relation, input),
            Some(out),
            "{relation:?}({input}) serves another output"
        );
    }
}

/// Splices a frame around `payload`, with the right checksum, into
/// `log` at `at`.
fn insert_frame(log: &mut Vec<u8>, at: usize, payload: &[u8]) {
    let header = [
        (payload.len() as u32).to_le_bytes(),
        crc32(payload).to_le_bytes(),
    ];
    log.splice(
        at..at,
        header.concat().into_iter().chain(payload.iter().copied()),
    );
}

/// One random mutant of `log`, whose frames start at `starts`, and the
/// name of the mutation.
fn mutate(rng: &mut Rng, log: &[u8], starts: &[usize], nodes: &[Node]) -> (Vec<u8>, &'static str) {
    let mut out = log.to_vec();
    // The rest insert one frame, at a frame start or the end of the log.
    let (payload, kind) = match rng.below(5) {
        0 => {
            hostile::flip_bits(rng, &mut out, 3);
            return (out, "bit flips");
        }
        1 => {
            let at = starts[rng.below(starts.len())];
            hostile::poke_length(rng, &mut out, at);
            return (out, "length field");
        }
        2 => {
            let len = rng.below(32);
            ([vec![4u8], rng.bytes(len)].concat(), "short tombstone")
        }
        3 => {
            let tag = loop {
                let tag = rng.next() as u8;
                if ![1, 2, 4].contains(&tag) {
                    break tag;
                }
            };
            let len = rng.below(80);
            ([vec![tag], rng.bytes(len)].concat(), "unknown tag")
        }
        // A well-formed tombstone anywhere: the served set must follow.
        _ => {
            let key = payload_key(nodes[rng.below(nodes.len())].handle());
            ([&[4u8][..], &key].concat(), "tombstone")
        }
    };
    let at = starts
        .get(rng.below(starts.len() + 1))
        .map_or(log.len(), |&s| s);
    insert_frame(&mut out, at, &payload);
    (out, kind)
}

#[test]
fn hostile_logs_open_truncate_exactly_and_serve_only_true_names() {
    let (log, nodes) = seed_log();
    let seed = expected(&log);
    assert_eq!(seed.valid, log.len(), "the writer's own log is valid");
    assert_eq!(seed.starts.len(), 6 + 3 + 2 + 1);
    let dir = tempfile::tempdir().unwrap();
    let opens = |mutant: &[u8]| check(dir.path(), mutant, &nodes);
    let mut cases = Cases::default();
    let t0 = std::time::Instant::now();
    cases.prefixes(&[&log], opens);
    let mut rng = Rng(0x5EED_F1C5_u64);
    for case in 0..RANDOM_CASES {
        let (mutant, kind) = mutate(&mut rng, &log, &seed.starts, &nodes);
        cases.run(format_args!("case {case} ({kind})"), &mutant[..], opens);
    }
    // Conflicting relations: a frame with a valid checksum naming some
    // output for the thunk the log memoizes under every relation, at
    // every frame boundary. Opening serves the first backed frame of
    // each pair, and so does a reopen after the compaction that drops
    // the other.
    let thunk = nodes[nodes.len() - 1].handle().application().unwrap();
    let outputs = nodes
        .iter()
        .map(Node::handle)
        .chain([9, 10].map(|n| Blob::from_u64(n).handle()));
    for out in outputs {
        for (tag, relation) in RELATIONS.iter().enumerate() {
            for at in seed.starts.iter().copied().chain([log.len()]) {
                let payload = [&[2u8, tag as u8][..], thunk.raw(), out.raw()].concat();
                let mut mutant = log.clone();
                insert_frame(&mut mutant, at, &payload);
                let case = format_args!("conflicting relation {relation:?} → {out} at {at}");
                cases.run(case, &mutant[..], |mutant| {
                    let whole = opens(mutant);
                    check_compacted(dir.path(), mutant);
                    whole
                });
            }
        }
    }
    let Cases { run, accepted } = cases;
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("{run} hostile logs, {accepted} valid to the last byte, in {secs:.1} s");
}

/// Compacts the store `check` just opened over `log` and reopens it: the
/// rewrite keeps exactly the relations the first open served.
fn check_compacted(dir: &Path, log: &[u8]) {
    let e = expected(log);
    DurableStore::open(dir, OPTIONS)
        .expect("the log reopens")
        .snapshot()
        .expect("the log compacts");
    let d = DurableStore::open(dir, OPTIONS).expect("a compacted log opens");
    assert_eq!(d.stats().truncated_bytes, 0);
    check_relations(&d, &e);
}
