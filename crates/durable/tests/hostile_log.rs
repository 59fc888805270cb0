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
//! The test has a binary of its own: it installs a global allocator that
//! records the largest single request, which any concurrent test would
//! disturb.

use fix_core::data::{Blob, Node, Tree};
use fix_core::handle::Handle;
use fix_durable::{crc32, DurableOptions, DurableStore, FsyncPolicy, LOG_MAGIC};
use fix_storage::{payload_key, Relation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Records the largest single allocation request since the last reset.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the maximum is a plain
// statistic and never influences a pointer, a layout, or a result.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's obligations for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's obligations for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        // SAFETY: the caller's obligations for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// The buffer `open` streams the log through, whatever its length.
const OPEN_READ_BUFFER: usize = 64 << 10;
/// Mutants besides the truncations at every length: 10⁵ at release
/// speed (CI's durable step), a tenth in a debug build.
const RANDOM_CASES: u64 = if cfg!(debug_assertions) {
    10_000
} else {
    100_000
};

fn options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::OnSnapshot,
    }
}

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
        let d = DurableStore::open(dir.path(), options()).unwrap();
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
    let mut e = Expected {
        valid: 0,
        indexed: BTreeSet::new(),
        relations: Vec::new(),
        starts: Vec::new(),
    };
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

/// Opens `log` and checks it against [`expected`].
fn check(dir: &Path, log: &[u8], nodes: &[Node]) {
    std::fs::write(dir.join("log.fixlog"), log).unwrap();
    let e = expected(log);
    LARGEST.store(0, Relaxed);
    let d = DurableStore::open(dir, options()).expect("a hostile log opens");
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
    let largest = LARGEST.load(Relaxed);
    assert!(
        largest <= log.len().max(OPEN_READ_BUFFER),
        "allocated {largest} bytes for a {}-byte log",
        log.len()
    );
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

/// Appends a frame around `payload` with the right checksum.
fn push_framed(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One random mutant of `log`, whose frames start at `starts`, and the
/// name of the mutation.
fn mutate(rng: &mut Rng, log: &[u8], starts: &[usize], nodes: &[Node]) -> (Vec<u8>, &'static str) {
    let mut out = log.to_vec();
    // A frame boundary: a frame start, or the end of the log.
    let boundary = |rng: &mut Rng| {
        starts
            .get(rng.below(starts.len() + 1))
            .map_or(log.len(), |&s| s)
    };
    let insert = |out: &mut Vec<u8>, at: usize, payload: &[u8]| {
        let mut frame = Vec::new();
        push_framed(&mut frame, payload);
        out.splice(at..at, frame);
    };
    match rng.below(5) {
        0 => {
            for _ in 0..1 + rng.below(3) {
                let bit = rng.below(8 * out.len());
                out[bit / 8] ^= 1 << (bit % 8);
            }
            (out, "bit flips")
        }
        1 => {
            let at = starts[rng.below(starts.len())];
            let declared = u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
            let len = match rng.below(4) {
                0 => u32::MAX,
                1 => rng.next() as u32,
                2 => declared.wrapping_add(1 + rng.below(16) as u32),
                _ => declared.wrapping_sub(1 + rng.below(16) as u32),
            };
            out[at..at + 4].copy_from_slice(&len.to_le_bytes());
            (out, "length field")
        }
        2 => {
            let mut payload = vec![4u8];
            payload.extend((0..rng.below(32)).map(|_| rng.next() as u8));
            let at = boundary(rng);
            insert(&mut out, at, &payload);
            (out, "short tombstone")
        }
        3 => {
            let tag = loop {
                let tag = rng.next() as u8;
                if ![1, 2, 4].contains(&tag) {
                    break tag;
                }
            };
            let mut payload = vec![tag];
            payload.extend((0..rng.below(80)).map(|_| rng.next() as u8));
            let at = boundary(rng);
            insert(&mut out, at, &payload);
            (out, "unknown tag")
        }
        _ => {
            // A well-formed tombstone anywhere: the served set must follow.
            let mut payload = vec![4u8];
            payload.extend_from_slice(&payload_key(nodes[rng.below(nodes.len())].handle()));
            let at = boundary(rng);
            insert(&mut out, at, &payload);
            (out, "tombstone")
        }
    }
}

#[test]
fn hostile_logs_open_truncate_exactly_and_serve_only_true_names() {
    let (log, nodes) = seed_log();
    let seed = expected(&log);
    assert_eq!(seed.valid, log.len(), "the writer's own log is valid");
    assert_eq!(seed.starts.len(), 6 + 3 + 2 + 1);
    let dir = tempfile::tempdir().unwrap();
    let mut cases = 0u64;
    let mut run = |case: String, mutant: &[u8], compact: bool| {
        cases += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check(dir.path(), mutant, &nodes);
            if compact {
                check_compacted(dir.path(), mutant);
            }
        }));
        if let Err(panic) = outcome {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a panic");
            panic!("{case}: {what}\nmutant: {mutant:02x?}");
        }
    };
    let t0 = std::time::Instant::now();
    for len in 0..=log.len() {
        run(format!("truncated to {len}"), &log[..len], false);
    }
    let mut rng = Rng(0x5EED_F1C5_u64);
    for case in 0..RANDOM_CASES {
        let (mutant, kind) = mutate(&mut rng, &log, &seed.starts, &nodes);
        run(format!("case {case} ({kind})"), &mutant, false);
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
                let mut payload = vec![2u8, tag as u8];
                payload.extend_from_slice(thunk.raw());
                payload.extend_from_slice(out.raw());
                let mut mutant = log.clone();
                let mut frame = Vec::new();
                push_framed(&mut frame, &payload);
                mutant.splice(at..at, frame);
                let case = format!("conflicting relation {relation:?} → {out} at {at}");
                run(case, &mutant, true);
            }
        }
    }
    eprintln!(
        "{cases} hostile logs in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
}

/// Compacts the store `check` just opened over `log` and reopens it: the
/// rewrite keeps exactly the relations the first open served.
fn check_compacted(dir: &Path, log: &[u8]) {
    let e = expected(log);
    DurableStore::open(dir, options())
        .expect("the log reopens")
        .snapshot()
        .expect("the log compacts");
    let d = DurableStore::open(dir, options()).expect("a compacted log opens");
    assert_eq!(d.stats().truncated_bytes, 0);
    check_relations(&d, &e);
}
