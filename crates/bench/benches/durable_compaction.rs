//! What reclaiming half a durable log costs: populate a store with 1 KiB
//! objects, `gc` half of them, `snapshot()`, then reopen the result.
//!
//! Prints, per 100k *live* objects, the wall time of the `gc`, of the
//! `snapshot()`, of the two together (the whole reclaim: where the log
//! is rewritten — inside `snapshot()`, or already by the writer while
//! `gc`'s tombstones go out — is the store's business) and of the reopen
//! after it; median [min, max] over the repetitions.
//!
//! The wall-clock ledger (`fixbench/`) snapshots a log with no dead
//! bytes, which is only a durability barrier; this is where the cost of
//! a rewrite is measured. It calls only `open`, `put_blob`, `flush`,
//! `gc`, `snapshot` and `stats`, so the same file builds against older
//! versions of the store for an A/B.

mod common;

use common::Spread;
use fix_core::data::Blob;
use fix_core::handle::Handle;
use fix_durable::{DurableOptions, DurableStore, FsyncPolicy};
use std::time::Instant;

const OBJECTS: u64 = 20_000;
const OBJECT_WORDS: usize = 1024 / 8;
const REPS: usize = 7;

/// A 1 KiB blob distinct for each `i`: xorshift64 words.
fn blob(i: u64) -> Blob {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let words = (0..OBJECT_WORDS).flat_map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.to_le_bytes()
    });
    Blob::from_vec(words.collect())
}

/// One repetition: seconds spent in gc, snapshot and reopen, and the
/// number of live objects they leave.
fn measure() -> ([f64; 3], u64) {
    let dir = tempfile::tempdir().expect("temp dir");
    let options = DurableOptions {
        fsync: FsyncPolicy::EveryN(64),
    };
    let d = DurableStore::open(dir.path(), options).expect("opens");
    let handles: Vec<Handle> = (0..OBJECTS).map(|i| d.store().put_blob(blob(i))).collect();
    d.flush().expect("flushes");
    let keep: Vec<Handle> = handles.iter().step_by(2).copied().collect();
    let live = keep.len() as u64;

    let t = Instant::now();
    assert_eq!(d.gc(&keep).expect("collects") as u64, OBJECTS - live);
    let gc_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    d.snapshot().expect("snapshots");
    let snapshot_s = t.elapsed().as_secs_f64();
    drop(d);

    let t = Instant::now();
    let d = DurableStore::open(dir.path(), options).expect("reopens");
    let open_s = t.elapsed().as_secs_f64();
    assert_eq!(d.stats().replayed_nodes, live);
    std::hint::black_box(d);
    ([gc_s, snapshot_s, open_s], live)
}

fn main() {
    println!(
        "durable_compaction: {OBJECTS} x 1 KiB objects, gc half, snapshot, reopen; \
         {REPS} reps, {} cores",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut rows: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        let ([gc, snapshot, open], live) = measure();
        let per_100k = 100_000.0 / live as f64 * 1e3;
        for (row, s) in rows.iter_mut().zip([gc, snapshot, gc + snapshot, open]) {
            row.push(s * per_100k);
        }
    }
    println!("ms per 100k live objects: median [min, max]");
    let names = ["gc", "snapshot", "gc + snapshot", "reopen"];
    for (name, row) in names.iter().zip(rows) {
        println!("{name:>14} {:>8.1}", Spread::of(row));
    }
}
