//! `fix-durable`: the persistence tier — one append-only
//! content-addressed log and lazy restart.
//!
//! The Fix paper's core bet is that content addressing makes computation
//! state portable and replayable, which makes durability nearly free: a
//! stored object's name *is* its checksum, and a memoized relation is a
//! fact about deterministic evaluation that can be replayed on any node.
//! [`DurableStore`] exploits both. It wraps a node's one table, a
//! [`fix_storage::Store`] of objects and memoized relations, through the
//! table's one backing-tier hook ([`fix_storage::Tier`]):
//!
//! * every fresh object insert and memoized relation is appended to a
//!   checksummed frame log (`log.fixlog`, the only durable file) by a
//!   batching group-commit writer thread, with a configurable
//!   [`FsyncPolicy`]. A log of named objects and relations, fsynced, is
//!   already a complete and verifiable record, so there is nothing else
//!   to write;
//! * [`gc`](DurableStore::gc) and [`forget`](DurableStore::forget)
//!   append one *tombstone* frame per dropped object; replay applies
//!   frames in log order, so a tombstone undoes the object's earlier
//!   frames and a later put brings it back;
//! * the writer counts *dead bytes* as they happen — a node frame
//!   superseded by a later one, a dropped object's frame, every
//!   tombstone — and [`open`](DurableStore::open) derives the count from
//!   the replay. [`snapshot`](DurableStore::snapshot) is the durability
//!   barrier, and *compacts* only when that count is above zero: the
//!   live relations and objects are rewritten into `log.fixlog.tmp`,
//!   which is fsynced and renamed over the log. The writer also compacts
//!   by itself once dead bytes outweigh live ones past a fixed floor;
//! * recovery ([`DurableStore::open`]) replays the log and tolerates a
//!   torn final frame (truncated, counted in
//!   [`DurableStats::truncated_bytes`]). Evaluation is deterministic, so
//!   a node that died holds exactly what a prefix of its log holds:
//!   [`tear_log`] makes that crash offline, from a closed store's log;
//! * restart is *lazy*: open scans the log straight into the table —
//!   each logged object's [`Loc`](fix_storage::Loc)ation (offset, length,
//!   generation) under its payload key — and replays relations; object
//!   bytes are faulted in from disk on first touch, so a warm restart
//!   serves its first request from disk instead of recomputing. An object
//!   evicted from memory refaults the same way, so computational GC's
//!   planner frees a logged object at depth 0
//!   (`fix_storage::plan_eviction`).
//!
//! # Architecture
//!
//! A logged object has one entry: its payload key in the node's table,
//! which keeps the object's bytes (when resident) and its location in
//! the log side by side, under the key's shard lock. The crate keeps no
//! index of its own: to find or file a location, a fresh insert, a fault
//! and a writer batch lock only the shards of the keys they touch. A
//! fault also takes the read lock of the table of log files (at most
//! two, by generation), which only a compaction writes. Producers and
//! the writer still meet at the frame queue.
//!
//! Producers (any thread that `put`s or memoizes) and one writer thread
//! meet at a queue that holds *finished frames*: the producer builds the
//! frame — header, checksum, record — straight into the queue's byte
//! buffer from the `(key, handle, node)` the tier hook hands it; the
//! writer swaps that buffer for an empty spare, issues one `write` per
//! batch, files each object's location under its own shard's lock, and
//! fsyncs by policy. A `put` reaches the hook only for a key with no
//! location. A read that misses memory takes the location from the same
//! guard as the miss and faults from the file of the location's
//! generation; `open` streams the log through one buffer. Compaction runs
//! on the writer thread, between batches. These invariants hold across
//! all of it:
//!
//! * **An object is hashed once per crossing.** On the way in, `put`
//!   names it and that handle rides through the hook into the frame; on
//!   the way back, the fault's verifying decode names it and the store
//!   keeps it under the key it asked for. Nothing in between derives a
//!   name from bytes again (CI greps `store.rs` for it).
//! * **A fault returns the object asked for or nothing.** A frame that
//!   passes its checksum and its own content check is still refused if
//!   it does not hash to the requested name — a misfiled frame ends as
//!   `NotFound`. An offset is only read from its own generation's file.
//! * **A compaction moves locations by generation.** The live log of
//!   generation *g* is rewritten, then:
//!   1. the rewrite is renamed over the log as generation *g*+1, and its
//!      file joins *g*'s in the table faults read files from;
//!   2. each location still in *g* moves to *g*+1 under its shard's lock.
//!      A key dropped since the copy is not moved: it keeps its
//!      tombstone's promise, and its copy counts as dead;
//!   3. *g*'s file is retired, since no location names it any more.
//!
//!   A fault reads from its location's generation; if that generation
//!   was retired meanwhile, it reads the key's location afresh, which
//!   costs none of its three tries: the location has moved forward, so
//!   back-to-back compactions cannot make a live object miss. A fault
//!   whose object was dropped while it read is not made resident.
//! * **A relation serves one output across restarts.** Replay keeps the
//!   first frame of each `(relation, input)` whose output the log
//!   backs and counts later ones as dead bytes, even if their output
//!   differs: deterministic evaluation never writes such a pair, but a
//!   log holding one must open, not trip the cache's determinism check,
//!   and the next compaction keeps only the output already served.
//! * **A dropped key stays dropped, in memory and across a restart.**
//!   `gc` and `forget` drop keys under those keys' shard locks (all
//!   shards for `gc`, the one key's shard for `forget`, with no scan):
//!   the bytes and the locations go together, and the key-sorted
//!   tombstones are queued before the locks are released, so they
//!   precede any later frame for the same key. They return once the
//!   tombstones are durable. Locks are taken shard, then queue — never
//!   the reverse. The table's own `Store::gc` drops bytes alone, a shard
//!   at a time, like an eviction: what it collects stays located, so it
//!   faults back in, now and after a restart.
//! * **The writer's backlog is bounded.** A producer that finds more
//!   than a fixed number of frame bytes queued waits for the writer to
//!   take a batch, so a stalled disk costs latency, not memory.
//! * **A compaction fails alone, until its rename.** If it cannot read a
//!   live object, its partial file is removed, `snapshot` returns the
//!   error, and the writer keeps appending to the log it had. Once the
//!   rename is made the old log has left the namespace: a directory that
//!   then cannot be synced is the writer's one halt.
//! * **An I/O error halts the writer, and that is its only halt.**
//!   After a file call on the log fails, appends are dropped and `flush`,
//!   `snapshot`, `gc` and `forget` return the error; the next open
//!   replays what reached the disk. A read error at open is an error,
//!   never an empty log. The crate's tests sweep an injected fault over
//!   every file call of a scripted run.
//!
//! # The one `unsafe`
//!
//! Every frame is checksummed when it is built, at `open` and again at
//! each fault, so [`crc32`] has two kernels with one output: a fold of
//! 64 bytes per step with carry-less multiplies (PCLMULQDQ, then a
//! Barrett reduction), and the slicing-by-8 table walk, which runs on a
//! CPU without PCLMULQDQ, on inputs under 64 bytes and on the
//! fold's tail, and is the oracle the fold is pinned to at every length
//! up to 4 KiB × 16 alignments. The fold is safe code under
//! `#[target_feature]`; calling it after runtime detection is the
//! crate's one `unsafe`, which is why the root `deny`s `unsafe_code`
//! instead of forbidding it and that call site alone allows it.
//!
//! # Example
//!
//! ```
//! use fix_durable::{DurableOptions, DurableStore};
//! use fix_core::data::Blob;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let blob = Blob::from_vec(vec![7u8; 100]);
//! let handle = {
//!     let d = DurableStore::open(dir.path(), DurableOptions::default()).unwrap();
//!     let handle = d.store().put_blob(blob.clone());
//!     d.flush().unwrap();
//!     handle
//! };
//! // A new process: the object is located but not resident, and the
//! // first read faults it in from disk.
//! let d = DurableStore::open(dir.path(), DurableOptions::default()).unwrap();
//! assert_eq!(d.store().object_count(), 0);
//! assert_eq!(d.store().get_blob(handle).unwrap(), blob);
//! assert_eq!(d.stats().faults, 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod store;

pub use frame::{crc32, LOG_MAGIC};
pub use store::{tear_log, DurableStore};

/// When the group-commit writer calls `fsync` on the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every write batch (safest, slowest).
    Always,
    /// After every N appended frames (bounded loss window).
    EveryN(u64),
    /// Only at snapshots, explicit flushes, and shutdown (fastest; a
    /// crash may lose everything since the last snapshot/flush).
    OnSnapshot,
}

/// Configures a [`DurableStore`].
///
/// Compaction has no setting: [`DurableStore::snapshot`] compacts
/// whenever the log holds dead bytes, and the writer compacts by itself
/// once they outweigh the live bytes past a fixed floor.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// The fsync policy for the group-commit writer.
    pub fsync: FsyncPolicy,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::EveryN(64),
        }
    }
}

/// A point-in-time copy of a store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Frames appended to the log this run (nodes, relations and
    /// tombstones; a compaction's rewrite is not counted).
    pub appended_frames: u64,
    /// Log bytes written this run (frames only, not the header).
    pub appended_bytes: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Objects faulted in from disk on first touch.
    pub faults: u64,
    /// Compactions (log rewrites) this run. A snapshot of a log with no
    /// dead bytes is only a barrier and does not count.
    pub snapshots: u64,
    /// Objects found on disk at open (those located at open).
    pub replayed_nodes: u64,
    /// Memoized relations replayed into the cache at open.
    pub replayed_relations: u64,
    /// Torn/corrupt tail bytes truncated during recovery.
    pub truncated_bytes: u64,
}

// Every file call of the crate goes through `fs`: `std::fs` itself, or,
// in the crate's own tests, a copy that can fail any one call.
#[cfg(not(test))]
use std::fs;
#[cfg(test)]
mod faulty;
#[cfg(test)]
use faulty as fs;
#[cfg(test)]
mod io_faults;
