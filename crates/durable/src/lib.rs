//! `fix-durable`: the persistence tier — one append-only
//! content-addressed log, lazy restart, and spill-to-disk.
//!
//! The Fix paper's core bet is that content addressing makes computation
//! state portable and replayable, which makes durability nearly free: a
//! stored object's name *is* its checksum, and a memoized relation is a
//! fact about deterministic evaluation that can be replayed on any node.
//! [`DurableStore`] exploits both. It wraps a
//! [`fix_storage::Store`]/[`RelationCache`](fix_storage::RelationCache)
//! pair through the storage hooks:
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
//!   [`DurableStats::truncated_bytes`]);
//! * restart is *lazy*: open builds only an index (payload key → file
//!   offset) and replays relations — object bytes are faulted in from
//!   disk on first touch, so a warm restart serves its first request
//!   from disk instead of recomputing;
//! * an optional [`spill_watermark_bytes`](DurableOptions::spill_watermark_bytes)
//!   bounds resident memory by evicting cold persisted objects, which
//!   refault on demand.
//!
//! # Architecture
//!
//! Producers (any thread that `put`s or memoizes) and one writer thread
//! meet at a queue that holds *finished frames*: the producer builds the
//! frame — header, checksum, record — straight into the queue's byte
//! buffer from the `(key, handle, node)` the storage hook hands it; the
//! writer swaps that buffer for an empty spare, issues one `write` per
//! batch, indexes the batch under one lock, and fsyncs by policy. Reads
//! that miss memory fault through the index, which holds the log's read
//! handle beside the offsets; `open` streams the log through one buffer.
//! Compaction runs on the writer thread, between batches. These
//! invariants hold across all of it:
//!
//! * **An object is hashed once per crossing.** On the way in, `put`
//!   names it and that handle rides through the sink into the frame; on
//!   the way back, the fault's verifying decode names it and the store
//!   keeps it under the key it asked for. Nothing in between derives a
//!   name from bytes again (CI greps `store.rs` for it).
//! * **A fault returns the object asked for or nothing.** A frame that
//!   passes its checksum and its own content check is still refused if
//!   it does not hash to the requested name — a misfiled frame ends as
//!   `NotFound`. A compaction swaps the index and the read handle under
//!   one lock, so an offset is never read from the other file.
//! * **A dropped key stays dropped across a restart.** `gc` and
//!   `forget` queue their tombstones under the index lock, before any
//!   later frame for the same key, and return once they are durable.
//! * **The writer's backlog is bounded.** A producer that finds more
//!   than a fixed number of frame bytes queued waits for the writer to
//!   take a batch, so a stalled disk costs latency, not memory.
//! * **A compaction fails alone.** If it cannot read a live object, its
//!   partial file is removed, `snapshot` returns the error, and the
//!   writer keeps appending to the log it had.
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
//! // A new process: the object is indexed but not resident, and the
//! // first read faults it in from disk.
//! let d = DurableStore::open(dir.path(), DurableOptions::default()).unwrap();
//! assert_eq!(d.store().object_count(), 0);
//! assert_eq!(d.store().get_blob(handle).unwrap(), blob);
//! assert_eq!(d.stats().faults, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod store;

pub use frame::{crc32, LOG_MAGIC};
pub use store::DurableStore;

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

/// What the deterministic kill point does when it trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Stop persisting: write a torn partial frame, then silently drop
    /// all further appends — the in-process simulation of a crash
    /// (the caller discards the in-memory state and re-opens).
    Stop,
    /// Write a torn partial frame and terminate the process with this
    /// exit code — the end-to-end crash used by the CI recovery smoke.
    Exit(i32),
}

/// A deterministic crash injection point: trip after the N-th appended
/// frame, mid-batch, leaving a torn final frame for recovery to handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPoint {
    /// Trip when this many frames have been written.
    pub after_frames: u64,
    /// What tripping does.
    pub mode: KillMode,
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
    /// Evict cold persisted objects from memory when the in-memory store
    /// exceeds this many payload bytes. `None` = never spill.
    pub spill_watermark_bytes: Option<u64>,
    /// Deterministic crash injection (tests and the recovery smoke).
    pub kill: Option<KillPoint>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::EveryN(64),
            spill_watermark_bytes: None,
            kill: None,
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
    /// Objects evicted by the spill watermark.
    pub spills: u64,
    /// Compactions (log rewrites) this run. A snapshot of a log with no
    /// dead bytes is only a barrier and does not count.
    pub snapshots: u64,
    /// Objects found on disk at open (the lazy index size at open).
    pub replayed_nodes: u64,
    /// Memoized relations replayed into the cache at open.
    pub replayed_relations: u64,
    /// Torn/corrupt tail bytes truncated during recovery.
    pub truncated_bytes: u64,
}
