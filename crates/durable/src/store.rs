//! [`DurableStore`]: the persistence tier around a
//! [`Store`]/[`RelationCache`] pair.
//!
//! Architecture: callers talk to the wrapped in-memory store as usual;
//! the storage hooks build finished frames into a bounded queue that a
//! single group-commit writer thread, which owns the log file, drains a
//! batch at a time. Appends are asynchronous (bounded loss per the
//! [`FsyncPolicy`](crate::FsyncPolicy)); [`DurableStore::flush`] is the
//! synchronous barrier. Reads that miss memory fault from disk through
//! the index this module maintains. Every `std::fs` call of the crate
//! is in this file; the [crate docs](crate) state the invariants.

use crate::frame::{self, Scanned, LOG_MAGIC, SNAP_MAGIC};
use crate::{DurableOptions, DurableStats, FsyncPolicy, KillMode};
use fix_core::data::Node;
use fix_core::error::{Error, Result};
use fix_core::handle::{Handle, HandleMap};
use fix_storage::{
    payload_key, FaultSource, Relation, RelationCache, RelationSink, Store, StoreSink,
};
use parking_lot::{Condvar, Mutex, RwLock};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Weak};

const LOG_FILE: &str = "log.fixlog";
const MAGIC_LEN: u64 = 8;
/// Queued frame bytes past which a producer waits for the writer to take
/// a batch: what bounds the memory a stalled writer can pile up.
const MAX_BACKLOG_BYTES: usize = 256 << 10;
/// Buffer size for streaming a file in (open) or out (snapshot).
const STREAM_BUFFER: usize = 64 << 10;

fn snap_name(seq: u64) -> String {
    format!("snap-{seq:016x}.fixsnap")
}

fn io_err(e: impl std::fmt::Display) -> Error {
    Error::Backend {
        backend: "durable",
        message: e.to_string(),
    }
}

/// Where a persisted object's frame lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    Log,
    Snapshot(u64),
}

/// One durable index entry: payload key → on-disk frame.
#[derive(Debug, Clone)]
struct Slot {
    file: Location,
    offset: u64,
    len: u32,
    handle: Handle,
    /// Logical last-touch tick (spill evicts the coldest first).
    touch: u64,
}

/// One finished frame waiting in [`Queue::bytes`].
struct Queued {
    len: u32,
    /// What to index once the frame is on disk (`None` for a relation).
    node: Option<([u8; 32], Handle)>,
}

#[derive(Default)]
struct Queue {
    /// Finished frames back to back, in enqueue order: exactly the bytes
    /// the writer hands to `write`. Producers build into it; the writer
    /// swaps it for an empty spare, so a frame's bytes exist once.
    bytes: Vec<u8>,
    /// One entry per frame in `bytes`.
    frames: Vec<Queued>,
    /// The writer is waiting on `work`; the producer that clears this
    /// wakes it (so a busy writer costs producers no syscall).
    writer_parked: bool,
    /// Ops ever enqueued / fsynced through — flush() waits on these.
    enqueued: u64,
    synced: u64,
    flush_upto: u64,
    snap_requests: u64,
    snaps_done: u64,
    shutdown: bool,
    /// The deterministic kill point tripped: appends are dropped.
    crashed: bool,
    io_error: Option<String>,
}

impl Queue {
    /// Whether an append can still reach the disk (else it is dropped).
    fn accepting(&self) -> bool {
        !self.crashed && !self.shutdown && self.io_error.is_none()
    }
}

/// The writer's live metric cells. Every counter is a registry-adopted
/// [`fix_obs::Counter`], so [`DurableStore::stats`] (the legacy struct
/// view) and [`DurableStore::metrics`] (the named-snapshot view) read
/// the very same cells and can never disagree.
#[derive(Default)]
struct Counters {
    appended_frames: fix_obs::Counter,
    appended_bytes: fix_obs::Counter,
    fsyncs: fix_obs::Counter,
    faults: fix_obs::Counter,
    spills: fix_obs::Counter,
    snapshots: fix_obs::Counter,
    replayed_nodes: fix_obs::Counter,
    replayed_relations: fix_obs::Counter,
    truncated_bytes: fix_obs::Counter,
    /// Wall latency of each group-commit fsync, in µs.
    fsync_us: fix_obs::HistogramCell,
    /// Wall latency of each disk refault, in µs.
    fault_us: fix_obs::HistogramCell,
    /// Wall latency of each snapshot, in µs.
    snapshot_us: fix_obs::HistogramCell,
}

impl Counters {
    /// Registers every cell under its `durable.*` name.
    fn register(&self, reg: &fix_obs::Registry) {
        reg.register_counter("durable.appended_frames", &self.appended_frames);
        reg.register_counter("durable.appended_bytes", &self.appended_bytes);
        reg.register_counter("durable.fsyncs", &self.fsyncs);
        reg.register_counter("durable.faults", &self.faults);
        reg.register_counter("durable.spills", &self.spills);
        reg.register_counter("durable.snapshots", &self.snapshots);
        reg.register_counter("durable.replayed_nodes", &self.replayed_nodes);
        reg.register_counter("durable.replayed_relations", &self.replayed_relations);
        reg.register_counter("durable.truncated_bytes", &self.truncated_bytes);
        reg.register_histogram("durable.fsync_us", &self.fsync_us);
        reg.register_histogram("durable.fault_us", &self.fault_us);
        reg.register_histogram("durable.snapshot_us", &self.snapshot_us);
    }
}

/// Trace id for durable events: the first 8 bytes of the handle.
fn trace_id(handle: Handle) -> u64 {
    u64::from_le_bytes(handle.raw()[..8].try_into().expect("handle has 32 bytes"))
}

struct Inner {
    dir: PathBuf,
    options: DurableOptions,
    store: Arc<Store>,
    cache: Arc<RelationCache>,
    index: RwLock<HandleMap<[u8; 32], Slot>>,
    queue: Mutex<Queue>,
    /// Wakes the writer (new work / flush / snapshot / shutdown).
    work: Condvar,
    /// Wakes flush/snapshot waiters.
    done: Condvar,
    log_read: Mutex<File>,
    snap_read: Mutex<Option<(u64, File)>>,
    stats: Counters,
    metrics: fix_obs::Registry,
    clock: AtomicU64,
    replayed: Vec<(Relation, Handle, Handle)>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Inner {
    // ---- hook bodies -------------------------------------------------

    fn observe_insert(&self, handle: Handle, node: &Node) {
        let key = payload_key(handle);
        if self.index.read().contains_key(&key) {
            return; // Already persisted (e.g. re-put after a spill).
        }
        self.enqueue(Some((key, handle)), |out| {
            frame::push_node(out, &key, handle, node)
        });
    }

    fn observe_relation(&self, relation: Relation, input: Handle, output: Handle) {
        self.enqueue(None, |out| {
            frame::push_relation(out, relation, input, output)
        });
    }

    /// Queues one frame, which `build` writes straight into the buffer
    /// the writer will hand to the file. Blocks while the backlog is
    /// over its bound; drops the frame once nothing can persist it.
    fn enqueue(&self, node: Option<([u8; 32], Handle)>, build: impl FnOnce(&mut Vec<u8>)) {
        let mut q = self.queue.lock();
        while q.bytes.len() > MAX_BACKLOG_BYTES && q.accepting() {
            self.done.wait(&mut q);
        }
        if !q.accepting() {
            return;
        }
        let start = q.bytes.len();
        build(&mut q.bytes);
        let len = (q.bytes.len() - start) as u32;
        q.frames.push(Queued { len, node });
        q.enqueued += 1;
        let wake = std::mem::take(&mut q.writer_parked);
        drop(q);
        if wake {
            self.work.notify_one();
        }
    }

    fn knows(&self, handle: Handle) -> bool {
        self.index.read().contains_key(&payload_key(handle))
    }

    fn fault_in(&self, handle: Handle) -> Option<Node> {
        let key = payload_key(handle);
        // A snapshot may move the slot (log → snapshot file) between the
        // lookup and the read, and the log offset may by then hold some
        // other frame: on a failed or mismatched read, re-look the slot up.
        for _ in 0..3 {
            let slot = self.index.read().get(&key).cloned()?;
            let t0 = std::time::Instant::now();
            if let Some(node) = self.read_node(&key, &slot) {
                let dur = t0.elapsed();
                self.stats.faults.inc();
                self.stats.fault_us.record(dur.as_micros() as u64);
                if fix_obs::tracing_enabled() {
                    fix_obs::emit_span(
                        fix_obs::EventKind::DurRefault,
                        0,
                        trace_id(handle),
                        0,
                        slot.len,
                        dur.as_nanos() as u64,
                    );
                }
                let tick = self.clock.fetch_add(1, Relaxed);
                if let Some(s) = self.index.write().get_mut(&key) {
                    s.touch = tick;
                }
                return Some(node);
            }
        }
        None
    }

    // ---- disk reads --------------------------------------------------

    /// Reads the object `slot` points at — or nothing: the frame must
    /// check out *and* its bytes must hash to `key`, the name asked for.
    fn read_node(&self, key: &[u8; 32], slot: &Slot) -> Option<Node> {
        let bytes = self.read_frame(slot)?;
        let (computed, node) = frame::decode_node(&bytes).ok()?;
        (payload_key(computed) == *key).then_some(node)
    }

    fn read_frame(&self, slot: &Slot) -> Option<Vec<u8>> {
        let mut buf = vec![0u8; slot.len as usize];
        match slot.file {
            Location::Log => {
                let mut f = self.log_read.lock();
                f.seek(SeekFrom::Start(slot.offset)).ok()?;
                f.read_exact(&mut buf).ok()?;
            }
            Location::Snapshot(seq) => {
                let mut guard = self.snap_read.lock();
                let stale = !matches!(&*guard, Some((s, _)) if *s == seq);
                if stale {
                    let f = File::open(self.dir.join(snap_name(seq))).ok()?;
                    *guard = Some((seq, f));
                }
                let (_, f) = guard.as_mut().unwrap();
                f.seek(SeekFrom::Start(slot.offset)).ok()?;
                f.read_exact(&mut buf).ok()?;
            }
        }
        Some(buf)
    }

    // ---- shutdown ----------------------------------------------------

    fn shutdown_and_join(&self) {
        {
            let mut q = self.queue.lock();
            q.shutdown = true;
        }
        self.work.notify_all();
        let handle = self.writer.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// The hook adapter: weak, so the store/cache (which outlive us inside a
/// `Runtime`) don't keep the writer machinery alive in a cycle.
struct Hooks(Weak<Inner>);

impl FaultSource for Hooks {
    fn fault(&self, handle: Handle) -> Option<Node> {
        self.0.upgrade()?.fault_in(handle)
    }

    fn knows(&self, handle: Handle) -> bool {
        self.0.upgrade().is_some_and(|i| i.knows(handle))
    }
}

impl StoreSink for Hooks {
    fn inserted(&self, handle: Handle, node: &Node) {
        if let Some(i) = self.0.upgrade() {
            i.observe_insert(handle, node);
        }
    }
}

impl RelationSink for Hooks {
    fn recorded(&self, relation: Relation, input: Handle, output: Handle) {
        if let Some(i) = self.0.upgrade() {
            i.observe_relation(relation, input, output);
        }
    }
}

/// Joins the writer thread when the last user-facing clone drops.
struct ShutdownGuard(Arc<Inner>);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown_and_join();
    }
}

/// A crash-recoverable, content-addressed store: a [`Store`] and
/// [`RelationCache`] whose state survives the process.
///
/// See the [crate docs](crate) for the design; see
/// [`DurableStore::open`] for recovery semantics. Clones share one
/// underlying store; the writer thread stops when the last clone drops
/// (a final implicit flush).
#[derive(Clone)]
pub struct DurableStore {
    inner: Arc<Inner>,
    _guard: Arc<ShutdownGuard>,
}

impl DurableStore {
    /// Opens (or creates) a durable store rooted at `dir`.
    ///
    /// Recovery: load the newest *valid* snapshot (committed, every
    /// frame checksummed, terminated by a commit record — a leftover
    /// `.tmp` from a crash mid-snapshot is ignored), then scan the log
    /// tail. The scan stops at the first invalid frame; a torn final
    /// frame — the signature of a crash mid-append — is truncated
    /// (reported in [`DurableStats::truncated_bytes`]) and the store
    /// opens with everything before it.
    ///
    /// The restart is lazy: only the index and the memoized relations
    /// are loaded eagerly; object bytes fault in on first touch.
    /// Relations whose output data fell into the torn tail are dropped,
    /// so a recovered cache never promises data the log lost.
    pub fn open(dir: impl AsRef<Path>, options: DurableOptions) -> Result<DurableStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io_err)?;

        let mut index: HandleMap<[u8; 32], Slot> = HandleMap::default();
        let mut relations: Vec<(Relation, Handle, Handle)> = Vec::new();

        // --- Newest valid snapshot wins. ---
        let mut seqs: Vec<u64> = fs::read_dir(&dir)
            .map_err(io_err)?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let seq = name.strip_prefix("snap-")?.strip_suffix(".fixsnap")?;
                u64::from_str_radix(seq, 16).ok()
            })
            .collect();
        seqs.sort_unstable();
        let next_seq = seqs.last().map_or(0, |s| s + 1);
        for &seq in seqs.iter().rev() {
            let committed = File::open(dir.join(snap_name(seq)))
                .and_then(|f| {
                    let at = Location::Snapshot(seq);
                    replay(&f, SNAP_MAGIC, at, &mut index, &mut relations)
                })
                .is_ok_and(|r| r.is_some_and(|r| r.committed()));
            if committed {
                break;
            }
            // Nothing precedes the snapshot, so undoing one is a clear.
            index.clear();
            relations.clear();
        }

        // --- Log tail (newer than any snapshot; overrides it). ---
        let log_path = dir.join(LOG_FILE);
        let mut append = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)
            .map_err(io_err)?;
        let existing = append.metadata().map_err(io_err)?.len();
        let tail = replay(
            &append,
            LOG_MAGIC,
            Location::Log,
            &mut index,
            &mut relations,
        )
        .map_err(io_err)?;
        let (valid_len, truncated) = match tail {
            Some(tail) => (tail.valid_len, existing - tail.valid_len),
            None => {
                // New file, or a header torn mid-creation: start fresh.
                append.set_len(0).map_err(io_err)?;
                append.seek(SeekFrom::Start(0)).map_err(io_err)?;
                append.write_all(LOG_MAGIC).map_err(io_err)?;
                (MAGIC_LEN, existing)
            }
        };
        if existing > valid_len {
            // Drop the torn tail so new appends start at a clean edge.
            append.set_len(valid_len).map_err(io_err)?;
            append.sync_data().map_err(io_err)?;
        }
        append.seek(SeekFrom::Start(valid_len)).map_err(io_err)?;

        // A relation must not promise data the log lost (its value frame
        // was enqueued before it, so "relation present, value torn" only
        // happens across the torn tail).
        // (Literal outputs ride in the handle itself and are never
        // indexed, so they are always safe to replay.)
        relations.retain(|(_, _, out)| {
            out.is_literal() || !out.is_value() || index.contains_key(&payload_key(*out))
        });

        let store = Arc::new(Store::new());
        let cache = Arc::new(RelationCache::new());
        for &(r, i, o) in &relations {
            cache.put(r, i, o);
        }
        let replayed = cache.entries();

        let stats = Counters::default();
        stats.replayed_nodes.store(index.len() as u64);
        stats.replayed_relations.store(replayed.len() as u64);
        stats.truncated_bytes.store(truncated);
        let metrics = fix_obs::Registry::new();
        stats.register(&metrics);

        let log_read = File::open(&log_path).map_err(io_err)?;
        let inner = Arc::new(Inner {
            dir,
            options,
            store,
            cache,
            index: RwLock::new(index),
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            log_read: Mutex::new(log_read),
            snap_read: Mutex::new(None),
            stats,
            metrics,
            clock: AtomicU64::new(1),
            replayed,
            writer: Mutex::new(None),
        });

        let hooks = Arc::new(Hooks(Arc::downgrade(&inner)));
        inner
            .store
            .set_fault_source(Arc::clone(&hooks) as Arc<dyn FaultSource>);
        inner
            .store
            .set_sink(Arc::clone(&hooks) as Arc<dyn StoreSink>);
        inner.cache.set_sink(hooks as Arc<dyn RelationSink>);

        let writer_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("fix-durable-writer".into())
            .spawn(move || writer_loop(writer_inner, append, valid_len, next_seq))
            .map_err(io_err)?;
        *inner.writer.lock() = Some(handle);

        Ok(DurableStore {
            _guard: Arc::new(ShutdownGuard(Arc::clone(&inner))),
            inner,
        })
    }

    /// The wrapped in-memory object store (hand this to a runtime).
    pub fn store(&self) -> &Arc<Store> {
        &self.inner.store
    }

    /// The wrapped relation cache, pre-loaded with replayed relations.
    pub fn cache(&self) -> &Arc<RelationCache> {
        &self.inner.cache
    }

    /// The directory holding the log and snapshots.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// A point-in-time copy of the counters — thin reads of the same
    /// live cells [`metrics`](DurableStore::metrics) snapshots.
    pub fn stats(&self) -> DurableStats {
        let c = &self.inner.stats;
        DurableStats {
            appended_frames: c.appended_frames.get(),
            appended_bytes: c.appended_bytes.get(),
            fsyncs: c.fsyncs.get(),
            faults: c.faults.get(),
            spills: c.spills.get(),
            snapshots: c.snapshots.get(),
            replayed_nodes: c.replayed_nodes.get(),
            replayed_relations: c.replayed_relations.get(),
            truncated_bytes: c.truncated_bytes.get(),
        }
    }

    /// A named snapshot of this store's `durable.*` metrics: the
    /// [`stats`](DurableStore::stats) counters plus wall-latency
    /// histograms for fsyncs, refaults, and snapshots.
    pub fn metrics(&self) -> fix_obs::MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The relations recovered at open — the work a restarted node does
    /// *not* have to redo (each re-submits with zero procedures run).
    pub fn replayed_relations(&self) -> &[(Relation, Handle, Handle)] {
        &self.inner.replayed
    }

    /// Objects currently faultable from disk (the durable index size).
    pub fn indexed_objects(&self) -> usize {
        self.inner.index.read().len()
    }

    /// True once the deterministic kill point has tripped (appends are
    /// being dropped; the next open recovers the pre-crash prefix).
    pub fn crashed(&self) -> bool {
        self.inner.queue.lock().crashed
    }

    /// Blocks until everything appended so far is written *and* fsynced
    /// (regardless of the fsync policy). The durability barrier.
    pub fn flush(&self) -> Result<()> {
        let inner = &self.inner;
        let mut q = inner.queue.lock();
        if q.crashed {
            return Ok(());
        }
        let target = q.enqueued;
        q.flush_upto = q.flush_upto.max(target);
        inner.work.notify_all();
        while q.synced < target && !q.crashed && q.io_error.is_none() && !q.shutdown {
            inner.done.wait(&mut q);
        }
        match &q.io_error {
            Some(e) => Err(io_err(e)),
            None => Ok(()),
        }
    }

    /// Takes a snapshot now: compacts all relations and all live objects
    /// into a fresh `snap-<seq>.fixsnap`, atomically (write, fsync,
    /// rename), then truncates the log and deletes older snapshots.
    /// Blocks until done.
    pub fn snapshot(&self) -> Result<()> {
        let inner = &self.inner;
        let mut q = inner.queue.lock();
        if q.crashed {
            return Ok(());
        }
        q.snap_requests += 1;
        let target = q.snap_requests;
        inner.work.notify_all();
        while q.snaps_done < target && !q.crashed && q.io_error.is_none() && !q.shutdown {
            inner.done.wait(&mut q);
        }
        match &q.io_error {
            Some(e) => Err(io_err(e)),
            None => Ok(()),
        }
    }

    /// Garbage-collects memory *and* the durable index: objects
    /// unreachable from `roots` can neither be read nor faulted back in
    /// afterwards (no resurrection); their log bytes are reclaimed at
    /// the next snapshot. Returns the number of objects collected.
    pub fn gc(&self, roots: &[Handle]) -> usize {
        // Barrier first, so just-inserted objects are indexed and the
        // index prune below sees them.
        let _ = self.flush();
        let inner = &self.inner;
        // One walk (it faults lazily-resident trees in to descend)
        // serves both the index prune and the memory sweep.
        let reachable = inner.store.reachable(roots);
        let mut disk_only_pruned = 0usize;
        {
            let mut index = inner.index.write();
            index.retain(|key, slot| {
                let keep = reachable.contains(key);
                if !keep && !inner.store.resident(slot.handle) {
                    disk_only_pruned += 1;
                }
                keep
            });
        }
        inner.store.sweep(&reachable) + disk_only_pruned
    }

    /// Forgets one object entirely: evicts it from memory *and* drops it
    /// from the durable index, so it cannot refault (unlike a spill
    /// eviction, which is transparent). Returns the bytes freed from
    /// memory, if it was resident.
    pub fn forget(&self, handle: Handle) -> Option<u64> {
        let _ = self.flush();
        self.inner.index.write().remove(&payload_key(handle));
        self.inner.store.evict(handle)
    }
}

// ----------------------------------------------------------------------
// Recovery: streaming one file into the index.
// ----------------------------------------------------------------------

/// What [`replay`] found in one file.
struct Replayed {
    /// The file's length, and the offset one past its last valid frame.
    len: u64,
    valid_len: u64,
    records: u64,
    last: Option<Scanned>,
}

impl Replayed {
    /// A snapshot counts only if it is whole and ends in a commit frame
    /// naming the number of frames before it.
    fn committed(&self) -> bool {
        self.valid_len == self.len
            && matches!(self.last, Some(Scanned::Commit(n)) if n + 1 == self.records)
    }
}

/// Streams `file`'s frames into `index` (as living at `at`) and
/// `relations`, through one buffered reader and one reusable payload
/// buffer. `None` if the file does not open with `magic`.
fn replay(
    file: &File,
    magic: &[u8; 8],
    at: Location,
    index: &mut HandleMap<[u8; 32], Slot>,
    relations: &mut Vec<(Relation, Handle, Handle)>,
) -> io::Result<Option<Replayed>> {
    let len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(STREAM_BUFFER, file);
    let mut head = [0u8; MAGIC_LEN as usize];
    if len < MAGIC_LEN || reader.read_exact(&mut head).is_err() || &head != magic {
        return Ok(None);
    }
    let (mut records, mut last) = (0u64, None);
    let valid_len = frame::scan(&mut reader, MAGIC_LEN, len, |rec| {
        records += 1;
        last = Some(rec);
        match rec {
            Scanned::Node {
                key,
                handle,
                offset,
                len,
            } => {
                index.insert(
                    key,
                    Slot {
                        file: at,
                        offset,
                        len,
                        handle,
                        touch: 0,
                    },
                );
            }
            Scanned::Relation(r, i, o) => relations.push((r, i, o)),
            Scanned::Commit(_) => {}
        }
    })?;
    Ok(Some(Replayed {
        len,
        valid_len,
        records,
        last,
    }))
}

// ----------------------------------------------------------------------
// The group-commit writer.
// ----------------------------------------------------------------------

fn writer_loop(inner: Arc<Inner>, mut append: File, mut log_len: u64, mut next_seq: u64) {
    let mut durable = 0u64; // Ops written (not necessarily synced).
    let mut synced = 0u64; // Ops fsynced through.
    let mut snaps_done = 0u64;
    let mut unsynced_frames = 0u64;
    let mut dirty = false;
    // The batch being written: swapped with the producers' buffers, so
    // both pairs keep their capacity and no frame is copied.
    let mut bytes: Vec<u8> = Vec::new();
    let mut frames: Vec<Queued> = Vec::new();
    loop {
        let (flush_upto, snap_requests, shutdown) = {
            let mut q = inner.queue.lock();
            while q.frames.is_empty()
                && q.flush_upto <= synced
                && q.snap_requests <= snaps_done
                && !q.shutdown
            {
                q.writer_parked = true;
                inner.work.wait(&mut q);
            }
            q.writer_parked = false;
            bytes.clear();
            frames.clear();
            std::mem::swap(&mut q.bytes, &mut bytes);
            std::mem::swap(&mut q.frames, &mut frames);
            (q.flush_upto, q.snap_requests, q.shutdown)
        };
        if bytes.len() > MAX_BACKLOG_BYTES {
            inner.done.notify_all(); // Producers may be waiting for room.
        }

        let mut io_error: Option<String> = None;
        let mut crashed_now = false;
        durable += frames.len() as u64; // Advances even if dropped, so flush waiters wake.
        if !frames.is_empty() {
            // The deterministic kill point: the frames up to it reach the
            // disk and the index, the rest of the batch is lost.
            let before = inner.stats.appended_frames.get();
            let kill = inner
                .options
                .kill
                .filter(|k| (before + 1..=before + frames.len() as u64).contains(&k.after_frames));
            let kept = match kill {
                Some(k) => &frames[..(k.after_frames - before) as usize],
                None => &frames[..],
            };
            let kept_bytes: usize = kept.iter().map(|f| f.len as usize).sum();
            let t0 = fix_obs::tracing_enabled().then(std::time::Instant::now);
            match append.write_all(&bytes[..kept_bytes]) {
                Ok(()) => {
                    let write_ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
                    let mut index = inner.index.write();
                    for f in kept {
                        if let Some((key, handle)) = f.node {
                            let touch = inner.clock.fetch_add(1, Relaxed);
                            index.insert(
                                key,
                                Slot {
                                    file: Location::Log,
                                    offset: log_len,
                                    len: f.len,
                                    handle,
                                    touch,
                                },
                            );
                        }
                        log_len += f.len as u64;
                        if let Some(write_ns) = write_ns {
                            // One write covers the batch: a frame's span
                            // is its share of it by size.
                            fix_obs::emit_span(
                                fix_obs::EventKind::DurAppend,
                                0,
                                f.node.map_or(0, |(_, handle)| trace_id(handle)),
                                0,
                                f.len,
                                write_ns * f.len as u64 / kept_bytes as u64,
                            );
                        }
                    }
                    drop(index);
                    inner.stats.appended_frames.add(kept.len() as u64);
                    inner.stats.appended_bytes.add(kept_bytes as u64);
                    unsynced_frames += kept.len() as u64;
                    dirty = true;
                    if let Some(kill) = kill {
                        // Crash mid-batch, leaving a torn partial frame at
                        // the tail for recovery to truncate.
                        let mut torn = Vec::new();
                        torn.extend_from_slice(&1_000_000u32.to_le_bytes());
                        torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
                        torn.extend_from_slice(&[0xAB; 11]);
                        let _ = append.write_all(&torn);
                        let _ = append.sync_data();
                        match kill.mode {
                            KillMode::Exit(code) => std::process::exit(code),
                            KillMode::Stop => crashed_now = true,
                        }
                    }
                }
                Err(e) => io_error = Some(e.to_string()),
            }
        }
        if bytes.capacity() > 2 * MAX_BACKLOG_BYTES {
            bytes = Vec::new(); // One huge object must not pin its size.
        }

        // Group commit: one fsync covers the whole batch.
        let policy_wants = match inner.options.fsync {
            FsyncPolicy::Always => dirty,
            FsyncPolicy::EveryN(n) => unsynced_frames >= n,
            FsyncPolicy::OnSnapshot => false,
        };
        let flush_wants = flush_upto > synced;
        if dirty && io_error.is_none() && !crashed_now && (policy_wants || flush_wants || shutdown)
        {
            let t0 = std::time::Instant::now();
            match append.sync_data() {
                Ok(()) => {
                    let dur = t0.elapsed();
                    inner.stats.fsyncs.inc();
                    inner.stats.fsync_us.record(dur.as_micros() as u64);
                    if fix_obs::tracing_enabled() {
                        fix_obs::emit_span(
                            fix_obs::EventKind::DurFsync,
                            0,
                            0,
                            0,
                            unsynced_frames as u32,
                            dur.as_nanos() as u64,
                        );
                    }
                    unsynced_frames = 0;
                    dirty = false;
                }
                Err(e) => io_error = Some(e.to_string()),
            }
        }
        if !dirty {
            synced = durable;
        }

        // Snapshots: explicit requests, or the auto size threshold.
        let auto = inner
            .options
            .snapshot_log_bytes
            .is_some_and(|t| log_len - MAGIC_LEN > t);
        if (snap_requests > snaps_done || auto) && io_error.is_none() && !crashed_now {
            match do_snapshot(&inner, &mut append, &mut log_len, &mut next_seq) {
                Ok(()) => {
                    snaps_done = snaps_done.max(snap_requests);
                    unsynced_frames = 0;
                    dirty = false;
                    synced = durable;
                }
                Err(e) => io_error = Some(e.to_string()),
            }
        }

        // Spill: hold resident bytes under the watermark by evicting the
        // coldest persisted objects (they refault on demand).
        if let Some(wm) = inner.options.spill_watermark_bytes {
            if inner.store.total_bytes() > wm && io_error.is_none() {
                spill(&inner, wm);
            }
        }

        let mut q = inner.queue.lock();
        q.synced = synced;
        q.snaps_done = snaps_done;
        if crashed_now {
            q.crashed = true;
            q.synced = q.enqueued;
        }
        if let Some(e) = io_error {
            q.io_error = Some(e);
        }
        let dead = q.crashed || q.io_error.is_some();
        if dead {
            // Nothing queued can be persisted any more: free it.
            q.bytes = Vec::new();
            q.frames = Vec::new();
        }
        let exit = dead || (q.shutdown && q.frames.is_empty());
        drop(q);
        inner.done.notify_all();
        if exit {
            return;
        }
    }
}

fn spill(inner: &Arc<Inner>, watermark: u64) {
    // Coldest-first among resident, persisted objects.
    let mut candidates: Vec<(u64, Handle)> = inner
        .index
        .read()
        .values()
        .filter(|s| inner.store.resident(s.handle))
        .map(|s| (s.touch, s.handle))
        .collect();
    candidates.sort_unstable_by_key(|(touch, _)| *touch);
    for (_, handle) in candidates {
        if inner.store.total_bytes() <= watermark {
            break;
        }
        if inner.store.evict(handle).is_some() {
            inner.stats.spills.inc();
            if fix_obs::tracing_enabled() {
                fix_obs::emit(fix_obs::EventKind::DurEvict, 0, trace_id(handle), 0, 0);
            }
        }
    }
}

fn do_snapshot(
    inner: &Arc<Inner>,
    append: &mut File,
    log_len: &mut u64,
    next_seq: &mut u64,
) -> io::Result<()> {
    let t0 = std::time::Instant::now();
    let seq = *next_seq;
    let final_path = inner.dir.join(snap_name(seq));
    let tmp_path = inner.dir.join(format!("snap-{seq:016x}.tmp"));
    let mut out = BufWriter::with_capacity(STREAM_BUFFER, File::create(&tmp_path)?);
    out.write_all(SNAP_MAGIC)?;
    let mut pos = MAGIC_LEN;
    let mut frames = 0u64;
    let mut buf = Vec::new();

    for (relation, input, output) in inner.cache.entries() {
        buf.clear();
        frame::push_relation(&mut buf, relation, input, output);
        out.write_all(&buf)?;
        pos += buf.len() as u64;
        frames += 1;
    }

    let slots: Vec<([u8; 32], Slot)> = inner
        .index
        .read()
        .iter()
        .map(|(k, s)| (*k, s.clone()))
        .collect();
    let mut moved: HandleMap<[u8; 32], Slot> =
        HandleMap::with_capacity_and_hasher(slots.len(), Default::default());
    for (key, slot) in slots {
        // Source each object from memory if resident (already named: no
        // hash), else copy its frame's node from the old file through
        // the verifying decode — without making it resident (a snapshot
        // must not defeat the spill).
        let node = if inner.store.resident(slot.handle) {
            inner.store.get(slot.handle).ok()
        } else {
            inner.read_node(&key, &slot)
        };
        let node = node.ok_or_else(|| {
            io::Error::other(format!("snapshot source read failed for {}", slot.handle))
        })?;
        buf.clear();
        frame::push_node(&mut buf, &key, slot.handle, &node);
        out.write_all(&buf)?;
        moved.insert(
            key,
            Slot {
                file: Location::Snapshot(seq),
                offset: pos,
                len: buf.len() as u32,
                handle: slot.handle,
                touch: slot.touch,
            },
        );
        pos += buf.len() as u64;
        frames += 1;
    }

    buf.clear();
    frame::push_commit(&mut buf, frames);
    out.write_all(&buf)?;
    let out = out.into_inner().map_err(io::IntoInnerError::into_error)?;
    out.sync_all()?;
    drop(out);
    fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = File::open(&inner.dir) {
        let _ = d.sync_all();
    }

    // Readers move to the snapshot before the log bytes go away; a
    // fault that raced the swap retries against the fresh slot.
    *inner.index.write() = moved;
    *inner.snap_read.lock() = None;
    append.set_len(MAGIC_LEN)?;
    append.sync_data()?;
    append.seek(SeekFrom::Start(MAGIC_LEN))?;
    *log_len = MAGIC_LEN;

    // The previous snapshot is superseded only now that the log has
    // been truncated past it.
    if let Ok(entries) = fs::read_dir(&inner.dir) {
        for e in entries.flatten() {
            if let Ok(name) = e.file_name().into_string() {
                let old = name
                    .strip_prefix("snap-")
                    .and_then(|n| n.strip_suffix(".fixsnap"))
                    .and_then(|n| u64::from_str_radix(n, 16).ok());
                if old.is_some_and(|o| o < seq) {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
    }

    *next_seq = seq + 1;
    let dur = t0.elapsed();
    inner.stats.snapshots.inc();
    inner.stats.snapshot_us.record(dur.as_micros() as u64);
    if fix_obs::tracing_enabled() {
        fix_obs::emit_span(
            fix_obs::EventKind::DurSnapshot,
            0,
            seq,
            0,
            frames as u32,
            dur.as_nanos() as u64,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KillPoint;
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    const WATCHDOG: Duration = Duration::from_secs(30);
    /// A relation frame over literal handles: header + 66-byte record.
    /// Appending one never touches the index, so the tests can stall the
    /// writer on the index lock without stalling the producer.
    const RELATION_FRAME: usize = 74;
    /// Enough relation frames to fill the backlog three times over.
    const FRAMES: u64 = (3 * MAX_BACKLOG_BYTES / RELATION_FRAME) as u64;

    fn literal(i: u64) -> Handle {
        Handle::literal(&i.to_le_bytes()).expect("eight bytes fit a literal")
    }

    fn open(dir: &tempfile::TempDir, kill: Option<KillPoint>) -> DurableStore {
        let options = DurableOptions {
            fsync: FsyncPolicy::OnSnapshot,
            kill,
            ..DurableOptions::default()
        };
        DurableStore::open(dir.path(), options).unwrap()
    }

    /// Records `FRAMES` relations from a thread of its own; the channel
    /// fires once every one of them has been handed to the sink.
    fn produce(d: &DurableStore) -> (JoinHandle<()>, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        let d = d.clone();
        let thread = std::thread::spawn(move || {
            for i in 0..FRAMES {
                d.cache().put(Relation::Eval, literal(i), literal(i));
            }
            tx.send(()).unwrap();
        });
        (thread, rx)
    }

    /// With the writer stalled, waits until the producer has run into
    /// the bound, and checks that it then stays put.
    fn assert_producer_blocks(d: &DurableStore, finished: &mpsc::Receiver<()>) {
        let t0 = Instant::now();
        while d.inner.queue.lock().bytes.len() <= MAX_BACKLOG_BYTES {
            assert!(t0.elapsed() < WATCHDOG, "the backlog never filled");
            std::thread::yield_now();
        }
        assert!(
            finished.recv_timeout(Duration::from_millis(100)).is_err(),
            "the producer ran past the bound"
        );
        let queued = d.inner.queue.lock().bytes.len();
        assert!(queued <= MAX_BACKLOG_BYTES + RELATION_FRAME, "{queued}");
    }

    #[test]
    fn a_producer_past_the_backlog_bound_waits_for_the_writer() {
        let dir = tempfile::tempdir().unwrap();
        let d = open(&dir, None);
        // The writer indexes each batch under the index's write lock:
        // holding a read guard stops it with its first batch in hand.
        let stall = d.inner.index.read();
        let (thread, finished) = produce(&d);
        assert_producer_blocks(&d, &finished);
        drop(stall);
        finished
            .recv_timeout(WATCHDOG)
            .expect("the producer completes once the writer drains");
        thread.join().unwrap();
        d.flush().unwrap();
        assert_eq!(d.stats().appended_frames, FRAMES);
        drop(d);
        assert_eq!(open(&dir, None).stats().replayed_relations, FRAMES);
    }

    #[test]
    fn a_kill_point_trip_wakes_a_waiting_producer() {
        let dir = tempfile::tempdir().unwrap();
        let kill = KillPoint {
            after_frames: 1,
            mode: KillMode::Stop,
        };
        let d = open(&dir, Some(kill));
        // The first batch trips the kill point, but only after indexing:
        // the producer is parked on the bound when the crash happens.
        let stall = d.inner.index.read();
        let (thread, finished) = produce(&d);
        assert_producer_blocks(&d, &finished);
        drop(stall);
        finished
            .recv_timeout(WATCHDOG)
            .expect("the trip wakes the producer");
        thread.join().unwrap();
        assert!(d.crashed());
        d.flush().unwrap();
        assert_eq!(d.stats().appended_frames, 1);
        assert!(d.inner.queue.lock().bytes.is_empty());
        drop(d);
        let d = open(&dir, None);
        assert_eq!(d.stats().replayed_relations, 1);
        assert_eq!(d.stats().truncated_bytes, 19);
    }
}
