//! [`DurableStore`]: the persistence tier around a node's one table, a
//! [`Store`] of objects and memoized relations.
//!
//! Architecture: callers talk to the wrapped in-memory table as usual;
//! its one [`Tier`] hook builds finished frames into a bounded queue
//! that a single group-commit writer thread, which owns the log file,
//! drains a batch at a time. Appends are asynchronous (bounded loss per the
//! [`FsyncPolicy`](crate::FsyncPolicy)); [`DurableStore::flush`] is the
//! synchronous barrier, and [`DurableStore::snapshot`] the barrier that
//! also compacts a log holding dead bytes. Reads that miss memory fault
//! from disk at the location the table keeps beside each logged object.
//! Every file call of the crate is in this file, made through the
//! crate's `fs` alias — `std::fs`, or in the crate's tests a copy that
//! can fail any one call — and every write is positional; the
//! [crate docs](crate) state the invariants.

use crate::frame::{self, Scanned, LOG_MAGIC, RELATION_FRAME, TOMBSTONE_FRAME};
use crate::fs::{self, File, OpenOptions};
use crate::{DurableOptions, DurableStats, FsyncPolicy};
use fix_core::data::Node;
use fix_core::error::{Error, Result};
use fix_core::handle::{trace_id, Handle, HandleSet};
use fix_storage::{payload_key, Loc, Relation, RelationCache, Store, Tier};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::io::{self, BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Weak};

const LOG_FILE: &str = "log.fixlog";
/// A compaction's output until it is renamed over the log.
const COMPACT_FILE: &str = "log.fixlog.tmp";
const MAGIC_LEN: u64 = 8;
/// Queued frame bytes past which a producer waits for the writer to take
/// a batch: what bounds the memory a stalled writer can pile up.
const MAX_BACKLOG_BYTES: usize = 256 << 10;
/// Buffer size for streaming a file in (open) or out (compaction).
const STREAM_BUFFER: usize = 64 << 10;
/// Dead bytes the writer leaves in place however small the live log is:
/// below this, a rewrite costs more than the space it returns.
const COMPACT_FLOOR_BYTES: u64 = 1 << 20;

fn io_err(e: impl std::fmt::Display) -> Error {
    Error::Backend {
        backend: "durable",
        message: e.to_string(),
    }
}

/// Whether a relation's output can be served after a restart: literals
/// ride in the handle and non-values name no stored object; any other
/// output must be located in the log.
fn backed(store: &Store, output: Handle) -> bool {
    output.is_literal() || !output.is_value() || store.backed(output)
}

/// What the writer does for a frame once it is on disk.
#[derive(Clone, Copy)]
enum Record {
    /// Locate the object under this key.
    Node([u8; 32]),
    Relation,
    /// Count the tombstone's own bytes as dead.
    Tombstone,
}

/// One finished frame waiting in [`Queue::bytes`].
struct Queued {
    len: u32,
    record: Record,
}

/// A `snapshot()` caller waiting for the writer's answer.
type SnapshotWaiter = mpsc::Sender<std::result::Result<(), String>>;

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
    /// Snapshots the writer's next round answers.
    snapshots: Vec<SnapshotWaiter>,
    shutdown: bool,
    /// The writer's one halt: a file call failed, and appends are dropped.
    io_error: Option<String>,
}

impl Queue {
    /// Whether an append can still reach the disk (else it is dropped).
    fn accepting(&self) -> bool {
        !self.shutdown && self.io_error.is_none()
    }

    /// Queues one frame, which `build` writes straight into the buffer
    /// the writer will hand to the file.
    fn push(&mut self, record: Record, build: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        build(&mut self.bytes);
        let len = (self.bytes.len() - start) as u32;
        self.frames.push(Queued { len, record });
        self.enqueued += 1;
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
    snapshots: fix_obs::Counter,
    replayed_nodes: fix_obs::Counter,
    replayed_relations: fix_obs::Counter,
    truncated_bytes: fix_obs::Counter,
    /// Wall latency of each group-commit fsync, in µs.
    fsync_us: fix_obs::HistogramCell,
    /// Wall latency of each disk refault, in µs.
    fault_us: fix_obs::HistogramCell,
    /// Wall latency of each compaction, in µs.
    snapshot_us: fix_obs::HistogramCell,
}

impl Counters {
    /// Registers every cell under its `durable.*` name.
    fn register(&self, reg: &fix_obs::Registry) {
        reg.register_counter("durable.appended_frames", &self.appended_frames);
        reg.register_counter("durable.appended_bytes", &self.appended_bytes);
        reg.register_counter("durable.fsyncs", &self.fsyncs);
        reg.register_counter("durable.faults", &self.faults);
        reg.register_counter("durable.snapshots", &self.snapshots);
        reg.register_counter("durable.replayed_nodes", &self.replayed_nodes);
        reg.register_counter("durable.replayed_relations", &self.replayed_relations);
        reg.register_counter("durable.truncated_bytes", &self.truncated_bytes);
        reg.register_histogram("durable.fsync_us", &self.fsync_us);
        reg.register_histogram("durable.fault_us", &self.fault_us);
        reg.register_histogram("durable.snapshot_us", &self.snapshot_us);
    }
}

struct Inner {
    dir: PathBuf,
    options: DurableOptions,
    store: Arc<Store>,
    /// The log files faults read, as `(generation, file)`: the current
    /// one, and during a compaction the one it replaces. Reads are
    /// positional, so they share each file.
    logs: RwLock<Vec<(u32, Arc<File>)>>,
    /// Log bytes no replay needs, by generation parity: node frames
    /// superseded by a later one of the same key, the frames of dropped
    /// objects, and tombstones. A drop counts its frame in the
    /// generation its location names, so the two generations a
    /// compaction spans count apart. (A relation frame made redundant in
    /// process is not counted; `open` derives the count exactly.)
    dead: [AtomicU64; 2],
    queue: Mutex<Queue>,
    /// Wakes the writer (new work / flush / snapshot / shutdown).
    work: Condvar,
    /// Wakes flush waiters and producers held by the backlog bound.
    done: Condvar,
    stats: Counters,
    metrics: fix_obs::Registry,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Inner {
    /// The dead bytes of the log of generation `generation`.
    fn dead(&self, generation: u32) -> &AtomicU64 {
        &self.dead[(generation & 1) as usize]
    }

    /// Queues one frame. Blocks while the backlog is over its bound;
    /// drops the frame once nothing can persist it.
    fn enqueue(&self, record: Record, build: impl FnOnce(&mut Vec<u8>)) {
        let mut q = self.queue.lock();
        while q.bytes.len() > MAX_BACKLOG_BYTES && q.accepting() {
            self.done.wait(&mut q);
        }
        if q.accepting() {
            q.push(record, build);
        }
        self.wake_writer(q);
    }

    /// Releases the queue, waking the writer if it is parked.
    fn wake_writer(&self, mut q: MutexGuard<'_, Queue>) {
        let wake = std::mem::take(&mut q.writer_parked);
        drop(q);
        if wake {
            self.work.notify_one();
        }
    }

    /// Counts the frames of locations just removed from the table (whose
    /// shard locks the caller holds) as dead, and queues a tombstone for
    /// each, in key order so the log is a function of the calls made. The
    /// tombstones are queued before the locks are released (shard, then
    /// queue; never the reverse): a put of the same object, which finds
    /// it unlocated, queues its node frame after them. They skip the
    /// backlog bound, since the writer needs those locks to drain it.
    fn tombstone(&self, mut dropped: Vec<([u8; 32], Loc)>) {
        dropped.sort_unstable_by_key(|&(key, _)| key);
        let mut q = self.queue.lock();
        q.bytes.reserve(dropped.len() * frame::TOMBSTONE_FRAME);
        q.frames.reserve(dropped.len());
        for (key, loc) in &dropped {
            self.dead(loc.generation)
                .fetch_add(u64::from(loc.len), Relaxed);
            if q.accepting() {
                q.push(Record::Tombstone, |out| frame::push_tombstone(out, key));
            }
        }
        self.wake_writer(q);
    }

    /// Reads the object at `loc` from the file of `loc`'s generation,
    /// retrying against the key's location read afresh. A generation
    /// retired meanwhile costs no try, since the location it moved to is
    /// newer; three failed reads, or a location that names a retired
    /// generation twice, give up.
    fn fault_in(&self, handle: Handle, mut loc: Loc) -> Option<Node> {
        let key = payload_key(handle);
        let mut tries = 0;
        while tries < 3 {
            let t0 = std::time::Instant::now();
            let file = self
                .logs
                .read()
                .iter()
                .find(|(generation, _)| *generation == loc.generation)
                .map(|(_, file)| Arc::clone(file));
            let retired = file.is_none();
            if let Some(node) = file.and_then(|file| read_node(&file, &key, loc)) {
                let dur = t0.elapsed();
                self.stats.faults.inc();
                self.stats.fault_us.record(dur.as_micros() as u64);
                if fix_obs::tracing_enabled() {
                    fix_obs::emit_span(
                        fix_obs::EventKind::DurRefault,
                        0,
                        trace_id(&key),
                        0,
                        loc.len,
                        dur.as_nanos() as u64,
                    );
                }
                return Some(node);
            }
            let fresh = self.store.location(handle)?;
            tries += usize::from(!retired || fresh == loc);
            loc = fresh;
        }
        None
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

/// Reads the object `loc` points at in `file` — or nothing: the frame
/// must check out *and* its bytes must hash to `key`, the name asked for.
fn read_node(file: &File, key: &[u8; 32], loc: Loc) -> Option<Node> {
    let mut bytes = vec![0u8; loc.len as usize];
    file.read_exact_at(&mut bytes, loc.offset).ok()?;
    let (computed, node) = frame::decode_node(&bytes).ok()?;
    (payload_key(computed) == *key).then_some(node)
}

/// The hook adapter: weak, so the table (which outlives us inside a
/// `Runtime`) doesn't keep the writer machinery alive in a cycle.
struct Hooks(Weak<Inner>);

impl Tier for Hooks {
    fn fault(&self, handle: Handle, loc: Loc) -> Option<Node> {
        self.0.upgrade()?.fault_in(handle, loc)
    }

    fn inserted(&self, handle: Handle, node: &Node) {
        let key = payload_key(handle);
        if let Some(i) = self.0.upgrade() {
            i.enqueue(Record::Node(key), |out| {
                frame::push_node(out, &key, handle, node)
            });
        }
    }

    fn recorded(&self, relation: Relation, input: Handle, output: Handle) {
        if let Some(i) = self.0.upgrade() {
            i.enqueue(Record::Relation, |out| {
                frame::push_relation(out, relation, input, output)
            });
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

/// A crash-recoverable, content-addressed table: a [`Store`] whose
/// objects and memoized relations survive the process.
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
    /// Recovery replays `log.fixlog` in order — a node frame locates its
    /// object, a tombstone drops it, a relation frame is memoized. The
    /// scan stops at the first invalid frame; a torn final frame — the
    /// signature of a crash mid-append — is truncated (reported in
    /// [`DurableStats::truncated_bytes`]) and the store opens with
    /// everything before it. A read that fails is an error, never taken
    /// for a torn or a new log. A `log.fixlog.tmp` left by a crash
    /// mid-compaction is removed: the log it was to replace is whole.
    /// A `*.fixsnap` snapshot file, which only the older two-file layout
    /// wrote, is an [`Error::Backend`] naming it: that state is not in
    /// the log, and opening without it would silently drop it.
    ///
    /// The restart is lazy: only each object's location (filed in the
    /// table) and the memoized relations are loaded eagerly; object bytes
    /// fault in on first touch.
    /// Relations whose output data is not in the log (it fell into the
    /// torn tail, or was dropped) are not replayed, so a recovered table
    /// never promises data the log lacks. A log naming two outputs for
    /// one `(relation, input)` — which no deterministic run writes —
    /// opens and serves the first one it backs, on every reopen.
    pub fn open(dir: impl AsRef<Path>, options: DurableOptions) -> Result<DurableStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io_err)?;
        for entry in fs::read_dir(&dir).map_err(io_err)? {
            let path = entry.map_err(io_err)?.path();
            if path.extension().is_some_and(|ext| ext == "fixsnap") {
                return Err(io_err(format!(
                    "{} is a snapshot file of the older two-file layout, which this \
                     version does not read: its state is not in {LOG_FILE}",
                    path.display()
                )));
            }
        }
        match fs::remove_file(dir.join(COMPACT_FILE)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(io_err(e)),
            _ => {}
        }

        let store = Arc::new(Store::new());
        let mut relations: Vec<(Relation, Handle, Handle)> = Vec::new();
        let append = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOG_FILE))
            .map_err(io_err)?;
        let existing = append.metadata().map_err(io_err)?.len();
        let scanned = scan_log(&append, existing, |record| match record {
            Scanned::Node {
                key, offset, len, ..
            } => _ = store.locate(key, Some(Loc::new(offset, len, 0))),
            Scanned::Relation(r, i, o) => relations.push((r, i, o)),
            Scanned::Tombstone(key) => _ = store.locate(key, None),
        });
        let scanned = scanned.map_err(io_err)?;
        // The scan stopped short of the end: a torn or corrupt tail, or a
        // misread. Cutting at a misread would make it permanent, so the
        // bytes where the scan stopped are read again first.
        let stopped_at = scanned.unwrap_or(0);
        if existing > stopped_at
            && reads_back_whole(&append, stopped_at, existing).map_err(io_err)?
        {
            return Err(io_err(format!(
                "{LOG_FILE} misread at offset {stopped_at}: it reads back whole, so it is not cut"
            )));
        }
        let (valid_len, truncated) = match scanned {
            Some(valid_len) => (valid_len, existing - valid_len),
            None => {
                // New file, or a header torn mid-creation: start fresh.
                append.set_len(0).map_err(io_err)?;
                append.write_all_at(LOG_MAGIC, 0).map_err(io_err)?;
                (MAGIC_LEN, existing)
            }
        };
        if existing > valid_len {
            // Drop the torn tail so new appends start at a clean edge.
            append.set_len(valid_len).map_err(io_err)?;
            append.sync_data().map_err(io_err)?;
        }

        // A relation must not promise data the log lacks (its value frame
        // was enqueued before it, so "relation present, value missing"
        // only happens across the torn tail or a tombstone). Of frames
        // naming one `(relation, input)`, the first backed one is served;
        // the rest are dead bytes, even if they name another output.
        let mut seen = HandleSet::default();
        relations.retain(|&(r, i, out)| backed(&store, out) && seen.insert((r, i)));

        let replayed = RelationCache::of(Arc::clone(&store));
        for &(r, i, o) in &relations {
            replayed.put(r, i, o);
        }
        // Every log byte is a located object's frame, a replayed
        // relation's frame, or dead.
        let (mut located, mut live) = (0, (RELATION_FRAME * relations.len()) as u64);
        store.scan_locations(|_, loc| {
            located += 1;
            live += u64::from(loc.len);
        });

        let dead = valid_len - MAGIC_LEN - live;

        let stats = Counters::default();
        stats.replayed_nodes.store(located);
        stats.replayed_relations.store(relations.len() as u64);
        stats.truncated_bytes.store(truncated);
        let metrics = fix_obs::Registry::new();
        stats.register(&metrics);

        let file = Arc::new(append.try_clone().map_err(io_err)?);
        let inner = Arc::new(Inner {
            dir,
            options,
            store,
            logs: RwLock::new(vec![(0, file)]),
            dead: [AtomicU64::new(dead), AtomicU64::new(0)],
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            stats,
            metrics,
            writer: Mutex::new(None),
        });

        let hooks = Hooks(Arc::downgrade(&inner));
        inner.store.attach(Arc::new(hooks))?;

        let writer_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("fix-durable-writer".into())
            .spawn(move || writer_loop(writer_inner, append, valid_len))
            .map_err(io_err)?;
        *inner.writer.lock() = Some(handle);

        Ok(DurableStore {
            _guard: Arc::new(ShutdownGuard(Arc::clone(&inner))),
            inner,
        })
    }

    /// The wrapped in-memory table (hand this to a runtime).
    pub fn store(&self) -> &Arc<Store> {
        &self.inner.store
    }

    /// The table's relations, pre-loaded with replayed ones.
    pub fn cache(&self) -> RelationCache {
        RelationCache::of(Arc::clone(&self.inner.store))
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
            snapshots: c.snapshots.get(),
            replayed_nodes: c.replayed_nodes.get(),
            replayed_relations: c.replayed_relations.get(),
            truncated_bytes: c.truncated_bytes.get(),
        }
    }

    /// A named snapshot of this store's `durable.*` metrics: the
    /// [`stats`](DurableStore::stats) counters plus wall-latency
    /// histograms for fsyncs, refaults, and compactions.
    pub fn metrics(&self) -> fix_obs::MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Blocks until everything appended so far is written *and* fsynced
    /// (regardless of the fsync policy). The durability barrier: an error
    /// once the writer has halted on a failed file call.
    pub fn flush(&self) -> Result<()> {
        let inner = &self.inner;
        let mut q = inner.queue.lock();
        let target = q.enqueued;
        q.flush_upto = q.flush_upto.max(target);
        inner.work.notify_all();
        while q.synced < target && q.io_error.is_none() && !q.shutdown {
            inner.done.wait(&mut q);
        }
        match &q.io_error {
            Some(e) => Err(io_err(e)),
            None => Ok(()),
        }
    }

    /// The durability barrier that also reclaims space: blocks until
    /// everything appended so far is written and fsynced, and, if the
    /// log holds dead bytes (superseded or dropped objects' frames,
    /// tombstones), compacts it first — the live relations and objects
    /// are rewritten into `log.fixlog.tmp`, which is fsynced and renamed
    /// over the log. A log without dead bytes is not rewritten.
    ///
    /// A compaction that cannot read a live object (or write its copy)
    /// fails alone: this returns the error, the partial file is removed,
    /// and appends go on to the log as it was.
    pub fn snapshot(&self) -> Result<()> {
        let inner = &self.inner;
        let (tx, rx) = mpsc::channel();
        {
            let mut q = inner.queue.lock();
            if let Some(e) = &q.io_error {
                return Err(io_err(e));
            }
            q.snapshots.push(tx);
        }
        inner.work.notify_all();
        match rx.recv() {
            Ok(answer) => answer.map_err(io_err),
            Err(mpsc::RecvError) => Err(io_err("the durable writer stopped")),
        }
    }

    /// Garbage-collects memory *and* the log: objects unreachable from
    /// `roots` lose their bytes and their locations together, under every
    /// shard lock, so they can neither be read nor faulted back in
    /// afterwards, and one tombstone frame per dropped object keeps them
    /// dropped across a restart. Returns the number of objects collected
    /// once the tombstones are durable; their frames are reclaimed by the
    /// next compaction. An error means the collection may not survive a
    /// restart: the log could not take the tombstones.
    pub fn gc(&self, roots: &[Handle]) -> Result<usize> {
        // Barrier first, so just-inserted objects are located and the
        // purge below drops their locations too.
        self.flush()?;
        let inner = &self.inner;
        // One walk (it faults lazily-resident trees in to descend).
        let reachable = inner.store.reachable(roots);
        let keep = |key: &[u8; 32]| reachable.contains(key);
        let collected = inner.store.purge(keep, |d| inner.tombstone(d));
        self.flush()?;
        Ok(collected)
    }

    /// Forgets one object entirely: drops its bytes *and* its location,
    /// under its shard's lock, so it cannot refault (unlike
    /// [`Store::evict`], after which the next read faults it back in),
    /// and appends its tombstone, so it stays forgotten across a
    /// restart. Returns the bytes freed from memory, if it was resident,
    /// once the tombstone is durable; an error, like [`gc`](Self::gc)'s,
    /// means the log could not take it.
    pub fn forget(&self, handle: Handle) -> Result<Option<u64>> {
        self.flush()?;
        let (inner, store) = (&self.inner, &self.inner.store);
        let freed = store.remove(handle, |k, l| inner.tombstone(vec![(k, l)]));
        self.flush()?;
        Ok(freed)
    }
}

// ----------------------------------------------------------------------
// Recovery: streaming the log, and the crash it recovers from.
// ----------------------------------------------------------------------

/// Streams the frames of the log `file`, `len` bytes long, through
/// `each` in log order, through one buffered reader. Returns the offset
/// one past the last valid frame, or `None` if the file does not open
/// with the log's magic.
fn scan_log(file: &File, len: u64, each: impl FnMut(Scanned)) -> io::Result<Option<u64>> {
    if len < MAGIC_LEN {
        return Ok(None);
    }
    let mut reader = BufReader::with_capacity(STREAM_BUFFER, file);
    let mut head = [0u8; MAGIC_LEN as usize];
    // The file holds a magic's worth, so only an I/O error fails this
    // read — an error to report, not a log to start afresh.
    reader.read_exact(&mut head)?;
    if &head != LOG_MAGIC {
        return Ok(None);
    }
    frame::scan(&mut reader, MAGIC_LEN, len, each).map(Some)
}

/// Whether the bytes of the log `file`, `len` bytes long, at `at` — where
/// a scan stopped — read back valid with positional reads: the magic at
/// 0, elsewhere a whole frame that fits the file (its header, then its
/// payload, so no more than one frame is held). True means the scan
/// misread them; false, that they are torn or corrupt.
fn reads_back_whole(file: &File, at: u64, len: u64) -> io::Result<bool> {
    const HEADER: u64 = frame::FRAME_HEADER as u64;
    if at == 0 {
        if len < MAGIC_LEN {
            return Ok(false);
        }
        let mut head = [0u8; MAGIC_LEN as usize];
        file.read_exact_at(&mut head, 0)?;
        return Ok(&head == LOG_MAGIC);
    }
    if len - at < HEADER {
        return Ok(false);
    }
    let mut header = [0u8; frame::FRAME_HEADER];
    file.read_exact_at(&mut header, at)?;
    let end = at + HEADER + frame::header_fields(&header).0 as u64;
    if end > len {
        return Ok(false);
    }
    let mut payload = vec![0u8; (end - at - HEADER) as usize];
    file.read_exact_at(&mut payload, at + HEADER)?;
    Ok(frame::scan(&mut header.chain(&payload[..]), at, end, |_| {})? == end)
}

/// Leaves in `dir` what a crash right after the log's `frames`-th frame
/// leaves: the log's first `frames` frames, then a torn partial frame (a
/// header promising a megabyte, and 11 bytes of it), synced. The store
/// on `dir` must be closed. The next [`DurableStore::open`] truncates the
/// 19 torn bytes and serves the prefix.
///
/// Returns an [`Error::Backend`] if `dir` holds no log, or a log of
/// fewer frames.
pub fn tear_log(dir: impl AsRef<Path>, frames: u64) -> Result<()> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.as_ref().join(LOG_FILE))
        .map_err(io_err)?;
    let len = file.metadata().map_err(io_err)?.len();
    let (mut kept, mut cut) = (0, MAGIC_LEN);
    let scanned = scan_log(&file, len, |record| {
        if kept < frames {
            kept += 1;
            cut += match record {
                Scanned::Node { len, .. } => len as u64,
                Scanned::Relation(..) => RELATION_FRAME as u64,
                Scanned::Tombstone(_) => TOMBSTONE_FRAME as u64,
            };
        }
    });
    if scanned.map_err(io_err)?.is_none() || kept < frames {
        return Err(io_err(format!(
            "{LOG_FILE} holds {kept} frames, fewer than {frames}"
        )));
    }
    let mut torn = 1_000_000u32.to_le_bytes().to_vec();
    torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    torn.extend_from_slice(&[0xAB; 11]);
    file.set_len(cut).map_err(io_err)?;
    file.write_all_at(&torn, cut).map_err(io_err)?;
    file.sync_data().map_err(io_err)
}

// ----------------------------------------------------------------------
// The group-commit writer.
// ----------------------------------------------------------------------

/// Whether the writer compacts without being asked: dead bytes outweigh
/// both the live bytes and the floor — and, after a compaction failed
/// with `retry_at` dead bytes, have doubled since.
fn compacts_by_itself(dead: u64, live: u64, retry_at: u64) -> bool {
    dead > live && dead > COMPACT_FLOOR_BYTES && dead >= retry_at
}

fn writer_loop(inner: Arc<Inner>, mut append: File, mut log_len: u64) {
    let mut durable = 0u64; // Ops written (not necessarily synced).
    let mut synced = 0u64; // Ops fsynced through.
    let mut unsynced_frames = 0u64;
    let mut dirty = false;
    let mut retry_at = 0u64;
    // The generation of `append`, the log file appends go to.
    let mut generation = 0u32;
    // The batch being written: swapped with the producers' buffers, so
    // both pairs keep their capacity and no frame is copied.
    let mut bytes: Vec<u8> = Vec::new();
    let mut frames: Vec<Queued> = Vec::new();
    let mut snapshots: Vec<SnapshotWaiter> = Vec::new();
    loop {
        let (flush_upto, shutdown) = {
            let mut q = inner.queue.lock();
            while q.frames.is_empty()
                && q.flush_upto <= synced
                && q.snapshots.is_empty()
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
            std::mem::swap(&mut q.snapshots, &mut snapshots);
            (q.flush_upto, q.shutdown)
        };
        if bytes.len() > MAX_BACKLOG_BYTES {
            inner.done.notify_all(); // Producers may be waiting for room.
        }

        let mut io_error: Option<String> = None;
        durable += frames.len() as u64; // Advances even if dropped, so flush waiters wake.
        if !frames.is_empty() {
            let t0 = fix_obs::tracing_enabled().then(std::time::Instant::now);
            match append.write_all_at(&bytes, log_len) {
                Ok(()) => {
                    let write_ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
                    for f in &frames {
                        // Each object is located under its own shard's
                        // lock; a superseded frame is dead.
                        let dead = match f.record {
                            Record::Node(key) => {
                                let loc = Loc::new(log_len, f.len, generation);
                                inner.store.locate(key, Some(loc)).map_or(0, |old| old.len)
                            }
                            Record::Tombstone => f.len,
                            Record::Relation => 0,
                        };
                        inner.dead(generation).fetch_add(u64::from(dead), Relaxed);
                        log_len += f.len as u64;
                        if let Some(write_ns) = write_ns {
                            // One write covers the batch: a frame's span
                            // is its share of it by size.
                            let id = match f.record {
                                Record::Node(key) => trace_id(&key),
                                _ => 0,
                            };
                            fix_obs::emit_span(
                                fix_obs::EventKind::DurAppend,
                                0,
                                id,
                                0,
                                f.len,
                                write_ns * f.len as u64 / bytes.len() as u64,
                            );
                        }
                    }
                    inner.stats.appended_frames.add(frames.len() as u64);
                    inner.stats.appended_bytes.add(bytes.len() as u64);
                    unsynced_frames += frames.len() as u64;
                    dirty = true;
                }
                Err(e) => io_error = Some(e.to_string()),
            }
        }
        if bytes.capacity() > 2 * MAX_BACKLOG_BYTES {
            bytes = Vec::new(); // One huge object must not pin its size.
        }

        // Compaction: when a snapshot asks and the log holds dead bytes,
        // or unasked once they outweigh the live ones. A success makes
        // everything written so far durable in the new log.
        let mut compaction = Ok(());
        if io_error.is_none() {
            let dead = inner.dead(generation).load(Relaxed);
            let live = (log_len - MAGIC_LEN).saturating_sub(dead);
            let asked = !snapshots.is_empty();
            if dead > 0 && (asked || compacts_by_itself(dead, live, retry_at)) {
                match compact(&inner, &mut append, &mut log_len, &mut generation) {
                    Ok(renamed) => {
                        unsynced_frames = 0;
                        dirty = false;
                        retry_at = 0;
                        io_error = renamed.err().map(|e| e.to_string());
                    }
                    Err(e) => {
                        retry_at = 2 * dead;
                        compaction = Err(e.to_string());
                    }
                }
            }
        }

        // Group commit: one fsync covers the whole batch.
        let policy_wants = match inner.options.fsync {
            FsyncPolicy::Always => dirty,
            FsyncPolicy::EveryN(n) => unsynced_frames >= n,
            FsyncPolicy::OnSnapshot => false,
        };
        let barrier = flush_upto > synced || !snapshots.is_empty() || shutdown;
        if dirty && io_error.is_none() && (policy_wants || barrier) {
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

        let mut q = inner.queue.lock();
        q.synced = synced;
        // `None` until now: the writer exits on the first error.
        q.io_error = io_error;
        let halted = q.io_error.is_some();
        if halted {
            // Nothing queued can be persisted any more: free it.
            q.bytes = Vec::new();
            q.frames = Vec::new();
        }
        let exit = halted || (q.shutdown && q.frames.is_empty());
        if exit {
            snapshots.append(&mut q.snapshots); // No round will answer them.
        }
        let answer = match &q.io_error {
            Some(e) => Err(e.clone()),
            None => compaction,
        };
        drop(q);
        inner.done.notify_all();
        for waiter in snapshots.drain(..) {
            let _ = waiter.send(answer.clone());
        }
        if exit {
            return;
        }
    }
}

/// A compacted log, written and synced but not yet renamed over the log.
struct Rewrite {
    file: File,
    len: u64,
    /// Each copied object's key and its frame's new location.
    moved: Vec<([u8; 32], Loc)>,
}

/// Rewrites the log of `generation` as its live records alone and puts
/// the result in its place as generation + 1 (the crate docs state the
/// protocol): renamed in, then each shard's locations moved to it, then
/// the old file retired; `append` writes to the new file. An `Err` is a
/// compaction that failed alone: its partial file is removed and nothing
/// else changes. Past the rename the old log has left the namespace, so
/// a directory that cannot be synced is an `Ok(Err)`: the new log is
/// in, and the writer halts.
fn compact(
    inner: &Inner,
    append: &mut File,
    log_len: &mut u64,
    generation: &mut u32,
) -> io::Result<io::Result<()>> {
    let t0 = std::time::Instant::now();
    let tmp = inner.dir.join(COMPACT_FILE);
    let next = generation.wrapping_add(1);
    let rewrite = write_live(inner, append, &tmp, next).and_then(|rewrite| {
        let reader = Arc::new(rewrite.file.try_clone()?);
        fs::rename(&tmp, inner.dir.join(LOG_FILE))?;
        Ok((rewrite, reader))
    });
    let (rewrite, reader) = rewrite.inspect_err(|_| _ = fs::remove_file(&tmp))?;
    let renamed = File::open(&inner.dir).and_then(|d| d.sync_all());
    inner.logs.write().push((next, reader));
    // No location names `next`'s parity now: the generation before
    // `generation` was retired by the last compaction. Objects dropped
    // since the copy keep their tombstones' promise: they are not
    // relocated, and their copies are dead.
    let dead = inner.dead(next);
    dead.store(0, Relaxed);
    for &(key, to) in &rewrite.moved {
        if !inner.store.relocate(&key, *generation, to) {
            dead.fetch_add(u64::from(to.len), Relaxed);
        }
    }
    inner.logs.write().retain(|(g, _)| *g == next);
    let objects = rewrite.moved.len() as u32;
    *append = rewrite.file;
    *log_len = rewrite.len;
    *generation = next;

    let dur = t0.elapsed();
    inner.stats.snapshots.inc();
    inner.stats.snapshot_us.record(dur.as_micros() as u64);
    if fix_obs::tracing_enabled() {
        fix_obs::emit_span(
            fix_obs::EventKind::DurSnapshot,
            0,
            inner.stats.snapshots.get(),
            0,
            objects,
            dur.as_nanos() as u64,
        );
    }
    Ok(renamed)
}

/// Writes the live records of the log `source` to `path`, as the file
/// of `generation`, and syncs it: the relations whose output is still
/// located, then every located object — a resident one encoded from
/// memory under its key, which is its canonical handle (nothing is
/// hashed), the rest copied through the verifying decode without being
/// made resident (a compaction must not undo an eviction).
fn write_live(inner: &Inner, source: &File, path: &Path, generation: u32) -> io::Result<Rewrite> {
    let store = &inner.store;
    let mut located = Vec::new();
    store.scan_locations(|key, loc| located.push((*key, loc)));
    let mut relations = RelationCache::of(Arc::clone(store)).entries();
    relations.retain(|&(_, _, out)| backed(store, out));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    // Frames are built in the write buffer itself: each is copied once.
    let mut out = Vec::with_capacity(2 * STREAM_BUFFER);
    out.extend_from_slice(LOG_MAGIC);
    let mut len = 0; // Bytes written; the next frame starts at `len + out.len()`.
    for (relation, input, output) in relations {
        frame::push_relation(&mut out, relation, input, output);
        write_full(&file, &mut out, &mut len)?;
    }
    let mut moved = Vec::with_capacity(located.len());
    for (key, loc) in located {
        let handle = Handle::from_raw(key).map_err(io::Error::other)?;
        let node = if store.resident(handle) {
            store.get(handle).ok()
        } else {
            read_node(source, &key, loc)
        };
        let node = node.ok_or_else(|| {
            io::Error::other(format!("compaction cannot read live object {handle}"))
        })?;
        let start = out.len();
        frame::push_node(&mut out, &key, handle, &node);
        moved.push((
            key,
            Loc::new(len + start as u64, (out.len() - start) as u32, generation),
        ));
        write_full(&file, &mut out, &mut len)?;
    }
    file.write_all_at(&out, len)?;
    len += out.len() as u64;
    file.sync_all()?;
    Ok(Rewrite { file, len, moved })
}

/// Writes `out` to `file` once it holds a stream buffer's worth, adding
/// what went out to `written`.
fn write_full(file: &File, out: &mut Vec<u8>, written: &mut u64) -> io::Result<()> {
    if out.len() >= STREAM_BUFFER {
        file.write_all_at(out, *written)?;
        *written += out.len() as u64;
        out.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{arm, Fault};
    use fix_core::data::Blob;
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    const WATCHDOG: Duration = Duration::from_secs(30);
    /// A relation frame over literal handles: header + 66-byte record.
    /// Recording one makes no file call, so the tests can park the writer
    /// at its next write without stalling the producer.
    const RELATION_FRAME: usize = 74;
    /// Enough relation frames to fill the backlog three times over.
    const FRAMES: u64 = (3 * MAX_BACKLOG_BYTES / RELATION_FRAME) as u64;

    fn literal(i: u64) -> Handle {
        Handle::literal(&i.to_le_bytes()).expect("eight bytes fit a literal")
    }

    fn open(dir: &tempfile::TempDir) -> DurableStore {
        open_in(dir.path())
    }

    fn open_in(dir: &Path) -> DurableStore {
        let options = DurableOptions {
            fsync: FsyncPolicy::OnSnapshot,
        };
        DurableStore::open(dir, options).unwrap()
    }

    /// Records `FRAMES` relations from a thread of its own; the channel
    /// fires once every one of them has been handed to the tier.
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
        let plan = arm(dir.path());
        let d = open(&dir);
        // Parking the writer at its next write stops it with its first
        // batch in hand.
        let stall = plan.park("write_at");
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
        assert_eq!(open(&dir).stats().replayed_relations, FRAMES);
    }

    #[test]
    fn the_writer_compacts_unasked_past_the_floor_and_retries_once_dead_bytes_double() {
        let floor = COMPACT_FLOOR_BYTES;
        assert!(compacts_by_itself(floor + 1, floor, 0));
        assert!(!compacts_by_itself(floor, 0, 0), "not past the floor");
        assert!(
            !compacts_by_itself(2 * floor, 2 * floor, 0),
            "not past the live bytes"
        );
        // A compaction failed with 3 × floor dead bytes.
        let retry_at = 6 * floor;
        assert!(!compacts_by_itself(retry_at - 1, 0, retry_at));
        assert!(compacts_by_itself(retry_at, 0, retry_at));
    }

    #[test]
    fn a_failed_write_wakes_a_waiting_producer() {
        let dir = tempfile::tempdir().unwrap();
        let plan = arm(dir.path());
        let d = open(&dir);
        // The writer parks at its first write, batch in hand, while the
        // producer runs into the bound; let go, that batch reaches the
        // disk and the second write fails with the producer waiting.
        plan.fault(plan.calls().len() + 1, Fault::Fail);
        let stall = plan.park("write_at");
        let (thread, finished) = produce(&d);
        assert_producer_blocks(&d, &finished);
        drop(stall);
        finished
            .recv_timeout(WATCHDOG)
            .expect("the failed write wakes the producer");
        thread.join().unwrap();
        assert!(d.flush().is_err(), "a halted writer fails the barrier");
        assert!(d.inner.queue.lock().bytes.is_empty());
        let written = d.stats().appended_frames;
        assert!(written > 0);
        drop((d, plan));
        let d = open(&dir);
        assert_eq!(d.stats().replayed_relations, written);
        assert_eq!(d.stats().truncated_bytes, 0);
    }

    /// Puts a 64-byte blob and flushes, so each batch is one frame and
    /// the run's file calls are the same from run to run.
    fn put(d: &DurableStore, seed: u8) -> Handle {
        let handle = d.store().put_blob(Blob::from_vec(vec![seed; 64]));
        d.flush().unwrap();
        handle
    }

    #[test]
    fn a_failed_directory_sync_after_the_rename_halts_the_writer() {
        // Dead bytes for the snapshot to compact, flushed first.
        let scenario = |dir: &Path| {
            let d = open_in(dir);
            let [kept, dropped] = [1, 2].map(|seed| put(&d, seed));
            d.forget(dropped).unwrap();
            (d.snapshot(), d, kept)
        };
        let counted = tempfile::tempdir().unwrap();
        let plan = arm(counted.path());
        let (answer, d, _) = scenario(counted.path());
        answer.expect("the compaction itself succeeds");
        assert_eq!(d.stats().snapshots, 1);
        let calls = plan.calls();
        let rename = calls.iter().position(|&c| c == "rename").unwrap();
        drop((d, plan));

        // The directory is opened, then synced, after the rename.
        for name in ["open", "sync_all"] {
            let at = rename + calls[rename..].iter().position(|&c| c == name).unwrap();
            let dir = tempfile::tempdir().unwrap();
            let plan = arm(dir.path());
            plan.fault(at, Fault::Fail);
            let (answer, d, kept) = scenario(dir.path());
            assert_eq!(plan.calls()[at], name, "call {at} moved");
            assert!(
                answer.is_err(),
                "{name} failed after the rename, and snapshot said Ok"
            );
            assert!(d.flush().is_err(), "{name}: the writer did not halt");
            assert_eq!(d.store().get_blob(kept).unwrap().len(), 64);
            drop((d, plan));
            // The rename stands: the compacted log serves the kept object.
            let d = open_in(dir.path());
            assert_eq!(d.stats().replayed_nodes, 1, "{name}");
            assert_eq!(d.store().get_blob(kept).unwrap().len(), 64);
        }
    }

    #[test]
    fn a_fault_at_a_retired_generation_reads_the_location_afresh() {
        let dir = tempfile::tempdir().unwrap();
        let d = open(&dir);
        let [kept, dropped] = [1, 2].map(|seed| put(&d, seed));
        let node = d.store().get(kept).unwrap();
        let stale = d.store().location(kept).unwrap();
        let gone = d.store().location(dropped).unwrap();
        d.forget(dropped).unwrap();
        d.snapshot().unwrap();
        let fresh = d.store().location(kept).unwrap();
        assert_eq!((stale.generation, fresh.generation), (0, 1));
        assert_eq!(d.inner.logs.read().len(), 1);
        // Generation 0 is retired: its location is read afresh.
        assert_eq!(d.inner.fault_in(kept, stale), Some(node));
        // A dropped object has no location to read afresh.
        assert_eq!(d.inner.fault_in(dropped, gone), None);
        // Moving on from a retired generation costs no try, but a location
        // that stays on one is no progress: the fault gives up, not spins.
        let stuck = Loc {
            generation: 9,
            ..fresh
        };
        d.store().locate(payload_key(kept), Some(stuck));
        assert_eq!(d.inner.fault_in(kept, stale), None);
    }
}
