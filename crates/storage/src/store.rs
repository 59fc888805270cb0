//! The node's one table: a sharded, concurrent, content-addressed map
//! from Handles to Blob/Tree data (paper Fig. 6, "Runtime Storage:
//! Handles ==> Data"), and the memoized relations over those names.
//!
//! Both sides are sharded by payload key, and share one entry per key.
//! An object and the relations whose input shares its payload — a
//! thunk's definition tree, that tree's `Apply` and the thunk's `Eval` —
//! sit in one shard, under one lock, in one entry of one map: storing a
//! thunk's tree and recording its `Eval` is one probe each, of the same
//! table. The entry keeps the object's bytes and one `Eval` inline, as
//! its input's kind byte (handle byte 30, the one byte a payload key
//! zeroes) and its output. Every other relation of the key waits in the
//! shard's spill map, keyed by relation and input, and the entry counts
//! them, so a key with none never probes it. An entry holding neither
//! bytes nor relations is removed. The relation side's public face is
//! [`RelationCache`](crate::RelationCache).
//!
//! A backing tier's [`Loc`]ations of the objects it holds sit in the same
//! shards, under the same locks: whether an object is resident, and
//! where the tier keeps it, is one lookup. Only a tier fills them; a
//! table without one keeps no map for them.

use crate::hooks::Tier;
use crate::relations::Relation;
use fix_core::data::{literal_blob, Blob, Node, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::{payload_key, Handle, HandleBuildHasher, HandleMap, HandleSet};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 64;

/// Where a backing tier holds an object: the frame of `len` bytes at
/// `offset` in the tier's file of generation `generation`. Sixteen bytes,
/// kept per payload key in the object's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// The frame's first byte.
    pub offset: u64,
    /// The frame's length.
    pub len: u32,
    /// Which of the tier's files `offset` is in.
    pub generation: u32,
}

impl Loc {
    /// The frame of `len` bytes at `offset` in generation `generation`.
    pub fn new(offset: u64, len: u32, generation: u32) -> Loc {
        Loc {
            offset,
            len,
            generation,
        }
    }
}

/// A node's table: content-addressed objects and the memoized relations
/// over them.
///
/// Literal handles (blobs ≤ 30 bytes) are never stored: their content
/// travels in the handle, so `put` is a no-op and `get` synthesizes the
/// blob from the handle itself.
///
/// # Examples
///
/// ```
/// use fix_storage::Store;
/// use fix_core::data::Blob;
///
/// let store = Store::new();
/// let blob = Blob::from_slice(&[42u8; 100]);
/// let handle = store.put_blob(blob.clone());
/// assert_eq!(store.get_blob(handle).unwrap(), blob);
/// assert_eq!(store.object_count(), 1);
/// ```
pub struct Store {
    shards: Vec<RwLock<Shard>>,
    lookups: Vec<Lookups>,
    hasher: HandleBuildHasher,
    total_bytes: AtomicU64,
    // The backing tier (see crate::hooks), attached at most once. The hot
    // hit paths never touch it: it is consulted only after an in-memory
    // miss of a located key, on a fresh insert of an unlocated key and on
    // a fresh relation.
    tier: OnceLock<Arc<dyn Tier>>,
}

/// What one lock guards: the entries of its payload keys, each holding
/// the key's object and the relations whose inputs share the key, and
/// the backing tier's locations of those objects.
#[derive(Default)]
struct Shard {
    entries: HandleMap<[u8; 32], Held>,
    /// The relations no entry keeps inline, keyed by kind and input; an
    /// entry counts its own, so a key without any never probes here.
    spilled: HandleMap<(Relation, Handle), Handle>,
    /// Entries holding an object: the shard's share of
    /// [`object_count`](Store::object_count).
    objects: usize,
    /// Boxed on the first location, so a shard of a table without a tier
    /// grows by a pointer, not by a map.
    locs: Option<Box<HandleMap<[u8; 32], Loc>>>,
}

/// What a shard holds under one payload key: the resident object, and
/// the relations whose input has that payload. One `Eval` sits inline,
/// as its input's kind byte (handle byte 30) and its output, so a warm
/// `Eval` read is one probe; the key's other relations are in the
/// shard's spill map, counted here.
#[derive(Default)]
struct Held {
    node: Option<Node>,
    eval: Option<(u8, Handle)>,
    /// The key's relations in the spill map, and how many are `Eval`s: an
    /// `Eval` takes the empty inline place only when none of its key's
    /// is spilled, so no relation is ever in both. A byte holds either:
    /// a valid handle has one of 11 kind bytes, so a key has at most 33
    /// relations.
    spilled: u8,
    spilled_evals: u8,
}

impl Held {
    fn is_empty(&self) -> bool {
        self.node.is_none() && self.eval.is_none() && self.spilled == 0
    }

    /// The inline `Eval`'s output, if `relation` of `input` is it.
    fn inline(&self, relation: Relation, input: Handle) -> Option<Handle> {
        let (kind, output) = self.eval?;
        (relation == Relation::Eval && kind == input.raw()[30]).then_some(output)
    }
}

/// `key` with handle byte 30 put back: the input of a relation kept
/// inline.
fn input_of(key: &[u8; 32], kind: u8) -> Handle {
    let mut raw = *key;
    raw[30] = kind;
    Handle::from_raw(raw).expect("a recorded input is a valid handle")
}

impl Shard {
    fn loc(&self, key: &[u8; 32]) -> Option<Loc> {
        self.locs.as_ref()?.get(key).copied()
    }

    fn node(&self, key: &[u8; 32]) -> Option<&Node> {
        self.entries.get(key)?.node.as_ref()
    }

    /// Removes `key`'s entry if it holds nothing any more.
    fn prune(&mut self, key: &[u8; 32]) {
        if self.entries.get(key).is_some_and(Held::is_empty) {
            self.entries.remove(key);
        }
    }

    /// Takes `key`'s object out of its entry.
    fn take(&mut self, key: &[u8; 32]) -> Option<Node> {
        let node = self.entries.get_mut(key)?.node.take()?;
        self.objects -= 1;
        self.prune(key);
        Some(node)
    }

    /// `relation` of `input`, whose payload key is `key`.
    fn relation(&self, key: &[u8; 32], relation: Relation, input: Handle) -> Option<Handle> {
        self.related(self.entries.get(key)?, relation, input)
    }

    /// `relation` of `input`, whose entry is `held`.
    fn related(&self, held: &Held, relation: Relation, input: Handle) -> Option<Handle> {
        match held.inline(relation, input) {
            None if held.spilled > 0 => self.spilled.get(&(relation, input)).copied(),
            found => found,
        }
    }

    /// Records `relation` of `input` (payload key `key`) as `output`,
    /// returning the output it replaces.
    fn record(
        &mut self,
        key: [u8; 32],
        relation: Relation,
        input: Handle,
        output: Handle,
    ) -> Option<Handle> {
        let held = self.entries.entry(key).or_default();
        if relation == Relation::Eval {
            let kind = input.raw()[30];
            match &mut held.eval {
                Some((at, out)) if *at == kind => return Some(std::mem::replace(out, output)),
                place @ None if held.spilled_evals == 0 => {
                    *place = Some((kind, output));
                    return None;
                }
                _ => {}
            }
        }
        let prev = self.spilled.insert((relation, input), output);
        if prev.is_none() {
            held.spilled += 1;
            held.spilled_evals += u8::from(relation == Relation::Eval);
        }
        prev
    }

    /// Forgets `relation` of `input` (payload key `key`), returning its
    /// output.
    fn forget(&mut self, key: [u8; 32], relation: Relation, input: Handle) -> Option<Handle> {
        let held = self.entries.get_mut(&key)?;
        let output = match held.inline(relation, input) {
            Some(output) => {
                held.eval = None;
                Some(output)
            }
            None if held.spilled > 0 => {
                let output = self.spilled.remove(&(relation, input));
                if output.is_some() {
                    held.spilled -= 1;
                    held.spilled_evals -= u8::from(relation == Relation::Eval);
                }
                output
            }
            None => None,
        };
        self.prune(&key);
        output
    }
}

/// What the table holds for an application thunk
/// ([`Store::applied`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// Its `Eval`: the value it reduced to.
    Evaluated(Handle),
    /// No `Eval` yet, but its tree's `Apply`: the thunk its procedure
    /// tail-called.
    TailCalled(Handle),
    /// Neither: its procedure has not run. The definition tree, if it is
    /// resident.
    Pending(Option<Tree>),
}

/// One shard's relations, as [`Store::scan_memos`] hands them out under
/// the shard's read lock.
pub(crate) struct ShardRelations<'a>(&'a Shard);

impl ShardRelations<'_> {
    /// Every `(relation, input, output)` the shard holds.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Relation, Handle, Handle)> + '_ {
        let inline = self.0.entries.iter().filter_map(|(key, held)| {
            let (kind, output) = held.eval?;
            Some((Relation::Eval, input_of(key, kind), output))
        });
        let spilled = self.0.spilled.iter();
        inline.chain(spilled.map(|(&(relation, input), &output)| (relation, input, output)))
    }

    /// How many relations the shard holds.
    pub(crate) fn len(&self) -> usize {
        let inline = self.0.entries.values().filter(|held| held.eval.is_some());
        inline.count() + self.0.spilled.len()
    }

    /// `relation` of `input`, if the shard holds it (`input`'s payload
    /// key must be one of the shard's).
    pub(crate) fn get(&self, relation: Relation, input: Handle) -> Option<Handle> {
        self.0.relation(&payload_key(input), relation, input)
    }
}

/// One shard's relation lookup counters, on a cache line of their own, so
/// counting a lookup touches no line another shard's lookups write.
///
/// They sit beside the shards rather than in them, so a shard is just the
/// lock, its two maps, its object count and the boxed locations (112
/// bytes, unaligned).
/// Padding each shard to two cache lines made the shards one 8 KiB
/// aligned block per table, and `serve_tiers`' peak RSS then jumped by
/// 3–6 MiB in about one run in nine, against about one in twenty-five
/// with this layout (2-vCPU VM, glibc malloc).
#[repr(C, align(64))]
#[derive(Default)]
struct Lookups {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Lookups {
    /// Counts one relation lookup, a hit if `hit`.
    #[inline]
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// Creates an empty table.
    pub fn new() -> Store {
        Store {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            lookups: (0..SHARDS).map(|_| Lookups::default()).collect(),
            hasher: HandleBuildHasher::default(),
            total_bytes: AtomicU64::new(0),
            tier: OnceLock::new(),
        }
    }

    /// The index of the shard owning `key`, picked from the keyed fold of
    /// the whole key rather than from one byte of it: a literal's key is
    /// its content, and a shard chosen by one content byte would be one
    /// lock for all small integers.
    #[inline]
    fn index(&self, key: &[u8; 32]) -> usize {
        self.hasher.shard_of(key, SHARDS)
    }

    /// The lock over `key`'s shard.
    #[inline]
    fn shard(&self, key: &[u8; 32]) -> &RwLock<Shard> {
        &self.shards[self.index(key)]
    }

    /// `look` at a stored datum's shard under its read lock; `None` for a
    /// literal, which no shard holds.
    fn lookup<R>(&self, handle: Handle, look: impl FnOnce(&Shard, &[u8; 32]) -> R) -> Option<R> {
        let key = payload_key(handle);
        (!handle.is_literal()).then(|| look(&self.shard(&key).read(), &key))
    }

    /// Attaches the backing tier. At most one per table; a second attach
    /// is an error.
    pub fn attach(&self, tier: Arc<dyn Tier>) -> Result<()> {
        self.tier.set(tier).map_err(|_| Error::Backend {
            backend: "storage",
            message: "the table already has a backing tier".into(),
        })
    }

    /// Stores a datum, returning its canonical Handle. Idempotent.
    pub fn put(&self, node: Node) -> Handle {
        let handle = node.handle();
        self.put_named(handle, node);
        handle
    }

    /// `put` for a caller that has just computed `handle` from `node`'s
    /// bytes (hashing them once is the caller's job, not repeated here).
    #[inline]
    fn put_named(&self, handle: Handle, node: Node) {
        if handle.is_literal() {
            return;
        }
        let key = payload_key(handle);
        // Clone for the tier before the map takes ownership (Node clones
        // are refcount bumps); skipped entirely when no tier is attached.
        let observed = self.tier.get().map(|tier| (tier, node.clone()));
        if self.insert(key, node, false) {
            if let Some((tier, node)) = observed {
                tier.inserted(handle, &node);
            }
        }
    }

    /// Makes `node` resident under `key`; true if the key was new to the
    /// table, neither resident nor located. A `faulted` node is made
    /// resident only while its key is still located: a key dropped while
    /// its fault was reading stays dropped.
    ///
    /// A resident node is kept: an equal `node` put again is dropped
    /// (after the shard lock is released), so a warm put frees the
    /// caller's fresh copy rather than the copy readers already share.
    #[inline]
    fn insert(&self, key: [u8; 32], node: Node, faulted: bool) -> bool {
        let size = node.transfer_size();
        let mut guard = self.shard(&key).write();
        let located = guard.loc(&key).is_some();
        if faulted && !located {
            return false;
        }
        let shard = &mut *guard;
        let held = shard.entries.entry(key).or_default();
        if held.node.is_some() {
            return false;
        }
        held.node = Some(node);
        shard.objects += 1;
        drop(guard);
        self.total_bytes.fetch_add(size, Ordering::Relaxed);
        !located
    }

    /// Stores a blob.
    pub fn put_blob(&self, blob: Blob) -> Handle {
        self.put(Node::Blob(blob))
    }

    /// Stores a tree. Entries are *not* implicitly stored.
    pub fn put_tree(&self, tree: Tree) -> Handle {
        self.put(Node::Tree(tree))
    }

    /// Fetches the datum behind `handle` (accessibility tags ignored).
    pub fn get(&self, handle: Handle) -> Result<Node> {
        if let Some(b) = literal_blob(handle) {
            return Ok(Node::Blob(b));
        }
        let key = payload_key(handle);
        let shard = self.shard(&key).read();
        if let Some(node) = shard.node(&key) {
            return Ok(node.clone());
        }
        let loc = shard.loc(&key);
        drop(shard);
        // Miss: a located object (lazy restart / eviction) is faulted in
        // from where the backing tier holds it, outside any shard lock.
        // The tier has verified the node against `handle`, and it is
        // already persisted: it becomes resident under the key at hand,
        // with no second hash and no word to the tier.
        if let (Some(loc), Some(tier)) = (loc, self.tier.get()) {
            if let Some(node) = tier.fault(handle, loc) {
                self.insert(key, node.clone(), true);
                return Ok(node);
            }
        }
        Err(Error::NotFound(handle))
    }

    /// Fetches a blob.
    pub fn get_blob(&self, handle: Handle) -> Result<Blob> {
        self.get(handle)?.as_blob().cloned()
    }

    /// Fetches a tree.
    pub fn get_tree(&self, handle: Handle) -> Result<Tree> {
        self.get(handle)?.as_tree().cloned()
    }

    /// True if the datum is resident or located in a backing tier, so
    /// faultable (always true for literals): one lookup under the shard's
    /// lock.
    pub fn contains(&self, handle: Handle) -> bool {
        let held = |s: &Shard, k: &[u8; 32]| s.node(k).is_some() || s.loc(k).is_some();
        self.lookup(handle, held).unwrap_or(true)
    }

    /// True if the backing tier holds the datum, resident or not: it has
    /// a [`location`](Store::location), so after an
    /// [`evict`](Store::evict) the next read faults it back in. Never true
    /// without a tier, or for a literal.
    pub fn backed(&self, handle: Handle) -> bool {
        self.location(handle).is_some()
    }

    /// Where the backing tier holds the datum, if it does: one lookup
    /// under the shard's lock. Never for a literal.
    pub fn location(&self, handle: Handle) -> Option<Loc> {
        self.lookup(handle, Shard::loc).flatten()
    }

    /// Sets the backing tier's location of the object under `key`, or
    /// with `None` removes it, returning the location it replaces. The
    /// object's bytes, resident or not, are not touched.
    pub fn locate(&self, key: [u8; 32], loc: Option<Loc>) -> Option<Loc> {
        let mut shard = self.shard(&key).write();
        match loc {
            Some(loc) => shard.locs.get_or_insert_with(Box::default).insert(key, loc),
            None => shard.locs.as_mut()?.remove(&key),
        }
    }

    /// Hands every location to `each`, a shard at a time under its read
    /// lock.
    pub fn scan_locations(&self, mut each: impl FnMut(&[u8; 32], Loc)) {
        for shard in &self.shards {
            for (key, loc) in shard.read().locs.iter().flat_map(|locs| locs.iter()) {
                each(key, *loc);
            }
        }
    }

    /// Moves the location of `key` to `to` if it is still in generation
    /// `from`, under its shard's write lock; true if it moved. A key no
    /// longer located was dropped meanwhile, and stays dropped.
    pub fn relocate(&self, key: &[u8; 32], from: u32, to: Loc) -> bool {
        let mut shard = self.shard(key).write();
        let loc = shard.locs.as_mut().and_then(|locs| locs.get_mut(key));
        let moved = loc.filter(|loc| loc.generation == from);
        moved.map(|loc| *loc = to).is_some()
    }

    /// Drops objects for good — their bytes *and* their locations, where
    /// [`gc`](Store::gc) drops only the bytes: each object whose payload
    /// key `keep` refuses. Every shard stays write-locked until `dropped`
    /// has been handed the removed locations, so a backing tier can log
    /// their removal, in one order, before any other call on those keys
    /// gets in. Returns the number of objects dropped: resident, located
    /// or both.
    pub fn purge(
        &self,
        keep: impl Fn(&[u8; 32]) -> bool,
        dropped: impl FnOnce(Vec<([u8; 32], Loc)>),
    ) -> usize {
        let mut shards: Vec<_> = self.shards.iter().map(|shard| shard.write()).collect();
        let (mut objects, mut removed) = (0, Vec::new());
        for shard in &mut shards {
            let Shard { entries, locs, .. } = &mut **shard;
            for (key, loc) in locs.iter_mut().flat_map(|l| l.extract_if(|k, _| !keep(k))) {
                objects += usize::from(entries.get(&key).is_none_or(|held| held.node.is_none()));
                removed.push((key, loc));
            }
            objects += self.unload(shard, &keep);
        }
        dropped(removed);
        objects
    }

    /// Drops one object for good — its bytes *and* its location, where
    /// [`evict`](Store::evict) drops only the bytes. Its shard stays
    /// write-locked until `dropped` has been handed the payload key and
    /// the removed location, if it had one, so a backing tier can log the
    /// removal before any other call on the key gets in. Returns the
    /// bytes freed from memory, if it was resident.
    pub fn remove(&self, handle: Handle, dropped: impl FnOnce([u8; 32], Loc)) -> Option<u64> {
        let key = payload_key(handle);
        let mut shard = self.shard(&key).write();
        if let Some(loc) = shard.locs.as_mut().and_then(|locs| locs.remove(&key)) {
            dropped(key, loc);
        }
        shard.take(&key).map(|node| self.unloaded(&node))
    }

    /// Drops the bytes of each object in `shard` whose payload key `keep`
    /// refuses, returning how many went.
    fn unload(&self, shard: &mut Shard, keep: impl Fn(&[u8; 32]) -> bool) -> usize {
        let Shard {
            entries, objects, ..
        } = shard;
        let before = *objects;
        entries.retain(|key, held| {
            if held.node.is_some() && !keep(key) {
                held.node.take().inspect(|node| _ = self.unloaded(node));
                *objects -= 1;
            }
            !held.is_empty()
        });
        before - *objects
    }

    /// Takes `node`'s bytes off the total, returning them.
    fn unloaded(&self, node: &Node) -> u64 {
        let size = node.transfer_size();
        self.total_bytes.fetch_sub(size, Ordering::Relaxed);
        size
    }

    /// True if the datum is in memory right now — unlike
    /// [`contains`](Store::contains), never counts a location. The
    /// durable tier's compaction and eviction planning distinguish
    /// resident from merely-faultable objects through this.
    pub fn resident(&self, handle: Handle) -> bool {
        let resident = |s: &Shard, k: &[u8; 32]| s.node(k).is_some();
        self.lookup(handle, resident).unwrap_or(true)
    }

    /// Number of stored (non-literal) objects. Relations are not objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().objects).sum()
    }

    /// Total bytes of stored object payloads.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// The mark phase of garbage collection: the payload keys of every
    /// non-literal object reachable from `roots`, following tree entries
    /// and thunk/encode definitions. Trees held only by a backing tier
    /// are faulted in so the walk can descend.
    pub fn reachable(&self, roots: &[Handle]) -> HandleSet<[u8; 32]> {
        let mut reachable = HandleSet::default();
        let mut stack: Vec<Handle> = roots.to_vec();
        while let Some(h) = stack.pop() {
            if h.is_literal() || !reachable.insert(payload_key(h)) {
                continue;
            }
            if let Ok(Node::Tree(t)) = self.get(h) {
                stack.extend(t.entries().iter().copied());
            }
        }
        reachable
    }

    /// Drops the bytes of everything not reachable from `roots`
    /// ([`reachable`](Store::reachable)), a shard at a time. Memoized
    /// relations and locations stay: on a table with a backing tier a
    /// collected object still faults back in, and the table still matches
    /// the tier. Collecting for good is the tier's
    /// (`fix_durable::DurableStore::gc`, through [`purge`](Store::purge)),
    /// which also logs each drop.
    ///
    /// This is the conservative sweep behind the paper's "computational
    /// garbage collection" discussion (§6). Returns the number of objects
    /// collected.
    pub fn gc(&self, roots: &[Handle]) -> usize {
        let reachable = self.reachable(roots);
        let keep = |key: &[u8; 32]| reachable.contains(key);
        let each = |shard: &RwLock<Shard>| self.unload(&mut shard.write(), keep);
        self.shards.iter().map(each).sum()
    }

    /// Drops a single object, returning its payload size in bytes, or
    /// `None` if it was not resident (literals are never resident).
    ///
    /// This is the mechanism behind "delayed-availability" storage
    /// (paper §6): the caller — see `fixpoint::Runtime::evict_recomputable`
    /// — is responsible for only evicting objects it can bring back, by
    /// a fault from the backing tier ([`backed`](Store::backed)) or by a
    /// recompute.
    pub fn evict(&self, handle: Handle) -> Option<u64> {
        if handle.is_literal() {
            return None;
        }
        let key = payload_key(handle);
        let node = self.shard(&key).write().take(&key)?;
        Some(self.unloaded(&node))
    }

    /// Lists every resident object handle (canonical Object form). Each
    /// is its payload key, itself a valid Object handle: nothing is
    /// hashed.
    ///
    /// Used by the distributed engine's inventory exchange ("when two
    /// Fixpoint nodes first connect, they each provide the other with a
    /// list of objects available locally", paper §4.2.2).
    pub fn inventory(&self) -> Vec<Handle> {
        let mut out = Vec::with_capacity(self.object_count());
        for shard in &self.shards {
            let shard = shard.read();
            let keys = shard.entries.iter().filter(|(_, held)| held.node.is_some());
            out.extend(keys.filter_map(|(k, _)| Handle::from_raw(*k).ok()));
        }
        out
    }

    // ---- the relation side, behind RelationCache -----------------------
    // A relation lives in the entry of its input's payload key. The two
    // hot calls are inlined into the face, so a read or record from
    // another crate is one call.

    /// Looks up a memoized result, counting the hit or miss.
    #[inline]
    pub(crate) fn memo(&self, relation: Relation, input: Handle) -> Option<Handle> {
        let key = payload_key(input);
        let index = self.index(&key);
        let found = self.shards[index].read().relation(&key, relation, input);
        self.lookups[index].count(found.is_some());
        found
    }

    /// What the table holds for the application `thunk`, read in one
    /// probe under one lock: the thunk, its definition tree and the
    /// tree's `Apply` share a payload key, so one entry holds them all.
    /// Counts in [`RelationCache::stats`](crate::RelationCache::stats)
    /// the lookups two `RelationCache::get` calls would: the `Eval`, then
    /// the `Apply` if the `Eval` missed.
    pub fn applied(&self, thunk: Handle) -> Result<Applied> {
        let tree = thunk.thunk_definition()?;
        let key = payload_key(thunk);
        let index = self.index(&key);
        let shard = self.shards[index].read();
        let held = shard.entries.get(&key);
        let related = |relation, input| {
            let found = held.and_then(|held| shard.related(held, relation, input));
            self.lookups[index].count(found.is_some());
            found
        };
        if let Some(value) = related(Relation::Eval, thunk) {
            return Ok(Applied::Evaluated(value));
        }
        if let Some(raw) = related(Relation::Apply, tree) {
            return Ok(Applied::TailCalled(raw));
        }
        let node = held.and_then(|held| held.node.as_ref());
        Ok(Applied::Pending(
            node.map(Node::as_tree).transpose()?.cloned(),
        ))
    }

    /// Records a result; a fresh one is reported to the tier.
    #[inline]
    pub(crate) fn memoize(&self, relation: Relation, input: Handle, output: Handle) {
        let key = payload_key(input);
        let prev = self
            .shard(&key)
            .write()
            .record(key, relation, input, output);
        debug_assert!(
            prev.is_none() || prev == Some(output),
            "nondeterministic relation: {relation:?}({input}) was {prev:?}, now {output}"
        );
        if prev.is_none() {
            if let Some(tier) = self.tier.get() {
                tier.recorded(relation, input, output);
            }
        }
    }

    /// Forgets one relation, returning its result.
    pub(crate) fn unmemoize(&self, relation: Relation, input: Handle) -> Option<Handle> {
        let key = payload_key(input);
        self.shard(&key).write().forget(key, relation, input)
    }

    /// Hands each shard's relations to `each`, in shard order, under that
    /// shard's read lock alone.
    pub(crate) fn scan_memos(&self, mut each: impl FnMut(ShardRelations<'_>)) {
        for shard in &self.shards {
            each(ShardRelations(&shard.read()));
        }
    }

    /// (hits, misses) of [`memo`](Store::memo), summed over the shards.
    pub(crate) fn memo_stats(&self) -> (u64, u64) {
        self.lookups.iter().fold((0, 0), |(hits, misses), s| {
            (
                hits + s.hits.load(Ordering::Relaxed),
                misses + s.misses.load(Ordering::Relaxed),
            )
        })
    }

    /// Forgets every relation; objects stay.
    pub(crate) fn clear_memos(&self) {
        for shard in &self.shards {
            let shard = &mut *shard.write();
            shard.spilled.clear();
            shard.entries.retain(|_, held| {
                (held.eval, held.spilled, held.spilled_evals) = (None, 0, 0);
                held.node.is_some()
            });
        }
    }
}

/// A bare store is the minimal [`ObjectApi`](fix_core::api::ObjectApi)
/// backend: Table-1 data
/// operations with no evaluator attached. Code that only moves data
/// (filesystem builders, parcel plumbing, fixtures) can be written
/// against the trait and handed either a store or a full runtime.
impl fix_core::api::ObjectApi for Store {
    fn put(&self, node: Node) -> Handle {
        Store::put(self, node)
    }

    fn get(&self, handle: Handle) -> Result<Node> {
        Store::get(self, handle)
    }

    fn contains(&self, handle: Handle) -> bool {
        Store::contains(self, handle)
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::RelationCache;

    /// A tier that holds nothing and ignores what it is told.
    struct Nothing;

    impl Tier for Nothing {
        fn fault(&self, _: Handle, _: Loc) -> Option<Node> {
            None
        }
        fn inserted(&self, _: Handle, _: &Node) {}
        fn recorded(&self, _: Relation, _: Handle, _: Handle) {}
    }

    /// A tier that serves `held` on a fault, and records the faults it
    /// serves and the inserts it is told of. With `dropping`, each fault
    /// first drops the object it reads from the table, as a `remove`
    /// racing the read would.
    #[derive(Default)]
    struct Recording {
        held: Option<Node>,
        table: OnceLock<std::sync::Weak<Store>>,
        dropping: bool,
        faults: parking_lot::Mutex<Vec<Loc>>,
        inserted: parking_lot::Mutex<Vec<Handle>>,
    }

    impl Tier for Recording {
        fn fault(&self, handle: Handle, loc: Loc) -> Option<Node> {
            self.faults.lock().push(loc);
            if self.dropping {
                let table = self.table.get()?.upgrade()?;
                table.remove(handle, |_, _| {});
            }
            self.held.clone()
        }
        fn inserted(&self, handle: Handle, _: &Node) {
            self.inserted.lock().push(handle);
        }
        fn recorded(&self, _: Relation, _: Handle, _: Handle) {}
    }

    /// A table with a [`Recording`] tier holding `node`.
    fn recorded(node: &Node, dropping: bool) -> (Arc<Store>, Arc<Recording>) {
        let table = Arc::new(Store::new());
        let tier = Arc::new(Recording {
            held: Some(node.clone()),
            dropping,
            ..Recording::default()
        });
        tier.table.set(Arc::downgrade(&table)).unwrap();
        table.attach(Arc::clone(&tier) as Arc<dyn Tier>).unwrap();
        (table, tier)
    }

    #[test]
    fn a_location_backs_an_object_until_a_remove_drops_both() {
        assert_eq!(std::mem::size_of::<Loc>(), 16);
        let node = Node::Blob(Blob::from_slice(&[6u8; 64]));
        let (table, tier) = recorded(&node, false);
        let h = table.put(node.clone());
        let key = payload_key(h);
        assert_eq!(*tier.inserted.lock(), [h]);
        assert!(!table.backed(h) && table.location(h).is_none());

        let at = Loc::new(8, 100, 0);
        assert_eq!(table.locate(key, Some(at)), None);
        assert_eq!(table.location(h), Some(at));
        assert_eq!(table.evict(h), Some(64));
        assert!(table.contains(h) && table.backed(h) && !table.resident(h));
        // A miss faults at the location read with it.
        assert_eq!(table.get(h).unwrap(), node);
        assert_eq!(*tier.faults.lock(), [at]);
        assert!(table.resident(h));
        // A located key put again is not news to the tier.
        table.evict(h);
        table.put(node.clone());
        assert_eq!(tier.inserted.lock().len(), 1);

        // Only a key still in the generation named moves.
        let to = Loc::new(8, 100, 1);
        assert!(!table.relocate(&key, 1, to));
        assert!(table.relocate(&key, 0, to));
        assert_eq!(table.location(h), Some(to));

        // A collection drops only the bytes: the object still faults in.
        assert_eq!(table.gc(&[]), 1);
        assert!(table.backed(h) && !table.resident(h));
        assert_eq!(table.get(h).unwrap(), node);
        assert_eq!(*tier.faults.lock(), [at, to]);

        let mut dropped = None;
        assert_eq!(table.remove(h, |k, loc| dropped = Some((k, loc))), Some(64));
        assert_eq!(dropped, Some((key, to)));
        assert_eq!(table.remove(h, |_, _| panic!("dropped twice")), None);
        assert!(!table.contains(h));
        assert!(matches!(table.get(h), Err(Error::NotFound(_))));
        assert_eq!((table.object_count(), table.total_bytes()), (0, 0));
        assert!(!table.relocate(&key, 1, to), "a dropped key stays dropped");
        // Unlocated, the key is news again.
        table.put(node);
        assert_eq!(tier.inserted.lock().len(), 2);
    }

    #[test]
    fn an_object_dropped_while_its_fault_reads_stays_dropped() {
        let node = Node::Blob(Blob::from_slice(&[7u8; 64]));
        let (table, tier) = recorded(&node, true);
        let h = node.handle();
        table.locate(payload_key(h), Some(Loc::new(8, 100, 0)));
        // The read began before the drop, so it may return the bytes; the
        // table must not keep them.
        assert!(table.get(h).is_ok());
        assert_eq!(tier.faults.lock().len(), 1);
        assert!(!table.resident(h) && !table.contains(h));
        assert!(matches!(table.get(h), Err(Error::NotFound(_))));
    }

    #[test]
    fn a_second_attach_is_an_error() {
        let store = Store::new();
        assert!(store.attach(Arc::new(Nothing)).is_ok());
        assert!(store.attach(Arc::new(Nothing)).is_err());
    }

    #[test]
    fn put_get_round_trip() {
        let store = Store::new();
        let blob = Blob::from_slice(&[1u8; 512]);
        let h = store.put_blob(blob.clone());
        assert_eq!(store.get_blob(h).unwrap(), blob);
        assert_eq!(store.get_blob(h.as_ref_handle()).unwrap(), blob);
    }

    #[test]
    fn literals_bypass_storage() {
        let store = Store::new();
        let blob = Blob::from_slice(b"tiny");
        let h = store.put_blob(blob.clone());
        assert!(h.is_literal());
        assert_eq!(store.object_count(), 0);
        assert_eq!(store.get_blob(h).unwrap(), blob);
        assert!(store.contains(h));
    }

    #[test]
    fn put_is_idempotent() {
        let store = Store::new();
        let blob = Blob::from_slice(&[9u8; 100]);
        store.put_blob(blob.clone());
        store.put_blob(blob.clone());
        assert_eq!(store.object_count(), 1);
        assert_eq!(store.total_bytes(), 100);
    }

    #[test]
    fn a_second_put_keeps_the_resident_node() {
        let store = Store::new();
        let entries = vec![Blob::from_slice(&[4u8; 64]).handle(); 3];
        let h = store.put_tree(Tree::from_handles(entries.clone()));
        let resident = store.get_tree(h).unwrap().entries().as_ptr();
        store.put_tree(Tree::from_handles(entries));
        assert_eq!(store.get_tree(h).unwrap().entries().as_ptr(), resident);
        assert_eq!(store.object_count(), 1);
        assert_eq!(store.total_bytes(), 3 * 32);
    }

    #[test]
    fn missing_object_is_not_found() {
        let store = Store::new();
        let h = Blob::from_slice(&[7u8; 99]).handle();
        assert!(matches!(store.get(h), Err(Error::NotFound(_))));
        assert!(!store.contains(h));
    }

    #[test]
    fn type_confusion_is_rejected() {
        let store = Store::new();
        let tree = Tree::from_handles(vec![]);
        let h = store.put_tree(tree);
        assert!(store.get_blob(h).is_err());
    }

    #[test]
    fn gc_retains_reachable_graph() {
        let store = Store::new();
        let kept_blob = Blob::from_slice(&[1u8; 64]);
        let dropped_blob = Blob::from_slice(&[2u8; 64]);
        let kept_h = store.put_blob(kept_blob);
        store.put_blob(dropped_blob);
        let tree = Tree::from_handles(vec![kept_h]);
        let root = store.put_tree(tree);
        assert_eq!(store.object_count(), 3);

        let collected = store.gc(&[root]);
        assert_eq!(collected, 1);
        assert!(store.contains(kept_h));
        assert!(store.contains(root));
        assert_eq!(store.object_count(), 2);
        assert_eq!(store.total_bytes(), 64 + 32);
    }

    #[test]
    fn gc_follows_thunk_definitions() {
        let store = Store::new();
        let blob = Blob::from_slice(&[5u8; 64]);
        let bh = store.put_blob(blob);
        let def = Tree::from_handles(vec![bh]);
        let def_h = store.put_tree(def);
        let thunk = def_h.application().unwrap();
        // Root through the thunk handle: payload identical to the tree.
        let collected = store.gc(&[thunk]);
        assert_eq!(collected, 0);
        assert!(store.contains(def_h));
        assert!(store.contains(bh));
    }

    #[test]
    fn inventory_lists_everything() {
        let store = Store::new();
        let b = store.put_blob(Blob::from_slice(&[1u8; 40]));
        let t = store.put_tree(Tree::from_handles(vec![b]));
        let mut inv = store.inventory();
        inv.sort();
        let mut expect = vec![b, t];
        expect.sort();
        assert_eq!(inv, expect);
    }

    #[test]
    fn digest_keyed_objects_spread_over_shards() {
        let store = Store::new();
        for i in 0..4096u64 {
            let mut bytes = [0u8; 40];
            bytes[..8].copy_from_slice(&i.to_le_bytes());
            store.put_blob(Blob::from_slice(&bytes));
        }
        let used = store.shards.iter().filter(|s| s.read().objects > 0).count();
        assert!(used > SHARDS / 2, "{used} of {SHARDS} shards used");
    }

    #[test]
    fn small_integer_literals_spread_over_shards() {
        // A literal's payload key is its content: every `u64` below 256
        // shares all but one byte, and the keyed fold still spreads them.
        let table = Arc::new(Store::new());
        let cache = RelationCache::of(Arc::clone(&table));
        for i in 0..256u64 {
            let h = Blob::from_u64(i).handle();
            cache.put(Relation::Force, h, h);
        }
        let used = table
            .shards
            .iter()
            .filter(|s| !s.read().entries.is_empty())
            .count();
        assert!(used > SHARDS / 2, "{used} of {SHARDS} shards used");
    }

    #[test]
    fn objects_and_relations_share_a_shard_and_stay_apart() {
        let table = Arc::new(Store::new());
        let cache = RelationCache::of(Arc::clone(&table));
        // A thunk, its definition tree, the tree's `Apply` and the
        // thunk's `Eval` share one payload key, so one shard.
        let value = table.put_blob(Blob::from_slice(&[3u8; 64]));
        let def = table.put_tree(Tree::from_handles(vec![value]));
        let thunk = def.application().unwrap();
        assert_eq!(payload_key(def), payload_key(thunk));
        cache.put(Relation::Apply, def, thunk);
        cache.put(Relation::Eval, thunk, value);
        cache.put(Relation::Force, value, value);
        let (objects, bytes) = (table.object_count(), table.total_bytes());
        let mut inventory = table.inventory();
        inventory.sort();
        let memos = [
            (Relation::Apply, def, thunk),
            (Relation::Eval, thunk, value),
            (Relation::Force, value, value),
        ];
        // Relations are never counted as objects.
        assert_eq!((objects, bytes), (2, 64 + 32));
        assert_eq!(cache.len(), 3);
        let memos_unchanged = |cache: &RelationCache| {
            assert_eq!(cache.len(), 3);
            for (relation, input, output) in memos {
                assert_eq!(cache.get(relation, input), Some(output));
            }
        };

        // Objects go; relations stay.
        assert_eq!(table.evict(value), Some(64));
        memos_unchanged(&cache);
        assert_eq!(table.purge(|_| false, |_| {}), 1);
        memos_unchanged(&cache);
        table.put_blob(Blob::from_slice(&[3u8; 64]));
        table.put_tree(Tree::from_handles(vec![value]));
        assert_eq!(table.gc(&[]), 2);
        memos_unchanged(&cache);
        assert_eq!(table.object_count(), 0);

        // Relations go; objects stay.
        table.put_blob(Blob::from_slice(&[3u8; 64]));
        table.put_tree(Tree::from_handles(vec![value]));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(
            (table.object_count(), table.total_bytes()),
            (objects, bytes)
        );
        let mut after = table.inventory();
        after.sort();
        assert_eq!(after, inventory);
    }

    #[test]
    fn applied_reads_an_application_and_counts_as_memo_would() {
        let table = Arc::new(Store::new());
        let cache = RelationCache::of(Arc::clone(&table));
        let tree = Tree::from_handles(vec![Blob::from_slice(&[8u8; 64]).handle()]);
        let def = table.put_tree(tree.clone());
        let thunk = def.application().unwrap();
        assert_eq!(table.applied(thunk).unwrap(), Applied::Pending(Some(tree)));
        assert_eq!(cache.stats(), (0, 2));
        let callee = Tree::from_handles(vec![]).handle().application().unwrap();
        cache.put(Relation::Apply, def, callee);
        assert_eq!(table.applied(thunk).unwrap(), Applied::TailCalled(callee));
        assert_eq!(cache.stats(), (1, 3));
        cache.put(Relation::Eval, thunk, def);
        assert_eq!(table.applied(thunk).unwrap(), Applied::Evaluated(def));
        assert_eq!(cache.stats(), (2, 3));
        table.evict(def);
        cache.clear();
        assert_eq!(table.applied(thunk).unwrap(), Applied::Pending(None));
        assert!(table.applied(def).is_err(), "a tree is no thunk");
    }

    #[test]
    fn concurrent_puts_and_gets() {
        use std::sync::Arc;
        let store = Arc::new(Store::new());
        let mut threads = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            threads.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let blob = Blob::from_vec(vec![(t * 7 + i % 13) as u8; 64 + i as usize]);
                    let h = store.put_blob(blob.clone());
                    assert_eq!(store.get_blob(h).unwrap(), blob);
                }
            }));
        }
        for th in threads {
            th.join().unwrap();
        }
    }
}

impl Store {
    /// Packages every datum reachable from `root` into a
    /// [`fix_core::wire::Parcel`], so another node can evaluate or read
    /// it without further round trips. That is more than the minimum
    /// repository ([`footprint`](crate::footprint)): the walk enters
    /// thunk definitions and encoded thunks, and ships the bytes behind
    /// Refs.
    pub fn export(&self, root: Handle) -> Result<fix_core::wire::Parcel> {
        let mut objects = Vec::new();
        let mut seen = HandleSet::default();
        let mut stack = vec![root];
        while let Some(h) = stack.pop() {
            match h.kind() {
                fix_core::handle::Kind::Object(_) | fix_core::handle::Kind::Ref(_) => {
                    if h.is_literal() || !seen.insert(payload_key(h)) {
                        continue;
                    }
                    let node = self.get(h)?;
                    if let Node::Tree(t) = &node {
                        stack.extend(t.entries().iter().copied());
                    }
                    objects.push(node);
                }
                // Thunks: ship the definition target (dedup happens when
                // the unwrapped value handle is visited).
                fix_core::handle::Kind::Thunk(_) => {
                    stack.push(h.thunk_definition()?);
                }
                fix_core::handle::Kind::Encode(..) => {
                    stack.push(h.encoded_thunk()?);
                }
            }
        }
        Ok(fix_core::wire::Parcel::new(root, objects))
    }

    /// Imports every object of a received parcel under the handle
    /// [`Parcel::verify`](fix_core::wire::Parcel::verify) hashed it to —
    /// a received object is hashed once end to end — returning the
    /// parcel's root handle.
    pub fn import(&self, parcel: fix_core::wire::VerifiedParcel) -> Handle {
        let root = parcel.root();
        for (handle, node) in parcel.into_objects() {
            self.put_named(handle, node);
        }
        root
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use fix_core::wire::Parcel;

    #[test]
    fn export_import_moves_a_computation_between_nodes() {
        // "Node A" builds a computation; "node B" receives the parcel and
        // has everything needed to evaluate it.
        let node_a = Store::new();
        let data = Blob::from_vec(vec![5u8; 200]);
        let dh = node_a.put_blob(data);
        let def = Tree::from_handles(vec![dh]);
        let def_h = node_a.put_tree(def);
        let thunk = def_h.application().unwrap();

        let parcel = node_a.export(thunk).unwrap();
        assert_eq!(parcel.objects.len(), 2); // The tree + the blob.
        let bytes = parcel.to_bytes();

        let node_b = Store::new();
        let root = node_b.import(Parcel::verify(&bytes).unwrap());
        assert_eq!(root, thunk);
        assert!(node_b.contains(def_h));
        assert!(node_b.contains(dh));
    }

    #[test]
    fn export_skips_data_behind_refs_is_not_possible_here() {
        // Export follows Refs too (the exporter decides what to ship by
        // choosing the root); shipping a Ref ships its bytes.
        let store = Store::new();
        let blob = store.put_blob(Blob::from_vec(vec![9u8; 64]));
        let tree = store.put_tree(Tree::from_handles(vec![blob.as_ref_handle()]));
        let parcel = store.export(tree).unwrap();
        assert_eq!(parcel.objects.len(), 2);
    }

    #[test]
    fn export_of_missing_data_fails() {
        let store = Store::new();
        let ghost = Blob::from_vec(vec![1u8; 64]).handle();
        assert!(store.export(ghost).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::gen::{check, Rng};

    /// put/get identity for arbitrary blobs, across both tag forms.
    #[test]
    fn put_get_identity() {
        check("put_get_identity", 64, |rng| {
            let data = rng.vec(0..300, Rng::byte);
            let store = Store::new();
            let blob = Blob::from_slice(&data);
            let h = store.put_blob(blob.clone());
            assert_eq!(store.get_blob(h).unwrap(), blob.clone());
            assert_eq!(store.get_blob(h.as_ref_handle()).unwrap(), blob);
        });
    }

    /// GC never collects anything reachable from the roots, and the
    /// byte accounting stays consistent.
    #[test]
    fn gc_preserves_reachability() {
        check("gc_preserves_reachability", 64, |rng| {
            let blobs = rng.vec(1..12, |rng| rng.vec(31..100, Rng::byte));
            let keep_mask = rng.vec(12..13, Rng::bool);
            let store = Store::new();
            let handles: Vec<Handle> = blobs
                .iter()
                .map(|b| store.put_blob(Blob::from_slice(b)))
                .collect();
            let kept: Vec<Handle> = handles
                .iter()
                .zip(&keep_mask)
                .filter(|(_, k)| **k)
                .map(|(h, _)| *h)
                .collect();
            let root = store.put_tree(Tree::from_handles(kept.clone()));
            store.gc(&[root]);
            for h in &kept {
                assert!(store.contains(*h));
            }
            let expect_bytes: u64 = kept
                .iter()
                .map(|h| store.get(*h).unwrap().transfer_size())
                .sum::<u64>()
                + (root.size() * 32);
            assert_eq!(store.total_bytes(), expect_bytes);
        });
    }

    /// Export/import is lossless for arbitrary two-level graphs.
    #[test]
    fn parcel_round_trip_through_stores() {
        check("parcel_round_trip_through_stores", 64, |rng| {
            let blobs = rng.vec(1..8, |rng| rng.vec(0..80, Rng::byte));
            let a = Store::new();
            let entries: Vec<Handle> = blobs
                .iter()
                .map(|bl| a.put_blob(Blob::from_slice(bl)))
                .collect();
            let root = a.put_tree(Tree::from_handles(entries.clone()));
            let bytes = a.export(root).unwrap().to_bytes();

            let b = Store::new();
            let got = b.import(fix_core::wire::Parcel::verify(&bytes).unwrap());
            assert_eq!(got, root);
            for (h, blob) in entries.iter().zip(&blobs) {
                let got = b.get_blob(*h).unwrap();
                assert_eq!(got.as_slice(), blob.as_slice());
            }
        });
    }
}
