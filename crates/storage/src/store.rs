//! The node's one table: a sharded, concurrent, content-addressed map
//! from Handles to Blob/Tree data (paper Fig. 6, "Runtime Storage:
//! Handles ==> Data"), and the memoized relations over those names.
//!
//! Both sides are sharded by payload key. An object and the relations
//! whose input shares its payload — a thunk's definition tree, that
//! tree's `Apply` and the thunk's `Eval` — sit in one shard, under one
//! lock. The relation side's public face is
//! [`RelationCache`](crate::RelationCache).

use crate::hooks::Tier;
use crate::relations::Relation;
use fix_core::data::{literal_blob, Blob, Node, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::{payload_key, Handle, HandleBuildHasher, HandleMap, HandleSet};
use fix_core::semantics::DataSource;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 64;

/// Memoized relations, keyed by kind and input.
pub(crate) type Memos = HandleMap<(Relation, Handle), Handle>;

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
    // miss, on a fresh insert and on a fresh relation.
    tier: OnceLock<Arc<dyn Tier>>,
}

/// What one lock guards: the objects of its payload keys and the
/// relations whose inputs share them.
#[derive(Default)]
struct Shard {
    nodes: HandleMap<[u8; 32], Node>,
    memos: Memos,
}

/// One shard's relation lookup counters, on a cache line of their own, so
/// counting a lookup touches no line another shard's lookups write.
///
/// They sit beside the shards rather than in them, so a shard is just the
/// lock and its two maps (88 bytes, unaligned). Padding each shard to two
/// cache lines made the shards one 8 KiB aligned block per table, and
/// `serve_tiers`' peak RSS then jumped by 3–6 MiB in about one run in
/// nine, against about one in twenty-five with this layout (2-vCPU VM,
/// glibc malloc).
#[repr(C, align(64))]
#[derive(Default)]
struct Lookups {
    hits: AtomicU64,
    misses: AtomicU64,
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
        if self.insert(key, node) {
            if let Some((tier, node)) = observed {
                tier.inserted(handle, &node);
            }
        }
    }

    /// Makes `node` resident under `key`; true if the key was new.
    ///
    /// A resident node is kept: an equal `node` put again is dropped
    /// (after the shard lock is released), so a warm put frees the
    /// caller's fresh copy rather than the copy readers already share.
    #[inline]
    fn insert(&self, key: [u8; 32], node: Node) -> bool {
        let size = node.transfer_size();
        let fresh = match self.shard(&key).write().nodes.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(node);
                true
            }
            Entry::Occupied(_) => false,
        };
        if fresh {
            self.total_bytes.fetch_add(size, Ordering::Relaxed);
        }
        fresh
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
        let resident = self.shard(&key).read().nodes.get(&key).cloned();
        if let Some(node) = resident {
            return Ok(node);
        }
        // Miss: give the backing tier (lazy restart / eviction) a chance to
        // fault the object in. The fault runs outside any shard lock.
        // The tier has verified the node against `handle`, and it is
        // already persisted: it becomes resident under the key at hand,
        // with no second hash and no word to the tier.
        if let Some(tier) = self.tier.get() {
            if let Some(node) = tier.fault(handle) {
                self.insert(key, node.clone());
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

    /// True if the datum is resident or faultable from a backing tier
    /// (always true for literals).
    pub fn contains(&self, handle: Handle) -> bool {
        self.resident(handle) || self.backed(handle)
    }

    /// True if the backing tier holds the datum, resident or not: after
    /// an [`evict`](Store::evict), the next read faults it back in. Never
    /// true without a tier, or for a literal.
    pub fn backed(&self, handle: Handle) -> bool {
        !handle.is_literal() && self.tier.get().is_some_and(|tier| tier.knows(handle))
    }

    /// True if the datum is in memory right now — unlike
    /// [`contains`](Store::contains), never consults the backing tier.
    /// The durable tier's compaction and eviction planning distinguish
    /// resident from merely-faultable objects through this.
    pub fn resident(&self, handle: Handle) -> bool {
        if handle.is_literal() {
            return true;
        }
        let key = payload_key(handle);
        self.shard(&key).read().nodes.contains_key(&key)
    }

    /// Number of stored (non-literal) objects. Relations are not objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().nodes.len()).sum()
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

    /// The sweep phase: drops every resident object whose payload key is
    /// not in `reachable`, returning the number dropped. Memoized
    /// relations stay.
    pub fn sweep(&self, reachable: &HandleSet<[u8; 32]>) -> usize {
        let mut collected = 0;
        for shard in &self.shards {
            let nodes = &mut shard.write().nodes;
            let before = nodes.len();
            nodes.retain(|key, node| {
                let keep = reachable.contains(key);
                if !keep {
                    self.total_bytes
                        .fetch_sub(node.transfer_size(), Ordering::Relaxed);
                }
                keep
            });
            collected += before - nodes.len();
        }
        collected
    }

    /// Removes everything not reachable from `roots`
    /// ([`reachable`](Store::reachable), then [`sweep`](Store::sweep)).
    ///
    /// This is the conservative sweep behind the paper's "computational
    /// garbage collection" discussion (§6). Returns the number of objects
    /// collected.
    pub fn gc(&self, roots: &[Handle]) -> usize {
        self.sweep(&self.reachable(roots))
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
        let node = self.shard(&key).write().nodes.remove(&key)?;
        let size = node.transfer_size();
        self.total_bytes.fetch_sub(size, Ordering::Relaxed);
        Some(size)
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
            out.extend(
                shard
                    .read()
                    .nodes
                    .keys()
                    .filter_map(|k| Handle::from_raw(*k).ok()),
            );
        }
        out
    }

    // ---- the relation side, behind RelationCache -----------------------
    // A relation lives in the shard of its input's payload key. The two
    // hot calls are inlined into the face, so a read or record from
    // another crate is one call.

    /// Looks up a memoized result, counting the hit or miss.
    #[inline]
    pub(crate) fn memo(&self, relation: Relation, input: Handle) -> Option<Handle> {
        let index = self.index(&payload_key(input));
        let found = self.shards[index]
            .read()
            .memos
            .get(&(relation, input))
            .copied();
        let lookups = &self.lookups[index];
        let counter = if found.is_some() {
            &lookups.hits
        } else {
            &lookups.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Records a result; a fresh one is reported to the tier.
    #[inline]
    pub(crate) fn memoize(&self, relation: Relation, input: Handle, output: Handle) {
        let prev = self
            .shard(&payload_key(input))
            .write()
            .memos
            .insert((relation, input), output);
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
        self.shard(&payload_key(input))
            .write()
            .memos
            .remove(&(relation, input))
    }

    /// Hands each shard's relations to `each`, in shard order, under that
    /// shard's read lock alone.
    pub(crate) fn scan_memos(&self, mut each: impl FnMut(&Memos)) {
        for shard in &self.shards {
            each(&shard.read().memos);
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
            shard.write().memos.clear();
        }
    }
}

impl DataSource for Store {
    fn load(&self, handle: Handle) -> Result<Node> {
        self.get(handle)
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
mod tests {
    use super::*;
    use crate::relations::RelationCache;

    /// A tier that holds nothing and ignores what it is told.
    struct Nothing;

    impl Tier for Nothing {
        fn fault(&self, _: Handle) -> Option<Node> {
            None
        }
        fn knows(&self, _: Handle) -> bool {
            false
        }
        fn inserted(&self, _: Handle, _: &Node) {}
        fn recorded(&self, _: Relation, _: Handle, _: Handle) {}
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
        let used = store
            .shards
            .iter()
            .filter(|s| !s.read().nodes.is_empty())
            .count();
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
            .filter(|s| !s.read().memos.is_empty())
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
        assert_eq!(table.sweep(&HandleSet::default()), 1);
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
    /// Packages the minimum repository of `thunk` (or, for a value, its
    /// reachable graph) into a [`fix_core::wire::Parcel`] so another node
    /// can evaluate or read it without further round trips.
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
    use proptest::prelude::*;

    proptest! {
        /// put/get identity for arbitrary blobs, across both tag forms.
        #[test]
        fn put_get_identity(data in proptest::collection::vec(any::<u8>(), 0..300)) {
            let store = Store::new();
            let blob = Blob::from_slice(&data);
            let h = store.put_blob(blob.clone());
            prop_assert_eq!(store.get_blob(h).unwrap(), blob.clone());
            prop_assert_eq!(store.get_blob(h.as_ref_handle()).unwrap(), blob);
        }

        /// GC never collects anything reachable from the roots, and the
        /// byte accounting stays consistent.
        #[test]
        fn gc_preserves_reachability(
            blobs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 31..100), 1..12),
            keep_mask in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let store = Store::new();
            let handles: Vec<Handle> =
                blobs.iter().map(|b| store.put_blob(Blob::from_slice(b))).collect();
            let kept: Vec<Handle> = handles
                .iter()
                .zip(&keep_mask)
                .filter(|(_, k)| **k)
                .map(|(h, _)| *h)
                .collect();
            let root = store.put_tree(Tree::from_handles(kept.clone()));
            store.gc(&[root]);
            for h in &kept {
                prop_assert!(store.contains(*h));
            }
            let expect_bytes: u64 = kept
                .iter()
                .map(|h| store.get(*h).unwrap().transfer_size())
                .sum::<u64>()
                + (root.size() * 32);
            prop_assert_eq!(store.total_bytes(), expect_bytes);
        }

        /// Export/import is lossless for arbitrary two-level graphs.
        #[test]
        fn parcel_round_trip_through_stores(
            blobs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..80), 1..8),
        ) {
            let a = Store::new();
            let entries: Vec<Handle> =
                blobs.iter().map(|bl| a.put_blob(Blob::from_slice(bl))).collect();
            let root = a.put_tree(Tree::from_handles(entries.clone()));
            let bytes = a.export(root).unwrap().to_bytes();

            let b = Store::new();
            let got = b.import(fix_core::wire::Parcel::verify(&bytes).unwrap());
            prop_assert_eq!(got, root);
            for (h, blob) in entries.iter().zip(&blobs) {
                let got = b.get_blob(*h).unwrap();
                prop_assert_eq!(got.as_slice(), blob.as_slice());
            }
        }
    }
}
