//! The runtime storage: a sharded, concurrent, content-addressed object
//! store mapping Handles to Blob/Tree data (paper Fig. 6, "Runtime
//! Storage: Handles ==> Data").

use crate::hooks::{already_hooked, FaultSource, StoreSink};
use fix_core::data::{literal_blob, Blob, Node, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::{payload_key, Handle, HandleBuildHasher, HandleMap, HandleSet};
use fix_core::semantics::DataSource;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 64;

/// A concurrent content-addressed store.
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
    shards: Vec<RwLock<HandleMap<[u8; 32], Node>>>,
    hasher: HandleBuildHasher,
    total_bytes: AtomicU64,
    // Persistence hooks (see crate::hooks). Both are set at most once,
    // by a durability tier wrapping this store; the hot hit paths never
    // touch them — `fault` is consulted only after an in-memory miss and
    // `sink` only on a fresh insert.
    fault: OnceLock<Arc<dyn FaultSource>>,
    sink: OnceLock<Arc<dyn StoreSink>>,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Store {
        Store {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            hasher: HandleBuildHasher::default(),
            total_bytes: AtomicU64::new(0),
            fault: OnceLock::new(),
            sink: OnceLock::new(),
        }
    }

    /// The shard owning `key`, picked from the keyed fold of the whole
    /// key rather than from one byte of it.
    #[inline]
    fn shard(&self, key: &[u8; 32]) -> &RwLock<HandleMap<[u8; 32], Node>> {
        &self.shards[self.hasher.shard_of(key, SHARDS)]
    }

    /// Installs the backing tier consulted after an in-memory miss.
    /// At most one per store; a second install is an error.
    pub fn set_fault_source(&self, source: Arc<dyn FaultSource>) -> Result<()> {
        self.fault
            .set(source)
            .map_err(|_| already_hooked("store already has a fault source"))
    }

    /// Installs the fresh-insert observer. At most one per store; a
    /// second install is an error.
    pub fn set_sink(&self, sink: Arc<dyn StoreSink>) -> Result<()> {
        self.sink
            .set(sink)
            .map_err(|_| already_hooked("store already has an insert sink"))
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
        // Clone for the sink before the map takes ownership (Node clones
        // are refcount bumps); skipped entirely when no tier is attached.
        let observed = self.sink.get().map(|sink| (sink, node.clone()));
        if self.insert(key, node) {
            if let Some((sink, node)) = observed {
                sink.inserted(handle, &node);
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
        let fresh = match self.shard(&key).write().entry(key) {
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
        let resident = self.shard(&key).read().get(&key).cloned();
        if let Some(node) = resident {
            return Ok(node);
        }
        // Miss: give the backing tier (lazy restart / eviction) a chance to
        // fault the object in. The fault runs outside any shard lock.
        // The tier has verified the node against `handle`, and it is
        // already persisted: it becomes resident under the key at hand,
        // with no second hash and no word to the sink.
        if let Some(tier) = self.fault.get() {
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
        if handle.is_literal() {
            return true;
        }
        let key = payload_key(handle);
        self.shard(&key).read().contains_key(&key) || self.backed(handle)
    }

    /// True if the backing tier holds the datum, resident or not: after
    /// an [`evict`](Store::evict), the next read faults it back in. Never
    /// true without a tier, or for a literal.
    pub fn backed(&self, handle: Handle) -> bool {
        !handle.is_literal() && self.fault.get().is_some_and(|tier| tier.knows(handle))
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
        self.shard(&key).read().contains_key(&key)
    }

    /// Number of stored (non-literal) objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
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
    /// not in `reachable`, returning the number dropped.
    pub fn sweep(&self, reachable: &HandleSet<[u8; 32]>) -> usize {
        let mut collected = 0;
        for shard in &self.shards {
            let mut guard = shard.write();
            let before = guard.len();
            guard.retain(|key, node| {
                let keep = reachable.contains(key);
                if !keep {
                    self.total_bytes
                        .fetch_sub(node.transfer_size(), Ordering::Relaxed);
                }
                keep
            });
            collected += before - guard.len();
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
        let node = self.shard(&key).write().remove(&key)?;
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
                    .keys()
                    .filter_map(|k| Handle::from_raw(*k).ok()),
            );
        }
        out
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

    #[test]
    fn a_second_hook_install_is_an_error() {
        struct Nothing;
        impl FaultSource for Nothing {
            fn fault(&self, _: Handle) -> Option<Node> {
                None
            }
            fn knows(&self, _: Handle) -> bool {
                false
            }
        }
        impl StoreSink for Nothing {
            fn inserted(&self, _: Handle, _: &Node) {}
        }
        let store = Store::new();
        assert!(store.set_fault_source(Arc::new(Nothing)).is_ok());
        assert!(store.set_fault_source(Arc::new(Nothing)).is_err());
        assert!(store.set_sink(Arc::new(Nothing)).is_ok());
        assert!(store.set_sink(Arc::new(Nothing)).is_err());
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
        let used = store.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert!(used > SHARDS / 2, "{used} of {SHARDS} shards used");
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
