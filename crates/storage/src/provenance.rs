//! Provenance tracking and computational garbage collection (paper §6).
//!
//! Because Fix computations are deterministic products of known
//! dependencies, a provider storing the *recipe* for an object — the
//! Thunk whose evaluation produced it — may delete the object's bytes
//! and recompute them on demand. The paper calls this "computational
//! 'garbage' collection" under "delayed-availability" storage: users
//! opt in, and the provider answers later reads within an SLA window by
//! re-running the recipe.
//!
//! Two pieces live here:
//!
//! * [`ProvenanceLedger`] — records `object ← thunk` pairs as the
//!   engine runs procedures, and remembers what has been evicted (with
//!   its recompute depth, the cascade length a cold read will pay);
//! * [`plan_eviction`] — decides *which* resident objects can be
//!   soundly deleted: an object is evictable only if everything its
//!   recipe needs stays resident, is a literal, or is itself evicted at
//!   a strictly smaller depth — guaranteeing an acyclic recompute order.
//!
//! The recompute itself needs an evaluator, so it lives in the runtime
//! crate (`fixpoint::Runtime::materialize`).

use crate::store::{payload_key, Store};
use fix_core::error::{Error, Result};
use fix_core::handle::{Handle, HandleBuildHasher, HandleMap, HandleSet, Kind};
use parking_lot::RwLock;

const SHARDS: usize = 32;

/// What the ledger knows about one payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The Thunk whose evaluation produced this object's bytes.
    recipe: Handle,
    /// `Some(depth)` once the object has been evicted: the number of
    /// cascaded procedure re-runs (worst case) a cold read will pay.
    evicted_depth: Option<u32>,
}

/// Records which Thunk produced each stored object.
///
/// Only *immediate* producers are recorded: for an Application thunk
/// the procedure run that created the bytes, for a Selection thunk the
/// extraction. Tail calls record under the thunk whose step actually
/// materialized the data, so re-evaluating the recipe always re-runs
/// the producing step.
///
/// # Examples
///
/// ```
/// use fix_storage::ProvenanceLedger;
/// use fix_core::data::{Blob, Tree};
///
/// let ledger = ProvenanceLedger::new();
/// let def = Tree::from_handles(vec![]);
/// let thunk = def.handle().application().unwrap();
/// let out = Blob::from_slice(&[7u8; 64]).handle();
/// ledger.record(out, thunk);
/// assert_eq!(ledger.recipe_for(out), Some(thunk));
/// ```
pub struct ProvenanceLedger {
    shards: Vec<RwLock<HandleMap<[u8; 32], Entry>>>,
    hasher: HandleBuildHasher,
}

impl Default for ProvenanceLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvenanceLedger {
    /// Creates an empty ledger.
    pub fn new() -> ProvenanceLedger {
        ProvenanceLedger {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            hasher: HandleBuildHasher::default(),
        }
    }

    fn shard(&self, key: &[u8; 32]) -> &RwLock<HandleMap<[u8; 32], Entry>> {
        &self.shards[self.hasher.shard_of(key, SHARDS)]
    }

    /// Records that evaluating `recipe` produced `object`'s bytes.
    ///
    /// Literals are skipped (their bytes travel in the handle), as is
    /// the degenerate case where the recipe *is* the object.
    pub fn record(&self, object: Handle, recipe: Handle) {
        if object.is_literal() || !matches!(object.kind(), Kind::Object(_) | Kind::Ref(_)) {
            return;
        }
        let key = payload_key(object);
        if key == payload_key(recipe) {
            return;
        }
        self.shard(&key).write().insert(
            key,
            Entry {
                recipe,
                evicted_depth: None,
            },
        );
    }

    /// The Thunk that produced `object`, if known.
    pub fn recipe_for(&self, object: Handle) -> Option<Handle> {
        let key = payload_key(object);
        self.shard(&key).read().get(&key).map(|e| e.recipe)
    }

    /// The recompute depth recorded when `object` was evicted, if it is
    /// currently evicted.
    pub fn evicted_depth(&self, object: Handle) -> Option<u32> {
        let key = payload_key(object);
        self.shard(&key)
            .read()
            .get(&key)
            .and_then(|e| e.evicted_depth)
    }

    /// Marks `object` evicted at `depth` (or clears the mark).
    fn set_evicted(&self, object: Handle, depth: Option<u32>) {
        let key = payload_key(object);
        if let Some(e) = self.shard(&key).write().get_mut(&key) {
            e.evicted_depth = depth;
        }
    }

    /// Clears an eviction mark after the object is rematerialized.
    pub fn mark_resident(&self, object: Handle) {
        self.set_evicted(object, None);
    }

    /// Number of recorded recipes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Every non-literal datum the evaluation of `thunk` may need resident,
/// discovered conservatively: tree entries (recursively), thunk
/// definitions, encode targets — the whole reachable closure, whether
/// or not the lazy branches end up taken.
///
/// Handles whose data is absent from `store` are still returned (the
/// caller decides whether absence is acceptable); the walk simply can't
/// descend through them.
pub fn support_closure(store: &Store, thunk: Handle) -> Vec<Handle> {
    let mut out = Vec::new();
    let mut seen: HandleSet<[u8; 32]> = HandleSet::default();
    let mut stack = vec![thunk];
    while let Some(h) = stack.pop() {
        match h.kind() {
            Kind::Object(_) | Kind::Ref(_) => {
                if h.is_literal() || !seen.insert(payload_key(h)) {
                    continue;
                }
                out.push(h.as_object_handle());
                if let Ok(tree) = store.get_tree(h) {
                    stack.extend(tree.entries().iter().copied());
                }
            }
            Kind::Thunk(_) => {
                if let Ok(def) = h.thunk_definition() {
                    stack.push(def);
                }
            }
            Kind::Encode(..) => {
                if let Ok(t) = h.encoded_thunk() {
                    stack.push(t);
                }
            }
        }
    }
    out
}

/// One object the plan will delete.
#[derive(Debug, Clone, Copy)]
pub struct Victim {
    /// The object (canonical Object handle).
    pub handle: Handle,
    /// Worst-case cascaded recompute depth for a cold read.
    pub depth: u32,
    /// Payload bytes reclaimed.
    pub bytes: u64,
}

/// A sound eviction plan over one store.
#[derive(Debug, Clone, Default)]
pub struct EvictionPlan {
    /// Objects to delete, in nondecreasing depth order.
    pub victims: Vec<Victim>,
}

impl EvictionPlan {
    /// Total bytes the plan reclaims.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.victims.iter().map(|v| v.bytes).sum()
    }

    /// The largest recompute cascade any cold read will pay.
    pub fn max_depth(&self) -> u32 {
        self.victims.iter().map(|v| v.depth).max().unwrap_or(0)
    }
}

/// Plans a sound computational GC over `store`.
///
/// `pins` name data that must stay resident (live roots: everything
/// reachable from them through tree entries is protected). Among the
/// rest, an object is evictable if the ledger knows its recipe and the
/// recipe's [`support_closure`] contains only: literals, resident
/// non-victims, objects already evicted (recompute depth known), or
/// victims assigned at a strictly smaller depth. The returned depth is
/// `1 + max(depth of recomputed support)` — the recompute cascade bound.
///
/// Objects whose recipe support includes themselves (possible when a
/// Selection extracts from a tree that contains its own output) are
/// never evicted.
pub fn plan_eviction(store: &Store, ledger: &ProvenanceLedger, pins: &[Handle]) -> EvictionPlan {
    // Everything reachable from a pin stays.
    let mut pinned: HandleSet<[u8; 32]> = HandleSet::default();
    let mut stack: Vec<Handle> = pins.to_vec();
    while let Some(h) = stack.pop() {
        let key = payload_key(h);
        if h.is_literal() || !pinned.insert(key) {
            continue;
        }
        if let Ok(tree) = store.get_tree(h) {
            stack.extend(tree.entries().iter().copied());
        }
    }

    // Candidates: resident, unpinned, with a known recipe.
    struct Candidate {
        handle: Handle,
        bytes: u64,
        support: Vec<Handle>,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for h in store.inventory() {
        if pinned.contains(&payload_key(h)) {
            continue;
        }
        let Some(recipe) = ledger.recipe_for(h) else {
            continue;
        };
        let bytes = match store.get(h) {
            Ok(node) => node.transfer_size(),
            Err(_) => continue,
        };
        candidates.push(Candidate {
            handle: h,
            bytes,
            support: support_closure(store, recipe),
        });
    }

    // Assign depths to a fixpoint. A candidate is admitted once every
    // support member is covered: a resident *non-candidate* (stays put),
    // an already-evicted object (depth known), or a co-candidate that was
    // admitted in an earlier round — never an unadmitted co-candidate,
    // since that one may itself be evicted later. Candidates stuck in
    // support cycles are never admitted and so stay resident.
    let candidate_keys: HandleSet<[u8; 32]> =
        candidates.iter().map(|c| payload_key(c.handle)).collect();
    let mut assigned: HandleMap<[u8; 32], u32> = HandleMap::default();
    loop {
        let mut admitted_this_round = false;
        for c in &candidates {
            let key = payload_key(c.handle);
            if assigned.contains_key(&key) {
                continue;
            }
            let mut depth = 1u32;
            let mut ok = true;
            for s in &c.support {
                let skey = payload_key(*s);
                if skey == key {
                    ok = false; // Self-support: never evictable.
                    break;
                }
                if let Some(d) = assigned.get(&skey) {
                    depth = depth.max(d + 1);
                } else if candidate_keys.contains(&skey) {
                    ok = false; // Unadmitted co-candidate: wait (or cycle).
                    break;
                } else if let Some(d) = ledger.evicted_depth(*s) {
                    depth = depth.max(d + 1);
                } else if !store.contains(*s) {
                    ok = false; // Absent and not recomputable.
                    break;
                }
                // Resident non-candidate: free.
            }
            if ok {
                assigned.insert(key, depth);
                admitted_this_round = true;
            }
        }
        if !admitted_this_round {
            break;
        }
    }

    let mut victims: Vec<Victim> = candidates
        .iter()
        .filter_map(|c| {
            assigned.get(&payload_key(c.handle)).map(|&depth| Victim {
                handle: c.handle,
                depth,
                bytes: c.bytes,
            })
        })
        .collect();
    victims.sort_by_key(|v| v.depth);
    EvictionPlan { victims }
}

/// Executes a plan: deletes each victim's bytes and marks it evicted in
/// the ledger. Returns the bytes actually reclaimed.
///
/// Fails (before deleting anything) if any victim lost its recipe since
/// planning — eviction without provenance would be data loss.
pub fn apply_eviction(
    store: &Store,
    ledger: &ProvenanceLedger,
    plan: &EvictionPlan,
) -> Result<u64> {
    for v in &plan.victims {
        if ledger.recipe_for(v.handle).is_none() {
            return Err(Error::Trap(format!(
                "refusing to evict {}: no recipe recorded",
                v.handle
            )));
        }
    }
    let mut reclaimed = 0;
    for v in &plan.victims {
        if let Some(bytes) = store.evict(v.handle) {
            reclaimed += bytes;
            ledger.set_evicted(v.handle, Some(v.depth));
        }
    }
    Ok(reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::{Blob, Tree};

    fn blob(n: u8) -> Blob {
        Blob::from_vec(vec![n; 64])
    }

    /// A store with `input -> (thunk) -> output` provenance recorded.
    fn one_step() -> (Store, ProvenanceLedger, Handle, Handle, Handle) {
        let store = Store::new();
        let ledger = ProvenanceLedger::new();
        let input = store.put_blob(blob(1));
        let def = store.put_tree(Tree::from_handles(vec![input]));
        let thunk = def.application().unwrap();
        let output = store.put_blob(blob(2));
        ledger.record(output, thunk);
        (store, ledger, input, thunk, output)
    }

    #[test]
    fn ledger_records_and_looks_up() {
        let (_, ledger, _, thunk, output) = one_step();
        assert_eq!(ledger.recipe_for(output), Some(thunk));
        assert_eq!(ledger.recipe_for(output.as_ref_handle()), Some(thunk));
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn ledger_skips_literals_and_self_recipes() {
        let ledger = ProvenanceLedger::new();
        let lit = Blob::from_slice(b"small").handle();
        let def = Tree::from_handles(vec![]).handle();
        ledger.record(lit, def.application().unwrap());
        assert!(ledger.is_empty());
    }

    #[test]
    fn support_closure_walks_trees_thunks_and_encodes() {
        let store = Store::new();
        let leaf = store.put_blob(blob(3));
        let sub = store.put_tree(Tree::from_handles(vec![leaf]));
        let def = store.put_tree(Tree::from_handles(vec![sub.as_ref_handle()]));
        let thunk = def.application().unwrap();
        let enc = thunk.strict().unwrap();
        let outer_def = store.put_tree(Tree::from_handles(vec![enc]));
        let outer = outer_def.application().unwrap();
        let support = support_closure(&store, outer);
        // outer_def, def, sub, leaf — through the encode and the Ref.
        assert_eq!(support.len(), 4);
    }

    #[test]
    fn plan_evicts_output_keeps_inputs() {
        let (store, ledger, input, _, output) = one_step();
        let plan = plan_eviction(&store, &ledger, &[]);
        assert_eq!(plan.victims.len(), 1);
        assert_eq!(plan.victims[0].handle, output.as_object_handle());
        assert_eq!(plan.victims[0].depth, 1);
        assert_eq!(plan.bytes_reclaimed(), 64);
        let reclaimed = apply_eviction(&store, &ledger, &plan).unwrap();
        assert_eq!(reclaimed, 64);
        assert!(!store.contains(output));
        assert!(store.contains(input));
        assert_eq!(ledger.evicted_depth(output), Some(1));
    }

    #[test]
    fn pins_protect_reachable_graph() {
        let (store, ledger, _input, _, output) = one_step();
        let root = store.put_tree(Tree::from_handles(vec![output]));
        let plan = plan_eviction(&store, &ledger, &[root]);
        assert!(plan.victims.is_empty());
    }

    #[test]
    fn cascades_assign_increasing_depths() {
        // input -> t1 -> mid -> t2 -> out; both mid and out recomputable.
        let store = Store::new();
        let ledger = ProvenanceLedger::new();
        let input = store.put_blob(blob(1));
        let d1 = store.put_tree(Tree::from_handles(vec![input]));
        let t1 = d1.application().unwrap();
        let mid = store.put_blob(blob(2));
        ledger.record(mid, t1);
        let d2 = store.put_tree(Tree::from_handles(vec![mid]));
        let t2 = d2.application().unwrap();
        let out = store.put_blob(blob(3));
        ledger.record(out, t2);

        let plan = plan_eviction(&store, &ledger, &[]);
        let depth_of = |h: Handle| {
            plan.victims
                .iter()
                .find(|v| v.handle == h.as_object_handle())
                .map(|v| v.depth)
        };
        assert_eq!(depth_of(mid), Some(1));
        // out's recipe needs mid, which is itself a victim at depth 1.
        assert_eq!(depth_of(out), Some(2));
        assert_eq!(plan.max_depth(), 2);
        // Depth order: mid before out.
        assert!(plan.victims[0].handle == mid.as_object_handle());
    }

    #[test]
    fn missing_support_blocks_eviction() {
        let (store, ledger, input, _, output) = one_step();
        // The recipe's input vanishes without provenance: `output` can
        // no longer be recomputed, so it must not be evicted.
        store.evict(input);
        let plan = plan_eviction(&store, &ledger, &[]);
        assert!(plan.victims.is_empty());
        let _ = output;
    }

    #[test]
    fn self_supporting_objects_never_evicted() {
        // A selection whose target tree contains the output itself.
        let store = Store::new();
        let ledger = ProvenanceLedger::new();
        let out = store.put_blob(blob(9));
        let target = store.put_tree(Tree::from_handles(vec![out]));
        let (sel_tree, sel) = fix_core::invocation::build::selection(target, 0).unwrap();
        store.put_tree(sel_tree);
        ledger.record(out, sel);
        let plan = plan_eviction(&store, &ledger, &[]);
        assert!(plan.victims.iter().all(|v| v.handle != out));
    }

    #[test]
    fn second_round_uses_recorded_evicted_depths() {
        let (store, ledger, _input, _, output) = one_step();
        let plan = plan_eviction(&store, &ledger, &[]);
        apply_eviction(&store, &ledger, &plan).unwrap();

        // A later object whose recipe reads the (now evicted) output.
        let d2 = store.put_tree(Tree::from_handles(vec![output]));
        let t2 = d2.application().unwrap();
        let out2 = store.put_blob(blob(7));
        ledger.record(out2, t2);
        let plan2 = plan_eviction(&store, &ledger, &[]);
        let v = plan2
            .victims
            .iter()
            .find(|v| v.handle == out2.as_object_handle())
            .expect("out2 evictable");
        assert_eq!(v.depth, 2);
    }

    #[test]
    fn apply_refuses_recipeless_victims() {
        let (store, ledger, _, _, output) = one_step();
        let fake = EvictionPlan {
            victims: vec![Victim {
                handle: store.put_blob(blob(42)),
                depth: 1,
                bytes: 64,
            }],
        };
        assert!(apply_eviction(&store, &ledger, &fake).is_err());
        assert!(store.contains(output));
    }
}
