//! The relation side of a node's table: memoized results of Fix
//! evaluation.
//!
//! Because Fix procedures are deterministic functions of content-addressed
//! inputs, every evaluation step is a *relation* between names that can be
//! remembered and shared: evaluating the same Thunk twice must produce the
//! same Handle. The runtime records three relations:
//!
//! * `Eval(thunk) → value` — reduction to weak head normal form (a
//!   non-Thunk handle);
//! * `Apply(tree) → thunk` — the raw result of running a procedure on an
//!   application tree, recorded only for a tail call (the procedure
//!   returned another Thunk); a finished application's one relation is
//!   its `Eval`;
//! * `Force(handle) → value` — deep (strict) evaluation: every Thunk and
//!   Encode inside has been replaced, recursively.
//!
//! These memoized relations are what make Fix's memoization, dedup of
//! in-flight work, and the paper's "computational garbage collection"
//! story possible: an application's `Eval` names the recipe for the
//! bytes it produced ([`recipes`](crate::recipes)).
//!
//! They live in the node's one table, [`Store`], in the entry of the
//! payload key their input shares, beside that key's object: one `Eval`
//! inline in the entry, any other relation of the key in its shard's
//! spill map, counted by the entry. [`RelationCache`] is their face: a
//! handle on the table that spells each relation operation once.
//! The two rules that read them at launch are here too: [`resolution`]
//! (an Encode's value) and [`footprint`] (the minimum repository).

use crate::store::Store;
use fix_core::api::Footprint;
use fix_core::data::Node;
use fix_core::error::Error;
use fix_core::handle::{payload_key, DataType, EncodeStyle, Handle, HandleSet, Kind, ThunkKind};
use fix_core::invocation::Selection;
use std::sync::Arc;

/// The kinds of memoized relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Reduce a Thunk until the result is not a Thunk.
    Eval,
    /// Run one application step on an application-tree handle. Recorded
    /// only for a tail call; a finished application's one relation is its
    /// `Eval`. (A log from an older writer may also hold `Apply(tree) →
    /// value`, beside that `Eval`; it replays and plans all the same.)
    Apply,
    /// Deep (strict) evaluation of a value: recursively resolve Thunks
    /// and Encodes inside Trees and promote Refs to Objects.
    Force,
}

/// The relation side of a node's table: a cheap, clonable handle on a
/// [`Store`] that reads and records its memoized relations.
///
/// A relation is kept in the table's entry for its input's payload key,
/// the entry that also holds the object under that key. The entry keeps
/// one `Eval` inline, so a warm `Eval` read is one probe of one map; the
/// key's other relations (a tail call's `Apply`, a `Force`, a second
/// `Eval` under the key) sit in the shard's spill map, which a read
/// probes only when the entry counts some. Recording a relation
/// allocates nothing beyond the map's own growth.
///
/// # Examples
///
/// ```
/// use fix_storage::{RelationCache, Relation};
/// use fix_core::data::Blob;
///
/// let cache = RelationCache::new();
/// let a = Blob::from_slice(b"from").handle();
/// let b = Blob::from_slice(b"to").handle();
/// assert!(cache.get(Relation::Eval, a).is_none());
/// cache.put(Relation::Eval, a, b);
/// assert_eq!(cache.get(Relation::Eval, a), Some(b));
/// ```
#[derive(Clone, Default)]
pub struct RelationCache {
    table: Arc<Store>,
}

impl RelationCache {
    /// The relations of a fresh table of their own.
    pub fn new() -> RelationCache {
        RelationCache::default()
    }

    /// The relations of `table`.
    pub fn of(table: Arc<Store>) -> RelationCache {
        RelationCache { table }
    }

    /// Looks up a memoized result.
    pub fn get(&self, relation: Relation, input: Handle) -> Option<Handle> {
        self.table.memo(relation, input)
    }

    /// Records a result. Recording the same relation twice is harmless;
    /// by determinism the value must be identical (checked in debug).
    pub fn put(&self, relation: Relation, input: Handle, output: Handle) {
        self.table.memoize(relation, input, output)
    }

    /// Number of recorded relations.
    pub fn len(&self) -> usize {
        let mut len = 0;
        self.table.scan_memos(|shard| len += shard.len());
        len
    }

    /// True if no relations are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) of [`get`](RelationCache::get) — used by the
    /// memoization ablation bench.
    pub fn stats(&self) -> (u64, u64) {
        self.table.memo_stats()
    }

    /// Forgets every relation (used by benchmarks to measure cold
    /// paths). The table's objects stay.
    pub fn clear(&self) {
        self.table.clear_memos()
    }

    /// A point-in-time copy of every recorded relation, in shard order.
    ///
    /// The durable tier compacts its log through this; relations recorded
    /// concurrently are not lost — they reach the log through the tier
    /// hook instead.
    pub fn entries(&self) -> Vec<(Relation, Handle, Handle)> {
        let mut out = Vec::new();
        self.table.scan_memos(|shard| out.extend(shard.iter()));
        out
    }

    /// Forgets one memoized relation, returning the old result.
    ///
    /// Used by recompute-on-demand (`fixpoint::Runtime::materialize`):
    /// re-running a procedure to re-create evicted data requires the
    /// memoized `Apply`/`Eval` entries for its recipe to be dropped
    /// first, else evaluation short-circuits to the (dataless) handle.
    pub fn remove(&self, relation: Relation, input: Handle) -> Option<Handle> {
        self.table.unmemoize(relation, input)
    }
}

/// The one Encode rule: what `encode` splices in, read from `table`'s
/// relations, or else the relation still missing and its input. Both
/// styles evaluate the thunk to a non-Thunk value first (`Eval` of the
/// thunk), and a strict one also needs that value's deep forcing
/// (`Force` of the value). A handle that is no Encode misses its own
/// `Eval`.
pub fn resolution(table: &Store, encode: Handle) -> Result<Handle, (Relation, Handle)> {
    let thunk = encode
        .encoded_thunk()
        .map_err(|_| (Relation::Eval, encode))?;
    let value = table
        .memo(Relation::Eval, thunk)
        .ok_or((Relation::Eval, thunk))?;
    match encode.kind() {
        Kind::Encode(EncodeStyle::Strict, _) => table
            .memo(Relation::Force, value)
            .ok_or((Relation::Force, value)),
        _ => Ok(value),
    }
}

/// Computes the minimum repository of `thunk` (paper §3.3): what must be
/// resident before it launches, read from `table`'s objects and, for
/// every Encode, its [`resolution`]. Every list in it names each handle
/// once:
///
/// * Objects reachable from the application tree are in the footprint
///   (recursively, through accessible Trees);
/// * Refs contribute only their metadata;
/// * Thunks contribute nothing (their definitions are lazily needed only
///   if *they* are evaluated);
/// * Encodes must be resolved before launch, and their results join the
///   footprint according to the encode style.
///
/// For Selection and Identification thunks, the target data itself is
/// required (the runtime performs the extraction); a selection's thunk
/// target counts as its shallow encode. Returns an error if tree data
/// needed for the analysis is missing from `table`.
///
/// # Examples
///
/// ```
/// use fix_core::data::{Blob, Tree};
/// use fix_core::limits::ResourceLimits;
/// use fix_storage::{footprint, Store};
///
/// let table = Store::new();
/// let big = Blob::from_slice(&[7u8; 100]);
/// let tree = Tree::from_handles(vec![
///     ResourceLimits::default_limits().handle(),
///     Blob::from_slice(b"code").handle(),
///     big.handle(),                    // accessible: in footprint
///     big.handle().as_ref_handle(),    // ref: metadata only
/// ]);
/// table.put_blob(big);
/// let thunk = table.put_tree(tree).application().unwrap();
/// let fp = footprint(&table, thunk).unwrap();
/// assert_eq!(fp.objects.len(), 2); // The tree itself + the big blob.
/// assert!(fp.refs.len() == 1 && fp.is_complete());
/// ```
pub fn footprint(table: &Store, thunk: Handle) -> Result<Footprint, Error> {
    let mut fp = Footprint::default();
    let mut seen = HandleSet::default();
    let def = thunk.thunk_definition()?;
    match thunk.kind() {
        Kind::Thunk(ThunkKind::Application) => {
            add_accessible(table, def, &mut fp, &mut seen)?;
        }
        Kind::Thunk(ThunkKind::Selection) => {
            // The definition tree ([target, begin, end?]) is tiny but
            // needed, and the first datum added: parsed as added. (A
            // literal is a blob, never a tree.)
            let Some(node) = add_data(table, def, &mut fp, &mut seen)? else {
                return Err(Error::TypeMismatch {
                    handle: def,
                    expected: "tree",
                });
            };
            let sel = Selection::from_tree(node.as_tree()?)?;
            // The target's own data is needed (but not its children): the
            // runtime reads it to perform the extraction. A thunk target is
            // evaluated first, as its shallow encode would be resolved, so
            // it counts as that encode.
            let target = match sel.target.kind() {
                Kind::Thunk(_) => sel.target.shallow()?,
                _ => sel.target,
            };
            match target.kind() {
                Kind::Encode(..) => match resolution(table, target) {
                    Ok(r) => {
                        add_data(table, r, &mut fp, &mut seen)?;
                    }
                    Err(_) => fp.unresolved_encodes.push(target),
                },
                _ => {
                    add_data(table, target, &mut fp, &mut seen)?;
                }
            }
        }
        // An identification: its value is the data (`thunk_definition`
        // refused every handle that is no Thunk).
        _ => {
            add_data(table, def, &mut fp, &mut seen)?;
        }
    }
    // The object walk dedups via `seen`; refs and unresolved encodes are
    // pushed per occurrence, so dedup them here.
    dedup_in_place(&mut fp.unresolved_encodes);
    dedup_in_place(&mut fp.refs);
    Ok(fp)
}

fn dedup_in_place(handles: &mut Vec<Handle>) {
    let mut seen = HandleSet::default();
    handles.retain(|h| seen.insert(*h.raw()));
}

/// Adds a single datum (no recursion into tree children), returning it
/// when it was not in the footprint yet.
fn add_data(
    table: &Store,
    handle: Handle,
    fp: &mut Footprint,
    seen: &mut HandleSet<[u8; 32]>,
) -> Result<Option<Node>, Error> {
    if handle.is_literal() || !seen.insert(payload_key(handle)) {
        return Ok(None);
    }
    // Record canonical-object residency; verify presence so that missing
    // data is reported at analysis time rather than mid-execution.
    let node = table.get(handle)?;
    fp.objects.push(handle.as_object_handle());
    fp.total_bytes += node.transfer_size();
    Ok(Some(node))
}

/// Applies the footprint rules from an accessible handle, depth first
/// with tree entries in order (`Footprint::objects` is in discovery
/// order). An explicit worklist, not recursion: nesting depth is data
/// (a cons list is as deep as it is long) and must not be bounded by
/// the caller's stack.
fn add_accessible(
    table: &Store,
    handle: Handle,
    fp: &mut Footprint,
    seen: &mut HandleSet<[u8; 32]>,
) -> Result<(), Error> {
    let mut stack = vec![handle];
    while let Some(handle) = stack.pop() {
        match handle.kind() {
            Kind::Object(DataType::Blob) => {
                add_data(table, handle, fp, seen)?;
            }
            // Trees are never literal, and one seen before was walked then.
            Kind::Object(DataType::Tree) => {
                if let Some(node) = add_data(table, handle, fp, seen)? {
                    stack.extend(node.as_tree()?.entries().iter().rev());
                }
            }
            Kind::Ref(_) => fp.refs.push(handle),
            // Lazy: a thunk's definition is not part of the parent's footprint.
            Kind::Thunk(_) => {}
            Kind::Encode(style, _) => match (resolution(table, handle), style) {
                // Strict results are fully accessible: walk as Object.
                (Ok(result), EncodeStyle::Strict) => stack.push(result.as_object_handle()),
                // Shallow results are provided as Refs: metadata only.
                (Ok(result), EncodeStyle::Shallow) => {
                    if result.is_value() {
                        fp.refs.push(result.as_ref_handle());
                    }
                }
                (Err(_), _) => fp.unresolved_encodes.push(handle),
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::{Blob, Tree};

    #[test]
    fn get_put_round_trip() {
        let cache = RelationCache::new();
        let a = Blob::from_slice(&[1u8; 40]).handle();
        let b = Blob::from_slice(&[2u8; 40]).handle();
        cache.put(Relation::Apply, a, b);
        assert_eq!(cache.get(Relation::Apply, a), Some(b));
        assert_eq!(cache.get(Relation::Eval, a), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn relations_are_namespaced() {
        let cache = RelationCache::new();
        let a = Blob::from_slice(&[1u8; 40]).handle();
        let b = Blob::from_slice(&[2u8; 40]).handle();
        let c = Blob::from_slice(&[3u8; 40]).handle();
        cache.put(Relation::Eval, a, b);
        cache.put(Relation::Force, a, c);
        assert_eq!(cache.get(Relation::Eval, a), Some(b));
        assert_eq!(cache.get(Relation::Force, a), Some(c));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = RelationCache::new();
        let a = Blob::from_slice(&[1u8; 40]).handle();
        cache.get(Relation::Eval, a);
        cache.put(Relation::Eval, a, a);
        cache.get(Relation::Eval, a);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn encode_resolution_through_cache() {
        let cache = RelationCache::new();
        let def = Tree::from_handles(vec![]);
        let thunk = def.handle().application().unwrap();
        let shallow = thunk.shallow().unwrap();
        let strict = thunk.strict().unwrap();
        let value = Blob::from_slice(&[9u8; 64]).handle();
        let forced = Blob::from_slice(&[10u8; 64]).handle();
        let resolved = |encode| resolution(&cache.table, encode).ok();

        assert_eq!(resolved(shallow), None);
        cache.put(Relation::Eval, thunk, value);
        assert_eq!(resolved(shallow), Some(value));
        // Strict also needs the Force relation.
        assert_eq!(resolved(strict), None);
        cache.put(Relation::Force, value, forced);
        assert_eq!(resolved(strict), Some(forced));
    }

    #[test]
    fn faces_of_one_table_share_its_relations() {
        let table = Arc::new(Store::new());
        let cache = RelationCache::of(Arc::clone(&table));
        let a = Blob::from_slice(&[1u8; 40]).handle();
        cache.put(Relation::Eval, a, a);
        assert_eq!(RelationCache::of(table).get(Relation::Eval, a), Some(a));
        assert_eq!(cache.clone().stats(), (1, 0));
        assert!(RelationCache::new().is_empty());
    }

    #[test]
    fn clear_resets() {
        let cache = RelationCache::new();
        let a = Blob::from_slice(&[1u8; 40]).handle();
        cache.put(Relation::Eval, a, a);
        cache.clear();
        assert!(cache.is_empty());
    }
}

#[cfg(test)]
mod footprint_tests {
    use super::*;
    use fix_core::data::{Blob, Tree};
    use fix_core::invocation::build;
    use fix_core::limits::ResourceLimits;

    fn setup() -> (Store, Blob, Blob) {
        let table = Store::new();
        let code = Blob::from_slice(&[0xC0; 64]);
        let data = Blob::from_slice(&[0xDA; 256]);
        (table, code, data)
    }

    fn limits_handle() -> Handle {
        ResourceLimits::default_limits().handle()
    }

    #[test]
    fn footprint_counts_accessible_objects_once() {
        let (table, code, data) = setup();
        table.put_blob(code.clone());
        table.put_blob(data.clone());
        let tree = Tree::from_handles(vec![
            limits_handle(),
            code.handle(),
            data.handle(),
            data.handle(), // Duplicate: must not double count.
        ]);
        table.put_tree(tree.clone());
        let thunk = tree.handle().application().unwrap();
        let fp = footprint(&table, thunk).unwrap();
        assert_eq!(fp.objects.len(), 3); // tree + code + data
        assert_eq!(
            fp.total_bytes,
            (tree.len() * 32) as u64 + code.len() as u64 + data.len() as u64
        );
    }

    #[test]
    fn footprint_excludes_thunk_definitions() {
        let (table, code, data) = setup();
        table.put_blob(code.clone());
        table.put_blob(data.clone());
        // A lazy branch: application thunk over some other tree.
        let branch_tree = Tree::from_handles(vec![limits_handle(), code.handle(), data.handle()]);
        table.put_tree(branch_tree.clone());
        let branch = branch_tree.handle().application().unwrap();

        let tree = Tree::from_handles(vec![limits_handle(), code.handle(), branch]);
        table.put_tree(tree.clone());
        let thunk = tree.handle().application().unwrap();
        let fp = footprint(&table, thunk).unwrap();
        // The branch's definition tree and `data` are NOT in the footprint.
        assert_eq!(fp.objects.len(), 2); // Just the application tree + code.
        assert!(fp.is_complete());
    }

    #[test]
    fn footprint_counts_refs_as_metadata_only() {
        let (table, code, data) = setup();
        table.put_blob(code.clone());
        table.put_blob(data.clone());
        let tree = Tree::from_handles(vec![
            limits_handle(),
            code.handle(),
            data.handle().as_ref_handle(),
        ]);
        table.put_tree(tree.clone());
        let thunk = tree.handle().application().unwrap();
        let fp = footprint(&table, thunk).unwrap();
        assert_eq!(fp.objects.len(), 2);
        assert_eq!(fp.refs.len(), 1);
        assert_eq!(fp.total_bytes, (tree.len() * 32) as u64 + code.len() as u64);
    }

    #[test]
    fn footprint_reports_unresolved_encodes() {
        let (table, code, data) = setup();
        table.put_blob(code.clone());
        table.put_blob(data.clone());
        let inner = Tree::from_handles(vec![limits_handle(), code.handle(), data.handle()]);
        table.put_tree(inner.clone());
        let enc = build::strict(inner.handle().application().unwrap()).unwrap();
        // The encode once, and twice: each lists it once.
        for entries in [vec![enc], vec![enc, enc]] {
            let mut handles = vec![limits_handle(), code.handle()];
            handles.extend(entries);
            let tree = Tree::from_handles(handles);
            table.put_tree(tree.clone());
            let thunk = tree.handle().application().unwrap();
            let fp = footprint(&table, thunk).unwrap();
            assert_eq!(fp.unresolved_encodes, vec![enc]);
            assert!(!fp.is_complete());
        }
    }

    #[test]
    fn footprint_folds_in_resolved_strict_encodes() {
        let (table, code, data) = setup();
        table.put_blob(code.clone());
        table.put_blob(data.clone());
        let inner = Tree::from_handles(vec![limits_handle(), code.handle()]);
        table.put_tree(inner.clone());
        let inner_thunk = inner.handle().application().unwrap();
        let enc = build::strict(inner_thunk).unwrap();
        let tree = Tree::from_handles(vec![limits_handle(), code.handle(), enc]);
        table.put_tree(tree.clone());
        let thunk = tree.handle().application().unwrap();
        // The encode resolves to `data`: evaluated, then forced.
        table.memoize(Relation::Eval, inner_thunk, data.handle());
        table.memoize(Relation::Force, data.handle(), data.handle());

        let fp = footprint(&table, thunk).unwrap();
        assert!(fp.is_complete());
        // The resolved result (a 256-byte blob) joined the footprint.
        assert!(fp.objects.contains(&data.handle()));
    }

    #[test]
    fn footprint_shallow_resolution_stays_metadata() {
        let (table, code, data) = setup();
        table.put_blob(code.clone());
        table.put_blob(data.clone());
        let inner = Tree::from_handles(vec![limits_handle(), code.handle()]);
        table.put_tree(inner.clone());
        let inner_thunk = inner.handle().application().unwrap();
        let enc = build::shallow(inner_thunk).unwrap();
        let tree = Tree::from_handles(vec![limits_handle(), code.handle(), enc]);
        table.put_tree(tree.clone());
        let thunk = tree.handle().application().unwrap();
        // The encode resolves to `data`: evaluated.
        table.memoize(Relation::Eval, inner_thunk, data.handle());

        let fp = footprint(&table, thunk).unwrap();
        assert!(fp.is_complete());
        assert!(!fp.objects.contains(&data.handle()));
        assert_eq!(fp.refs, vec![data.handle().as_ref_handle()]);
    }

    #[test]
    fn footprint_of_selection_needs_target_data_only() {
        let (table, _code, data) = setup();
        let child = Blob::from_slice(&[1u8; 512]);
        table.put_blob(data.clone());
        table.put_blob(child.clone());
        let target = Tree::from_handles(vec![child.handle(), data.handle()]);
        table.put_tree(target.clone());
        let (sel_tree, sel_thunk) = build::selection(target.handle().as_ref_handle(), 0).unwrap();
        table.put_tree(sel_tree);
        let fp = footprint(&table, sel_thunk).unwrap();
        // Needs: the selection definition tree and the target tree's own
        // entry list. NOT the children blobs.
        assert_eq!(fp.objects.len(), 2);
        assert!(!fp.objects.contains(&child.handle()));
    }

    /// A selection over a thunk waits on the thunk's evaluation, and
    /// once it is evaluated reads the value's own data.
    #[test]
    fn footprint_of_a_selection_over_a_thunk_waits_on_its_value() {
        let (table, code, data) = setup();
        table.put_blob(data.clone());
        let inner = Tree::from_handles(vec![limits_handle(), code.handle()]);
        let target = inner.handle().application().unwrap();
        let (sel_tree, sel_thunk) = build::selection(target, 0).unwrap();
        table.put_tree(sel_tree.clone());
        let fp = footprint(&table, sel_thunk).unwrap();
        assert_eq!(fp.unresolved_encodes, vec![target.shallow().unwrap()]);
        assert_eq!(fp.objects, vec![sel_tree.handle()]);
        // The target's shallow encode resolves to `data`: evaluated.
        table.memoize(Relation::Eval, target, data.handle());
        let fp = footprint(&table, sel_thunk).unwrap();
        assert!(fp.is_complete());
        assert_eq!(fp.objects, vec![sel_tree.handle(), data.handle()]);
    }

    #[test]
    fn missing_data_is_reported() {
        let (table, code, _) = setup();
        // `code` was never inserted.
        let tree = Tree::from_handles(vec![limits_handle(), code.handle()]);
        table.put_tree(tree.clone());
        let thunk = tree.handle().application().unwrap();
        let err = footprint(&table, thunk).unwrap_err();
        assert!(matches!(err, Error::NotFound(h) if h == code.handle()));
    }
}
