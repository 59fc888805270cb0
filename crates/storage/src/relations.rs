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
//! They live in the node's one table, [`Store`], beside the objects
//! whose payload key their input shares. [`RelationCache`] is their
//! face: a handle on the table that spells each relation operation once.

use crate::store::Store;
use fix_core::handle::{EncodeStyle, Handle, Kind};
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
        self.table.scan_memos(|memos| len += memos.len());
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
        self.table.scan_memos(|memos| {
            out.extend(
                memos
                    .iter()
                    .map(|(&(r, input), &output)| (r, input, output)),
            )
        });
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

impl fix_core::semantics::EncodeResolver for RelationCache {
    fn resolved(&self, encode: Handle) -> Option<Handle> {
        resolution(&self.table, encode).ok()
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

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::{Blob, Tree};
    use fix_core::semantics::EncodeResolver;

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

        assert_eq!(cache.resolved(shallow), None);
        cache.put(Relation::Eval, thunk, value);
        assert_eq!(cache.resolved(shallow), Some(value));
        // Strict also needs the Force relation.
        assert_eq!(cache.resolved(strict), None);
        cache.put(Relation::Force, value, forced);
        assert_eq!(cache.resolved(strict), Some(forced));
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
