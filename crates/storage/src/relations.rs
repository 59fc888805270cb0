//! The relation cache: memoized results of Fix evaluation.
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

use crate::hooks::{already_hooked, RelationSink};
use fix_core::error::Result;
use fix_core::handle::{Handle, HandleBuildHasher, HandleMap};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

const SHARDS: usize = 32;

/// A concurrent memoization table for evaluation relations.
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
pub struct RelationCache {
    shards: Vec<Shard>,
    hasher: HandleBuildHasher,
    // Persistence hook: notified of fresh relations (see crate::hooks).
    sink: OnceLock<Arc<dyn RelationSink>>,
}

/// One lock shard and its lookup counters. The counters sit beside the
/// lock word, on the cache line a `get` has just taken for the read
/// lock, so counting a lookup touches no line shared across shards.
#[repr(C, align(64))]
#[derive(Default)]
struct Shard {
    hits: AtomicU64,
    misses: AtomicU64,
    map: RwLock<HandleMap<(Relation, Handle), Handle>>,
}

impl Default for RelationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl RelationCache {
    /// Creates an empty cache.
    pub fn new() -> RelationCache {
        RelationCache {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            hasher: HandleBuildHasher::default(),
            sink: OnceLock::new(),
        }
    }

    /// Installs the fresh-relation observer. At most one per cache; a
    /// second install is an error.
    pub fn set_sink(&self, sink: Arc<dyn RelationSink>) -> Result<()> {
        self.sink
            .set(sink)
            .map_err(|_| already_hooked("relation cache already has a sink"))
    }

    /// The shard owning relations over `input`. Picked from the keyed
    /// fold of the whole handle, never from one of its bytes: a literal's
    /// bytes are content (byte 1 of every `u64` below 256 is zero), and
    /// a shard chosen by content is one lock for all small integers.
    fn shard(&self, input: Handle) -> &Shard {
        &self.shards[self.hasher.shard_of(&input, SHARDS)]
    }

    /// Looks up a memoized result.
    pub fn get(&self, relation: Relation, input: Handle) -> Option<Handle> {
        let shard = self.shard(input);
        let found = shard.map.read().get(&(relation, input)).copied();
        let counter = if found.is_some() {
            &shard.hits
        } else {
            &shard.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Records a result. Recording the same relation twice is harmless;
    /// by determinism the value must be identical (checked in debug).
    pub fn put(&self, relation: Relation, input: Handle, output: Handle) {
        let prev = self
            .shard(input)
            .map
            .write()
            .insert((relation, input), output);
        debug_assert!(
            prev.is_none() || prev == Some(output),
            "nondeterministic relation: {relation:?}({input}) was {prev:?}, now {output}"
        );
        if prev.is_none() {
            if let Some(sink) = self.sink.get() {
                sink.recorded(relation, input, output);
            }
        }
    }

    /// Number of recorded relations.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// True if no relations are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) counters, summed over the shards — used by the
    /// memoization ablation bench.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(hits, misses), s| {
            (
                hits + s.hits.load(Ordering::Relaxed),
                misses + s.misses.load(Ordering::Relaxed),
            )
        })
    }

    /// Forgets everything (used by benchmarks to measure cold paths).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().clear();
        }
    }

    /// A point-in-time copy of every recorded relation, in shard order.
    ///
    /// The durable tier snapshots the cache through this; relations
    /// recorded concurrently are not lost — they reach the snapshot's
    /// successor log through the sink instead. Computational GC reads
    /// its recipes through it too ([`recipes`](crate::recipes)).
    pub fn entries(&self) -> Vec<(Relation, Handle, Handle)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for (&(relation, input), &output) in shard.map.read().iter() {
                out.push((relation, input, output));
            }
        }
        out
    }

    /// Forgets one memoized relation, returning the old result.
    ///
    /// Used by recompute-on-demand (`fixpoint::Runtime::materialize`):
    /// re-running a procedure to re-create evicted data requires the
    /// memoized `Apply`/`Eval` entries for its recipe to be dropped
    /// first, else evaluation short-circuits to the (dataless) handle.
    pub fn remove(&self, relation: Relation, input: Handle) -> Option<Handle> {
        self.shard(input).map.write().remove(&(relation, input))
    }
}

impl fix_core::semantics::EncodeResolver for RelationCache {
    fn resolved(&self, encode: Handle) -> Option<Handle> {
        // An encode is resolved when its thunk has a memoized evaluation
        // (both styles evaluate the thunk to a non-Thunk value first).
        let thunk = encode.encoded_thunk().ok()?;
        let value = self.get(Relation::Eval, thunk)?;
        match encode.kind() {
            fix_core::handle::Kind::Encode(fix_core::handle::EncodeStyle::Strict, _) => {
                // Strict encodes additionally require the deep forcing.
                self.get(Relation::Force, value)
            }
            _ => Some(value),
        }
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
    fn small_integer_literals_spread_over_shards() {
        let cache = RelationCache::new();
        for i in 0..256u64 {
            let h = Blob::from_u64(i).handle();
            cache.put(Relation::Force, h, h);
        }
        let used = cache
            .shards
            .iter()
            .filter(|s| !s.map.read().is_empty())
            .count();
        assert!(used > SHARDS / 2, "{used} of {SHARDS} shards used");
    }

    #[test]
    fn a_second_sink_is_an_error() {
        struct Nothing;
        impl RelationSink for Nothing {
            fn recorded(&self, _: Relation, _: Handle, _: Handle) {}
        }
        let cache = RelationCache::new();
        assert!(cache.set_sink(Arc::new(Nothing)).is_ok());
        assert!(cache.set_sink(Arc::new(Nothing)).is_err());
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
