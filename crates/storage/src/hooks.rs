//! Persistence hooks: how a durability tier observes and backs a store.
//!
//! `fix-durable` wraps [`Store`](crate::Store) and
//! [`RelationCache`](crate::RelationCache) without a dependency cycle by
//! registering three callbacks here:
//!
//! * [`FaultSource`] — consulted on a `get` miss, so objects that live
//!   only on disk (lazy restart, or evicted since) are faulted in on first
//!   touch instead of reported missing;
//! * [`StoreSink`] — notified of every *fresh* object insert, with the
//!   handle the store already computed for it, the feed for an
//!   append-only log;
//! * [`RelationSink`] — notified of every fresh memoized relation, so
//!   evaluation results survive a restart.
//!
//! All hooks are invoked outside the shard locks, so implementations may
//! block and may call back into the store. A faulted object is by
//! definition already persisted: the store makes it resident under the
//! key it asked for and does *not* report it to the sink. An object is
//! named (hashed) once per crossing — by `put` on the way in, by the
//! tier's verifying decode on the way back — and that handle travels
//! with it; neither side derives it again.

use crate::relations::Relation;
use fix_core::data::Node;
use fix_core::error::Error;
use fix_core::handle::Handle;

/// The error a second install of a hook returns: each slot takes one.
pub(crate) fn already_hooked(message: &str) -> Error {
    Error::Backend {
        backend: "storage",
        message: message.into(),
    }
}

/// A backing tier that can produce non-resident objects on demand.
pub trait FaultSource: Send + Sync {
    /// Returns the node behind `handle` if the tier holds it, or `None`
    /// if it is genuinely unknown. Called only after an in-memory miss.
    ///
    /// The store keeps what this returns under `handle`'s payload key
    /// without hashing it, so the tier must have checked that the bytes
    /// it read are the object asked for — not merely a valid object.
    fn fault(&self, handle: Handle) -> Option<Node>;

    /// True if the tier holds `handle` (no I/O; an index lookup).
    fn knows(&self, handle: Handle) -> bool;
}

/// An observer of fresh object inserts.
pub trait StoreSink: Send + Sync {
    /// Called the first time a payload key enters the store through
    /// `put` or `import` (again after an eviction; never for a fault-in).
    /// `handle` is `node`'s canonical handle, already computed by the
    /// caller: implementations use it and do not hash `node`.
    fn inserted(&self, handle: Handle, node: &Node);
}

/// An observer of fresh memoized relations.
pub trait RelationSink: Send + Sync {
    /// Called the first time `relation(input) → output` is recorded.
    fn recorded(&self, relation: Relation, input: Handle, output: Handle);
}
