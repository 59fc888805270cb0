//! The backing-tier hook: how a durability tier observes and backs a
//! node's table.
//!
//! `fix-durable` wraps a [`Store`](crate::Store) without a dependency
//! cycle by attaching one [`Tier`] to it ([`Store::attach`](crate::Store::attach)).
//! The table calls it on four occasions:
//!
//! * [`fault`](Tier::fault) — on a `get` miss, so objects that live only
//!   on disk (lazy restart, or evicted since) are faulted in on first
//!   touch instead of reported missing; [`knows`](Tier::knows) asks the
//!   same question without the I/O;
//! * [`inserted`](Tier::inserted) — on every *fresh* object insert, with
//!   the handle the table already computed for it, the feed for an
//!   append-only log;
//! * [`recorded`](Tier::recorded) — on every fresh memoized relation, so
//!   evaluation results survive a restart.
//!
//! The tier is called outside the shard locks, so it may block and may
//! call back into the table. A faulted object is by definition already
//! persisted: the table makes it resident under the key it asked for and
//! does *not* report it as inserted. An object is named (hashed) once
//! per crossing — by `put` on the way in, by the tier's verifying decode
//! on the way back — and that handle travels with it; neither side
//! derives it again.

use crate::relations::Relation;
use fix_core::data::Node;
use fix_core::handle::Handle;

/// A backing tier: produces non-resident objects on demand and observes
/// what the table learns.
pub trait Tier: Send + Sync {
    /// Returns the node behind `handle` if the tier holds it, or `None`
    /// if it is genuinely unknown. Called only after an in-memory miss.
    ///
    /// The table keeps what this returns under `handle`'s payload key
    /// without hashing it, so the tier must have checked that the bytes
    /// it read are the object asked for — not merely a valid object.
    fn fault(&self, handle: Handle) -> Option<Node>;

    /// True if the tier holds `handle` (no I/O; an index lookup).
    fn knows(&self, handle: Handle) -> bool;

    /// Called the first time a payload key enters the table through
    /// `put` or `import` (again after an eviction; never for a fault-in).
    /// `handle` is `node`'s canonical handle, already computed by the
    /// caller: implementations use it and do not hash `node`.
    fn inserted(&self, handle: Handle, node: &Node);

    /// Called the first time `relation(input) → output` is recorded.
    fn recorded(&self, relation: Relation, input: Handle, output: Handle);
}
