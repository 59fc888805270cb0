//! The backing-tier hook: how a durability tier observes and backs a
//! node's table.
//!
//! `fix-durable` wraps a [`Store`](crate::Store) without a dependency
//! cycle by attaching one [`Tier`] to it ([`Store::attach`](crate::Store::attach)).
//! Where the tier holds each object is not the tier's to remember: it
//! files a [`Loc`] per object in the table itself
//! ([`Store::locate`](crate::Store::locate)), beside the object's bytes
//! and under the same shard lock. The table calls the tier on three
//! occasions:
//!
//! * [`fault`](Tier::fault) — on a `get` miss of a located object, with
//!   the location read in the same guard as the miss, so objects that
//!   live only on disk (lazy restart, or evicted since) are faulted in on
//!   first touch instead of reported missing;
//! * [`inserted`](Tier::inserted) — when `put` or `import` makes a key
//!   resident that has no location (the first time, or again once the
//!   key was dropped), with the handle the table already computed for
//!   it: the feed for an append-only log. A put of a located key, such
//!   as a re-put after an eviction, is not reported;
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
use crate::store::Loc;
use fix_core::data::Node;
use fix_core::handle::Handle;

/// A backing tier: produces located objects on demand and observes what
/// the table learns.
pub trait Tier: Send + Sync {
    /// Returns the node behind `handle`, which the table has located at
    /// `loc`, or `None` if it cannot be read. Called only after an
    /// in-memory miss. The location may have moved since the table read
    /// it (a compaction); the tier then reads
    /// [`Store::location`](crate::Store::location) afresh.
    ///
    /// The table keeps what this returns under `handle`'s payload key
    /// without hashing it, so the tier must have checked that the bytes
    /// it read are the object asked for — not merely a valid object.
    fn fault(&self, handle: Handle, loc: Loc) -> Option<Node>;

    /// Called when `put` or `import` makes a payload key resident that
    /// has no location (never for a fault-in, never for a located key).
    /// `handle` is `node`'s canonical handle, already computed by the
    /// caller: implementations use it and do not hash `node`.
    fn inserted(&self, handle: Handle, node: &Node);

    /// Called the first time `relation(input) → output` is recorded.
    fn recorded(&self, relation: Relation, input: Handle, output: Handle);
}
