//! `fix-storage`: content-addressed runtime storage for Fix.
//!
//! One table backs every Fixpoint node (paper Fig. 6): [`Store`] maps
//! Handles to Blob/Tree data and holds the memoized evaluation
//! relations (Eval / Apply / Force) over those names, the mechanism
//! behind Fix's determinism-powered caching. Both are sharded by payload
//! key, so an object and the relations whose input shares its payload
//! sit under one lock, in one entry of one map. [`RelationCache`] is the relation side's face,
//! and one [`Tier`] hook connects the table to a backing tier, whose
//! [`Loc`]ation of each object it holds sits in the object's shard.
//!
//! The rules that read the table at launch live beside it: what an
//! Encode splices in ([`resolution`]), and the paper's minimum
//! repository (§3.3), the data an invocation may touch ([`footprint`]).
//! The runtime, every `Evaluator` and the cluster's job graphs share
//! them.
//!
//! [`plan_eviction`] implements the storage side of the paper's
//! computational garbage collection (§6): the memoized relations name
//! the Thunk that produced each object ([`recipes`]), so the bytes can
//! be deleted and recomputed on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
#[path = "../../../tests/support/gen.rs"]
mod gen;
mod hooks;
mod provenance;
mod relations;
mod store;

/// The payload key lives with the handle's byte layout; storage keys
/// every map by it.
pub use fix_core::handle::payload_key;
pub use hooks::Tier;
pub use provenance::{
    apply_eviction, plan_eviction, recipes, support_closure, EvictionPlan, Victim,
};
pub use relations::{footprint, resolution, Relation, RelationCache};
pub use store::{Applied, Loc, Store};
