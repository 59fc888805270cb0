//! `fix-storage`: content-addressed runtime storage for Fix.
//!
//! One table backs every Fixpoint node (paper Fig. 6): [`Store`] maps
//! Handles to Blob/Tree data and holds the memoized evaluation
//! relations (Eval / Apply / Force) over those names, the mechanism
//! behind Fix's determinism-powered caching. Both are sharded by payload
//! key, so an object and the relations whose input shares its payload
//! sit under one lock. [`RelationCache`] is the relation side's face,
//! and one [`Tier`] hook connects the table to a backing tier, whose
//! [`Loc`]ation of each object it holds sits in the object's shard.
//!
//! [`plan_eviction`] implements the storage side of the paper's
//! computational garbage collection (§6): the memoized relations name
//! the Thunk that produced each object ([`recipes`]), so the bytes can
//! be deleted and recomputed on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
pub use relations::{Relation, RelationCache};
pub use store::{Loc, Store};
