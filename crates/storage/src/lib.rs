//! `fix-storage`: content-addressed runtime storage for Fix.
//!
//! Two structures back every Fixpoint node (paper Fig. 6):
//!
//! * [`Store`] — the object store, mapping Handles to Blob/Tree data;
//! * [`RelationCache`] — memoized evaluation relations (Eval / Apply /
//!   Force), the mechanism behind Fix's determinism-powered caching.
//!
//! [`plan_eviction`] implements the storage side of the paper's
//! computational garbage collection (§6): the relation cache names the
//! Thunk that produced each object ([`recipes`]), so the bytes can be
//! deleted and recomputed on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hooks;
mod provenance;
mod relations;
mod store;

/// The payload key lives with the handle's byte layout; storage keys
/// every map by it.
pub use fix_core::handle::payload_key;
pub use hooks::{FaultSource, RelationSink, StoreSink};
pub use provenance::{
    apply_eviction, plan_eviction, recipes, support_closure, EvictionPlan, Victim,
};
pub use relations::{Relation, RelationCache};
pub use store::Store;
