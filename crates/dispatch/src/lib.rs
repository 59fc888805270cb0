//! `fix-dispatch`: the former home of the multi-node serving entry
//! point, kept as a shell of `fix_serve` re-exports so that dependents
//! which still name this crate keep resolving. The code and its docs
//! are `fix_serve::dispatch`.

#![forbid(unsafe_code)]

pub use fix_core::handle::trace_id;
pub use fix_serve::dispatch::{
    self as dispatcher, dispatch, DispatchConfig, DispatchOutcome, NodeExecStats, NodeStorage,
    SegmentExec,
};
pub use fix_serve::kernel::{FaultPlan, RestartKind};
pub use fix_serve::routing::{self, Decision, Router, RoutingPolicy};
