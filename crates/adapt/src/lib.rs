//! `fix-adapt`: the former home of the adaptive serving entry point,
//! kept as a shell of `fix_serve` re-exports so that dependents which
//! still name this crate keep resolving. The code and its docs are
//! `fix_serve::adapt`.

#![forbid(unsafe_code)]

pub use fix_serve::adapt::{self as engine, adaptive_serve, AdaptConfig, AdaptReport};
pub use fix_serve::closed_loop::{self, ClosedLoopSpec};
pub use fix_serve::controller::{self, AdmissionPolicy, Autoscaler, PoolShape, ScalerConfig};
pub use fix_serve::snf::{self, SnfPipeline, SnfSpec};
pub use fix_serve::Tenant as AdaptTenant;
