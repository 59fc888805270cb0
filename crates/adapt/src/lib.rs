//! `fix-adapt`: the adaptive control plane for serving under hostile
//! traffic.
//!
//! The plain serving layer (`fix-serve`) is open loop all the way down:
//! a fixed driver pool, capacity-only admission, and tenants that keep
//! offering traffic no matter what comes back. That is the right
//! harness for measuring a static configuration, and exactly the wrong
//! one for surviving a flash crowd. This crate closes the loop — on the
//! same virtual clock, with the same bit-identical-tables discipline:
//!
//! * **Attainment-driven admission** ([`AdmissionPolicy`]). Every
//!   arrival with a deadline is priced at the door against the
//!   calibrated service model and the tenant's queued backlog. A
//!   request that provably cannot dispatch before its deadline is
//!   *rejected* — accounted in the report's `rejectd` column, separate
//!   from capacity sheds — instead of queueing as dead work that
//!   expires after eating queue space.
//! * **An autoscaling driver pool** ([`Autoscaler`]). A deterministic
//!   controller ticks on the virtual clock and grows or shrinks the
//!   active driver count between configured bounds on per-driver
//!   backlog thresholds, with consecutive-tick hysteresis. Every resize
//!   lands in the report's scaling timeline
//!   ([`ScaleEvent`](fix_serve::ScaleEvent)) and prints with the table.
//! * **Closed-loop clients** ([`ClosedLoopSpec`]). Tenants whose next
//!   arrival depends on the previous completion: a fixed client
//!   population with exponential think times, merged deterministically
//!   with the open-loop timeline. Under overload a closed-loop tenant
//!   self-throttles — the feedback open-loop generators cannot model.
//! * **SNF-style streaming tenants** ([`SnfSpec`]). Serverless network
//!   functions as a pipeline of flow-state shards: each packet batch is
//!   a thunk *chained on the previous state handle* (a strict-encoded
//!   argument forces the predecessor before the fold runs). Missed
//!   batches make the successor dearer — the long memoized dependency
//!   chain that makes load shedding a correctness question, not just a
//!   latency one.
//!
//! [`adaptive_serve`] is the configuration of the serving kernel
//! (`fix_serve::kernel`) that switches all of it on; the controllers
//! and tenant sources themselves live beside the kernel in `fix-serve`
//! and are re-exported here. Everything printed is bit-identical across
//! runs and backends for one seed; wall-clock readings
//! ([`ServeReport::execution_wall`](fix_serve::ServeReport::execution_wall),
//! the scheduler's park/steal gauges in `Runtime::metrics()`) never
//! enter the tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;

pub use engine::{adaptive_serve, AdaptConfig, AdaptReport, AdaptTenant};
// The controllers and tenant sources live beside the kernel that runs
// them; this crate is where they are configured from.
pub use fix_serve::closed_loop::{self, ClosedLoopSpec};
pub use fix_serve::controller::{self, AdmissionPolicy, Autoscaler, PoolShape, ScalerConfig};
pub use fix_serve::snf::{self, SnfPipeline, SnfSpec};
