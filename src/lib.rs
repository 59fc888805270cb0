//! # Fix — externalizing network I/O in serverless computing
//!
//! A from-scratch Rust reproduction of the EuroSys '26 paper. Users,
//! programs, and the platform share one representation of a computation:
//! a deterministic procedure applied to content-addressed data (or the
//! outputs of other computations). Data movement is performed
//! exclusively by the platform, which uses its visibility into dataflow
//! to place and schedule work.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — the Fix ABI: 256-bit Handles, Blobs/Trees,
//!   Thunks/Encodes, resource limits, footprint analysis;
//! * [`hash`] — BLAKE3, implemented from scratch;
//! * [`storage`] — the content-addressed store and the
//!   memoized relation cache;
//! * [`vm`] — the deterministic guest bytecode VM (the paper's
//!   Wasm-codelet substitute) and its assembler;
//! * [`runtime`] — Fixpoint: the single-node runtime;
//! * [`netsim`] / [`cluster`] /
//!   [`baselines`] — the simulated 10-node cluster, the
//!   distributed Fix engine, and the comparator systems;
//! * [`flatware`] — the Unix-like filesystem layer;
//! * [`workloads`] — every workload of the paper's
//!   evaluation;
//! * [`serve`] — the multi-tenant serving layer: open-loop load
//!   generation, per-tenant SLO classes (priority tiers, deadlines)
//!   over two-level dispatch, a batched driver pool, and tail-latency
//!   telemetry over any One-Fix-API backend — and the one serving
//!   kernel (`serve::kernel`) that [`adapt`] and [`dispatch`] configure;
//! * [`durable`] — the persistence tier: one append-only
//!   content-addressed log, compacted when it holds dead bytes, lazy
//!   faulting restart, spill-to-disk, and deterministic kill points for
//!   crash-recovery testing;
//! * [`dispatch`] — the multi-node serving tier: rendezvous-hash
//!   (memoization-affinity) routing with load-based spill across N
//!   independent node backends, per-node durable state, and
//!   first-class node failure with warm (log-reopen) recovery;
//! * [`obs`] — the observability layer: a structured event recorder
//!   (one relaxed atomic load when disabled), a unified metrics
//!   registry, deterministic virtual-clock trace summaries, and a
//!   Perfetto-loadable Chrome trace export;
//! * [`adapt`] — the adaptive control plane over the serving layer:
//!   attainment-driven admission (provable-expiry pricing against the
//!   calibrated service model), a deterministic autoscaling driver
//!   pool, closed-loop client populations, and SNF-style streaming
//!   tenants whose packet batches chain on strict-encoded previous
//!   state.
//!
//! # Examples
//!
//! ```
//! use fix::prelude::*;
//! use std::sync::Arc;
//!
//! let rt = Runtime::builder().build();
//! let double = rt.register_native("double", Arc::new(|ctx| {
//!     let x = ctx.arg_blob(0)?.as_u64().unwrap();
//!     ctx.host.create_blob((2 * x).to_le_bytes().to_vec())
//! }));
//! let thunk = rt
//!     .apply(ResourceLimits::default_limits(), double,
//!            &[rt.put_blob(Blob::from_u64(21))])
//!     .unwrap();
//! assert_eq!(rt.get_u64(rt.eval(thunk).unwrap()).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fix_adapt as adapt;
pub use fix_baselines as baselines;
pub use fix_cluster as cluster;
pub use fix_core as core;
pub use fix_dispatch as dispatch;
pub use fix_durable as durable;
pub use fix_hash as hash;
pub use fix_netsim as netsim;
pub use fix_obs as obs;
pub use fix_serve as serve;
pub use fix_storage as storage;
pub use fix_vm as vm;
pub use fix_workloads as workloads;
pub use fixpoint as runtime;
pub use flatware;

/// The most common imports for writing Fix programs.
///
/// Includes the One Fix API traits ([`Evaluator`](fix_core::api::Evaluator),
/// [`InvocationApi`](fix_core::api::InvocationApi),
/// [`ObjectApi`](fix_core::api::ObjectApi), and the submission-first
/// [`SubmitApi`](fix_core::api::SubmitApi) with its
/// [`Ticket`](fix_core::api::Ticket)/[`BatchTicket`](fix_core::api::BatchTicket)
/// machinery) so generic workloads and the backends that run them
/// (`Runtime`, `ClusterClient` — both submit natively, no adapter) are
/// one import away.
pub mod prelude {
    pub use fix_cluster::ClusterClient;
    pub use fix_core::api::{
        BatchTicket, Evaluator, HostApi, InvocationApi, Mode, NativeCtx, NativeFn, ObjectApi,
        Priority, SubmitApi, SubmitOptions, Ticket,
    };
    pub use fix_core::data::{Blob, Node, Tree};
    pub use fix_core::handle::{DataType, EncodeStyle, Handle, Kind, ThunkKind};
    pub use fix_core::invocation::{build, Invocation, Selection};
    pub use fix_core::limits::ResourceLimits;
    pub use fix_core::{Error, Result};
    pub use fixpoint::Runtime;
}
