//! `fix-dispatch`: a multi-node serving tier with memoization-affinity
//! routing and warm node recovery.
//!
//! The ROADMAP's target topology is a dispatcher in front of N
//! independent node backends — each its own `fixpoint::Runtime`,
//! optionally rooted in its own durable directory — serving the
//! "heavy traffic from millions of users" regime. The paper's
//! content-addressed dataflow makes the interesting part *free*: a
//! request's root handle is computable at the front-end, before any
//! node is involved, so the dispatcher knows exactly which node has
//! that computation memoized. Cache-aware placement is information,
//! not a heuristic.
//!
//! Three pieces:
//!
//! * [`routing`] — rendezvous (HRW) hashing on the root handle with
//!   load-based spill to the least-loaded node, pluggable against the
//!   [`RoutingPolicy::RoundRobin`] and [`RoutingPolicy::Random`]
//!   baselines so the memoization hit-rate win is measurable under the
//!   same seed;
//! * [`dispatcher`] — the multi-node configuration of the serving
//!   kernel (`fix_serve::kernel`): its deterministic virtual-clock
//!   half routes, queues, and serves every request per node, then each
//!   node replays exactly its planned batches on its own backend;
//! * node failure as a first-class event — [`FaultPlan`] kills a node
//!   at a deterministic instant (its backlog re-routes to the
//!   survivors), then restarts it [`RestartKind::Warm`] (reopen the
//!   durable log; memoization survives) or [`RestartKind::Cold`]
//!   (empty replacement; warmth must be re-earned).
//!
//! The per-node table ([`fix_serve::NodeReport`]) rides inside the
//! ordinary [`fix_serve::ServeReport`], and — like every serve table —
//! is a pure function of the virtual clock: bit-identical across runs,
//! worker counts, and the failure boundary.
//!
//! # Example
//!
//! ```
//! use fix_dispatch::{dispatch, DispatchConfig, NodeStorage, RoutingPolicy};
//! use fix_serve::{ArrivalProcess, RequestKind, ServeConfig, TenantSpec};
//!
//! let cfg = DispatchConfig {
//!     base: ServeConfig {
//!         seed: 7,
//!         duration_us: 30_000,
//!         drivers: 1, // per node
//!         batch: 8,
//!         queue_capacity: 64,
//!         batch_overhead_us: 5,
//!         inflight: 2,
//!         tenants: vec![TenantSpec::uniform_mix(
//!             "t0",
//!             1,
//!             ArrivalProcess::Uniform { period_us: 400 },
//!             RequestKind::Fib { max_n: 8 },
//!         )],
//!     },
//!     nodes: 3,
//!     policy: RoutingPolicy::Affinity,
//!     spill_margin: 8,
//!     storage: NodeStorage::Memory,
//!     fault: None,
//! };
//! let outcome = dispatch(&cfg).unwrap();
//! outcome.assert_accounting_closure();
//! assert_eq!(outcome.report.nodes.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatcher;

pub use dispatcher::{
    dispatch, DispatchConfig, DispatchOutcome, FaultPlan, NodeExecStats, NodeStorage, RestartKind,
    SegmentExec,
};
// Routing lives beside the kernel that consults it; this crate is where
// it is configured from.
pub use fix_serve::routing::{self, handle_key, hrw_score, Decision, Router, RoutingPolicy};
