//! `fix-serve`: the serving layer over the One Fix API — one serving
//! kernel and its three entry points.
//!
//! The ROADMAP's north star is a platform that "serves heavy traffic
//! from millions of users", and the serving-oriented related work
//! (Nexus, SNF) evaluates exactly that regime: open-loop arrivals,
//! per-tenant queues, tail latency under load. This crate is
//! deliberately *not* a new execution engine — it is a layer over the
//! One Fix API's submission surface ([`fix_core::api::SubmitApi`]),
//! which every backend implements the same way — by submitting to a Fix
//! node's scheduler — so the same serving run drives `fixpoint::Runtime`
//! or `fix_cluster::ClusterClient` — under Fixpoint's profile or a
//! comparator's from `fix_baselines::profiles` — each passed in bare
//! and unchanged.
//!
//! [`kernel`] is the one serving engine: a deterministic virtual-time
//! event loop that plans every batch, then a real driver-thread pool
//! that executes exactly those batches through the submission-first
//! [`SubmitApi`]. Each entry point translates its configuration into a
//! [`kernel::Config`] and calls in:
//!
//! * [`serve`] — open-loop tenants on one backend, a fixed driver pool,
//!   capacity-only admission;
//! * [`adaptive_serve`] ([`adapt`]) — the control plane closed over one
//!   node, for hostile traffic. An [`AdmissionPolicy`] prices every
//!   deadline arrival at the door and *rejects* one that provably cannot
//!   dispatch in time (the `rejectd` column, apart from capacity sheds);
//!   an autoscaler ([`ScalerConfig`]) ticks on the virtual clock and
//!   resizes the driver pool with hysteresis, each resize a
//!   [`ScaleEvent`] in the table; closed-loop clients
//!   ([`ClosedLoopSpec`]) think, then re-arrive after their last
//!   completion, so they self-throttle under overload; and SNF streaming
//!   tenants ([`SnfSpec`]) chain each packet batch on the previous
//!   flow-state handle, so a shed batch makes its successor dearer;
//! * [`dispatch`](fn@dispatch) ([`dispatch`](mod@dispatch)) — N node
//!   backends behind one routing front-end. A request's root handle is
//!   computable before any node is involved, so rendezvous hashing on it
//!   ([`routing`], with load-based spill, against the round-robin and
//!   random baselines) sends a repeat to the node that has it memoized:
//!   cache-aware placement is information, not a heuristic. Each node
//!   executes its planned batches on its own backend, in memory or in
//!   its own durable directory ([`NodeStorage`]); a [`FaultPlan`] kills
//!   a node at a deterministic instant, re-routes its backlog to the
//!   survivors, and restarts it warm (its log reopened) or cold. A
//!   durable serving node is a `dispatch` node: a crash is recovered by
//!   a one-node [`NodeStorage::Durable`] pass over the torn log.
//!
//! Beside them: [`loadgen`] (seeded Poisson, uniform, burst, flash-crowd
//! and trace arrivals merged into one timeline), [`tenant`] (request
//! mixes drawn from the repo's real workloads — native `add`, FixVM
//! `fib`, `count-string` shards, the SeBS `dynamic-html` port — minted
//! as ordinary Fix thunks), [`queue`] (bounded per-tenant queues:
//! strict [`Priority`] tiers, earliest-deadline-first within a tier,
//! deficit round robin among equals). Latencies are recorded in
//! [`fix_obs::LogHistogram`]s (mergeable log-scale histograms).
//!
//! Every table is a pure function of the seed and the configuration:
//! bit-identical across runs, backends, worker counts and the failure
//! boundary, while every result still comes from a real evaluation (see
//! [`kernel`]). Wall-clock readings ([`ServeReport::execution_wall`],
//! the scheduler's gauges in `Runtime::metrics()`) never enter the
//! tables. The kernel is public, so it checks the [`kernel::Config`] it
//! is handed ([`kernel::Config::validate`]): a degenerate configuration
//! is an `Error::Backend`, never a hang or a panic, whichever entry
//! point built it.
//!
//! [`SubmitApi`]: fix_core::api::SubmitApi
//!
//! # Example
//!
//! ```
//! use fix_serve::{serve, ArrivalProcess, RequestKind, ServeConfig, TenantSpec};
//!
//! let cfg = ServeConfig {
//!     seed: 42,
//!     duration_us: 40_000,
//!     drivers: 2,
//!     batch: 8,
//!     queue_capacity: 32,
//!     batch_overhead_us: 5,
//!     inflight: 2,
//!     tenants: vec![
//!         TenantSpec::uniform_mix(
//!             "interactive",
//!             3,
//!             ArrivalProcess::Poisson { rate_rps: 2000.0 },
//!             RequestKind::Add,
//!         ),
//!         TenantSpec::uniform_mix(
//!             "batchy",
//!             1,
//!             ArrivalProcess::Bursts { period_us: 10_000, burst: 16 },
//!             RequestKind::Fib { max_n: 8 },
//!         ),
//!     ],
//! };
//! // The same run works against a ClusterClient under any profile.
//! let rt = fixpoint::Runtime::builder().build();
//! let report = serve(&rt, &cfg).unwrap();
//! assert_eq!(report.completed + report.total_dropped(),
//!            report.tenants.iter().map(|t| t.offered).sum::<u64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod closed_loop;
pub mod controller;
pub mod dispatch;
pub mod kernel;
pub mod loadgen;
pub mod queue;
pub mod routing;
pub mod server;
pub mod snf;
pub mod tenant;

pub use adapt::{adaptive_serve, AdaptConfig, AdaptReport};
pub use closed_loop::ClosedLoopSpec;
pub use controller::{AdmissionPolicy, ScalerConfig};
pub use dispatch::{dispatch, DispatchConfig, DispatchOutcome, NodeStorage};
pub use kernel::{FaultPlan, RestartKind};
pub use loadgen::{Arrival, ArrivalProcess, Micros};
pub use queue::{Dispatch, QueuedRequest, TenantClass, TenantQueues};
pub use routing::RoutingPolicy;
pub use server::{
    serve, DriverReport, NodeReport, ScaleEvent, ServeConfig, ServeReport, TenantReport,
};
pub use snf::SnfSpec;
pub use tenant::{Priority, RequestFactory, RequestKind, SloClass, Tenant, TenantSpec};
