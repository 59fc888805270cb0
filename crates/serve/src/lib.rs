//! `fix-serve`: a multi-tenant serving layer over the One Fix API.
//!
//! The ROADMAP's north star is a platform that "serves heavy traffic
//! from millions of users", and the serving-oriented related work
//! (Nexus, SNF) evaluates exactly that regime: open-loop arrivals,
//! per-tenant queues, tail latency under load. This crate closes that
//! gap. It is deliberately *not* a new execution engine — it is a layer
//! over the One Fix API's submission surface
//! ([`fix_core::api::SubmitApi`]), which every backend implements the
//! same way — by submitting to a Fix node's scheduler — so the same
//! serving run drives `fixpoint::Runtime` or
//! `fix_cluster::ClusterClient` — under Fixpoint's profile or a
//! comparator's from `fix_baselines::profiles` — each passed in bare
//! and unchanged.
//!
//! The pieces:
//!
//! * [`loadgen`] — deterministic open-loop arrival processes (seeded
//!   Poisson, uniform, bursts, traces) merged into one global timeline;
//! * [`tenant`] — per-tenant request mixes drawn from the repo's real
//!   workloads (native `add`, FixVM `fib`, `count-string` shards, the
//!   SeBS `dynamic-html` port), minted as ordinary Fix thunks;
//! * [`queue`] — admission control and SLO dispatch: bounded per-tenant
//!   FIFO queues with two-level scheduling — strict [`Priority`] tiers,
//!   earliest-deadline-first within a tier, weighted-fair (deficit
//!   round robin) among equals — plus per-tenant drop/expiry
//!   accounting;
//! * [`telemetry`] — mergeable fixed-bucket log-scale latency
//!   histograms with deterministic p50/p90/p99/p999 extraction;
//! * [`kernel`] — the one serving engine: a deterministic virtual-time
//!   event loop that plans every batch, then a real driver-thread pool
//!   that executes exactly those batches through the submission-first
//!   [`SubmitApi`]. Its plug points live beside it — [`controller`]
//!   (admission pricing, the autoscaler), [`closed_loop`] and [`snf`]
//!   (feedback-driven arrival sources), [`routing`] (placement across
//!   nodes) — and are configured from `fix-adapt` and `fix-dispatch`.
//!
//! [`serve`] is the kernel's plain configuration: open-loop tenants on
//! one backend, a fixed driver pool, capacity-only admission. See
//! [`kernel`] for why the clock/execution split makes the latency
//! tables bit-identical across runs while every result still comes
//! from a real evaluation. The kernel is public, so it checks the
//! [`kernel::Config`] it is handed ([`kernel::Config::validate`]): a
//! degenerate configuration is an `Error::Backend`, never a hang or a
//! panic, whichever entry point built it.
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

pub mod closed_loop;
pub mod controller;
pub mod kernel;
pub mod loadgen;
pub mod queue;
pub mod recovery;
pub mod routing;
pub mod server;
pub mod snf;
pub mod telemetry;
pub mod tenant;

pub use loadgen::{Arrival, ArrivalProcess, Micros};
pub use queue::{Dispatch, QueuedRequest, TenantClass, TenantQueues};
pub use recovery::{kill_and_recover, serve_durable, RecoveryOutcome};
pub use server::{
    serve, DriverReport, NodeReport, ScaleEvent, ServeConfig, ServeReport, TenantReport,
};
pub use telemetry::LatencyHistogram;
pub use tenant::{Priority, RequestFactory, RequestKind, SloClass, Tenant, TenantSpec};
