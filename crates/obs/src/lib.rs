//! # fix-obs — deterministic tracing and unified metrics
//!
//! The observability layer of the Fix stack: one structured event
//! recorder and one metrics registry shared by the scheduler
//! (`fixpoint`), the serving layer (`fix-serve`), the dispatcher and
//! control tiers, and the persistence tier (`fix-durable`). Every
//! submitting backend is a `fixpoint` scheduler (the cluster client
//! submits through the node it embeds), so every backend's trace
//! carries the same `scheduler` category.
//!
//! ## The disabled-path contract
//!
//! Tracing is off by default, and the cost of a disabled
//! instrumentation site is exactly **one relaxed atomic load** of a
//! static flag — [`tracing_enabled`]. The disabled path reads no
//! clocks, touches no thread-local state, takes no locks, and allocates
//! nothing; this is what keeps the Fig. 7a hot paths (warm-memoized
//! ~800 ns, native ~3–4.5 µs) unregressed while every hot loop in the
//! stack carries permanent instrumentation. When tracing is on, each
//! thread appends compact fixed-size [`TraceEvent`] records to its own
//! bounded buffer; the only lock a recording thread takes is its own
//! buffer's uncontended mutex, contended only while
//! [`Recorder::drain`] collects results.
//!
//! ## The virtual-vs-wall timestamp split
//!
//! Every event carries two timestamps and they are never mixed:
//!
//! * **`virt_us`** — the emitting layer's *virtual clock*. The serving
//!   layer's discrete-event simulation stamps its lifecycle events
//!   (admit/shed/dispatch/expire/complete, queue-depth samples) on
//!   virtual time, so for a fixed seed those events — and therefore the
//!   [`TraceSummary`] tables built from them — are **bit-identical**
//!   across runs, worker counts, and submitting backends.
//! * **`wall_ns`/`dur_ns`** — real elapsed time since the recorder
//!   epoch. Wall timestamps never appear in deterministic tables; they
//!   feed the Chrome trace-event export ([`Trace::to_chrome_json`],
//!   Perfetto-loadable) and the diagnostic latency histograms
//!   (fsync/snapshot/refault…), which are explicitly *not* pinned.
//!
//! Scheduler and durable events are wall-timing dependent
//! (steal counts, park cycles, group-commit batching), so
//! [`EventKind::deterministic`] excludes them from summaries: they are
//! Chrome-trace diagnostics. The deterministic surface is the serve
//! layer's lifecycle plus the registry metrics derived from virtual
//! quantities.
//!
//! ## Metrics
//!
//! The [`Registry`] names counters, gauges, and log-scale
//! [`LogHistogram`]s (the histogram the serving layer records its
//! latencies in, too). Snapshots merge commutatively — counters and
//! gauges add, histograms merge element-wise — so per-worker registries
//! merged equal one shared registry, sample for sample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod hist;
mod metrics;
mod recorder;
mod summary;

pub use chrome::{parse_json, validate_chrome_trace, JsonValue};
pub use hist::LogHistogram;
pub use metrics::{global, Counter, Gauge, HistogramCell, MetricsSnapshot, Registry};
pub use recorder::{
    emit, emit_span, recorder, set_tracing, set_tracing_mode, tracing_enabled, EventKind, Layer,
    Recorder, ThreadTrace, Trace, TraceEvent, TracingMode,
};
pub use summary::TraceSummary;
