//! Observability integration tests: the `fix-obs` recorder and metrics
//! registry wired through the real stack.
//!
//! The deterministic-tracing contract under test: serve-layer lifecycle
//! events ride the virtual clock, so for a fixed seed the trace summary
//! is byte-identical across runs, worker counts, and submitting
//! backends — while scheduler/durable diagnostics are free to differ
//! (every backend, the cluster client included, submits through a node
//! scheduler, so every backend's trace carries a `scheduler` category). The metrics contract: registry snapshots taken through
//! `Runtime::metrics()` agree exactly with the legacy accessors,
//! because both read the same live cells.

use fix::dispatch::{dispatch, DispatchConfig, NodeStorage, RoutingPolicy};
use fix::durable::{DurableOptions, DurableStore, FsyncPolicy};
use fix::obs::{self, TraceSummary};
use fix::prelude::*;
use fix::serve::{serve, ArrivalProcess, RequestKind, ServeConfig, TenantSpec};
use std::sync::{Arc, Mutex};

/// The recorder and tracing toggle are process-global; tests in this
/// binary run concurrently, so every test that records serializes here.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A small fixed-seed two-tenant workload (short horizon: these run in
/// debug CI).
fn cfg() -> ServeConfig {
    ServeConfig {
        seed: 2718,
        duration_us: 20_000,
        drivers: 2,
        batch: 16,
        queue_capacity: 48,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec::uniform_mix(
                "adds",
                2,
                ArrivalProcess::Poisson { rate_rps: 4000.0 },
                RequestKind::Add,
            ),
            TenantSpec::uniform_mix(
                "fibs",
                1,
                ArrivalProcess::Poisson { rate_rps: 1500.0 },
                RequestKind::Fib { max_n: 10 },
            ),
        ],
    }
}

/// One traced serve run against `api`, returning the rendered report,
/// the deterministic trace summary, and how many wall-clock scheduler
/// events the trace carries.
fn traced<A>(api: &A) -> (String, String, usize)
where
    A: fix::core::api::SubmitApi + fix::core::api::InvocationApi + Send + Sync,
{
    obs::recorder().clear();
    obs::set_tracing(true);
    let report = serve(api, &cfg()).expect("traced serve run");
    obs::set_tracing(false);
    let trace = obs::recorder().drain();
    let summary = TraceSummary::of(&trace);
    assert_eq!(summary.dropped(), 0, "recorder must hold the whole run");
    let scheduler_events = trace
        .iter()
        .filter(|e| e.kind.layer() == obs::Layer::Scheduler)
        .count();
    (report.to_string(), summary.to_string(), scheduler_events)
}

/// Same seed → byte-identical deterministic summary on the inline
/// runtime, a 4-worker runtime, and a bare cluster client — and none of
/// them perturb the untraced serving tables. The cluster client's
/// diagnostics are its embedded node's scheduler events.
#[test]
fn trace_summary_is_backend_independent() {
    let _g = TRACE_LOCK.lock().unwrap();
    let plain = serve(&Runtime::builder().build(), &cfg())
        .expect("untraced serve run")
        .to_string();

    let (inline_report, inline_summary, _) = traced(&Runtime::builder().build());
    let (workers_report, workers_summary, _) = traced(&Runtime::builder().workers(4).build());
    let cc = ClusterClient::builder().build().expect("cluster client");
    let (cluster_report, cluster_summary, cluster_sched_events) = traced(&cc);
    assert!(
        cluster_sched_events > 0,
        "the cluster backend's trace must carry its node's scheduler events"
    );

    for report in [&inline_report, &workers_report, &cluster_report] {
        assert_eq!(*report, plain, "tracing must not perturb the serve tables");
    }
    assert_eq!(inline_summary, workers_summary);
    assert_eq!(inline_summary, cluster_summary);
    // Re-running reproduces the summary byte for byte.
    let (_, again, _) = traced(&Runtime::builder().build());
    assert_eq!(inline_summary, again);
}

/// The traced run's Chrome export parses, is non-empty, and carries
/// wall-clock diagnostics (scheduler events) alongside the
/// deterministic serve stream.
#[test]
fn chrome_export_is_valid_and_layered() {
    let _g = TRACE_LOCK.lock().unwrap();
    obs::recorder().clear();
    obs::set_tracing(true);
    serve(&Runtime::builder().workers(2).build(), &cfg()).expect("traced serve run");
    obs::set_tracing(false);
    let trace = obs::recorder().drain();
    let serve_events = trace.iter().filter(|e| e.kind.deterministic()).count();
    let sched_events = trace
        .iter()
        .filter(|e| e.kind.layer() == obs::Layer::Scheduler)
        .count();
    assert!(serve_events > 0, "serve lifecycle must be traced");
    assert!(sched_events > 0, "scheduler diagnostics must be traced");
    let json = trace.to_chrome_json();
    let n = obs::validate_chrome_trace(&json).expect("Chrome trace must parse");
    assert_eq!(n, trace.len(), "every event exports exactly once");
}

/// `Runtime::metrics()` and the legacy accessors read the same live
/// cells, so they can never disagree; the durable tier's metrics merge
/// in under their `durable.*` names.
#[test]
fn metrics_snapshot_agrees_with_legacy_accessors() {
    let dir = tempfile::tempdir().unwrap();
    let durable = DurableStore::open(
        dir.path(),
        DurableOptions {
            fsync: FsyncPolicy::Always,
        },
    )
    .unwrap();
    let rt = Runtime::builder().durable(durable).workers(2).build();
    // Enough chained work (results past the literal bound, so they hit
    // the log) to move every counter under test.
    let grow = rt.register_native(
        "obs/grow",
        Arc::new(|ctx| {
            let x = ctx.arg_blob(0)?.as_u64().unwrap();
            let mut out = (x + 1).to_le_bytes().to_vec();
            out.resize(64, 0xAB);
            ctx.host.create_blob(out)
        }),
    );
    let mut acc = rt.put_blob(Blob::from_u64(0));
    for _ in 0..32 {
        let t = rt
            .apply(ResourceLimits::default_limits(), grow, &[acc])
            .unwrap();
        let full = rt.eval(t).unwrap();
        acc = rt.put_blob(Blob::from_u64(u64::from_le_bytes(
            rt.get_blob(full).unwrap().as_slice()[..8]
                .try_into()
                .unwrap(),
        )));
    }
    rt.durable().unwrap().flush().unwrap();

    let snap = rt.metrics();
    assert_eq!(snap.counters["scheduler.work_steals"], rt.work_steals());
    assert_eq!(
        snap.gauges["scheduler.queued_jobs"],
        rt.queued_jobs() as i64
    );
    assert_eq!(
        snap.gauges["scheduler.submission_watchers"],
        rt.submission_watchers() as i64
    );
    assert_eq!(snap.counters["engine.procedures_run"], rt.procedures_run());
    let stats = rt.durable().unwrap().stats();
    assert_eq!(
        snap.counters["durable.appended_frames"],
        stats.appended_frames
    );
    assert_eq!(snap.counters["durable.fsyncs"], stats.fsyncs);
    assert!(snap.counters["durable.appended_frames"] > 0);
    assert!(snap.counters["durable.fsyncs"] > 0);
    assert!(snap.histograms.contains_key("durable.fsync_us"));
}

/// Dispatcher-tier events ride the virtual clock like the serve
/// lifecycle: every admitted request leaves a `dispatch.route` record,
/// node failure leaves kill/restart records, and the per-node
/// queue-depth gauges land in the global registry — all of it
/// deterministic (byte-identical summaries across runs).
#[test]
fn dispatcher_events_and_gauges_are_deterministic() {
    let _g = TRACE_LOCK.lock().unwrap();
    let dcfg = DispatchConfig {
        base: ServeConfig {
            seed: 31,
            duration_us: 20_000,
            drivers: 1,
            batch: 8,
            queue_capacity: 48,
            batch_overhead_us: 5,
            inflight: 2,
            tenants: vec![TenantSpec::uniform_mix(
                "fibs",
                1,
                ArrivalProcess::Poisson { rate_rps: 3000.0 },
                RequestKind::Fib { max_n: 6 },
            )],
        },
        nodes: 3,
        policy: RoutingPolicy::Affinity,
        spill_margin: 8,
        storage: NodeStorage::Memory,
        fault: None,
    };
    let run = || {
        obs::recorder().clear();
        obs::set_tracing(true);
        let outcome = dispatch(&dcfg).expect("traced dispatch run");
        obs::set_tracing(false);
        let trace = obs::recorder().drain();
        let summary = TraceSummary::of(&trace);
        assert_eq!(summary.dropped(), 0, "recorder must hold the whole run");
        (outcome, trace, summary.to_string())
    };
    let (outcome, trace, summary) = run();
    let routes = trace
        .iter()
        .filter(|e| e.kind == obs::EventKind::Route)
        .count() as u64;
    let admitted: u64 = outcome.report.tenants.iter().map(|t| t.admitted).sum();
    assert_eq!(routes, admitted, "every admitted request is routed once");
    assert!(summary.contains("dispatch.route"));
    assert!(
        !summary.contains("t1 ") && !summary.contains("t2 "),
        "node indices must not mint phantom tenant rows"
    );
    let global = obs::global().snapshot();
    for n in 0..3 {
        assert!(
            global
                .gauges
                .contains_key(&format!("dispatch.node{n}.queue_depth")),
            "node {n} gauge must be registered globally"
        );
    }
    let (_, _, again) = run();
    assert_eq!(summary, again, "dispatcher tracing must be deterministic");
}

/// Node failure leaves exactly one kill and one restart record, each
/// carrying the node index on the virtual clock.
#[test]
fn node_failure_is_traced() {
    let _g = TRACE_LOCK.lock().unwrap();
    let dir = tempfile::tempdir().unwrap();
    let dcfg = DispatchConfig {
        base: ServeConfig {
            seed: 8,
            duration_us: 20_000,
            drivers: 1,
            batch: 8,
            queue_capacity: 64,
            batch_overhead_us: 5,
            inflight: 1,
            tenants: vec![TenantSpec::uniform_mix(
                "bursty",
                1,
                ArrivalProcess::Bursts {
                    period_us: 9_900,
                    burst: 32,
                },
                RequestKind::SebsHtml { users: 3 },
            )],
        },
        nodes: 2,
        policy: RoutingPolicy::Affinity,
        spill_margin: 8,
        storage: NodeStorage::Durable(dir.path().to_path_buf()),
        fault: Some(fix::dispatch::FaultPlan {
            node: 0,
            kill_at_us: 10_000,
            restart_at_us: 14_000,
            restart: fix::dispatch::RestartKind::Warm,
        }),
    };
    obs::recorder().clear();
    obs::set_tracing(true);
    let outcome = dispatch(&dcfg).expect("traced faulted dispatch run");
    obs::set_tracing(false);
    let trace = obs::recorder().drain();
    let kills: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == obs::EventKind::NodeKill)
        .collect();
    let restarts: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == obs::EventKind::NodeRestart)
        .collect();
    assert_eq!(kills.len(), 1);
    assert_eq!((kills[0].a, kills[0].virt_us), (0, 10_000));
    assert_eq!(restarts.len(), 1);
    assert_eq!((restarts[0].a, restarts[0].virt_us), (0, 14_000));
    assert_eq!(restarts[0].b, 1, "warm restart is flagged");
    outcome.assert_accounting_closure();
}

/// The serving layer's per-tenant latency decomposition closes exactly:
/// every served request contributes one sample to each of queue-wait,
/// service, and fill, and the global registry carries the per-tenant
/// histograms and queue-depth gauges.
#[test]
fn decomposition_and_global_registry_close() {
    let report = serve(&Runtime::builder().build(), &cfg()).expect("serve run");
    for t in &report.tenants {
        let served = t.latency.count();
        assert_eq!(t.queue_wait.count(), served);
        assert_eq!(t.service.count(), served);
        assert_eq!(t.fill.count(), served);
    }
    let table = report.decomposition_table();
    assert!(table.contains("latency decomposition"));
    assert!(table.contains("adds"));
    let global = obs::global().snapshot();
    assert!(global.histograms["serve.adds.latency_us"].count() > 0);
    assert!(global.gauges.contains_key("serve.adds.queue_depth"));
}
