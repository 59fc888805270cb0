//! Backend-conformance suite for the adaptive control plane.
//!
//! One hostile scenario — flash-crowd open-loop tenant, closed-loop
//! client population, SNF streaming pipeline, admission pricing on, the
//! autoscaler live — run through `fix_serve::adaptive_serve` on every
//! submission-capable backend of the One Fix API (the same roster as
//! `api_conformance.rs`): the single-node runtime inline and with
//! 2- and 4-worker pools, and the bare cluster client under Fixpoint's
//! profile and under OpenWhisk's (it submits through the scheduler of
//! the node it embeds).
//!
//! Two properties, on every backend:
//!
//! * **accounting closure** — per tenant,
//!   `offered = admitted + dropped + rejected` and
//!   `admitted = ok + errors + expired + cancelled`: every arrival is
//!   accounted for exactly once, including the work the controller
//!   priced out;
//! * **bit-identical tables** — the full rendered report (rejection
//!   column and scaling timeline included) agrees across all backends,
//!   because every control-plane decision runs on the virtual clock and
//!   every thunk is content-addressed.

use fix::prelude::*;
use fix_serve::{
    adaptive_serve, AdaptConfig, AdmissionPolicy, ArrivalProcess, ClosedLoopSpec, RequestKind,
    ScalerConfig, ServeReport, SloClass, SnfSpec, Tenant, TenantSpec,
};

/// The engine's hostile shape, scaled for a cross-backend suite: the
/// crowd spikes 10x for 40 ms mid-run, the portal population keeps its
/// own feedback loop, and the SNF pipeline must come through unshed.
fn hostile_cfg() -> AdaptConfig {
    AdaptConfig {
        seed: 2026,
        duration_us: 150_000,
        batch: 8,
        queue_capacity: 128,
        batch_overhead_us: 5,
        inflight: 2,
        admission: Some(AdmissionPolicy::default()),
        scaler: ScalerConfig {
            min_drivers: 2,
            max_drivers: 6,
            control_interval_us: 2_000,
            up_backlog_us: 400,
            down_backlog_us: 60,
            hold_ticks: 2,
        },
        tenants: vec![
            Tenant::Open(
                TenantSpec::uniform_mix(
                    "crowd",
                    1,
                    ArrivalProcess::FlashCrowd {
                        base_rps: 2_000.0,
                        spike_at_us: 40_000,
                        spike_len_us: 40_000,
                        spike_rps: 20_000.0,
                    },
                    RequestKind::Fib { max_n: 256 },
                )
                .with_slo(SloClass::latency(3_000)),
            ),
            Tenant::Closed(ClosedLoopSpec {
                name: "portal".into(),
                weight: 1,
                clients: 8,
                think_mean_us: 2_000.0,
                mix: vec![(RequestKind::SebsHtml { users: 4 }, 1)],
                slo: SloClass::latency(8_000),
            }),
            Tenant::Snf(SnfSpec {
                name: "snf".into(),
                weight: 1,
                flows: 4,
                batch_period_us: 2_000,
                slo: SloClass::default(),
            }),
        ],
    }
}

fn run_on<A: SubmitApi + InvocationApi + Send + Sync>(rt: &A) -> ServeReport {
    adaptive_serve(rt, &hostile_cfg())
        .expect("adaptive run")
        .serve
}

#[test]
fn accounting_closes_identically_on_every_submitting_backend() {
    let cluster = ClusterClient::builder().build().expect("cluster client");
    let openwhisk = ClusterClient::builder()
        .profile(fix_baselines::profiles::openwhisk(
            &(0..4).map(fix_netsim::NodeId).collect::<Vec<_>>(),
            &fix_baselines::CostModel::default(),
        ))
        .build()
        .expect("cluster client under the OpenWhisk profile");
    let reports: Vec<(&str, ServeReport)> = vec![
        ("Runtime", run_on(&Runtime::builder().build())),
        (
            "Runtime(workers=2)",
            run_on(&Runtime::builder().workers(2).build()),
        ),
        (
            "Runtime(workers=4)",
            run_on(&Runtime::builder().workers(4).build()),
        ),
        ("ClusterClient", run_on(&cluster)),
        ("ClusterClient(openwhisk)", run_on(&openwhisk)),
    ];

    for (name, report) in &reports {
        // Closure: every arrival lands in exactly one disposition
        // column, and every admitted request resolves exactly once.
        for t in &report.tenants {
            assert_eq!(
                t.offered,
                t.admitted + t.dropped + t.rejected,
                "{name}: tenant '{}' leaks arrivals",
                t.name
            );
            assert_eq!(
                t.admitted,
                t.ok + t.errors + t.expired + t.cancelled,
                "{name}: tenant '{}' leaks admitted requests",
                t.name
            );
            assert_eq!(t.errors, 0, "{name}: '{}' minted an invalid thunk", t.name);
        }
        // The scenario really exercised the controller on this backend.
        assert!(report.total_rejected() > 0, "{name}: no rejections");
        assert!(
            report.scaling.iter().any(|s| s.to > s.from)
                && report.scaling.iter().any(|s| s.to < s.from),
            "{name}: trivial scaling timeline"
        );
        let snf = &report.tenants[2];
        assert_eq!(snf.offered, snf.ok, "{name}: the SNF pipeline was shed");
    }

    // Cross-backend identity: one rendered report, six backends.
    let (first_name, first) = &reports[0];
    for (name, report) in &reports[1..] {
        assert_eq!(
            first.to_string(),
            report.to_string(),
            "backend '{name}' renders a different table than '{first_name}'"
        );
    }
}
