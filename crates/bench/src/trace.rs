//! `trace`: deterministic tracing of the serving workload, for the
//! `figures trace` subcommand.
//!
//! Runs the fixed-seed [`serve_report`](crate::serve_report) workload
//! with the event recorder enabled on three submitting backends — the
//! inline runtime, a 4-worker runtime, and a bare cluster client (which
//! submits through its embedded node) — and renders the
//! **deterministic** per-layer summary
//! of each trace. The serve-layer lifecycle events ride the virtual
//! clock, so the three summaries (and the latency decomposition table)
//! are bit-identical: this module asserts that identity instead of just
//! claiming it, and the `figures_trace_quick.txt` golden pins the rendered
//! output run-to-run.
//!
//! Each backend's *full* trace — including the wall-clock scheduler
//! and durability diagnostics, which legitimately differ per backend
//! and per run — is exported as a Chrome trace-event JSON file
//! (loadable in Perfetto / `chrome://tracing`) and validated with the
//! crate's own parser before the run reports success.

use fix_obs::{recorder, set_tracing, Trace, TraceSummary};
use fix_serve::{serve, ServeConfig, ServeReport};
use fixpoint::Runtime;
use std::path::Path;

/// Serializes recorder use within this process (the recorder and the
/// tracing toggle are process-global, and tests run concurrently).
pub(crate) static TRACE_GUARD: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// One traced serve run: the report plus the drained trace.
fn traced_run<A>(rt: &A, cfg: &ServeConfig) -> (ServeReport, Trace)
where
    A: fix_core::api::SubmitApi + fix_core::api::InvocationApi + Send + Sync,
{
    recorder().clear();
    set_tracing(true);
    let report = serve(rt, cfg).expect("traced serve run");
    set_tracing(false);
    (report, recorder().drain())
}

/// Runs the traced serving workload on all three backends, writing one
/// Chrome trace JSON per backend under `out_dir`, and returns the
/// deterministic report (summary table, decomposition, identity
/// checks). Panics if any determinism property fails — this is the
/// assertion the golden test runs at `scale` 1.
pub fn run(scale: u32, out_dir: &Path) -> String {
    run_with(&crate::serve_report::config(scale), out_dir)
}

/// [`run`] with an explicit configuration (smaller horizons for tests).
pub fn run_with(cfg: &ServeConfig, out_dir: &Path) -> String {
    let _guard = TRACE_GUARD.lock();

    // Baseline: the same workload with tracing off. The deterministic
    // serve tables must not move when tracing turns on.
    let plain = serve(&Runtime::builder().build(), cfg)
        .expect("untraced serve run")
        .to_string();

    let mut out = String::new();
    out.push_str(&format!(
        "Trace — deterministic serving trace, seed {} ({} tenants, 3 backends)\n",
        cfg.seed,
        cfg.tenants.len()
    ));

    let mut runs: Vec<(&str, ServeReport, Trace)> = Vec::new();
    {
        let rt = Runtime::builder().build();
        let (report, trace) = traced_run(&rt, cfg);
        runs.push(("runtime-inline", report, trace));
    }
    {
        let rt = Runtime::builder().workers(4).build();
        let (report, trace) = traced_run(&rt, cfg);
        runs.push(("runtime-workers4", report, trace));
    }
    {
        let cc = fix_cluster::ClusterClient::builder()
            .build()
            .expect("cluster client");
        let (report, trace) = traced_run(&cc, cfg);
        runs.push(("cluster", report, trace));
    }

    let reference = TraceSummary::of(&runs[0].2);
    assert_eq!(
        reference.dropped(),
        0,
        "recorder capacity must hold the whole deterministic stream"
    );
    std::fs::create_dir_all(out_dir).expect("create trace output dir");
    for (name, report, trace) in &runs {
        assert_eq!(
            report.to_string(),
            plain,
            "{name}: tracing must not perturb the serve tables"
        );
        let summary = TraceSummary::of(trace);
        assert_eq!(
            summary.to_string(),
            reference.to_string(),
            "{name}: deterministic trace summary diverged across backends"
        );
        let json = trace.to_chrome_json();
        let events =
            fix_obs::validate_chrome_trace(&json).expect("exported Chrome trace must parse");
        assert!(events > 0, "{name}: Chrome trace must be non-empty");
        let path = out_dir.join(format!("serve-{name}.trace.json"));
        std::fs::write(&path, json).expect("write Chrome trace");
    }

    out.push_str("tracing-off vs tracing-on serve tables: identical on all backends\n");
    out.push_str("deterministic summaries: identical on all backends\n");
    out.push_str("chrome traces: exported and validated (one per backend)\n\n");
    out.push_str(&reference.to_string());
    out.push('\n');
    out.push_str(&runs[0].1.decomposition_table());
    out
}
