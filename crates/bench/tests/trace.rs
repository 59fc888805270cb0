//! The `figures trace` report, rendered twice in a process of its own.
//!
//! `fix_obs`'s recorder is process-global: every serving kernel that
//! runs in the process while tracing is on lands in the trace. The
//! library's unit tests run serve workloads concurrently, so this check
//! lives in its own test binary, where nothing else serves.

use fix_bench::serve_report;
use fix_bench::trace::run_with;
use fix_serve::ServeConfig;

#[test]
fn trace_report_is_deterministic() {
    // A miniature horizon: the full `run(1, ..)` report is what the
    // golden test renders; here the same assertions on a 20× shorter
    // run keep the suite fast.
    let cfg = ServeConfig {
        duration_us: 10_000,
        ..serve_report::config(1)
    };
    let dir = tempfile::tempdir().unwrap();
    let a = run_with(&cfg, dir.path());
    let b = run_with(&cfg, dir.path());
    assert_eq!(a, b, "figures trace must render identically run-to-run");
    assert!(a.contains("serve.admit"));
    assert!(a.contains("latency decomposition"));
    // The per-backend Chrome traces landed on disk.
    for name in ["runtime-inline", "runtime-workers4", "cluster"] {
        let p = dir.path().join(format!("serve-{name}.trace.json"));
        let json = std::fs::read_to_string(p).unwrap();
        assert!(fix_obs::validate_chrome_trace(&json).unwrap() > 0);
    }
}
