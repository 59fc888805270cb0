//! The serving layer end to end: fixed-seed multi-tenant open-loop
//! traffic served through the `fix-serve` driver pool — pipelined, two
//! batches in flight per driver via the submission API — against two
//! backends of the One Fix API, both passed to `serve` bare: the
//! single-node runtime and the netsim-backed cluster client (which
//! submits through the scheduler of the node it embeds), plus a
//! comparator run under the OpenWhisk baseline profile.
//!
//! Three tenants share four drivers: an `interactive` tenant (Poisson
//! adds and fibs, weight 4), an `analytics` tenant (periodic
//! count-string bursts big enough to overrun its queue, weight 2), and
//! a `webapp` tenant (Poisson SeBS dynamic-html renders, weight 1).
//! Every number printed comes from the virtual clock, so the tables are
//! bit-identical run to run — which this example proves by serving the
//! same seed twice and comparing the rendered output.
//!
//! Run with: `cargo run --release --example serving [--quick]`

use fix::prelude::*;
use fix::serve::{serve, ArrivalProcess, RequestKind, ServeConfig, SloClass, TenantSpec};
use fix_baselines::{profiles, CostModel};
use fix_netsim::NodeId;

fn config(scale: u32) -> ServeConfig {
    ServeConfig {
        seed: 42,
        duration_us: 150_000 * scale as u64,
        drivers: 4,
        batch: 32,
        queue_capacity: 64,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec {
                name: "interactive".into(),
                weight: 4,
                arrivals: ArrivalProcess::Poisson { rate_rps: 3000.0 },
                mix: vec![(RequestKind::Add, 3), (RequestKind::Fib { max_n: 10 }, 1)],
                slo: SloClass::default(),
            },
            TenantSpec::uniform_mix(
                "analytics",
                2,
                ArrivalProcess::Bursts {
                    period_us: 50_000,
                    burst: 120,
                },
                RequestKind::Wordcount {
                    shard_bytes: 16 << 10,
                },
            ),
            TenantSpec::uniform_mix(
                "webapp",
                1,
                ArrivalProcess::Poisson { rate_rps: 500.0 },
                RequestKind::SebsHtml { users: 6 },
            ),
        ],
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = config(if quick { 1 } else { 4 });

    println!(
        "== serving {} tenants for {:.1} s virtual, seed {} ==\n",
        cfg.tenants.len(),
        cfg.duration_us as f64 / 1e6,
        cfg.seed
    );

    // --- Backend 1: the single-node runtime --------------------------
    let rt = Runtime::builder().build();
    let on_runtime = serve(&rt, &cfg).expect("serve on Runtime");
    println!("-- fixpoint::Runtime --");
    println!("{on_runtime}");

    // --- Backend 2: the distributed engine over netsim ---------------
    // The same call: the client costs each batch on the simulator, then
    // submits it to its embedded node's scheduler.
    let cc = ClusterClient::builder().build().expect("cluster client");
    let on_cluster = serve(&cc, &cfg).expect("serve on ClusterClient");
    println!("-- fix_cluster::ClusterClient --");
    println!("{on_cluster}");
    println!(
        "   (cluster backend additionally recorded {} simulated runs, {} µs total)\n",
        cc.reports().len(),
        cc.total_simulated_us()
    );

    // --- Backend 3: a comparator profile, same traffic ---------------
    let rb = ClusterClient::builder()
        .profile(profiles::openwhisk(
            &(0..10).map(NodeId).collect::<Vec<_>>(),
            &CostModel::default(),
        ))
        .build()
        .expect("cluster client");
    let on_baseline = serve(&rb, &cfg).expect("serve under the OpenWhisk profile");
    println!("-- fix_cluster::ClusterClient (fix_baselines OpenWhisk profile) --");
    println!("{on_baseline}");

    // --- The guarantees the serving layer makes ----------------------
    // 1. Virtual-time telemetry is a pure function of (config, seed):
    //    the same run again prints the identical table.
    let again = serve(&Runtime::builder().build(), &cfg).expect("repeat serve");
    assert_eq!(
        on_runtime.to_string(),
        again.to_string(),
        "same seed must reproduce the table bit for bit"
    );
    // 2. ...and it is backend-independent: evaluation results are
    //    content addressed, so every backend served the same traffic to
    //    the same outcomes.
    assert_eq!(on_runtime.to_string(), on_cluster.to_string());
    assert_eq!(on_runtime.to_string(), on_baseline.to_string());
    // 3. Accounting closes: offered = admitted + dropped, and every
    //    admitted request was really evaluated (ok + errors).
    for t in &on_runtime.tenants {
        assert_eq!(t.offered, t.admitted + t.dropped);
        assert_eq!(t.admitted, t.ok + t.errors);
        assert_eq!(t.errors, 0);
    }
    // 4. Overload really shed: the analytics bursts exceed queue_capacity.
    assert!(
        on_runtime.tenants[1].dropped > 0,
        "bursty tenant must overrun its bounded queue"
    );
    // 5. No SLO classes were configured, so nothing expired and nothing
    //    was cancelled — the default-options path is exactly the old
    //    weighted-fair serving.
    assert_eq!(on_runtime.total_expired(), 0);
    assert_eq!(on_runtime.total_cancelled(), 0);
    println!("serving tables reproduced bit-for-bit across runs and backends ✓\n");

    // --- The SLO configuration: two service classes, one backend ------
    // The same traffic shape, now with intent attached: the interactive
    // tenant is latency-class with a 25 ms deadline (expired, not
    // served, when missed), and analytics is batch-class (served only
    // when the latency tier is idle). Dispatch becomes two-level —
    // strict priority tiers, EDF within a tier — decided once, on the
    // virtual clock; every batch is then submitted as planned.
    let slo_cfg = slo_config(&cfg);
    let on_slo = serve(&Runtime::builder().build(), &slo_cfg).expect("serve SLO config");
    println!("-- fixpoint::Runtime, two-class SLO config --");
    println!("{on_slo}");

    let slo_again = serve(&Runtime::builder().build(), &slo_cfg).expect("repeat SLO serve");
    assert_eq!(
        on_slo.to_string(),
        slo_again.to_string(),
        "SLO dispatch must be as deterministic as weighted-fair dispatch"
    );
    for t in &on_slo.tenants {
        assert_eq!(t.offered, t.admitted + t.dropped);
        assert_eq!(t.admitted, t.ok + t.errors + t.expired + t.cancelled);
        assert_eq!(t.errors, 0);
    }
    let (_, _, interactive_p99, _) = on_slo.tenants[0].latency.tail_summary();
    let (_, _, analytics_p99, _) = on_slo.tenants[1].latency.tail_summary();
    assert!(
        interactive_p99 < analytics_p99,
        "the latency tier's p99 ({interactive_p99} µs) must sit below the batch tier's \
         ({analytics_p99} µs)"
    );
    println!(
        "SLO table reproduced bit-for-bit; latency-tier p99 {interactive_p99} µs < batch-tier \
         p99 {analytics_p99} µs ✓"
    );

    // --- Worker pools don't perturb the tables --------------------------
    // The scheduler shards its job map and steals work across per-worker
    // deques, so with workers the same traffic executes in a genuinely
    // different interleaving — and the virtual-clock tables must not
    // care (`figures trace` and its golden file pin the same on a
    // 4-worker runtime).
    let one = serve(&Runtime::builder().workers(1).build(), &cfg).expect("serve workers=1");
    let four = serve(&Runtime::builder().workers(4).build(), &cfg).expect("serve workers=4");
    assert_eq!(
        one.to_string(),
        four.to_string(),
        "a 4-worker pool must reproduce the 1-worker tables bit for bit"
    );
    assert_eq!(one.to_string(), on_runtime.to_string());
    let slo_four = serve(&Runtime::builder().workers(4).build(), &slo_cfg).expect("SLO workers=4");
    assert_eq!(on_slo.to_string(), slo_four.to_string());
    println!("worker pools (1 vs 4) reproduce the pool-less tables bit-for-bit ✓");

    // --- Deterministic tracing ------------------------------------------
    // The fix-obs recorder rides along on the same run: turning it on
    // must not move the deterministic tables, its serve-layer summary is
    // itself a pure function of (config, seed), and the full trace
    // exports as Chrome trace-event JSON (`fix-bench`'s `trace` test
    // asserts the same).
    fix::obs::recorder().clear();
    fix::obs::set_tracing(true);
    let traced = serve(&Runtime::builder().build(), &cfg).expect("traced serve");
    fix::obs::set_tracing(false);
    let trace = fix::obs::recorder().drain();
    assert_eq!(
        on_runtime.to_string(),
        traced.to_string(),
        "tracing must not perturb the serving tables"
    );
    let summary = trace.summary();
    assert_eq!(summary.dropped(), 0, "recorder must hold the whole run");
    let json = trace.to_chrome_json();
    let events = fix::obs::validate_chrome_trace(&json).expect("Chrome trace must parse");
    assert!(events > 0, "Chrome trace must be non-empty");
    println!(
        "tracing on: tables unchanged, {events} events exported as valid Chrome trace JSON ✓\n"
    );
    println!("{summary}");
    println!("{}", traced.decomposition_table());
}

/// The same tenants as `config`, re-classed: interactive is
/// latency-tier with a deadline, analytics is batch-tier, webapp stays
/// normal.
fn slo_config(base: &ServeConfig) -> ServeConfig {
    let mut cfg = base.clone();
    cfg.tenants[0].slo = SloClass::latency(25_000);
    cfg.tenants[1].slo = SloClass::batch();
    cfg
}
