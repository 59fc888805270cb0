//! `serve_report`: the serving-layer table for the `figures` binary.
//!
//! None of the paper's figures exercise sustained open-loop traffic —
//! this table opens that axis: a fixed-seed multi-tenant workload
//! (Poisson interactive tenant, bursty batch tenant, heavyweight SeBS
//! tenant) served through the `fix-serve` driver pool on the
//! single-node runtime, reported as throughput, tail latency, and
//! per-tenant drop counts. Deterministic by construction: the virtual
//! clock, not the wall clock, produces every number.

use fix_serve::{
    serve, ArrivalProcess, RequestKind, ServeConfig, ServeReport, SloClass, TenantSpec,
};
use fixpoint::Runtime;

/// The fixed-seed serving configuration behind the table. `scale`
/// stretches the virtual horizon (1 → 0.2 s, CI-quick; 5 → 1 s).
pub fn config(scale: u32) -> ServeConfig {
    ServeConfig {
        seed: 2026,
        duration_us: 200_000 * scale as u64,
        drivers: 4,
        batch: 32,
        queue_capacity: 96,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec {
                name: "interactive".into(),
                weight: 4,
                arrivals: ArrivalProcess::Poisson { rate_rps: 4000.0 },
                mix: vec![(RequestKind::Add, 3), (RequestKind::Fib { max_n: 10 }, 1)],
                slo: SloClass::default(),
            },
            TenantSpec::uniform_mix(
                "analytics",
                2,
                ArrivalProcess::Bursts {
                    period_us: 50_000,
                    burst: 160,
                },
                RequestKind::Wordcount {
                    shard_bytes: 16 << 10,
                },
            ),
            TenantSpec::uniform_mix(
                "webapp",
                1,
                ArrivalProcess::Poisson { rate_rps: 600.0 },
                RequestKind::SebsHtml { users: 8 },
            ),
        ],
    }
}

/// Runs the serving workload and returns its report.
pub fn run(scale: u32) -> ServeReport {
    let rt = Runtime::builder().build();
    serve(&rt, &config(scale)).expect("serve run")
}

/// Renders the table with its header.
pub fn table_text(scale: u32) -> String {
    format!(
        "Serve — multi-tenant open-loop traffic through the driver pool \
         (seed 2026, 4 drivers × batch 32)\n{}",
        run(scale)
    )
}

/// Runs the serving workload once per seed and renders one table per
/// seed, in seed order. With `parallel`, each seed gets its own thread
/// (and its own `Runtime` — runs share nothing), which is safe to do
/// *because* every number comes off the virtual clock: the output is
/// byte-identical to the serial driver (`parallel: false`, the sweep
/// test's reference) no matter how the threads interleave.
pub fn sweep(seeds: &[u64], scale: u32, parallel: bool) -> String {
    let run_seed = |&seed: &u64| {
        let cfg = ServeConfig {
            seed,
            ..config(scale)
        };
        let rt = Runtime::builder().build();
        let report = serve(&rt, &cfg).expect("serve sweep run");
        format!("Serve sweep — seed {seed}\n{report}")
    };
    let tables: Vec<String> = if parallel {
        std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|seed| scope.spawn(move || run_seed(seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep thread"))
                .collect()
        })
    } else {
        seeds.iter().map(run_seed).collect()
    };
    tables.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_table_is_deterministic_and_loaded() {
        let a = table_text(1);
        let b = table_text(1);
        assert_eq!(a, b, "same seed must print the same table");
        let report = run(1);
        assert!(report.completed > 500, "{} completed", report.completed);
        // The bursty tenant overruns its queue bound at this scale.
        assert!(report.total_dropped() > 0);
    }

    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        let seeds = [2026u64, 7, 99];
        let serial = sweep(&seeds, 1, false);
        let parallel = sweep(&seeds, 1, true);
        assert_eq!(
            serial, parallel,
            "threading the sweep must not change a single byte"
        );
        // Different seeds really produce different traffic.
        let one = sweep(&[2026], 1, false);
        let other = sweep(&[7], 1, false);
        assert_ne!(
            one.lines().nth(1),
            other.lines().nth(1),
            "distinct seeds should render distinct tables"
        );
    }
}
