//! What the serving kernel's real driver pool does with the in-flight
//! window, and what the admission controller costs under a flash crowd.
//!
//! * **window 1 vs 4**: a warm `serve` run (two tenants, about 2 000
//!   requests whose results the relation cache already holds) with the
//!   submit-and-park loop (`inflight: 1`) and with batch *k+1* submitted
//!   while *k* executes (`inflight: 4`), on the inline runtime and on
//!   two pool workers;
//! * **admission off vs on**: `adaptive_serve`'s flash crowd with the
//!   static pool and with provably-late arrivals priced out at the door
//!   (`fix_bench::adapt_table`'s two configs).
//!
//! Prints, per row, the requests completed, ms per run and the execution
//! phase's requests per wall-clock second (`ServeReport::wall_rps`, what
//! the window moves), median [min, max] over warm runs. The virtual
//! tables do not move with the window, the worker count or the run;
//! `fix-serve`'s and `fix-bench`'s tests pin that, and fixbench's
//! `serve_tiers` times one round of each kernel.

mod common;

use common::Spread;
use fix_bench::adapt_table::{adaptive_config, static_config};
use fix_serve::{
    adaptive_serve, serve, ArrivalProcess, RequestKind, ServeConfig, ServeReport, TenantSpec,
};
use fixpoint::Runtime;
use std::time::Instant;

/// Warm runs timed per row.
const REPS: usize = 9;

/// About 2 000 requests across two tenants on a short virtual horizon.
fn warm_config(inflight: usize) -> ServeConfig {
    ServeConfig {
        seed: 77,
        duration_us: 250_000,
        drivers: 4,
        batch: 32,
        queue_capacity: 256,
        batch_overhead_us: 5,
        inflight,
        tenants: vec![
            TenantSpec::uniform_mix(
                "adds",
                3,
                ArrivalProcess::Poisson { rate_rps: 6000.0 },
                RequestKind::Add,
            ),
            TenantSpec::uniform_mix(
                "fibs",
                1,
                ArrivalProcess::Poisson { rate_rps: 2000.0 },
                RequestKind::Fib { max_n: 12 },
            ),
        ],
    }
}

/// Runs `run` once to pay every cold evaluation, then `REPS` times;
/// prints the row.
fn row(name: &str, mut run: impl FnMut() -> ServeReport) {
    let completed = run().completed;
    let (mut ms, mut rps) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let report = run();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        rps.push(report.wall_rps());
    }
    let (ms, rps) = (Spread::of(ms), Spread::of(rps));
    println!("{name:<24} {completed:>9} {ms:>8.2} {rps:>8.0}");
}

fn main() {
    println!(
        "serve_throughput: median [min, max] of {REPS} warm runs, {} cores",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<24} {:>9} {:>8} [min, max] {:>8} [min, max]",
        "row", "completed", "ms/run", "exec req/s"
    );
    for (runtime, workers) in [("inline", 0), ("2 workers", 2)] {
        let rt = Runtime::builder().workers(workers).build();
        for window in [1, 4] {
            let cfg = warm_config(window);
            row(&format!("window {window}, {runtime}"), || {
                serve(&rt, &cfg).expect("serve")
            });
        }
    }
    let rt = Runtime::builder().build();
    for (name, cfg) in [
        ("admission off", static_config(1)),
        ("admission on", adaptive_config(1)),
    ] {
        row(name, || adaptive_serve(&rt, &cfg).expect("serve").serve);
    }
}
