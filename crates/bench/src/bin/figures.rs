//! `figures`: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! figures [fig7a|fig7b|fig8a|fig8b|fig9|fig10|table2|comparators|serve|adapt|sweep|trace|calibrate|recover|route|ledger|extgc|extbilling|summary|all] [--quick]
//! ```
//!
//! `trace` runs the serving workload with the `fix-obs` event recorder
//! enabled on three submitting backends, prints the deterministic
//! trace summary + latency decomposition (bit-identical across runs
//! and backends), and writes one Perfetto-loadable Chrome trace JSON
//! per backend under `target/trace/`.
//!
//! `sweep` runs the serving table across several seeds, one thread per
//! seed. The output is byte-identical to running them one after another
//! — the virtual clock, not thread timing, produces every number.
//!
//! `calibrate` audits the shared `fix_core::calibration::SERVICE_COSTS`
//! table against measured warm/cold procedure paths on the real
//! runtime (wall-clock, so the one table that is *not* deterministic).
//!
//! `ledger` prints the committed fixbench ledgers (`BENCH_pr-N.json`
//! and `docs/runs/pr-N.parent.json`) as one trajectory per workload ×
//! end-to-end metric, judging each move as `fixbench compare` does.
//!
//! `--quick` runs everything at reduced scale (CI-friendly); without it,
//! the cluster simulations use the paper's full parameters (984 × 100 MiB
//! shards, 2000 source files, 6 M keys).
//!
//! Any other subcommand prints the usage line to stderr and exits 2.

use fix_workloads::wordcount::Fig8bParams;

/// Every subcommand `main` accepts, in the module docs' order.
const SUBCOMMANDS: &[&str] = &[
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fig9",
    "fig10",
    "table2",
    "comparators",
    "serve",
    "adapt",
    "sweep",
    "trace",
    "calibrate",
    "recover",
    "route",
    "ledger",
    "extgc",
    "extbilling",
    "summary",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    if !SUBCOMMANDS.contains(&which) {
        eprintln!(
            "figures: unknown subcommand `{which}`\nusage: figures [{}] [--quick]",
            SUBCOMMANDS.join("|")
        );
        std::process::exit(2);
    }

    let run_fig = |name: &str| which == "all" || which == name || which == "summary";

    if run_fig("fig7a") {
        let (iters, pi) = if quick { (20_000, 20) } else { (200_000, 200) };
        println!("{}\n", fix_bench::fig7a::run(iters, pi));
    }
    if run_fig("fig7b") {
        println!("{}\n", fix_bench::fig7b::run(500));
    }
    if run_fig("fig8a") {
        println!("{}\n", fix_bench::fig8a::run(1024));
    }
    if run_fig("fig8b") {
        let params = if quick {
            Fig8bParams {
                n_shards: 123,
                ..Fig8bParams::default()
            }
        } else {
            Fig8bParams::default()
        };
        println!("{}\n", fix_bench::fig8b::run(&params));
    }
    if run_fig("fig9") {
        let (keys, arities): (usize, &[u32]) = if quick {
            (16_384, &[14, 8, 4])
        } else {
            (262_144, &[18, 12, 8, 4])
        };
        println!("{}\n", fix_bench::fig9::run(keys, arities));
    }
    if which == "all" || which == "table2" {
        println!("{}", fix_bench::fig9::table2_text());
    }
    if run_fig("fig10") {
        let n = if quick { 500 } else { 2000 };
        println!("{}\n", fix_bench::fig10::run(n));
    }
    // Beyond the paper: every backend of the One Fix API in one table,
    // and the serving layer's open-loop traffic report.
    if which == "all" || which == "comparators" {
        let (shards, bytes) = if quick {
            (16, 16 << 10)
        } else {
            (64, 64 << 10)
        };
        println!("{}", fix_bench::comparators::run(shards, bytes));
    }
    if which == "all" || which == "serve" {
        let scale = if quick { 1 } else { 5 };
        println!("{}", fix_bench::serve_report::table_text(scale));
    }
    // Static-vs-adaptive control plane under a flash crowd (the
    // adaptive-serving figure: same seed, two control planes, one verdict).
    if which == "all" || which == "adapt" {
        let scale = if quick { 1 } else { 5 };
        println!("{}\n", fix_bench::adapt_table::table_text(scale));
    }
    // Deterministic tracing of the serving workload (not part of `all`:
    // it re-runs the serve workload three times and writes trace files).
    if which == "trace" {
        let scale = if quick { 1 } else { 5 };
        let out = std::path::Path::new("target/trace");
        println!("{}", fix_bench::trace::run(scale, out));
        println!("chrome traces written under {}", out.display());
    }
    // Multi-seed serving sweep, one thread per seed (not part of `all`:
    // it reprints the serve table once per seed).
    if which == "sweep" {
        let scale = if quick { 1 } else { 5 };
        let seeds: &[u64] = &[2026, 7, 99, 1234];
        println!("{}", fix_bench::serve_report::sweep(seeds, scale, true));
    }
    // Measured calibration: wall-clock audit of the virtual-clock
    // constants (not part of `all`, which prints only deterministic
    // tables — run it explicitly).
    if which == "calibrate" {
        let samples = if quick { 5 } else { 15 };
        println!("{}", fix_bench::calibrate::run(samples));
    }
    // Cold start vs warm restart per log size (wall-clock, like
    // `calibrate`: not part of `all` — run it explicitly).
    if which == "recover" {
        let sizes: &[usize] = if quick {
            &[64, 256, 1024]
        } else {
            &[256, 1024, 4096]
        };
        println!("{}", fix_bench::recover::run(sizes));
    }
    // Affinity-vs-baseline routing hit rates and the warm-vs-cold node
    // recovery window (deterministic tables, but the recovery half
    // populates real durable directories — like `trace`, not part of
    // `all`; run it explicitly).
    if which == "route" {
        let (scale, nodes) = if quick { (1, 4) } else { (5, 4) };
        println!("{}", fix_bench::route::table_text(scale, nodes));
    }
    // The committed perf ledgers as trajectories (reads files, not part
    // of `all`).
    if which == "ledger" {
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        match fix_bench::ledger::report(root) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("figures ledger: {e}");
                std::process::exit(1);
            }
        }
    }
    // Extension experiments (paper §6 future work, implemented here).
    if which == "all" || which == "extgc" {
        let (widths, shard): (&[usize], usize) = if quick {
            (&[4, 16], 16 << 10)
        } else {
            (&[4, 16, 64, 256], 64 << 10)
        };
        println!("{}", fix_bench::ext_gc::run(widths, shard));
    }
    if which == "all" || which == "extbilling" {
        let n = if quick { 128 } else { 1024 };
        println!("{}", fix_bench::ext_billing::run(n));
    }
}
