//! The B+-tree key-value store of §5.4: built over real Fix Trees and
//! traversed node-by-node by a continuation-passing Fix codelet with
//! pinpoint Selection thunks.
//!
//! Run with: `cargo run --release --example bptree_kvstore [n_keys]`

use fix::prelude::*;
use fix::workloads::bptree::{build, lookup_fix, lookup_trusted, register_lookup, table2};
use fix::workloads::titles::generate_sorted_titles;
use std::time::Instant;

fn main() {
    let n_keys: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);

    println!("generating {n_keys} article titles ...");
    let titles = generate_sorted_titles(7, n_keys);
    let pairs: Vec<(String, Vec<u8>)> = titles
        .iter()
        .map(|t| (t.clone(), format!("article body of {t}").into_bytes()))
        .collect();

    for arity in [4096usize, 256, 16] {
        let rt = Runtime::builder().build();
        let tree = build(rt.store(), &pairs, arity);
        let proc_h = register_lookup(&rt);
        println!(
            "\narity {arity}: depth {}, {} stored objects",
            tree.depth,
            rt.store().object_count()
        );

        // Ten queries, like one of the paper's query sets.
        let keys: Vec<&String> = (0..10).map(|i| &titles[(i * 7919) % n_keys]).collect();

        let mut bytes = 0;
        for k in &keys {
            let (v, stats) = lookup_trusted(rt.store(), &tree, k).expect("lookup");
            assert!(v.is_some());
            bytes += stats.key_bytes_read;
        }

        let before = rt.procedures_run();
        let start = Instant::now();
        for k in &keys {
            let value = lookup_fix(&rt, proc_h, &tree, k).expect("fix lookup");
            let blob = rt.get_blob(value).expect("value blob");
            assert!(blob.as_slice().starts_with(b"article body of"));
        }
        let elapsed = start.elapsed();
        let invocations = rt.procedures_run() - before;
        println!(
            "  10 lookups in {elapsed:?}  ({} invocations, {} key-bytes read per lookup)",
            invocations,
            bytes / 10
        );
    }

    println!("\nTable 2 at arity 256, depth 3 (analytic):");
    for row in table2(256, 3, 22, 32) {
        println!(
            "  {:<28} {:>2} invocations, {:>6} B accessed, {:>6} B footprint",
            row.system, row.invocations, row.data_accessed, row.memory_footprint
        );
    }
}
