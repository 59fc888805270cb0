//! What deriving a cluster job graph costs when many tasks share one
//! argument: `tasks` applications of a native that returns its first
//! argument, each over the same cons list of `cells` cells (64 B blobs
//! of byte `i % 256`, so at most 256 distinct) plus a salt of its own,
//! through one `ClusterClient`.
//!
//! Prints, per row, the inputs the derived graph names (summed over its
//! tasks) and the median ms of each phase of a client batch, over fresh
//! batches (every rep salts its tasks anew, so none is memoized):
//! `derive_job_graph`, the simulated run of the graph under the client's
//! default profile (`run_fix`), and the evaluation on the embedded node;
//! the batch column is their sum. A task's inputs are its footprint's
//! objects, so N tasks over one L-cell list name about N·L of them, and
//! each application's launch walks the whole list looking for encodes
//! (ROADMAP item 16).

use fix_cluster::{derive_job_graph, run_fix, ClusterClient, FixConfig};
use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::{Blob, Tree};
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh batches timed per row.
const REPS: u64 = 5;
/// (cells, tasks): flat arguments, then one shared list of two sizes.
const ROWS: [(u64, u64); 3] = [(0, 1_000), (100, 100), (1_000, 100)];

fn median_ms(mut times: Vec<Duration>) -> f64 {
    times.sort();
    times[times.len() / 2].as_secs_f64() * 1e3
}

/// The time `phase` takes, and its result.
fn timed<T>(phase: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = phase();
    (start.elapsed(), out)
}

/// Times one row; returns the inputs named and the median ms of derive,
/// simulate, evaluate and their sum.
fn measure(cells: u64, tasks: u64) -> (usize, [f64; 4]) {
    let cc = ClusterClient::builder().build().expect("default setup");
    let identity = cc.register_native("bench/identity", Arc::new(|ctx| ctx.arg(0)));
    let mut list = cc.put_tree(Tree::from_handles(vec![]));
    for i in 0..cells {
        let item = cc.put_blob(Blob::from_vec(vec![i as u8; 64]));
        list = cc.put_tree(Tree::from_handles(vec![item, list]));
    }
    let limits = ResourceLimits::default_limits();
    let profile = FixConfig::default();
    let mut inputs = 0;
    let mut phases: [Vec<Duration>; 4] = Default::default();
    for rep in 0..REPS {
        let thunks: Vec<Handle> = (0..tasks)
            .map(|t| {
                let salt = cc.put_blob(Blob::from_u64(rep * tasks + t));
                cc.apply(limits, identity, &[list, salt]).unwrap()
            })
            .collect();
        let (derive, graph) =
            timed(|| derive_job_graph(cc.inner(), &thunks, false, &cc.setup().workers));
        let graph = graph.expect("unevaluated tasks derive a graph");
        inputs = graph.tasks.iter().map(|task| task.inputs.len()).sum();
        let (simulate, _) = timed(|| run_fix(cc.setup(), &graph, &profile));
        let (evaluate, results) = timed(|| cc.inner().eval_many(&thunks));
        for result in results {
            result.expect("a task returns its argument");
        }
        for (times, t) in phases.iter_mut().zip([derive, simulate, evaluate]) {
            times.push(t);
        }
        phases[3].push(derive + simulate + evaluate);
    }
    (inputs, phases.map(median_ms))
}

fn main() {
    println!("derive_shared: one ClusterClient, median of {REPS} fresh batches per row");
    println!(
        "{:>14} {:>13} {:>11} {:>11} {:>11} {:>10}",
        "cells x tasks", "inputs named", "derive ms", "simulate ms", "evaluate ms", "batch ms"
    );
    for (cells, tasks) in ROWS {
        let (inputs, [derive, simulate, evaluate, batch]) = measure(cells, tasks);
        println!(
            "{cells:>6} x {tasks:<5} {inputs:>13} {derive:>11.2} {simulate:>11.2} {evaluate:>11.2} {batch:>10.2}"
        );
    }
}
