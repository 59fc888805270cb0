//! What a second thread buys a map-reduce job: the benchmark's
//! `pooled_mapreduce` request (32 shards × 16 KiB count-string, 63
//! procedures) on a runtime with no pool worker, one and two — the
//! caller always drives too. Each job is asked for two ways: as a
//! ticket waited on (`submit(..).wait()`, what `pooled_mapreduce`
//! times) and as `eval_strict`, which runs on the door's stack and
//! publishes a job's pending operands to the deques only while a pool
//! worker is idle. With workers, the two rows should agree, and the
//! `eval_strict` row's steals show the publishing.
//!
//! Prints jobs/s as median [min, max] over batches, CPU µs per job
//! (process utime + stime from `/proc/self/stat`, 10 ms ticks), the
//! steals the row's runtime counted, and jobs/s as a ratio to the
//! ticket row on `workers(0)`. The wall-clock ledger (`fixbench/`) pins
//! one worker; this is where the other counts are measured (ROADMAP
//! item 2, counted rows).

mod common;

use common::Spread;
use fix_core::api::{Evaluator, ObjectApi, SubmitApi};
use fix_core::data::Blob;
use fix_core::limits::ResourceLimits;
use fix_workloads::mapreduce::MapReduce;
use fix_workloads::wordcount::{register_count_string, register_merge_counts, store_shards};
use fixpoint::Runtime;
use std::time::Instant;

const SHARDS: usize = 32;
const SHARD_BYTES: usize = 16 << 10;
const WARM_UP: u64 = 20;
const BATCHES: u64 = 8;
const BATCH: u64 = 50;

/// Process CPU time in µs, if this is Linux.
fn cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in 100 Hz ticks.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let ticks = fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?;
    Some(ticks * 10_000)
}

/// The `c`-th four-letter lowercase needle: every job is new work.
fn needle(mut c: u64) -> [u8; 4] {
    std::array::from_fn(|_| {
        let letter = b'a' + (c % 26) as u8;
        c /= 26;
        letter
    })
}

/// Runs the jobs on `workers` pool workers, each asked for as a ticket
/// or (`strict_eval`) by `eval_strict`; returns jobs/s per batch, CPU
/// µs per job and the runtime's steals over the timed batches.
fn measure(workers: usize, strict_eval: bool) -> (Spread, Option<f64>, u64) {
    let rt = Runtime::builder().workers(workers).build();
    let job = MapReduce {
        map_proc: register_count_string(&rt),
        reduce_proc: register_merge_counts(&rt),
        limits: ResourceLimits::default_limits(),
    };
    let shards = store_shards(&rt, 17, SHARDS, SHARD_BYTES);
    let run = |c: u64| {
        let needle = rt.put_blob(Blob::from_slice(&needle(c)));
        let root = job.describe(&rt, &shards, &[needle]).expect("describe");
        let out = if strict_eval {
            rt.eval_strict(root)
        } else {
            rt.submit(root).wait()
        };
        std::hint::black_box(out.expect("job completes"));
    };
    (0..WARM_UP).for_each(run);
    let (cpu0, steals0) = (cpu_us(), rt.work_steals());
    let rates = (0..BATCHES)
        .map(|b| {
            let first = WARM_UP + b * BATCH;
            let t0 = Instant::now();
            (first..first + BATCH).for_each(run);
            BATCH as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    let jobs = (BATCHES * BATCH) as f64;
    let cpu = cpu_us()
        .zip(cpu0)
        .map(|(now, then)| (now - then) as f64 / jobs);
    (Spread::of(rates), cpu, rt.work_steals() - steals0)
}

fn main() {
    println!(
        "pool_scaling: {SHARDS} x {SHARD_BYTES} B count-string, {BATCHES} x {BATCH} jobs per row, {} cores",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:>8} {:>12} {:>23} {:>11} {:>8} {:>8}",
        "workers", "entry", "jobs/s", "cpu us/job", "steals", "vs 0"
    );
    let mut base = None;
    for workers in [0usize, 1, 2] {
        for (entry, strict_eval) in [("ticket", false), ("eval_strict", true)] {
            let (rate, cpu, steals) = measure(workers, strict_eval);
            let base = *base.get_or_insert(rate.median);
            let cpu = cpu.map_or("n/a".to_string(), |us| format!("{us:.0}"));
            println!(
                "{workers:>8} {entry:>12} {rate:>10.0} {cpu:>11} {steals:>8} {:>8.2}",
                rate.median / base
            );
        }
    }
}
