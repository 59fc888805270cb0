//! What a second thread buys a map-reduce job: the benchmark's
//! `pooled_mapreduce` request (32 shards × 16 KiB count-string, 63
//! procedures, submitted as a ticket and waited on) on a runtime with no
//! pool worker, one and two — the waiting caller always drives too.
//!
//! Prints jobs/s, CPU µs per job (process utime + stime from
//! `/proc/self/stat`, 10 ms ticks) and jobs/s as a ratio to `workers(0)`.
//! The wall-clock ledger (`fixbench/`) pins one worker; this is where the
//! other counts are measured (ROADMAP item 6(e)).

use fix_core::api::{ObjectApi, SubmitApi};
use fix_core::data::Blob;
use fix_core::limits::ResourceLimits;
use fix_workloads::mapreduce::MapReduce;
use fix_workloads::wordcount::{register_count_string, register_merge_counts, store_shards};
use fixpoint::Runtime;
use std::time::Instant;

const SHARDS: usize = 32;
const SHARD_BYTES: usize = 16 << 10;
const WARM_UP: u64 = 20;
const JOBS: u64 = 400;

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

/// Runs the jobs on `workers` pool workers; returns (jobs/s, CPU µs/job).
fn measure(workers: usize) -> (f64, Option<f64>) {
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
        let out = rt.submit(root).wait().expect("job completes");
        std::hint::black_box(out);
    };
    (0..WARM_UP).for_each(run);
    let (cpu0, t0) = (cpu_us(), Instant::now());
    (WARM_UP..WARM_UP + JOBS).for_each(run);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_us()
        .zip(cpu0)
        .map(|(now, then)| (now - then) as f64 / JOBS as f64);
    (JOBS as f64 / wall, cpu)
}

fn main() {
    println!(
        "pool_scaling: {SHARDS} x {SHARD_BYTES} B count-string, {JOBS} jobs per row, {} cores",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:>8} {:>10} {:>14} {:>10}",
        "workers", "jobs/s", "cpu us/job", "vs 0"
    );
    let mut base = None;
    for workers in [0usize, 1, 2] {
        let (rate, cpu) = measure(workers);
        let base = *base.get_or_insert(rate);
        let cpu = cpu.map_or("n/a".to_string(), |us| format!("{us:.0}"));
        println!("{workers:>8} {rate:>10.0} {cpu:>14} {:>10.2}", rate / base);
    }
}
