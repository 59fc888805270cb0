//! `pooled_mapreduce`: count-string map-reduce jobs (32 shards of 16 KiB,
//! 63 procedures) on a one-worker pool plus the waiting caller, which
//! the scheduler turns into a second driver — two runnable threads, so
//! deque locks, stealing and parking sit on the critical path. A job
//! waits for its slowest task. `req_per_s` counts jobs.
//!
//! The two thread counts are pinned constants sized for two cores, never
//! read from the machine, so counts stay comparable across machines.

use super::{runtime_counts, MINT, PROC, READ};
use crate::harness::{Epoch, Rng, Size, Workload};
use crate::spans;
use fix::prelude::*;
use fix::workloads::corpus::{count_nonoverlapping, generate_shard};
use fix::workloads::mapreduce::MapReduce;
use std::sync::Arc;

const JOBS: u64 = 250;
const WARM_UP: u64 = 10;
const SHARDS: u64 = 32;
const SHARD_BYTES: usize = 16 << 10;
const WORKERS: usize = 1;
/// Every this-many-th job's result is recomputed directly (≥ 1 %).
const VERIFY_EVERY: usize = 25;
const NEEDLE_LEN: usize = 4;
const NEEDLE_SPACE: u64 = 26u64.pow(NEEDLE_LEN as u32);

/// The `c`-th lowercase needle: distinct for distinct `c` below
/// [`NEEDLE_SPACE`], so every job of an epoch is new work.
fn needle(c: u64) -> [u8; NEEDLE_LEN] {
    let mut c = c % NEEDLE_SPACE;
    std::array::from_fn(|_| {
        let letter = b'a' + (c % 26) as u8;
        c /= 26;
        letter
    })
}

pub struct PooledMapReduce {
    rt: Runtime,
    job: MapReduce,
    corpus: Vec<Vec<u8>>,
    shards: Vec<Handle>,
    needles: Vec<[u8; NEEDLE_LEN]>,
    results: Vec<Result<u64>>,
}

impl PooledMapReduce {
    #[inline]
    fn job_once(&self, needle: &[u8]) -> Result<u64> {
        let s = spans::enter(MINT);
        let needle = self.rt.put_blob(Blob::from_slice(needle));
        let root = self.job.describe(&self.rt, &self.shards, &[needle])?;
        let s = spans::then(s, "runtime.submit");
        let ticket = self.rt.submit(root);
        let s = spans::then(s, "runtime.wait");
        let out = ticket.wait()?;
        let _s = spans::then(s, READ);
        self.rt.get_u64(out)
    }

    fn expected(&self, needle: &[u8]) -> u64 {
        self.corpus
            .iter()
            .map(|shard| count_nonoverlapping(shard, needle))
            .sum()
    }
}

impl Workload for PooledMapReduce {
    fn setup(rng: &mut Rng, size: &Size) -> Self {
        let rt = Runtime::builder().workers(WORKERS).build();
        let map_proc = rt.register_native(
            "fixbench/count-string",
            Arc::new(|ctx| {
                let n = {
                    let _s = spans::leaf(PROC);
                    let chunk = ctx.arg_blob(0)?;
                    let needle = ctx.arg_blob(1)?;
                    count_nonoverlapping(chunk.as_slice(), needle.as_slice())
                };
                ctx.host.create_blob(n.to_le_bytes().to_vec())
            }),
        );
        let reduce_proc = rt.register_native(
            "fixbench/merge-counts",
            Arc::new(|ctx| {
                let sum = {
                    let _s = spans::leaf(PROC);
                    let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
                    let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
                    a + b
                };
                ctx.host.create_blob(sum.to_le_bytes().to_vec())
            }),
        );
        let corpus_seed = rng.next();
        let corpus: Vec<Vec<u8>> = (0..SHARDS)
            .map(|i| generate_shard(corpus_seed, i, SHARD_BYTES))
            .collect();
        let shards = corpus
            .iter()
            .map(|shard| rt.put_blob(Blob::from_slice(shard)))
            .collect();
        let first = rng.below(NEEDLE_SPACE);
        let warm_up = size.state(WARM_UP, 2);
        let jobs = size.ops(JOBS, 4);
        assert!(warm_up + jobs <= NEEDLE_SPACE, "needles would repeat");
        let w = PooledMapReduce {
            rt,
            job: MapReduce {
                map_proc,
                reduce_proc,
                limits: ResourceLimits::default_limits(),
            },
            corpus,
            shards,
            needles: (0..jobs).map(|i| needle(first + warm_up + i)).collect(),
            results: Vec::new(),
        };
        for j in 0..warm_up {
            w.job_once(&needle(first + j)).expect("warm-up job");
        }
        w
    }

    fn run(&mut self, ep: &mut Epoch) {
        self.results = ep.window(|ep| {
            let mut results = Vec::with_capacity(self.needles.len());
            for needle in &self.needles {
                results.push(ep.op(|| self.job_once(needle)));
            }
            results
        });
    }

    fn finish(self, ep: &mut Epoch) {
        for (i, (needle, got)) in self.needles.iter().zip(&self.results).enumerate() {
            ep.check(match got {
                Ok(n) if i % VERIFY_EVERY == 0 => *n == self.expected(needle),
                Ok(_) => true,
                Err(_) => false,
            });
        }
        runtime_counts(&self.rt, &mut ep.tally);
    }
}
