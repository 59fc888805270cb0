//! `durable_log` and `durable_reopen`: the append side and the restart
//! side of the persistence tier, so an append-side win paid for with
//! restart or fault-in cost shows in the other workload.
//!
//! Both run a native procedure that expands a `u64` into a 1 KiB blob
//! (past the literal bound, so every result is stored, logged and
//! faulted for real) and compare every returned blob byte for byte.
//! Log directories are `TempDir`s under the process's temp root (see
//! `main`), removed when the epoch ends or unwinds.

use super::{runtime_counts, EVAL, MINT, PROC, READ};
use crate::harness::{Epoch, Rng, Size, Tally, Workload};
use crate::spans;
use fix::durable::{DurableOptions, DurableStore, FsyncPolicy};
use fix::prelude::*;
use std::path::Path;
use std::sync::Arc;
use tempfile::TempDir;

/// `durable_log`: distinct requests per epoch.
const LOG_OPS: u64 = 6_000;
const LOG_WARM_UP: u64 = 1_000;
const LOG_FSYNC_EVERY: u64 = 64;
/// `durable_reopen`: requests in the log, and open + re-serve cycles.
const REOPEN_REQUESTS: u64 = 10_000;
const REOPEN_CYCLES: u64 = 2;
const RESULT_BYTES: usize = 1024;

/// The xorshift64 words the procedure expands `seed` into.
fn expand_words(seed: u64) -> impl Iterator<Item = u64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    })
    .take(RESULT_BYTES / 8)
}

/// The procedure's output for `seed`: the words, little-endian.
pub fn expand_bytes(seed: u64) -> Vec<u8> {
    expand_words(seed).flat_map(u64::to_le_bytes).collect()
}

/// Whether `bytes` is exactly the procedure's output for `seed`
/// (checked word by word: the timed path allocates nothing for it).
fn is_expansion(bytes: &[u8], seed: u64) -> bool {
    bytes.len() == RESULT_BYTES
        && bytes
            .chunks_exact(8)
            .zip(expand_words(seed))
            .all(|(chunk, word)| chunk == word.to_le_bytes())
}

pub fn register_expand(rt: &Runtime) -> Handle {
    rt.register_native(
        "fixbench/expand",
        Arc::new(|ctx| {
            let bytes = {
                let _s = spans::leaf(PROC);
                expand_bytes(ctx.arg_blob(0)?.as_u64().unwrap_or(0))
            };
            ctx.host.create_blob(bytes)
        }),
    )
}

/// One operation: mint `expand(seed)`, evaluate it, fetch the blob and
/// compare it with what the procedure must have produced.
#[inline]
pub fn expand_once(rt: &Runtime, expand: Handle, seed: u64) -> Result<bool> {
    let s = spans::enter(MINT);
    let arg = rt.put_blob(Blob::from_u64(seed));
    let thunk = rt.apply(ResourceLimits::default_limits(), expand, &[arg])?;
    let s = spans::then(s, EVAL);
    let out = rt.eval(thunk)?;
    let s = spans::then(s, READ);
    let blob = rt.get_blob(out)?;
    drop(s);
    Ok(is_expansion(blob.as_slice(), seed))
}

fn durable_runtime(dir: &Path, options: DurableOptions) -> (Runtime, Handle) {
    let store = {
        let _s = spans::enter("durable.open");
        DurableStore::open(dir, options).expect("durable store opens")
    };
    let rt = Runtime::builder().durable(store).build();
    let expand = register_expand(&rt);
    (rt, expand)
}

fn durable_counts(rt: &Runtime, t: &mut Tally) {
    let s = rt.durable().expect("durable runtime").stats();
    t.add("durable.appended_frames", s.appended_frames as f64);
    t.add("durable.appended_bytes", s.appended_bytes as f64);
    t.add("durable.snapshots", s.snapshots as f64);
    t.add("durable.fsyncs", s.fsyncs as f64);
    t.add("durable.faults", s.faults as f64);
    t.add("durable.replayed_nodes", s.replayed_nodes as f64);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("log directory is readable")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

pub fn temp_dir() -> TempDir {
    TempDir::with_prefix("fixbench").expect("temp directory")
}

pub struct DurableLog {
    dir: TempDir,
    rt: Runtime,
    expand: Handle,
    /// Requests served during set-up: their results are in the log too.
    warm_up: u64,
    seeds: Vec<u64>,
}

impl Workload for DurableLog {
    fn setup(rng: &mut Rng, size: &Size) -> Self {
        let dir = temp_dir();
        let (rt, expand) = durable_runtime(
            dir.path(),
            DurableOptions {
                fsync: FsyncPolicy::EveryN(LOG_FSYNC_EVERY),
                ..DurableOptions::default()
            },
        );
        let base = rng.next() >> 1;
        let warm_up = size.state(LOG_WARM_UP, 4);
        for j in 0..warm_up {
            assert!(
                matches!(expand_once(&rt, expand, base + j), Ok(true)),
                "warm-up"
            );
        }
        let seeds = (0..size.ops(LOG_OPS, 16))
            .map(|i| base + warm_up + i)
            .collect();
        DurableLog {
            dir,
            rt,
            expand,
            warm_up,
            seeds,
        }
    }

    fn run(&mut self, ep: &mut Epoch) {
        ep.window(|ep| {
            for &seed in &self.seeds {
                let got = ep.op(|| expand_once(&self.rt, self.expand, seed));
                ep.check(matches!(got, Ok(true)));
            }
            // The window ends once everything is snapshotted and durable,
            // so `req_per_s` is durable requests per second and the
            // snapshot's rewrite of every indexed node shows up here. The
            // snapshot is taken explicitly: the size-triggered one lands
            // at a point the writer thread's timing decides, and whether
            // it overlapped this flush made epochs bimodal (14k or 20k
            // requests/s).
            let _s = spans::enter("durable.flush_wait");
            let durable = self.rt.durable().expect("durable runtime");
            ep.check(durable.snapshot().and_then(|()| durable.flush()).is_ok());
        });
    }

    fn finish(self, ep: &mut Epoch) {
        runtime_counts(&self.rt, &mut ep.tally);
        durable_counts(&self.rt, &mut ep.tally);
        ep.tally
            .add("durable.disk_bytes", dir_bytes(self.dir.path()) as f64);
        ep.tally.add(
            "durable.user_bytes",
            ((self.warm_up as usize + self.seeds.len()) * RESULT_BYTES) as f64,
        );
    }
}

pub struct DurableReopen {
    dir: TempDir,
    seeds: Vec<u64>,
    cycles: u64,
}

impl Workload for DurableReopen {
    fn setup(rng: &mut Rng, size: &Size) -> Self {
        let dir = temp_dir();
        let base = rng.next() >> 1;
        let seeds: Vec<u64> = (0..size.state(REOPEN_REQUESTS, 16))
            .map(|i| base + i)
            .collect();
        let (rt, expand) = durable_runtime(
            dir.path(),
            DurableOptions {
                fsync: FsyncPolicy::OnSnapshot,
                ..DurableOptions::default()
            },
        );
        for &seed in &seeds {
            assert!(
                matches!(expand_once(&rt, expand, seed), Ok(true)),
                "populate"
            );
        }
        rt.durable()
            .expect("durable runtime")
            .flush()
            .expect("populated log flushes");
        drop(rt);
        DurableReopen {
            dir,
            seeds,
            cycles: size.ops(REOPEN_CYCLES, 1),
        }
    }

    fn run(&mut self, ep: &mut Epoch) {
        for _ in 0..self.cycles {
            // Open is inside the window (it is what a restart costs) but
            // is no operation's latency; the drop is outside.
            let rt = ep.window(|ep| {
                let (rt, expand) = durable_runtime(self.dir.path(), DurableOptions::default());
                for &seed in &self.seeds {
                    let got = ep.op(|| expand_once(&rt, expand, seed));
                    ep.check(matches!(got, Ok(true)));
                }
                rt
            });
            // A warm restart serves from the log: nothing recomputes.
            ep.check(rt.procedures_run() == 0);
            runtime_counts(&rt, &mut ep.tally);
            durable_counts(&rt, &mut ep.tally);
        }
    }

    fn finish(self, ep: &mut Epoch) {
        ep.tally
            .add("durable.disk_bytes", dir_bytes(self.dir.path()) as f64);
        ep.tally.add(
            "durable.user_bytes",
            (self.seeds.len() * RESULT_BYTES) as f64,
        );
    }
}
