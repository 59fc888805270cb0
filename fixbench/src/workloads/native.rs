//! `native_cold` and `memo_warm`: the same native `add` procedure, once
//! with every request new to the runtime and once with every request
//! already memoized — the write side and the read side of the store and
//! relation cache, so a change that helps one and hurts the other shows.

use super::{runtime_counts, EVAL, MINT, PROC, READ};
use crate::harness::{Epoch, Rng, Size, Workload};
use crate::spans;
use fix::prelude::*;
use std::sync::Arc;

/// `native_cold`: distinct requests per epoch.
const COLD_OPS: u64 = 60_000;
/// `memo_warm`: memoized key space and draws per epoch.
const WARM_KEYS: u64 = 65_536;
const WARM_OPS: u64 = 200_000;
/// Operations run during set-up so the window starts on warm code.
const WARM_UP: u64 = 10_000;

pub fn register_add(rt: &Runtime) -> Handle {
    rt.register_native(
        "fixbench/add",
        Arc::new(|ctx| {
            let sum = {
                let _s = spans::leaf(PROC);
                let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
                let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
                a.wrapping_add(b)
            };
            ctx.host.create_blob(sum.to_le_bytes().to_vec())
        }),
    )
}

/// One operation: mint the thunk `add(a, b)`, evaluate it, read the sum.
#[inline]
fn add_once(rt: &Runtime, add: Handle, a: u64, b: u64) -> Result<u64> {
    let s = spans::enter(MINT);
    let args = [
        rt.put_blob(Blob::from_u64(a)),
        rt.put_blob(Blob::from_u64(b)),
    ];
    let thunk = rt.apply(ResourceLimits::default_limits(), add, &args)?;
    let s = spans::then(s, EVAL);
    let out = rt.eval(thunk)?;
    let _s = spans::then(s, READ);
    rt.get_u64(out)
}

fn is_sum(got: Result<u64>, a: u64, b: u64) -> bool {
    matches!(got, Ok(v) if v == a.wrapping_add(b))
}

/// Distinct `(a, b)` pairs: `a` counts up from a seeded base, so no two
/// requests of an epoch (warm-up included, which counts down) coincide.
fn pairs(rng: &mut Rng, n: u64) -> (u64, Vec<(u64, u64)>) {
    let base = rng.next() >> 1;
    (base, (0..n).map(|i| (base + i, rng.next())).collect())
}

pub struct NativeCold {
    rt: Runtime,
    add: Handle,
    pairs: Vec<(u64, u64)>,
}

impl Workload for NativeCold {
    fn setup(rng: &mut Rng, size: &Size) -> Self {
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let (base, pairs) = pairs(rng, size.ops(COLD_OPS, 16));
        for j in 0..size.state(WARM_UP, 16) {
            let (a, b) = (base.wrapping_sub(1 + j), j);
            assert!(is_sum(add_once(&rt, add, a, b), a, b), "warm-up add");
        }
        NativeCold { rt, add, pairs }
    }

    fn run(&mut self, ep: &mut Epoch) {
        ep.window(|ep| {
            for &(a, b) in &self.pairs {
                let got = ep.op(|| add_once(&self.rt, self.add, a, b));
                ep.check(is_sum(got, a, b));
            }
        });
    }

    fn finish(self, ep: &mut Epoch) {
        runtime_counts(&self.rt, &mut ep.tally);
    }
}

pub struct MemoWarm {
    rt: Runtime,
    add: Handle,
    keys: Vec<(u64, u64)>,
    picks: Vec<u32>,
    procedures_after_setup: u64,
}

impl Workload for MemoWarm {
    fn setup(rng: &mut Rng, size: &Size) -> Self {
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let (_, keys) = pairs(rng, size.state(WARM_KEYS, 16));
        for &(a, b) in &keys {
            assert!(is_sum(add_once(&rt, add, a, b), a, b), "memoizing add");
        }
        let picks = (0..size.ops(WARM_OPS, 64))
            .map(|_| rng.below(keys.len() as u64) as u32)
            .collect();
        let procedures_after_setup = rt.procedures_run();
        MemoWarm {
            rt,
            add,
            keys,
            picks,
            procedures_after_setup,
        }
    }

    fn run(&mut self, ep: &mut Epoch) {
        ep.window(|ep| {
            for &i in &self.picks {
                let (a, b) = self.keys[i as usize];
                let got = ep.op(|| add_once(&self.rt, self.add, a, b));
                ep.check(is_sum(got, a, b));
            }
        });
    }

    fn finish(self, ep: &mut Epoch) {
        // Pay-for-results: a memoized request must not run a procedure.
        ep.check(self.rt.procedures_run() == self.procedures_after_setup);
        runtime_counts(&self.rt, &mut ep.tally);
    }
}
