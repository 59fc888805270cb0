//! `vm_guest`: FixVM `fib(12)`, 24 guest invocations per operation.
//!
//! A per-request fuel limit is the salt: the limits blob is part of the
//! application tree (so the thunk's identity) and the guest hands it to
//! every recursive application, so no request shares a memoized step
//! with another and each one really decodes and interprets 24 modules.

use super::{runtime_counts, EVAL, MINT, READ};
use crate::harness::{Epoch, Rng, Size, Workload};
use crate::spans;
use fix::prelude::*;
use fix::workloads::guests;

const OPS: u64 = 1_500;
const WARM_UP: u64 = 50;
const FIB_N: u64 = 12;
const FIB_VALUE: u64 = 144;

pub struct VmGuest {
    rt: Runtime,
    fib: Handle,
    add: Handle,
    n: Handle,
    salts: Vec<u64>,
}

impl VmGuest {
    #[inline]
    fn fib_once(&self, salt: u64) -> Result<u64> {
        let s = spans::enter(MINT);
        // Far above what fib(12) burns, so the salt never traps.
        let limits = ResourceLimits::new(64 << 20, (1 << 32) + salt);
        let thunk = self.rt.apply(limits, self.fib, &[self.add, self.n])?;
        let s = spans::then(s, EVAL);
        let out = self.rt.eval_strict(thunk)?;
        let _s = spans::then(s, READ);
        self.rt.get_u64(out)
    }
}

impl Workload for VmGuest {
    fn setup(rng: &mut Rng, size: &Size) -> Self {
        let rt = Runtime::builder().build();
        let fib = guests::install_fib(&rt).expect("fib guest assembles");
        let add = guests::install_add(&rt).expect("add guest assembles");
        let n = rt.put_blob(Blob::from_u64(FIB_N));
        let base = rng.next() >> 34;
        let warm_up = size.state(WARM_UP, 4);
        let salts = (0..size.ops(OPS, 8)).map(|i| base + warm_up + i).collect();
        let w = VmGuest {
            rt,
            fib,
            add,
            n,
            salts,
        };
        for j in 0..warm_up {
            assert!(matches!(w.fib_once(base + j), Ok(FIB_VALUE)), "warm-up fib");
        }
        w
    }

    fn run(&mut self, ep: &mut Epoch) {
        ep.window(|ep| {
            for &salt in &self.salts {
                let got = ep.op(|| self.fib_once(salt));
                ep.check(matches!(got, Ok(FIB_VALUE)));
            }
        });
    }

    fn finish(self, ep: &mut Epoch) {
        runtime_counts(&self.rt, &mut ep.tally);
    }
}
