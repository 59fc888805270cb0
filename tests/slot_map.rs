//! The scheduler's slot map belongs to the runtime: pool worker `i` owns
//! deque slot `i`, and every other thread — however many come and go —
//! shares the runtime's one external slot.
//!
//! The pin: on a 1-worker runtime, 32 short-lived threads each submit
//! one single-step job and exit, while the test thread only watches the
//! procedure count. Every
//! job then sits in the external slot until the worker takes it, and a
//! worker taking from a slot it does not own is a steal — so the steal
//! count equals the procedure count. A slot map shared by the whole
//! process, handing each new thread the next of a fixed number of slots
//! round-robin, fails this: the thread that lands on the worker's own
//! slot pushes straight into the worker's deque, and that job runs
//! without a steal.
//!
//! This file holds one test, so it is its own test binary and process:
//! no other test's threads can take slots while it runs, and at a
//! process-global slot map the thread that lands on the worker's slot is
//! the same one every run.

use fix::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: u64 = 32;

#[test]
fn every_external_thread_shares_one_slot_the_worker_steals_from() {
    let rt = Arc::new(Runtime::builder().workers(1).build());
    let add = rt.register_native(
        "slot-map/add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
            ctx.host.create_blob((a + b).to_le_bytes().to_vec())
        }),
    );
    for i in 0..THREADS {
        // A fresh thread submits one job, hands back its ticket (dropping
        // it would cancel the job) and exits.
        let submitter = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let args = [
                    rt.put_blob(Blob::from_u64(i)),
                    rt.put_blob(Blob::from_u64(1)),
                ];
                let thunk = rt
                    .apply(ResourceLimits::default_limits(), add, &args)
                    .expect("apply");
                rt.submit(thunk)
            })
        };
        let ticket = submitter.join().expect("submitter exits cleanly");
        // Wait for the worker to start the job before waiting on it: the
        // test thread never drives the scheduler (by then no token of
        // the job is queued), so the worker runs every job.
        let patience = Instant::now() + Duration::from_secs(30);
        while rt.procedures_run() <= i {
            assert!(Instant::now() < patience, "job {i} never ran");
            std::thread::sleep(Duration::from_micros(50));
        }
        let out = ticket.wait().expect("add succeeds");
        assert_eq!(rt.get_u64(out).unwrap(), i + 1);
    }
    assert_eq!(rt.procedures_run(), THREADS);
    assert_eq!(
        rt.work_steals(),
        rt.procedures_run(),
        "every job the worker ran came out of the external slot"
    );
}
