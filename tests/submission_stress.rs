//! Concurrency stress for submission-first evaluation: N producer
//! threads submitting batches while M waiter threads resolve them over
//! one shared `Runtime`, with no worker pool — every scrap of progress
//! comes from waiters driving the scheduler through `wait`.
//!
//! What this pins down:
//!
//! * **no lost wakeups** — the test completing at all means every
//!   ticket resolved even though submissions, completions, and waits
//!   interleave freely across seven threads;
//! * **accounting closure** — every submitted request is resolved
//!   exactly once, with the right value, and the runtime executed
//!   exactly one procedure per distinct request;
//! * **no leaked bookkeeping** — the scheduler's watcher table is empty
//!   once the books close;
//! * **cancellation under fire** — a canceller thread dropping a share
//!   of the in-flight tickets must neither hang the waiters nor break
//!   the books: every surviving request still resolves exactly once,
//!   and no watcher or orphaned queued job outlives the run;
//! * **work stealing** — submissions land in the runtime's one external
//!   deque slot, which every thread but a pool worker owns, so a worker
//!   that makes progress on them crossed a deque boundary: the steal
//!   tests pin that cross-slot claiming keeps the same exactly-once
//!   books, that a submitting thread's exit never strands its queued
//!   work, and that a batch completes past a busy worker;
//! * **the door's stack** — a cold `eval` runs on the thread it arrives
//!   on, each job claimed at the door and stepped there: concurrent
//!   `eval`s of one thunk, or of one multi-step `fib(12)` whose stacks
//!   meet at jobs in flight, still run each procedure once, and a step
//!   that panics there, at any depth, leaves no claim or entry behind.

use fix::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Barrier, Mutex};

const PRODUCERS: usize = 4;
const WAITERS: usize = 3;
const BATCHES_PER_PRODUCER: usize = 30;
const BATCH: u64 = 8;

fn limits() -> ResourceLimits {
    ResourceLimits::default_limits()
}

#[test]
fn producers_and_waiters_share_one_runtime() {
    let rt = Arc::new(Runtime::builder().build());
    let add = rt.register_native(
        "stress/add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );

    // Producers ship (expected results, ticket) pairs; waiters resolve.
    let (tx, rx) = mpsc::channel::<(Vec<u64>, BatchTicket)>();
    let rx = Arc::new(Mutex::new(rx));
    let verified = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            let rt = Arc::clone(&rt);
            scope.spawn(move || {
                for k in 0..BATCHES_PER_PRODUCER {
                    // Globally unique first argument per request, so
                    // every thunk is distinct and runs exactly once.
                    let base = (p as u64) * 1_000_000 + (k as u64) * BATCH;
                    let thunks: Vec<Handle> = (0..BATCH)
                        .map(|j| {
                            rt.apply(
                                limits(),
                                add,
                                &[
                                    rt.put_blob(Blob::from_u64(base + j)),
                                    rt.put_blob(Blob::from_u64(17)),
                                ],
                            )
                            .unwrap()
                        })
                        .collect();
                    let expected: Vec<u64> = (0..BATCH).map(|j| base + j + 17).collect();
                    // Submission must not block: the producer never
                    // drives the scheduler itself.
                    tx.send((expected, rt.submit_many(&thunks)))
                        .expect("waiters outlive producers");
                }
            });
        }
        drop(tx); // Waiters observe disconnect once producers finish.

        for w in 0..WAITERS {
            let rx = Arc::clone(&rx);
            let rt = Arc::clone(&rt);
            let verified = &verified;
            scope.spawn(move || {
                // Each waiter holds a small window of tickets; even
                // waiters resolve it oldest-first, odd ones newest-first,
                // to mix both orders against one scheduler.
                let oldest_first = w % 2 == 0;
                let mut expected: Vec<Vec<u64>> = Vec::new();
                let mut tickets: Vec<BatchTicket> = Vec::new();
                loop {
                    // Refill the window without blocking.
                    while tickets.len() < 4 {
                        match rx.lock().unwrap().try_recv() {
                            Ok((exp, ticket)) => {
                                expected.push(exp);
                                tickets.push(ticket);
                            }
                            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                        }
                    }
                    if tickets.is_empty() {
                        // Nothing in hand: block for more or finish.
                        match rx.lock().unwrap().recv() {
                            Ok((exp, ticket)) => {
                                expected.push(exp);
                                tickets.push(ticket);
                            }
                            Err(_) => return, // Drained and disconnected.
                        }
                    }
                    let i = if oldest_first { 0 } else { tickets.len() - 1 };
                    let (exp, results) = (expected.remove(i), tickets.remove(i).wait());
                    assert_eq!(results.len(), exp.len());
                    for (r, want) in results.iter().zip(&exp) {
                        let h = *r.as_ref().expect("stress request succeeds");
                        assert_eq!(rt.get_u64(h).unwrap(), *want);
                    }
                    verified.fetch_add(exp.len() as u64, Ordering::SeqCst);
                }
            });
        }
    });

    let total = (PRODUCERS * BATCHES_PER_PRODUCER) as u64 * BATCH;
    assert_eq!(
        verified.load(Ordering::SeqCst),
        total,
        "every submitted request must be resolved exactly once"
    );
    assert_eq!(
        rt.procedures_run(),
        total,
        "every distinct request ran exactly once (accounting closure)"
    );
    assert_eq!(
        rt.submission_watchers(),
        0,
        "resolved tickets must leave no watchers behind"
    );
}

/// The same books must close when a real worker pool races the waiters
/// for queue items (completions can now happen between a waiter's poll
/// and its park — the lost-wakeup window this test exists to slam).
#[test]
fn stress_survives_a_worker_pool() {
    let rt = Arc::new(Runtime::builder().workers(2).build());
    let add = rt.register_native(
        "stress/pool-add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );
    let resolved = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for p in 0..3u64 {
            let rt = Arc::clone(&rt);
            let resolved = &resolved;
            scope.spawn(move || {
                let tickets: Vec<BatchTicket> = (0..20u64)
                    .map(|k| {
                        let thunks: Vec<Handle> = (0..BATCH)
                            .map(|j| {
                                rt.apply(
                                    limits(),
                                    add,
                                    &[
                                        rt.put_blob(Blob::from_u64(p * 10_000 + k * BATCH + j)),
                                        rt.put_blob(Blob::from_u64(1)),
                                    ],
                                )
                                .unwrap()
                            })
                            .collect();
                        rt.submit_many(&thunks)
                    })
                    .collect();
                for ticket in tickets {
                    for r in ticket.wait() {
                        r.expect("pool stress request succeeds");
                        resolved.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(resolved.load(Ordering::SeqCst), 3 * 20 * BATCH);
    assert_eq!(rt.submission_watchers(), 0);
}

/// A canceller thread races the waiters: a deterministic share of the
/// tickets is cancelled mid-flight while the rest are verified. The
/// accounting must still close — every surviving request resolves
/// exactly once with the right value, procedures never run more than
/// once per distinct request, and nothing (watchers or queued jobs)
/// leaks.
#[test]
fn canceller_thread_cannot_break_accounting() {
    let rt = Arc::new(Runtime::builder().build());
    let add = rt.register_native(
        "stress/cancel-add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );

    // Producers tag every third batch for cancellation; the canceller
    // drains those, the waiters the rest.
    let (live_tx, live_rx) = mpsc::channel::<(Vec<u64>, BatchTicket)>();
    let (doom_tx, doom_rx) = mpsc::channel::<BatchTicket>();
    let live_rx = Arc::new(Mutex::new(live_rx));
    let verified = AtomicU64::new(0);
    let doomed_count = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let live_tx = live_tx.clone();
            let doom_tx = doom_tx.clone();
            let rt = Arc::clone(&rt);
            let doomed_count = &doomed_count;
            scope.spawn(move || {
                for k in 0..BATCHES_PER_PRODUCER {
                    let base = 2_000_000 + (p as u64) * 1_000_000 + (k as u64) * BATCH;
                    let thunks: Vec<Handle> = (0..BATCH)
                        .map(|j| {
                            rt.apply(
                                limits(),
                                add,
                                &[
                                    rt.put_blob(Blob::from_u64(base + j)),
                                    rt.put_blob(Blob::from_u64(23)),
                                ],
                            )
                            .unwrap()
                        })
                        .collect();
                    let ticket = rt.submit_many(&thunks);
                    if k % 3 == 0 {
                        doomed_count.fetch_add(BATCH, Ordering::SeqCst);
                        doom_tx.send(ticket).expect("canceller outlives producers");
                    } else {
                        let expected: Vec<u64> = (0..BATCH).map(|j| base + j + 23).collect();
                        live_tx
                            .send((expected, ticket))
                            .expect("waiters outlive producers");
                    }
                }
            });
        }
        drop(live_tx);
        drop(doom_tx);

        // The canceller: revokes tickets as fast as they arrive.
        scope.spawn(move || {
            while let Ok(ticket) = doom_rx.recv() {
                drop(ticket);
            }
        });

        for _ in 0..WAITERS {
            let live_rx = Arc::clone(&live_rx);
            let rt = Arc::clone(&rt);
            let verified = &verified;
            scope.spawn(move || loop {
                let next = live_rx.lock().unwrap().recv();
                let Ok((expected, ticket)) = next else {
                    return; // Drained and disconnected.
                };
                let results = ticket.wait();
                assert_eq!(results.len(), expected.len());
                for (r, want) in results.iter().zip(&expected) {
                    let h = *r.as_ref().expect("surviving request succeeds");
                    assert_eq!(rt.get_u64(h).unwrap(), *want);
                }
                verified.fetch_add(expected.len() as u64, Ordering::SeqCst);
            });
        }
    });

    let total = (PRODUCERS * BATCHES_PER_PRODUCER) as u64 * BATCH;
    let doomed = doomed_count.load(Ordering::SeqCst);
    assert_eq!(
        verified.load(Ordering::SeqCst),
        total - doomed,
        "every surviving request must be resolved exactly once"
    );
    // Distinct thunks run at most once; every verified one ran. The
    // cancelled remainder ran only if a waiter dequeued it before its
    // cancel landed — never more than once either way.
    let ran = rt.procedures_run();
    assert!(
        ran >= total - doomed && ran <= total,
        "procedures_run {ran} outside [{}, {total}]",
        total - doomed
    );
    assert_eq!(rt.submission_watchers(), 0, "no watcher survives the run");
    assert_eq!(rt.queued_jobs(), 0, "no orphaned queued jobs survive");
}

/// The canceller stress again, now with a 4-worker pool stealing from
/// the external slot the producers submit to while cancels land. The
/// books must close exactly as they do without a pool: surviving
/// requests resolve once with the right value, nothing runs twice,
/// nothing leaks.
///
/// Steals: the waiters own the external slot with the producers, so
/// what they run is not a steal, and how many jobs the pool wins from
/// them is the OS scheduler's call (none, in about one run in a
/// hundred on two cores). The jobs take one step and push nothing, so
/// every job a worker runs it stole — that is what is pinned.
///
/// "Nothing leaks" is read once the pool is quiescent. A worker may
/// have claimed a job just before the only ticket wanting it was
/// cancelled: such a job is mid-step and completes as usual, a few
/// microseconds after the scope joins (its entry `Running`, its one
/// watcher dead, an executor claim held).
#[test]
fn worker_pool_steals_survive_concurrent_cancel() {
    const POOL_BATCHES: usize = 20;
    let rt = Arc::new(Runtime::builder().workers(4).build());
    let on_workers = Arc::new(AtomicU64::new(0));
    let add = rt.register_native("stress/steal-add", {
        let on_workers = Arc::clone(&on_workers);
        Arc::new(move |ctx| {
            let thread = std::thread::current();
            if thread
                .name()
                .is_some_and(|n| n.starts_with("fixpoint-worker"))
            {
                on_workers.fetch_add(1, Ordering::SeqCst);
            }
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        })
    });

    let (live_tx, live_rx) = mpsc::channel::<(Vec<u64>, BatchTicket)>();
    let (doom_tx, doom_rx) = mpsc::channel::<BatchTicket>();
    let live_rx = Arc::new(Mutex::new(live_rx));
    let verified = AtomicU64::new(0);
    let doomed_count = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let live_tx = live_tx.clone();
            let doom_tx = doom_tx.clone();
            let rt = Arc::clone(&rt);
            let doomed_count = &doomed_count;
            scope.spawn(move || {
                for k in 0..POOL_BATCHES {
                    let base = 4_000_000 + (p as u64) * 1_000_000 + (k as u64) * BATCH;
                    let thunks: Vec<Handle> = (0..BATCH)
                        .map(|j| {
                            rt.apply(
                                limits(),
                                add,
                                &[
                                    rt.put_blob(Blob::from_u64(base + j)),
                                    rt.put_blob(Blob::from_u64(31)),
                                ],
                            )
                            .unwrap()
                        })
                        .collect();
                    let ticket = rt.submit_many(&thunks);
                    if k % 3 == 0 {
                        doomed_count.fetch_add(BATCH, Ordering::SeqCst);
                        doom_tx.send(ticket).expect("canceller outlives producers");
                    } else {
                        let expected: Vec<u64> = (0..BATCH).map(|j| base + j + 31).collect();
                        live_tx
                            .send((expected, ticket))
                            .expect("waiters outlive producers");
                    }
                }
            });
        }
        drop(live_tx);
        drop(doom_tx);

        scope.spawn(move || {
            while let Ok(ticket) = doom_rx.recv() {
                drop(ticket);
            }
        });

        for _ in 0..WAITERS {
            let live_rx = Arc::clone(&live_rx);
            let rt = Arc::clone(&rt);
            let verified = &verified;
            scope.spawn(move || loop {
                let next = live_rx.lock().unwrap().recv();
                let Ok((expected, ticket)) = next else {
                    return;
                };
                let results = ticket.wait();
                assert_eq!(results.len(), expected.len());
                for (r, want) in results.iter().zip(&expected) {
                    let h = *r.as_ref().expect("surviving request succeeds");
                    assert_eq!(rt.get_u64(h).unwrap(), *want);
                }
                verified.fetch_add(expected.len() as u64, Ordering::SeqCst);
            });
        }
    });

    let total = (PRODUCERS * POOL_BATCHES) as u64 * BATCH;
    let doomed = doomed_count.load(Ordering::SeqCst);
    assert_eq!(
        verified.load(Ordering::SeqCst),
        total - doomed,
        "every surviving request must be resolved exactly once"
    );
    let ran = rt.procedures_run();
    assert!(
        ran >= total - doomed && ran <= total,
        "procedures_run {ran} outside [{}, {total}]",
        total - doomed
    );
    let stolen = on_workers.load(Ordering::SeqCst);
    assert!(
        rt.work_steals() >= stolen,
        "pool workers ran {stolen} jobs but stole only {}",
        rt.work_steals()
    );
    assert_eq!(rt.submission_watchers(), 0, "no watcher survives the run");
    let patience = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while rt.queued_jobs() != 0 {
        assert!(
            std::time::Instant::now() < patience,
            "no orphaned queued jobs survive"
        );
        std::thread::yield_now();
    }
}

/// A producer thread submits a batch and *exits* without driving the
/// scheduler; the main thread must then run the work the dead thread
/// queued rather than misreport an "evaluation stalled" trap.
///
/// Producer and waiter share the runtime's one external slot, so the
/// waiter pops the work as an owner: no steal is asserted, because the
/// premise that the two threads sit in different slots is gone.
#[test]
fn exited_submitters_work_is_stolen_not_stalled() {
    let rt = Runtime::builder().build();
    let add = rt.register_native(
        "stress/orphan-add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );

    let (tx, rx) = mpsc::channel::<(Vec<u64>, BatchTicket)>();
    std::thread::scope(|scope| {
        let rt = &rt;
        scope.spawn(move || {
            let thunks: Vec<Handle> = (0..BATCH)
                .map(|j| {
                    rt.apply(
                        limits(),
                        add,
                        &[
                            rt.put_blob(Blob::from_u64(6_000_000 + j)),
                            rt.put_blob(Blob::from_u64(7)),
                        ],
                    )
                    .unwrap()
                })
                .collect();
            let expected: Vec<u64> = (0..BATCH).map(|j| 6_000_000 + j + 7).collect();
            tx.send((expected, rt.submit_many(&thunks))).unwrap();
        });
    });
    // The producer is gone; its tokens outlive it in the external slot.
    let (expected, ticket) = rx.recv().unwrap();
    let results = ticket.wait();
    for (r, want) in results.iter().zip(&expected) {
        let h = *r.as_ref().expect("orphaned request still succeeds");
        assert_eq!(rt.get_u64(h).unwrap(), *want);
    }
    assert_eq!(rt.submission_watchers(), 0);
    assert_eq!(rt.queued_jobs(), 0);
}

/// The starvation pin: with a 2-worker pool, one worker is wedged on a
/// long job (a codelet blocked on a channel). A batch submitted from an
/// external thread must still complete — the idle worker or the waiter
/// takes it past the busy worker — and only then is the wedged job
/// released.
#[test]
fn a_batch_completes_past_a_busy_worker_via_stealing() {
    let rt = Arc::new(Runtime::builder().workers(2).build());
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let started_tx = Mutex::new(started_tx);
    let gate_rx = Mutex::new(gate_rx);
    let blocker = rt.register_native(
        "stress/blocker",
        Arc::new(move |ctx| {
            started_tx.lock().unwrap().send(()).ok();
            // Hold the worker until the test releases it (or drops the
            // channel on a failure path — either unblocks us).
            let _ = gate_rx.lock().unwrap().recv();
            ctx.host.create_blob(0u64.to_le_bytes().to_vec())
        }),
    );
    let add = rt.register_native(
        "stress/starve-add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );

    // Wedge one worker on a job and wait until it is
    // actually executing (the main thread never drives the scheduler
    // here, so only a pool worker can have claimed it — via a steal
    // from the external slot this thread submitted to).
    let blocker_thunk = rt
        .apply(limits(), blocker, &[rt.put_blob(Blob::from_u64(0))])
        .unwrap();
    let blocker_ticket = rt.submit_many(&[blocker_thunk]);
    started_rx.recv().expect("a worker claims the blocker");

    // A batch submitted from a fresh thread, which exits
    // immediately: completion must not wait for the wedged worker.
    let (tx, rx) = mpsc::channel::<(Vec<u64>, BatchTicket)>();
    std::thread::scope(|scope| {
        let rt = Arc::clone(&rt);
        scope.spawn(move || {
            let thunks: Vec<Handle> = (0..BATCH)
                .map(|j| {
                    rt.apply(
                        limits(),
                        add,
                        &[
                            rt.put_blob(Blob::from_u64(8_000_000 + j)),
                            rt.put_blob(Blob::from_u64(11)),
                        ],
                    )
                    .unwrap()
                })
                .collect();
            let expected: Vec<u64> = (0..BATCH).map(|j| 8_000_000 + j + 11).collect();
            let ticket = rt.submit_many(&thunks);
            tx.send((expected, ticket)).unwrap();
        });
    });
    let (expected, ticket) = rx.recv().unwrap();
    let results = ticket.wait();
    for (r, want) in results.iter().zip(&expected) {
        let h = *r.as_ref().expect("the request completes despite the wedge");
        assert_eq!(rt.get_u64(h).unwrap(), *want);
    }
    assert!(
        rt.work_steals() > 0,
        "the blocker ran on a worker, which took it from the external slot"
    );

    // Only now release the wedged worker and close its books too.
    gate_tx
        .send(())
        .expect("blocker is still parked on the gate");
    for r in blocker_ticket.wait() {
        r.expect("blocker completes once released");
    }
    assert_eq!(rt.submission_watchers(), 0);
    assert_eq!(rt.queued_jobs(), 0);
}

/// Threads racing each round of `race_rounds`.
const RACERS: usize = 8;

/// Each round, `RACERS` threads evaluate `thunks[round]` at once
/// (`strict`: deep-forced), meeting at a barrier before and after.
/// Returns `procedures_run` after each round, read once every
/// evaluation of that round returned, and every thread's results.
fn race_rounds(rt: &Runtime, thunks: &[Handle], strict: bool) -> (Vec<u64>, Vec<Result<u64>>) {
    // Every thread passes the barrier twice a round: once to start the
    // round together, once to let the leader read the count after every
    // evaluation of the round returned and before any of the next begins.
    let barrier = Barrier::new(RACERS);
    let runs_after = Mutex::new(Vec::new());
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..RACERS {
            scope.spawn(|| {
                for &thunk in thunks {
                    barrier.wait();
                    let out = if strict {
                        rt.eval_strict(thunk)
                    } else {
                        rt.eval(thunk)
                    };
                    results
                        .lock()
                        .unwrap()
                        .push(out.and_then(|h| rt.get_u64(h)));
                    if barrier.wait().is_leader() {
                        runs_after.lock().unwrap().push(rt.procedures_run());
                    }
                }
            });
        }
    });
    assert_eq!(rt.submission_watchers(), 0);
    assert_eq!(rt.queued_jobs(), 0);
    (
        runs_after.into_inner().unwrap(),
        results.into_inner().unwrap(),
    )
}

/// The door's claim is the dedup: each round, eight threads `eval` one
/// fresh cold thunk at once on a 2-worker runtime. One of them claims
/// the job and steps it where it arrived; the others find its entry and
/// watch it. The procedure runs exactly once per round.
#[test]
fn concurrent_evals_of_one_cold_thunk_run_it_once() {
    const ROUNDS: u64 = 200;
    let rt = Runtime::builder().workers(2).build();
    let add = rt.register_native(
        "stress/door-add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );
    let thunks: Vec<Handle> = (0..ROUNDS)
        .map(|r| {
            let args = [9_000_000 + r, 3].map(|n| rt.put_blob(Blob::from_u64(n)));
            rt.apply(limits(), add, &args).unwrap()
        })
        .collect();
    let before = rt.procedures_run();
    let (runs_after, sums) = race_rounds(&rt, &thunks, false);
    let expected: Vec<u64> = (1..=ROUNDS).map(|r| before + r).collect();
    assert_eq!(runs_after, expected, "one procedure run per round");
    let mut sums: Vec<u64> = sums
        .into_iter()
        .map(|s| s.expect("every eval of the round succeeds"))
        .collect();
    sums.sort_unstable();
    let mut want: Vec<u64> = (0..ROUNDS)
        .flat_map(|r| [9_000_000 + r + 3; RACERS])
        .collect();
    want.sort_unstable();
    assert_eq!(sums, want);
}

/// Door stacks meet: each round, eight threads `eval_strict` one fresh
/// salted FixVM `fib(12)` on a 2-worker runtime. Whichever thread
/// claims a job steps it on its stack; another thread's stack that
/// reaches it watches it, and a stack with two pending operands while
/// a worker idles publishes them for the worker to steal. However they
/// meet, the round runs its 24 procedures once.
#[test]
fn concurrent_evals_of_one_cold_fib_run_each_procedure_once() {
    const ROUNDS: u64 = 40;
    let rt = Runtime::builder().workers(2).build();
    let fib = fix::workloads::guests::install_fib(&rt).unwrap();
    let add = fix::workloads::guests::install_add(&rt).unwrap();
    let n = rt.put_blob(Blob::from_u64(12));
    let thunks: Vec<Handle> = (0..ROUNDS)
        .map(|salt| {
            let limits = ResourceLimits::new(64 << 20, (1 << 32) + salt);
            rt.apply(limits, fib, &[add, n]).unwrap()
        })
        .collect();
    let (runs_after, values) = race_rounds(&rt, &thunks, true);
    let expected: Vec<u64> = (1..=ROUNDS).map(|r| 24 * r).collect();
    assert_eq!(runs_after, expected, "24 procedure runs per round");
    for value in values {
        assert_eq!(value.expect("every eval of the round succeeds"), 144);
    }
}

/// A native that panics when the door steps it is a guest fault:
/// `eval` returns `Error::Trap`, and the door's entry and claim go with
/// the step — also two frames up the door's stack, where the panicking
/// job is the tail call of a job that a strict encode waits on. So the
/// same thunks trap again (a leftover entry would leave its watcher on
/// a job nobody steps: a stall, or with the claim also leaked, a hang),
/// nothing is queued or watched, and the next `eval` on the runtime
/// completes.
#[test]
fn a_panic_at_the_door_releases_its_claim() {
    let rt = Runtime::builder().build();
    let boom = rt.register_native(
        "stress/door-panic",
        Arc::new(|_ctx| -> Result<Handle> { panic!("guest bug at the door") }),
    );
    let first = rt.register_native("stress/door-first", Arc::new(|ctx| ctx.arg(0)));
    let bad = rt.apply(limits(), boom, &[]).unwrap();
    let middle = rt.apply(limits(), first, &[bad]).unwrap();
    let outer = rt
        .apply(limits(), first, &[middle.strict().unwrap()])
        .unwrap();
    for request in [bad, outer] {
        for attempt in 0..2 {
            match rt.eval(request) {
                Err(Error::Trap(msg)) => assert!(msg.contains("codelet panicked"), "{msg}"),
                other => panic!("attempt {attempt}: expected the codelet's trap, got {other:?}"),
            }
        }
    }
    assert_eq!(rt.queued_jobs(), 0);
    assert_eq!(rt.submission_watchers(), 0);

    let add = rt.register_native(
        "stress/after-panic-add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    );
    // A strict encode as an argument: the door's step parks on it, so
    // this request runs two frames on the door's stack.
    let inner = rt
        .apply(
            limits(),
            add,
            &[1, 2].map(|n| rt.put_blob(Blob::from_u64(n))),
        )
        .unwrap();
    let outer = rt
        .apply(
            limits(),
            add,
            &[inner.strict().unwrap(), rt.put_blob(Blob::from_u64(4))],
        )
        .unwrap();
    assert_eq!(rt.get_u64(rt.eval(outer).unwrap()).unwrap(), 7);
    assert_eq!(rt.queued_jobs(), 0);
    assert_eq!(rt.submission_watchers(), 0);
}
