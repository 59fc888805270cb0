//! Backend-conformance suite for the One Fix API.
//!
//! One set of semantics assertions — memoization, determinism, laziness,
//! error equivalence, batching — written once against the
//! `fix_core::api` traits and executed against every backend: the
//! single-node `fixpoint::Runtime`, the netsim-backed
//! `fix_cluster::ClusterClient`, and (for the submission checks) that
//! client under a comparator profile and a [`Minimal`] backend that
//! implements nothing but the API's required methods. Because handles
//! are content addressed, conforming backends must agree *bit for bit*,
//! so each check also returns its result handles and the harness
//! compares them across backends.

use fix::prelude::*;
use fix_cluster::ClusterClient;
use fix_core::api::Footprint;
use fix_workloads::guests;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn limits() -> ResourceLimits {
    ResourceLimits::default_limits()
}

/// Runs `check` on every backend and asserts the returned handles are
/// identical across them.
fn on_every_backend<F>(check: F)
where
    F: Fn(&dyn BackendUnderTest) -> Vec<Handle>,
{
    let runtime = Runtime::builder().build();
    let cluster = ClusterClient::builder().build().expect("cluster client");
    let backends: Vec<(&str, &dyn BackendUnderTest)> =
        vec![("Runtime", &runtime), ("ClusterClient", &cluster)];
    let mut results: Vec<(&str, Vec<Handle>)> = Vec::new();
    for (name, backend) in backends {
        results.push((name, check(backend)));
    }
    let (first_name, first) = &results[0];
    for (name, handles) in &results[1..] {
        assert_eq!(
            first, handles,
            "backend '{name}' disagrees with '{first_name}'"
        );
    }
}

/// The object-safe face of the trait family, so one closure can drive
/// heterogeneous backends. (Generic user code uses the traits directly;
/// this erasure is a harness convenience only.)
trait BackendUnderTest: ObjectApi + InvocationApi + Evaluator {}
impl<T: ObjectApi + InvocationApi + Evaluator> BackendUnderTest for T {}

/// The submission-capable face: the One Fix API plus the Fix node
/// behind it. Every backend has one — `Runtime` (with and without a
/// worker pool) is a scheduler, and the cluster client submits through
/// the scheduler of the node it embeds, which
/// [`node`](SubmittingBackend::node) exposes so the leak checks
/// (no watcher, no queued job left behind) run on all of them.
trait SubmittingBackend: BackendUnderTest {
    /// The Fix node whose scheduler serves this backend's submissions.
    fn node(&self) -> &Runtime;
}
impl SubmittingBackend for Runtime {
    fn node(&self) -> &Runtime {
        self
    }
}
impl SubmittingBackend for ClusterClient {
    fn node(&self) -> &Runtime {
        self.inner()
    }
}
impl SubmittingBackend for Minimal {
    fn node(&self) -> &Runtime {
        &self.0
    }
}

/// The smallest conforming backend: a `Runtime` that forgets its
/// overrides. It implements *only* the required methods of the four
/// traits — seven of them — and inherits every provided one, so it stops
/// compiling the day a required method is added, and running it through
/// the submission roster proves the provided methods sufficient
/// (`eval` here is the API's submit-and-wait, not `run_inline`).
struct Minimal(Runtime);

impl ObjectApi for Minimal {
    fn put(&self, node: Node) -> Handle {
        self.0.put(node)
    }
    fn get(&self, handle: Handle) -> Result<Node> {
        self.0.store().get(handle)
    }
    fn contains(&self, handle: Handle) -> bool {
        self.0.store().contains(handle)
    }
}

impl InvocationApi for Minimal {
    fn register_native(&self, name: &str, f: NativeFn) -> Handle {
        self.0.register_native(name, f)
    }
}

impl SubmitApi for Minimal {
    fn submit_with(&self, handles: &[Handle], options: SubmitOptions) -> BatchTicket {
        self.0.submit_with(handles, options)
    }
}

impl Evaluator for Minimal {
    fn footprint(&self, thunk: Handle) -> Result<Footprint> {
        self.0.footprint(thunk)
    }
    fn procedures_run(&self) -> u64 {
        self.0.procedures_run()
    }
}

/// Runs `check` on every submission-capable backend and asserts the
/// returned handles are identical across them.
fn on_every_submitting_backend<F>(check: F)
where
    F: Fn(&dyn SubmittingBackend) -> Vec<Handle>,
{
    let inline = Runtime::builder().build();
    let pooled = Runtime::builder().workers(2).build();
    // A wider pool than cores on most CI boxes: exercises the sharded
    // job map and cross-deque stealing under genuine oversubscription.
    let pooled4 = Runtime::builder().workers(4).build();
    let cluster = ClusterClient::builder().build().expect("cluster client");
    let openwhisk = openwhisk_client();
    let minimal = Minimal(Runtime::builder().build());
    let backends: Vec<(&str, &dyn SubmittingBackend)> = vec![
        ("Runtime", &inline),
        ("Runtime(workers=2)", &pooled),
        ("Runtime(workers=4)", &pooled4),
        ("ClusterClient", &cluster),
        ("ClusterClient(openwhisk)", &openwhisk),
        ("Minimal", &minimal),
    ];
    let mut results: Vec<(&str, Vec<Handle>)> = Vec::new();
    for (name, backend) in backends {
        results.push((name, check(backend)));
        // Whatever the check did — waited, dropped, cancelled, expired —
        // every ticket is gone, so no watcher may be left, and no queued
        // job once the node is quiescent (a worker pool may still be
        // finishing a step whose ticket was cancelled under it).
        let node = backend.node();
        assert_eq!(node.submission_watchers(), 0, "{name} leaks watchers");
        let patience = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while node.queued_jobs() != 0 {
            assert!(
                std::time::Instant::now() < patience,
                "{name} orphans queued jobs"
            );
            std::thread::yield_now();
        }
    }
    let (first_name, first) = &results[0];
    for (name, handles) in &results[1..] {
        assert_eq!(
            first, handles,
            "backend '{name}' disagrees with '{first_name}'"
        );
    }
}

/// Runs `check` on every backend whose node has no worker pool: the
/// bare `Runtime` and the client under both profiles. Nothing drives such a node between
/// submit and wait, so what is queued and watched at each step is
/// deterministic and the checks can pin it exactly.
fn on_every_inline_node<F: Fn(&dyn SubmittingBackend)>(check: F) {
    check(&Runtime::builder().build());
    check(&ClusterClient::builder().build().expect("cluster client"));
    check(&openwhisk_client());
}

/// The cluster client costed as a comparator system instead of Fixpoint.
fn openwhisk_client() -> ClusterClient {
    ClusterClient::builder()
        .profile(fix_baselines::profiles::openwhisk(
            &(0..4).map(fix_netsim::NodeId).collect::<Vec<_>>(),
            &fix_baselines::CostModel::default(),
        ))
        .build()
        .expect("cluster client under the OpenWhisk profile")
}

fn register_add(rt: &dyn BackendUnderTest) -> Handle {
    rt.register_native(
        "conf/add",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap();
            let b = ctx.arg_blob(1)?.as_u64().unwrap();
            ctx.host
                .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
        }),
    )
}

#[test]
fn arithmetic_and_data_round_trips_agree() {
    on_every_backend(|rt| {
        let add = register_add(rt);
        let a = rt.put_blob(Blob::from_u64(30));
        let b = rt.put_blob(Blob::from_u64(12));
        let thunk = rt.apply(limits(), add, &[a, b]).unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 42);
        assert!(rt.contains(out));
        // Tree round trip through the trait surface.
        let tree = rt.put_tree(Tree::from_handles(vec![a, out]));
        assert_eq!(rt.get_tree(tree).unwrap().entries(), &[a, out]);
        vec![add, thunk, out, tree]
    });
}

#[test]
fn memoization_runs_each_procedure_once() {
    on_every_backend(|rt| {
        let add = register_add(rt);
        let thunk = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(1)),
                    rt.put_blob(Blob::from_u64(2)),
                ],
            )
            .unwrap();
        let first = rt.eval(thunk).unwrap();
        let runs = rt.procedures_run();
        assert_eq!(runs, 1, "one apply, one execution");
        let second = rt.eval(thunk).unwrap();
        assert_eq!(first, second, "evaluation must be deterministic");
        assert_eq!(
            rt.procedures_run(),
            runs,
            "the repeat request must be a pure cache hit"
        );
        vec![first]
    });
}

#[test]
fn laziness_skips_untaken_branches() {
    on_every_backend(|rt| {
        let boom = rt.register_native(
            "conf/boom",
            Arc::new(|_ctx| -> Result<Handle> { Err(Error::Trap("must never run".into())) }),
        );
        let constant = rt.register_native(
            "conf/one",
            Arc::new(|ctx| ctx.host.create_blob(1u64.to_le_bytes().to_vec())),
        );
        let pick = rt.register_native(
            "conf/if",
            Arc::new(|ctx| {
                let pred = ctx.arg_blob(0)?.as_u64().unwrap_or(0) != 0;
                if pred {
                    ctx.arg(1)
                } else {
                    ctx.arg(2)
                }
            }),
        );
        let good = rt.apply(limits(), constant, &[]).unwrap();
        let bad = rt.apply(limits(), boom, &[]).unwrap();
        let branch = rt
            .apply(limits(), pick, &[rt.put_blob(Blob::from_u64(1)), good, bad])
            .unwrap();
        let out = rt.eval(branch).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 1);
        vec![out]
    });
}

#[test]
fn errors_are_equivalent_across_backends() {
    on_every_backend(|rt| {
        // Unknown procedure.
        let junk = rt.put_blob(Blob::from_vec(vec![0xAB; 64]));
        let thunk = rt.apply(limits(), junk, &[]).unwrap();
        assert!(matches!(
            rt.eval(thunk),
            Err(Error::UnknownProcedure(h)) if h == junk
        ));

        // Out-of-bounds selection, with identical coordinates reported.
        let tree = rt.put_tree(Tree::from_handles(vec![junk]));
        let sel = rt.select(tree, 5).unwrap();
        match rt.eval(sel) {
            Err(Error::BadSelection {
                begin, end, len, ..
            }) => {
                assert_eq!((begin, end, len), (5, 6, 1));
            }
            other => panic!("expected BadSelection, got {other:?}"),
        }

        // Guest faults propagate as Traps with the guest's message.
        let boom = rt.register_native(
            "conf/boom2",
            Arc::new(|_ctx| -> Result<Handle> { Err(Error::Trap("boom".into())) }),
        );
        let bad = rt.apply(limits(), boom, &[]).unwrap();
        assert!(matches!(rt.eval(bad), Err(Error::Trap(m)) if m == "boom"));
        vec![thunk, sel, bad]
    });
}

#[test]
fn eval_many_matches_a_loop_of_evals() {
    on_every_backend(|rt| {
        let add = register_add(rt);
        let thunks: Vec<Handle> = (0..16u64)
            .map(|i| {
                rt.apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(i)),
                        rt.put_blob(Blob::from_u64(100)),
                    ],
                )
                .unwrap()
            })
            .collect();
        // Mix in an already-evaluated value and (after the batch) verify
        // positional correspondence.
        let mut batch = thunks.clone();
        batch.push(rt.put_blob(Blob::from_u64(7)));
        let many: Vec<Handle> = rt
            .eval_many(&batch)
            .into_iter()
            .map(|r| r.expect("batch member succeeds"))
            .collect();
        let looped: Vec<Handle> = batch.iter().map(|&h| rt.eval(h).unwrap()).collect();
        assert_eq!(many, looped, "batched and single dispatch must agree");
        for (i, h) in many[..16].iter().enumerate() {
            assert_eq!(rt.get_u64(*h).unwrap(), i as u64 + 100);
        }
        assert_eq!(rt.get_u64(many[16]).unwrap(), 7);
        many
    });
}

#[test]
fn eval_many_reports_per_request_failures() {
    on_every_backend(|rt| {
        let add = register_add(rt);
        let good = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(1)),
                    rt.put_blob(Blob::from_u64(1)),
                ],
            )
            .unwrap();
        let junk = rt.put_blob(Blob::from_vec(vec![0xCD; 40]));
        let bad = rt.apply(limits(), junk, &[]).unwrap();
        let results = rt.eval_many(&[good, bad]);
        let ok = results[0].as_ref().expect("good request succeeds");
        assert_eq!(rt.get_u64(*ok).unwrap(), 2);
        assert!(
            matches!(results[1], Err(Error::UnknownProcedure(_))),
            "bad request fails alone: {:?}",
            results[1]
        );
        vec![*ok]
    });
}

#[test]
fn eval_many_mixed_outcomes_stay_positional() {
    // One batch holding every outcome class — ok, guest trap, and a
    // not-found dangling reference — must return per-slot results in
    // submission order, with no cross-contamination: the failures of
    // slots 1 and 2 must not disturb slots 0 and 3.
    on_every_backend(|rt| {
        let add = register_add(rt);
        let ok = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(20)),
                    rt.put_blob(Blob::from_u64(22)),
                ],
            )
            .unwrap();
        let boom = rt.register_native(
            "conf/mixed-boom",
            Arc::new(|_ctx| -> Result<Handle> { Err(Error::Trap("mixed".into())) }),
        );
        let trap = rt.apply(limits(), boom, &[]).unwrap();
        // A selection whose target tree was never stored: the handle is
        // valid (content addressed) but the object is absent.
        let missing = Tree::from_handles(vec![rt.put_blob(Blob::from_u64(9))]).handle();
        let not_found = rt.select(missing, 0).unwrap();
        let tail_ok = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(2)),
                    rt.put_blob(Blob::from_u64(3)),
                ],
            )
            .unwrap();

        let results = rt.eval_many(&[ok, trap, not_found, tail_ok]);
        assert_eq!(results.len(), 4);
        let first = *results[0].as_ref().expect("slot 0 succeeds");
        assert_eq!(rt.get_u64(first).unwrap(), 42);
        assert!(
            matches!(&results[1], Err(Error::Trap(m)) if m == "mixed"),
            "slot 1 must trap: {:?}",
            results[1]
        );
        assert!(
            matches!(results[2], Err(Error::NotFound(h)) if h == missing),
            "slot 2 must be not-found: {:?}",
            results[2]
        );
        let last = *results[3].as_ref().expect("slot 3 succeeds");
        assert_eq!(rt.get_u64(last).unwrap(), 5);
        // The failures must also match a loop of single evals.
        assert!(matches!(rt.eval(trap), Err(Error::Trap(_))));
        assert!(matches!(rt.eval(not_found), Err(Error::NotFound(_))));
        vec![first, last]
    });
}

#[test]
fn sandboxed_guests_agree() {
    on_every_backend(|rt| {
        let fib = guests::install_fib(&rt).unwrap();
        let add = guests::install_add(&rt).unwrap();
        let thunk = rt
            .apply(limits(), fib, &[add, rt.put_blob(Blob::from_u64(12))])
            .unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 144);
        vec![fib, add, out]
    });
}

#[test]
fn strict_evaluation_deep_forces() {
    on_every_backend(|rt| {
        let add = register_add(rt);
        let inner = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(2)),
                    rt.put_blob(Blob::from_u64(3)),
                ],
            )
            .unwrap();
        let wrap = rt.register_native(
            "conf/wrap",
            Arc::new(move |ctx| ctx.host.create_tree(vec![inner])),
        );
        let outer = rt.apply(limits(), wrap, &[]).unwrap();
        let forced = rt.eval_strict(outer).unwrap();
        let tree = rt.get_tree(forced).unwrap();
        let entry = tree.get(0).unwrap();
        assert!(entry.is_accessible(), "strict eval promotes everything");
        assert_eq!(rt.get_u64(entry).unwrap(), 5);
        vec![forced, entry]
    });
}

#[test]
fn footprints_agree() {
    on_every_backend(|rt| {
        let add = register_add(rt);
        let big = rt.put_blob(Blob::from_vec(vec![9u8; 4096]));
        let thunk = rt
            .apply(limits(), add, &[big, rt.put_blob(Blob::from_u64(1))])
            .unwrap();
        let fp = rt.footprint(thunk).unwrap();
        assert!(fp.is_complete());
        assert!(fp.objects.contains(&big));
        assert!(fp.total_bytes >= 4096);
        // The footprint's object list is part of the shared semantics.
        let mut objs = fp.objects.clone();
        objs.sort_by_key(|h| *h.raw());
        objs
    });
}

#[test]
fn wordcount_workload_agrees() {
    use fix_workloads::wordcount::{run_wordcount_fix, store_shards};
    on_every_backend(|rt| {
        let shards = store_shards(&rt, 11, 8, 16 << 10);
        let total = run_wordcount_fix(&rt, &shards, b"of").unwrap();
        assert!(total > 0);
        vec![rt.put_blob(Blob::from_u64(total))]
    });
}

// ----------------------------------------------------------------------
// Submission-first conformance (SubmitApi).
// ----------------------------------------------------------------------

/// `submit_many(h).wait()` must agree positionally with `eval_many(h)`
/// (and thus with a loop of single `eval`s), including value handles
/// that never touch a scheduler.
#[test]
fn submission_agrees_with_eval_many() {
    on_every_submitting_backend(|rt| {
        let add = register_add(rt);
        let mut batch: Vec<Handle> = (0..16u64)
            .map(|i| {
                rt.apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(i)),
                        rt.put_blob(Blob::from_u64(200)),
                    ],
                )
                .unwrap()
            })
            .collect();
        batch.push(rt.put_blob(Blob::from_u64(9))); // A ready value slot.
        let ticket = rt.submit_many(&batch);
        assert_eq!(ticket.len(), batch.len());
        let submitted: Vec<Handle> = ticket
            .wait()
            .into_iter()
            .map(|r| r.expect("batch member succeeds"))
            .collect();
        let blocked: Vec<Handle> = rt
            .eval_many(&batch)
            .into_iter()
            .map(|r| r.expect("batch member succeeds"))
            .collect();
        assert_eq!(submitted, blocked, "submission must agree with blocking");
        for (i, h) in submitted[..16].iter().enumerate() {
            assert_eq!(rt.get_u64(*h).unwrap(), i as u64 + 200);
        }
        assert_eq!(rt.get_u64(submitted[16]).unwrap(), 9);
        submitted
    });
}

/// A submitted batch holding every outcome class — ok, guest trap, and
/// a not-found dangling reference — resolves positionally, with no
/// cross-contamination between slots.
#[test]
fn submission_mixed_outcomes_stay_positional() {
    on_every_submitting_backend(|rt| {
        let add = register_add(rt);
        let ok = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(20)),
                    rt.put_blob(Blob::from_u64(22)),
                ],
            )
            .unwrap();
        let boom = rt.register_native(
            "conf/submit-boom",
            Arc::new(|_ctx| -> Result<Handle> { Err(Error::Trap("submitted".into())) }),
        );
        let trap = rt.apply(limits(), boom, &[]).unwrap();
        let missing = Tree::from_handles(vec![rt.put_blob(Blob::from_u64(3))]).handle();
        let not_found = rt.select(missing, 0).unwrap();
        let tail_ok = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(4)),
                    rt.put_blob(Blob::from_u64(5)),
                ],
            )
            .unwrap();

        let results = rt.submit_many(&[ok, trap, not_found, tail_ok]).wait();
        assert_eq!(results.len(), 4);
        let first = *results[0].as_ref().expect("slot 0 succeeds");
        assert_eq!(rt.get_u64(first).unwrap(), 42);
        assert!(
            matches!(&results[1], Err(Error::Trap(m)) if m == "submitted"),
            "slot 1 must trap: {:?}",
            results[1]
        );
        assert!(
            matches!(results[2], Err(Error::NotFound(h)) if h == missing),
            "slot 2 must be not-found: {:?}",
            results[2]
        );
        let last = *results[3].as_ref().expect("slot 3 succeeds");
        assert_eq!(rt.get_u64(last).unwrap(), 9);
        vec![first, last]
    });
}

/// Dropping a ticket mid-flight must neither hang the backend nor leak:
/// later requests (including re-submissions of the *same* thunks) run
/// to completion as if the dropped ticket never existed.
#[test]
fn dropped_ticket_neither_hangs_nor_leaks() {
    on_every_submitting_backend(|rt| {
        let add = register_add(rt);
        let batch: Vec<Handle> = (0..8u64)
            .map(|i| {
                rt.apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(i)),
                        rt.put_blob(Blob::from_u64(50)),
                    ],
                )
                .unwrap()
            })
            .collect();
        drop(rt.submit_many(&batch)); // Abandoned mid-flight.
        drop(rt.submit(batch[0])); // Single tickets detach too.

        // The backend still serves unrelated work...
        let other = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(1)),
                    rt.put_blob(Blob::from_u64(1)),
                ],
            )
            .unwrap();
        assert_eq!(rt.get_u64(rt.eval(other).unwrap()).unwrap(), 2);

        // ...and re-submitting the abandoned thunks resolves them fully.
        let results: Vec<Handle> = rt
            .submit_many(&batch)
            .wait()
            .into_iter()
            .map(|r| r.expect("resubmitted member succeeds"))
            .collect();
        for (i, h) in results.iter().enumerate() {
            assert_eq!(rt.get_u64(*h).unwrap(), i as u64 + 50);
        }
        results
    });
}

/// Strict submitted batches must agree positionally with a loop of
/// `eval_strict` — the whole eval→force chain watched as one slot, on
/// every submitting backend (including value handles, whose nested
/// thunks strictness must still force).
#[test]
fn strict_submission_agrees_with_eval_strict() {
    on_every_submitting_backend(|rt| {
        let add = register_add(rt);
        let inner = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(2)),
                    rt.put_blob(Blob::from_u64(3)),
                ],
            )
            .unwrap();
        let wrap = rt.register_native(
            "conf/strict-wrap",
            Arc::new(move |ctx| ctx.host.create_tree(vec![inner])),
        );
        // A thunk whose WHNF still hides a nested thunk, a plain value
        // tree holding a thunk, and an ordinary flat computation.
        let nested = rt.apply(limits(), wrap, &[]).unwrap();
        let value_tree = rt.put_tree(Tree::from_handles(vec![inner]));
        let flat = rt
            .apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(40)),
                    rt.put_blob(Blob::from_u64(2)),
                ],
            )
            .unwrap();
        let batch = [nested, value_tree, flat];

        let submitted: Vec<Handle> = rt
            .submit_with(&batch, SubmitOptions::strict())
            .wait()
            .into_iter()
            .map(|r| r.expect("strict batch member succeeds"))
            .collect();
        let strict_loop: Vec<Handle> = batch.iter().map(|&h| rt.eval_strict(h).unwrap()).collect();
        assert_eq!(
            submitted, strict_loop,
            "strict submission must agree with eval_strict"
        );
        // Deep-forcing really happened: the nested entry is accessible.
        let tree = rt.get_tree(submitted[0]).unwrap();
        let entry = tree.get(0).unwrap();
        assert!(entry.is_accessible(), "strict submission deep-forces");
        assert_eq!(rt.get_u64(entry).unwrap(), 5);
        submitted
    });
}

/// Cancel before execution: a batch dropped on a backend that has not
/// started it runs nothing, and the same thunks resubmit cleanly.
#[test]
fn cancel_before_execution_withdraws_cleanly() {
    on_every_submitting_backend(|rt| {
        let add = register_add(rt);
        let batch: Vec<Handle> = (0..8u64)
            .map(|i| {
                rt.apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(i)),
                        rt.put_blob(Blob::from_u64(70)),
                    ],
                )
                .unwrap()
            })
            .collect();
        drop(rt.submit_many(&batch));

        // The backend still serves unrelated work, and the dropped
        // thunks resubmit and resolve as if the drop never happened.
        let results: Vec<Handle> = rt
            .submit_many(&batch)
            .wait()
            .into_iter()
            .map(|r| r.expect("resubmitted member succeeds"))
            .collect();
        for (i, h) in results.iter().enumerate() {
            assert_eq!(rt.get_u64(*h).unwrap(), i as u64 + 70);
        }
        results
    });
}

/// Cancel while executing: dropping a ticket mid-flight must hang nothing —
/// a concurrent waiter on a *different* ticket sharing the backend
/// still resolves, and the backend stays serviceable.
#[test]
fn cancel_while_executing_never_hangs_a_concurrent_waiter() {
    on_every_submitting_backend(|rt| {
        let add = register_add(rt);
        let mint = |base: u64, n: u64| -> Vec<Handle> {
            (0..n)
                .map(|i| {
                    rt.apply(
                        limits(),
                        add,
                        &[
                            rt.put_blob(Blob::from_u64(base + i)),
                            rt.put_blob(Blob::from_u64(5)),
                        ],
                    )
                    .unwrap()
                })
                .collect()
        };
        let doomed = rt.submit_many(&mint(10_000, 32));
        let survivor_batch = mint(20_000, 8);
        let survivor = rt.submit_many(&survivor_batch);
        drop(doomed); // Possibly before, possibly mid-execution.
        let results: Vec<Handle> = survivor
            .wait()
            .into_iter()
            .map(|r| r.expect("survivor member succeeds"))
            .collect();
        for (i, h) in results.iter().enumerate() {
            assert_eq!(rt.get_u64(*h).unwrap(), 20_000 + i as u64 + 5);
        }
        results
    });
}

/// Cancel after completion: a ticket whose batch already resolved can
/// still be dropped (the results are simply discarded), and the
/// memoized results remain available to everyone else.
#[test]
fn cancel_after_completion_discards_results_only() {
    on_every_submitting_backend(|rt| {
        let add = register_add(rt);
        let batch: Vec<Handle> = (0..4u64)
            .map(|i| {
                rt.apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(i)),
                        rt.put_blob(Blob::from_u64(30)),
                    ],
                )
                .unwrap()
            })
            .collect();
        // Resolve the batch fully through a second ticket for the same
        // jobs (its wait drives backends whose progress comes from the
        // waiting thread), then drop the first.
        let ticket = rt.submit_many(&batch);
        for r in rt.submit_many(&batch).wait() {
            r.expect("batch member succeeds");
        }
        drop(ticket); // After completion: a no-op beyond discarding.

        // Everything is memoized; a fresh request is a pure cache hit.
        let before = rt.procedures_run();
        let results: Vec<Handle> = rt
            .eval_many(&batch)
            .into_iter()
            .map(|r| r.expect("memoized member succeeds"))
            .collect();
        assert_eq!(rt.procedures_run(), before, "no re-execution");
        results
    });
}

/// Cancelling a ticket whose job is mid-step must leave the running
/// execution alone: the job completes exactly once, and a concurrent
/// resubmission rides the in-flight execution instead of starting a
/// second one.
#[test]
fn cancel_during_execution_keeps_exactly_once_semantics() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Mutex};

    let rt = Arc::new(Runtime::builder().workers(1).build());
    let runs = Arc::new(AtomicU64::new(0));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let started_tx = Mutex::new(started_tx);
    let release_rx = Mutex::new(release_rx);
    let slow = {
        let runs = Arc::clone(&runs);
        rt.register_native(
            "conf/slow-block",
            Arc::new(move |ctx| {
                runs.fetch_add(1, Ordering::SeqCst);
                let _ = started_tx.lock().unwrap().send(());
                let _ = release_rx.lock().unwrap().recv();
                ctx.host.create_blob(7u64.to_le_bytes().to_vec())
            }),
        )
    };
    let thunk = rt.apply(limits(), slow, &[]).unwrap();

    let doomed = rt.submit_many(&[thunk]);
    started_rx
        .recv()
        .expect("the worker began stepping the job");
    drop(doomed); // Mid-step: the running job must still complete.
    let survivor = rt.submit_many(&[thunk]);
    // Unblock enough times for a (buggy) duplicate execution too.
    release_tx.send(()).unwrap();
    let _ = release_tx.send(());
    let results = survivor.wait();
    assert_eq!(rt.get_u64(*results[0].as_ref().unwrap()).unwrap(), 7);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "the mid-step job must run exactly once despite the cancel"
    );
    assert_eq!(rt.submission_watchers(), 0);
}

/// Cancel-then-resubmit: the resubmission registers on each dropped
/// job's entry, whose one token is still in the deque, and every job
/// runs exactly once.
#[test]
fn cancelled_then_resubmitted_batches_run_exactly_once() {
    on_every_inline_node(|rt| {
        let add = register_add(rt);
        let batch: Vec<Handle> = (0..8u64)
            .map(|i| {
                rt.apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(3_000 + i)),
                        rt.put_blob(Blob::from_u64(4)),
                    ],
                )
                .unwrap()
            })
            .collect();
        drop(rt.submit_many(&batch));
        let results = rt.submit_many(&batch).wait();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                rt.get_u64(*r.as_ref().unwrap()).unwrap(),
                3_000 + i as u64 + 4
            );
        }
        assert_eq!(
            rt.procedures_run(),
            batch.len() as u64,
            "a revived job must not run twice"
        );
        assert_eq!(rt.node().submission_watchers(), 0);
        assert_eq!(rt.node().queued_jobs(), 0);
    });
}

/// Detaching is eager — the scheduler's watcher table empties the
/// moment a ticket resolves or drops, so long-lived nodes cannot
/// accumulate per-ticket bookkeeping — whichever client type the ticket
/// came through.
#[test]
fn runtime_tickets_leave_no_watchers_behind() {
    on_every_inline_node(|rt| {
        let node = rt.node();
        let add = register_add(rt);
        let mint = |i: u64| {
            rt.apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(i)),
                    rt.put_blob(Blob::from_u64(1)),
                ],
            )
            .unwrap()
        };
        let batch: Vec<Handle> = (0..6u64).map(mint).collect();

        // Nothing drives a pool-less node between submit and wait, so
        // the watchers are observably registered...
        let ticket = rt.submit_many(&batch);
        assert_eq!(node.submission_watchers(), batch.len());
        // ...and fully drained once the ticket resolves.
        for r in ticket.wait() {
            r.expect("batch member succeeds");
        }
        assert_eq!(node.submission_watchers(), 0);

        // A dropped ticket's watchers are dead at once, even though its
        // jobs are still queued (nothing has driven them yet).
        let fresh: Vec<Handle> = (100..104u64).map(mint).collect();
        let abandoned = rt.submit_many(&fresh);
        assert_eq!(node.submission_watchers(), fresh.len());
        drop(abandoned);
        assert_eq!(
            node.submission_watchers(),
            0,
            "dropped tickets must not leak"
        );

        // Nothing live wants the dropped ticket's unshared queued jobs,
        // so none counts as queued work: each is dropped when its token
        // is popped...
        assert_eq!(
            node.queued_jobs(),
            0,
            "dropped tickets must not orphan jobs"
        );
        // ...and a fresh request for the same thunk wants it again.
        assert_eq!(rt.get_u64(rt.eval(fresh[0]).unwrap()).unwrap(), 101);
    });
}

/// The acceptance bar for true cancellation: a cancelled 256-request
/// batch on a busy runtime leaves zero watchers, zero orphaned queued
/// jobs, runs none of the cancelled-only procedures, and never hangs a
/// concurrent waiter.
#[test]
fn cancelling_a_large_queued_batch_withdraws_everything() {
    let rt = Arc::new(Runtime::builder().build());
    let add = register_add(&*rt);

    // A concurrent waiter holds its own (overlapping-free) work so the
    // runtime is genuinely busy while the cancel lands.
    let waiter_batch: Vec<Handle> = (0..64u64)
        .map(|i| {
            rt.apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(500_000 + i)),
                    rt.put_blob(Blob::from_u64(1)),
                ],
            )
            .unwrap()
        })
        .collect();

    // 256 distinct requests nothing else shares.
    let doomed_batch: Vec<Handle> = (0..256u64)
        .map(|i| {
            rt.apply(
                limits(),
                add,
                &[
                    rt.put_blob(Blob::from_u64(900_000 + i)),
                    rt.put_blob(Blob::from_u64(2)),
                ],
            )
            .unwrap()
        })
        .collect();

    let doomed = rt.submit_many(&doomed_batch);
    assert_eq!(rt.submission_watchers(), 256);
    assert_eq!(rt.queued_jobs(), 256);

    let waiter = {
        let rt = Arc::clone(&rt);
        let batch = waiter_batch.clone();
        std::thread::spawn(move || {
            let results = rt.submit_many(&batch).wait();
            results
                .into_iter()
                .map(|r| r.expect("waiter request succeeds"))
                .collect::<Vec<_>>()
        })
    };

    // Cancel while the concurrent waiter races the queue; no procedure
    // of the cancelled-only batch may run (the waiter thread only ever
    // steps wanted jobs — the dropped 256 are popped and let go).
    drop(doomed);
    let resolved = waiter.join().expect("concurrent waiter must not hang");
    assert_eq!(resolved.len(), waiter_batch.len());

    assert_eq!(rt.submission_watchers(), 0, "no watcher survives cancel");
    assert_eq!(rt.queued_jobs(), 0, "no orphaned queued jobs after cancel");
    // Only the waiter's 64 procedures ran: the cancelled 256 never did.
    assert_eq!(
        rt.procedures_run(),
        waiter_batch.len() as u64,
        "cancelled-only procedures must not execute"
    );
}

/// ClusterClient-specific conformance: the simulated substrate must not
/// change observable semantics, only produce telemetry.
#[test]
fn cluster_client_telemetry_is_pure_observation() {
    let cc = ClusterClient::builder().build().unwrap();
    let add = register_add(&cc);
    let thunk = cc
        .apply(
            limits(),
            add,
            &[
                cc.put_blob(Blob::from_u64(5)),
                cc.put_blob(Blob::from_u64(6)),
            ],
        )
        .unwrap();
    assert!(cc.reports().is_empty(), "construction ships nothing");
    cc.eval(thunk).unwrap();
    assert_eq!(cc.reports().len(), 1);
    assert_eq!(cc.last_report().unwrap().tasks_run, 1);
    cc.eval(thunk).unwrap();
    assert_eq!(
        cc.reports().len(),
        1,
        "memoized request must not ship a cluster run"
    );

    // Submission is observed the same way: a batch dropped before anyone
    // waits on it never runs on the embedded node — it was
    // costed, never executed.
    let fresh = |a: u64| {
        let args = [
            cc.put_blob(Blob::from_u64(a)),
            cc.put_blob(Blob::from_u64(6)),
        ];
        cc.apply(limits(), add, &args).unwrap()
    };
    let before = cc.procedures_run();
    drop(cc.submit_many(&[fresh(60), fresh(61)]));
    assert_eq!(cc.procedures_run(), before, "cancelled work never runs");
    assert_eq!(cc.inner().queued_jobs(), 0);
    assert_eq!(cc.inner().submission_watchers(), 0);
}

/// Depth is data, not stack: a dependency chain or a nested list is as
/// deep as the program that built it says. These run on a thread with
/// the 2 MiB stack that spawned threads and pool workers get by
/// default, which a walk recursing per level overflows (SIGABRT) well
/// before 50 000.
fn on_a_default_thread_stack(check: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(check)
        .expect("spawn")
        .join()
        .expect("the check passes")
}

const DEEP: u64 = 50_000;

/// `derive_job_graph` walks a chain of strict applications with a
/// worklist: the cluster client evaluates it like the runtime does, and
/// the simulated run holds one task per link. On the runtime, `eval`
/// holds the whole chain on the door's stack, one frame per link: the
/// stack is data, not recursion.
#[test]
fn a_deep_strict_chain_evaluates_on_the_cluster_client() {
    fn chain(rt: &dyn BackendUnderTest) -> Handle {
        let add = register_add(rt);
        let one = rt.put_blob(Blob::from_u64(1));
        let mut link = rt.strict_apply(limits(), add, &[one, one]).unwrap();
        for _ in 1..DEEP {
            link = rt.strict_apply(limits(), add, &[link, one]).unwrap();
        }
        link
    }
    on_a_default_thread_stack(|| {
        let rt = Runtime::builder().build();
        let cc = ClusterClient::builder().build().expect("cluster client");
        let on_runtime = rt.eval(chain(&rt)).unwrap();
        let on_cluster = cc.eval(chain(&cc)).unwrap();
        assert_eq!(on_runtime, on_cluster);
        assert_eq!(cc.get_u64(on_cluster).unwrap(), DEEP + 1);
        assert_eq!(cc.last_report().expect("one run").tasks_run, DEEP);
    });
}

/// `footprint` walks nested trees with a worklist: an application over
/// a cons list names every cell of the list.
#[test]
fn the_footprint_of_a_deep_list_names_every_cell() {
    on_a_default_thread_stack(|| {
        on_every_backend(|rt| {
            let add = register_add(rt);
            let mut list = rt.put_tree(Tree::from_handles(vec![]));
            for i in 0..DEEP {
                let item = rt.put_blob(Blob::from_u64(i));
                list = rt.put_tree(Tree::from_handles(vec![item, list]));
            }
            let thunk = rt.apply(limits(), add, &[list]).unwrap();
            let footprint = rt.footprint(thunk).unwrap();
            assert!(footprint.objects.len() as u64 >= DEEP);
            assert!(footprint.is_complete());
            vec![thunk, *footprint.objects.last().unwrap()]
        })
    });
}

/// A backend that overrides every *provided* method of the four traits
/// and counts the calls; the required methods are the runtime's.
struct Overriding(Runtime, AtomicUsize);

/// `fn name(&self, …) -> R;` becomes an override that bumps the counter
/// and answers with `Runtime`'s implementation of the same trait method.
macro_rules! counted {
    ($api:ident: $(fn $method:ident(&self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {$(
        fn $method(&self $(, $arg: $ty)*) -> $ret {
            self.1.fetch_add(1, Ordering::Relaxed);
            <Runtime as $api>::$method(&self.0 $(, $arg)*)
        }
    )*};
}

impl ObjectApi for Overriding {
    fn put(&self, node: Node) -> Handle {
        self.0.put(node)
    }
    fn get(&self, handle: Handle) -> Result<Node> {
        self.0.store().get(handle)
    }
    fn contains(&self, handle: Handle) -> bool {
        self.0.store().contains(handle)
    }
    counted! { ObjectApi:
        fn put_blob(&self, blob: Blob) -> Handle;
        fn put_tree(&self, tree: Tree) -> Handle;
        fn get_blob(&self, handle: Handle) -> Result<Blob>;
        fn get_tree(&self, handle: Handle) -> Result<Tree>;
        fn get_u64(&self, handle: Handle) -> Result<u64>;
    }
}

impl InvocationApi for Overriding {
    fn register_native(&self, name: &str, f: NativeFn) -> Handle {
        self.0.register_native(name, f)
    }
    counted! { InvocationApi:
        fn install_module(&self, module_bytes: Vec<u8>) -> Result<Handle>;
        fn apply(&self, limits: ResourceLimits, procedure: Handle, args: &[Handle]) -> Result<Handle>;
        fn strict_apply(&self, limits: ResourceLimits, procedure: Handle, args: &[Handle]) -> Result<Handle>;
        fn select(&self, target: Handle, index: u64) -> Result<Handle>;
        fn select_range(&self, target: Handle, begin: u64, end: u64) -> Result<Handle>;
    }
}

impl SubmitApi for Overriding {
    fn submit_with(&self, handles: &[Handle], options: SubmitOptions) -> BatchTicket {
        self.0.submit_with(handles, options)
    }
    counted! { SubmitApi:
        fn submit_many(&self, handles: &[Handle]) -> BatchTicket;
        fn submit(&self, handle: Handle) -> Ticket;
    }
}

impl Evaluator for Overriding {
    fn footprint(&self, thunk: Handle) -> Result<Footprint> {
        self.0.footprint(thunk)
    }
    fn procedures_run(&self) -> u64 {
        self.0.procedures_run()
    }
    counted! { Evaluator:
        fn eval(&self, handle: Handle) -> Result<Handle>;
        fn eval_strict(&self, handle: Handle) -> Result<Handle>;
        fn eval_many(&self, handles: &[Handle]) -> Vec<Result<Handle>>;
    }
}

/// The pointer impls (`&T`, `Arc<T>`, `Box<T>`: one forwarding
/// definition in `fix_core::api`) forward every provided method, so a
/// backend's overrides — `Runtime`'s inline `eval` and `eval_strict` —
/// are what runs behind a pointer. A method missing
/// from the forwarding list would silently run the trait default over
/// the required methods instead, and its call would not be counted.
#[test]
fn pointers_to_a_backend_reach_its_overrides() {
    fn every_provided_method<B: BackendUnderTest>(b: B, calls: &AtomicUsize) {
        let mut expected = calls.load(Ordering::Relaxed);
        let mut counted = |method: &str| {
            expected += 1;
            assert_eq!(
                calls.load(Ordering::Relaxed),
                expected,
                "`{method}` through a pointer ran the trait default, not the override"
            );
        };
        let add = register_add(&b);
        let one = b.put_blob(Blob::from_u64(1));
        counted("put_blob");
        let pair = b.put_tree(Tree::from_handles(vec![one, one]));
        counted("put_tree");
        b.get_blob(one).unwrap();
        counted("get_blob");
        b.get_tree(pair).unwrap();
        counted("get_tree");
        b.get_u64(one).unwrap();
        counted("get_u64");
        b.install_module(vec![0u8; 8]).unwrap();
        counted("install_module");
        let thunk = b.apply(limits(), add, &[one, one]).unwrap();
        counted("apply");
        let strict = b.strict_apply(limits(), add, &[one, one]).unwrap();
        counted("strict_apply");
        let first = b.select(pair, 0).unwrap();
        counted("select");
        let range = b.select_range(pair, 0, 1).unwrap();
        counted("select_range");
        b.submit_many(&[thunk, first]).wait();
        counted("submit_many");
        b.submit(range).wait().unwrap();
        counted("submit");
        b.eval(thunk).unwrap();
        counted("eval");
        b.eval_strict(strict).unwrap();
        counted("eval_strict");
        b.eval_many(&[thunk, strict]);
        counted("eval_many");
    }
    let backend = Arc::new(Overriding(Runtime::builder().build(), AtomicUsize::new(0)));
    every_provided_method(&*backend, &backend.1);
    every_provided_method(Arc::clone(&backend), &backend.1);
    every_provided_method(Box::new(&*backend), &backend.1);
    assert_eq!(backend.1.load(Ordering::Relaxed), 3 * 15);
}
