//! `fixpoint`: the single-node Fix runtime.
//!
//! This crate implements the paper's §4: a runtime whose worker threads
//! share a job queue and a content-addressed storage, evaluate Fix
//! objects according to Fix semantics, and run guest procedures (FixVM
//! codelets or registered native codelets) without spawning processes —
//! which is where the ~microsecond invocation overhead of Fig. 7a comes
//! from.
//!
//! [`Runtime`] is the public surface: it implements the One Fix API
//! (`fix_core::api` — the Table 1 operations, submission and
//! evaluation) and adds node-local accessors (the node's one table and
//! its relation face, engine counters, metrics, gc, computational GC in
//! [`recompute`]). Behind it,
//! crate-private: `engine` (Fix semantics as restartable job steps),
//! `registry` (native codelets) and `scheduler` (dependency tracking
//! over those jobs, driven inline or by a worker pool).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cps;
mod engine;
pub mod recompute;
mod registry;
pub mod runtime;
mod scheduler;
mod submit;

pub use cps::{StepCtx, StepFn, StepOutcome};
pub use engine::{Engine, EngineStats};
pub use recompute::{EvictionOutcome, RecomputeReport};
pub use registry::native_marker;
pub use runtime::{Runtime, RuntimeBuilder};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Job, Step};
    use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
    use fix_core::data::{Blob, Tree};
    use fix_core::error::Error;
    use fix_core::handle::Kind;
    use fix_core::invocation::Invocation;
    use fix_core::limits::ResourceLimits;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn limits() -> ResourceLimits {
        ResourceLimits::default_limits()
    }

    /// add(a, b) as a native codelet.
    fn register_add(rt: &Runtime) -> fix_core::handle::Handle {
        rt.register_native(
            "add",
            Arc::new(|ctx| {
                let a = ctx.arg_blob(0)?.as_u64().expect("u64 arg");
                let b = ctx.arg_blob(1)?.as_u64().expect("u64 arg");
                ctx.host
                    .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
            }),
        )
    }

    #[test]
    fn native_add_end_to_end() {
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let one = rt.put_blob(Blob::from_u64(1));
        let two = rt.put_blob(Blob::from_u64(2));
        let thunk = rt.apply(limits(), add, &[one, two]).unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 3);
    }

    #[test]
    fn vm_add_end_to_end() {
        let rt = Runtime::builder().build();
        let add = rt
            .install_vm_module(
                r#"
                func apply args=0 locals=0
                  const 0
                  const 2
                  tree.get
                  const 0
                  blob.read_u64
                  const 0
                  const 3
                  tree.get
                  const 0
                  blob.read_u64
                  add
                  blob.create_u64
                  ret_handle
                end
                "#,
            )
            .unwrap();
        let a = rt.put_blob(Blob::from_u64(20));
        let b = rt.put_blob(Blob::from_u64(22));
        let thunk = rt.apply(limits(), add, &[a, b]).unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 42);
        assert_eq!(rt.engine().stats.vm_runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn memoization_runs_procedure_once() {
        let rt = Runtime::builder().build();
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let proc_h = rt.register_native(
            "counting",
            Arc::new(move |ctx| {
                c2.fetch_add(1, Ordering::SeqCst);
                let v = ctx.arg_blob(0)?.as_u64().unwrap();
                ctx.host.create_blob((v * 2).to_le_bytes().to_vec())
            }),
        );
        let x = rt.put_blob(Blob::from_u64(21));
        let thunk = rt.apply(limits(), proc_h, &[x]).unwrap();
        let r1 = rt.eval(thunk).unwrap();
        let r2 = rt.eval(thunk).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(counter.load(Ordering::SeqCst), 1, "apply must be memoized");
    }

    #[test]
    fn identification_and_selection() {
        let rt = Runtime::builder().build();
        let a = rt.put_blob(Blob::from_vec(vec![1u8; 100]));
        let b = rt.put_blob(Blob::from_vec(vec![2u8; 100]));
        let tree = rt.put_tree(Tree::from_handles(vec![a, b]));

        // identity
        let ident = tree.identification().unwrap();
        assert_eq!(rt.eval(ident).unwrap(), tree);

        // select index 1
        let sel = rt.select(tree, 1).unwrap();
        assert_eq!(rt.eval(sel).unwrap(), b);

        // select range [0,2) -> new tree with both entries
        let sel2 = rt.select_range(tree, 0, 2).unwrap();
        let sub = rt.eval(sel2).unwrap();
        assert_eq!(rt.get_tree(sub).unwrap().entries(), &[a, b]);

        // blob range selection
        let sel3 = rt.select_range(a, 10, 20).unwrap();
        let slice = rt.eval(sel3).unwrap();
        assert_eq!(rt.get_blob(slice).unwrap().as_slice(), &[1u8; 10]);

        // The index is caller-controlled: u64::MAX is out of range like
        // any other index, not an overflow (a "codelet panicked" trap in
        // debug builds, a wrapped `end: 0` in release).
        for target in [tree, a] {
            let err = rt.eval(rt.select(target, u64::MAX).unwrap()).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::BadSelection {
                        begin: u64::MAX,
                        end: u64::MAX,
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn selection_chains_through_nested_thunks() {
        // Fig. 4 style: select from the result of another selection.
        let rt = Runtime::builder().build();
        let inner_blob = rt.put_blob(Blob::from_vec(vec![7u8; 50]));
        let inner = rt.put_tree(Tree::from_handles(vec![inner_blob]));
        let outer = rt.put_tree(Tree::from_handles(vec![inner]));
        let sel_inner = rt.select(outer, 0).unwrap(); // -> inner tree
        let sel_leaf = rt.select(sel_inner, 0).unwrap(); // -> inner_blob
        assert_eq!(rt.eval(sel_leaf).unwrap(), inner_blob);
    }

    #[test]
    fn strict_encode_forces_shallow_keeps_ref() {
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let one = rt.put_blob(Blob::from_u64(1));
        let two = rt.put_blob(Blob::from_u64(2));
        let inner = rt.apply(limits(), add, &[one, two]).unwrap();

        // A "pass-through" procedure that returns its third slot (arg 0).
        let first = rt.register_native("first-arg", Arc::new(|ctx| ctx.arg(0)));

        // Strict: the procedure sees the result as an accessible Object.
        let strict_thunk = rt
            .apply(limits(), first, &[inner.strict().unwrap()])
            .unwrap();
        let strict_out = rt.eval(strict_thunk).unwrap();
        assert!(strict_out.is_accessible());
        assert_eq!(rt.get_u64(strict_out).unwrap(), 3);

        // Shallow: the procedure sees a Ref (metadata only).
        let shallow_thunk = rt
            .apply(limits(), first, &[inner.shallow().unwrap()])
            .unwrap();
        let shallow_out = rt.eval(shallow_thunk).unwrap();
        assert!(matches!(shallow_out.kind(), Kind::Ref(_)));
        assert_eq!(shallow_out.size(), 8);
    }

    #[test]
    fn tail_calls_trampoline() {
        // A procedure that returns a thunk: countdown(n) -> countdown(n-1).
        let rt = Runtime::builder().build();
        let marker: Arc<parking_lot::Mutex<Option<fix_core::handle::Handle>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let m2 = Arc::clone(&marker);
        let proc_h = rt.register_native(
            "countdown",
            Arc::new(move |ctx| {
                let n = ctx.arg_blob(0)?.as_u64().unwrap();
                if n == 0 {
                    return ctx.host.create_blob(b"done".to_vec());
                }
                let self_h = m2.lock().expect("marker set");
                let limits = ResourceLimits::default_limits();
                let next = Invocation {
                    limits,
                    procedure: self_h,
                    args: vec![Blob::from_u64(n - 1).handle()],
                }
                .to_tree();
                let t = ctx.host.create_tree(next.entries().to_vec())?;
                t.application()
            }),
        );
        *marker.lock() = Some(proc_h);
        let thunk = rt
            .apply(limits(), proc_h, &[rt.put_blob(Blob::from_u64(100))])
            .unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_blob(out).unwrap().as_slice(), b"done");
        // 101 applications ran (100 tail calls + base case).
        assert_eq!(rt.procedures_run(), 101);
    }

    #[test]
    fn fix_level_fibonacci_via_vm() {
        // The paper's Fig. 3: fib creates recursive thunks and returns an
        // application of `add` to two strictly-encoded recursive calls.
        let rt = Runtime::builder().build();
        let fib_src = r#"
            ; input tree: [rlimits, fib.elf, add.elf, x]
            func apply args=0 locals=6
              const 0
              const 3
              tree.get          ; x handle
              const 0
              blob.read_u64
              local.set 0       ; x
              local.get 0
              const 2
              lt_u
              jump_if base

              ; build t1 = [rlimit, fib, add, x-1]
              const 0
              const 0
              tree.get
              local.set 1       ; rlimit
              const 0
              const 1
              tree.get
              local.set 2       ; fib
              const 0
              const 2
              tree.get
              local.set 3       ; add

              local.get 1
              tb.push
              local.get 2
              tb.push
              local.get 3
              tb.push
              local.get 0
              const 1
              sub
              blob.create_u64
              tb.push
              tb.build
              application
              strict
              local.set 4       ; e1

              local.get 1
              tb.push
              local.get 2
              tb.push
              local.get 3
              tb.push
              local.get 0
              const 2
              sub
              blob.create_u64
              tb.push
              tb.build
              application
              strict
              local.set 5       ; e2

              ; t_sum = [rlimit, add, e1, e2]
              local.get 1
              tb.push
              local.get 3
              tb.push
              local.get 4
              tb.push
              local.get 5
              tb.push
              tb.build
              application
              ret_handle

            base:
              local.get 0
              blob.create_u64
              ret_handle
            end
        "#;
        let add_src = r#"
            ; input tree: [rlimits, add.elf, a, b]
            func apply args=0 locals=0
              const 0
              const 2
              tree.get
              const 0
              blob.read_u64
              const 0
              const 3
              tree.get
              const 0
              blob.read_u64
              add
              blob.create_u64
              ret_handle
            end
        "#;
        let fib = rt.install_vm_module(fib_src).unwrap();
        let add = rt.install_vm_module(add_src).unwrap();
        let x = rt.put_blob(Blob::from_u64(10));
        let thunk = rt.apply(limits(), fib, &[add, x]).unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 55);
        // Memoization collapses the exponential call tree: fib(0..=10) plus
        // the adds, not 2^10 invocations.
        let runs = rt.procedures_run();
        assert!(runs <= 25, "expected memoized recursion, got {runs} runs");
    }

    #[test]
    fn parallel_evaluation_with_worker_pool() {
        let rt = Runtime::builder().workers(4).build();
        let add = register_add(&rt);
        // A reduction tree of adds via strict encodes: sum of 0..16.
        let leaves: Vec<_> = (0..16u64).map(|i| rt.put_blob(Blob::from_u64(i))).collect();
        let mut layer = leaves;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let t = rt
                    .apply(limits(), add, &[pair[0], pair[1]])
                    .unwrap()
                    .strict()
                    .unwrap();
                next.push(t);
            }
            layer = next;
        }
        let root_thunk = layer[0].encoded_thunk().unwrap();
        let out = rt.eval(root_thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), (0..16).sum::<u64>());
    }

    #[test]
    fn guest_trap_propagates_as_error() {
        let rt = Runtime::builder().build();
        let bad = rt
            .install_vm_module("func apply args=0 locals=0\n unreachable\nend")
            .unwrap();
        let thunk = rt.apply(limits(), bad, &[]).unwrap();
        let err = rt.eval(thunk).unwrap_err();
        assert!(matches!(err, Error::Trap(_)), "{err}");
    }

    #[test]
    fn unknown_procedure_fails() {
        let rt = Runtime::builder().build();
        let junk = rt.put_blob(Blob::from_vec(vec![0xAB; 64]));
        let thunk = rt.apply(limits(), junk, &[]).unwrap();
        let err = rt.eval(thunk).unwrap_err();
        assert!(matches!(err, Error::UnknownProcedure(_)), "{err}");
    }

    #[test]
    fn fuel_limit_respected_through_runtime() {
        let rt = Runtime::builder().build();
        let spin = rt
            .install_vm_module("func apply args=0 locals=0\nl:\n jump l\nend")
            .unwrap();
        let small = ResourceLimits::new(1 << 20, 1000);
        let thunk = rt.apply(small, spin, &[]).unwrap();
        let err = rt.eval(thunk).unwrap_err();
        assert!(matches!(err, Error::OutOfFuel { .. }), "{err}");
    }

    /// A failing dependency fails every job waiting on it with its own
    /// error: `outer` waits on the strict encode of `middle`, which
    /// tail-calls `inner`, which traps. Nothing is left in flight — no
    /// entry, so no waiter — and the failure is not memoized: each
    /// evaluation re-attempts it.
    #[test]
    fn error_propagates_through_dependencies() {
        for workers in [0usize, 2] {
            let rt = Runtime::builder().workers(workers).build();
            let bad = rt
                .install_vm_module("func apply args=0 locals=0\n unreachable\nend")
                .unwrap();
            let first = rt.register_native("first2", Arc::new(|ctx| ctx.arg(0)));
            let inner = rt.apply(limits(), bad, &[]).unwrap();
            let middle = rt.apply(limits(), first, &[inner]).unwrap();
            let outer = rt
                .apply(limits(), first, &[middle.strict().unwrap()])
                .unwrap();
            let err = rt.eval(outer).unwrap_err();
            assert!(matches!(err, Error::Trap(_)), "{err}");
            let ran = rt.procedures_run();
            assert_eq!(rt.job_entries(), 0, "workers={workers}");
            assert_eq!(rt.queued_jobs(), 0, "workers={workers}");
            assert_eq!(rt.submission_watchers(), 0, "workers={workers}");
            // The application fails with the encoded thunk's own error.
            for parent in [middle, inner] {
                assert_eq!(err, rt.eval(parent).unwrap_err(), "workers={workers}");
            }
            assert!(rt.procedures_run() > ran, "workers={workers}");
        }
    }

    /// A procedure that returns a Thunk made a tail call: its caller's
    /// value is the callee's, so the caller parks as a tail waiter and a
    /// failing callee fails it with the callee's own error.
    #[test]
    fn a_failing_tail_call_fails_its_caller_with_the_same_error() {
        let rt = Runtime::builder().build();
        let bad = rt
            .install_vm_module("func apply args=0 locals=0\n unreachable\nend")
            .unwrap();
        let first = rt.register_native("first-lazy", Arc::new(|ctx| ctx.arg(0)));
        let inner = rt.apply(limits(), bad, &[]).unwrap();
        // Not encoded: `first` is handed the Thunk itself and returns it.
        let outer = rt.apply(limits(), first, &[inner]).unwrap();
        assert_eq!(
            rt.engine().step(Job::Eval(outer)).unwrap(),
            Step::Tail(Job::Eval(inner))
        );
        let err = rt.eval(outer).unwrap_err();
        assert!(matches!(err, Error::Trap(_)), "{err}");
        assert_eq!(err, rt.eval(inner).unwrap_err());
    }

    /// A ticket cancelled while its job is parked on a tail call leaks
    /// nothing: the callee still finishes (the parked caller wants it),
    /// its completion completes the caller, and the caller's relation is
    /// there for the next request.
    #[test]
    fn cancelling_a_ticket_parked_on_a_tail_call_leaks_nothing() {
        use fix_core::api::SubmitApi;
        use std::sync::mpsc;
        let rt = Runtime::builder().workers(1).build();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = parking_lot::Mutex::new((started_tx, release_rx));
        let gated = rt.register_native(
            "gated",
            Arc::new(move |ctx| {
                let gate = gate.lock();
                gate.0.send(()).expect("test is listening");
                gate.1.recv().expect("test releases the gate");
                ctx.host.create_blob(b"late".to_vec())
            }),
        );
        let first = rt.register_native("first-lazy", Arc::new(|ctx| ctx.arg(0)));
        let inner = rt.apply(limits(), gated, &[]).unwrap();
        let outer = rt.apply(limits(), first, &[inner]).unwrap();

        let ticket = rt.submit(outer);
        // The callee is mid-run, so its caller has parked on it.
        started_rx.recv().expect("callee started");
        drop(ticket);
        assert_eq!(rt.submission_watchers(), 0);
        release_tx.send(()).expect("callee is waiting");

        // Evaluating the caller again waits for that completion (a
        // caller left parked forever would hang here) and runs nothing.
        let out = rt.eval(outer).unwrap();
        assert_eq!(rt.get_blob(out).unwrap().as_slice(), b"late");
        assert_eq!(rt.procedures_run(), 2);
        assert_eq!(rt.submission_watchers(), 0);
        assert_eq!(rt.queued_jobs(), 0);
    }

    /// A job parked on a dependency when its only ticket is dropped is
    /// never stepped again: the dependency still runs (the parked job's
    /// waiter wants it) and requeues the job, and the pop of that token
    /// finds nothing live wanting the job and drops its entry.
    #[test]
    fn a_parked_job_whose_only_ticket_is_dropped_is_not_stepped_again() {
        use fix_core::api::SubmitApi;
        use std::sync::mpsc;
        let rt = Runtime::builder().workers(1).build();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = parking_lot::Mutex::new((started_tx, release_rx));
        let gated = rt.register_native(
            "gated",
            Arc::new(move |ctx| {
                let gate = gate.lock();
                gate.0.send(()).expect("test is listening");
                gate.1.recv().expect("test releases the gate");
                ctx.host.create_blob(2u64.to_le_bytes().to_vec())
            }),
        );
        let add = register_add(&rt);
        let inner = rt.apply(limits(), gated, &[]).unwrap();
        let one = rt.put_blob(Blob::from_u64(1));
        let outer = rt
            .apply(limits(), add, &[inner.strict().unwrap(), one])
            .unwrap();

        let ticket = rt.submit(outer);
        // The dependency is mid-run, so the job has parked on it.
        started_rx.recv().expect("dependency started");
        drop(ticket);
        release_tx.send(()).expect("dependency is waiting");

        let quiet_by = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while rt.job_entries() > 0 && std::time::Instant::now() < quiet_by {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(rt.job_entries(), 0);
        assert_eq!(rt.procedures_run(), 1, "only the dependency ran");
        assert!(rt.engine().memoized(Job::Eval(outer)).is_none());
    }

    /// Nesting depth is data: an argument that is a 10 000-deep cons
    /// list is scanned for encodes by a worklist, not by recursion.
    #[test]
    fn a_deep_cons_list_argument_evaluates_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let rt = Runtime::builder().build();
                let first = rt.register_native("first-lazy", Arc::new(|ctx| ctx.arg(0)));
                let mut list = rt.put_tree(Tree::from_handles(vec![]));
                for i in 0..10_000u64 {
                    list = rt.put_tree(Tree::from_handles(vec![Blob::from_u64(i).handle(), list]));
                }
                let thunk = rt.apply(limits(), first, &[list]).unwrap();
                assert_eq!(rt.eval(thunk).unwrap(), list);
            })
            .expect("spawn")
            .join()
            .expect("no overflow, no panic");
    }

    /// Nesting depth is data for the launch pass's rewrite too: a
    /// 10 000-deep list with an encode at the bottom is rewritten by a
    /// worklist, and every tree on the path to the encode is re-stored
    /// with the value spliced in.
    #[test]
    fn a_deep_list_with_an_encode_at_the_bottom_substitutes_on_a_small_stack() {
        const DEPTH: u64 = 10_000;
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let rt = Runtime::builder().build();
                let first = rt.register_native("first-lazy", Arc::new(|ctx| ctx.arg(0)));
                let ident = rt.register_native("ident", Arc::new(|ctx| ctx.arg(0)));
                let blob = rt.put_blob(Blob::from_vec(vec![7u8; 64]));
                let encode = rt.strict_apply(limits(), ident, &[blob]).unwrap();
                let mut list = rt.put_tree(Tree::from_handles(vec![encode]));
                for i in 0..DEPTH {
                    list = rt.put_tree(Tree::from_handles(vec![Blob::from_u64(i).handle(), list]));
                }
                let thunk = rt.apply(limits(), first, &[list]).unwrap();
                let mut out = rt.eval(thunk).unwrap();
                for i in (0..DEPTH).rev() {
                    let cell = rt.get_tree(out).unwrap();
                    assert_eq!(cell.get(0), Some(Blob::from_u64(i).handle()));
                    out = cell.get(1).unwrap();
                }
                assert_eq!(rt.get_tree(out).unwrap().entries(), &[blob]);
            })
            .expect("spawn")
            .join()
            .expect("no overflow, no panic");
    }

    /// An application (or selection) waits directly on the relation an
    /// unresolved encode is missing: `Eval` of its thunk first, then —
    /// strict style only — `Force` of the value.
    #[test]
    fn unresolved_encodes_depend_on_eval_then_force() {
        let rt = Runtime::builder().build();
        let first = rt.register_native("first3", Arc::new(|ctx| ctx.arg(0)));
        let leaf = rt.put_blob(Blob::from_vec(vec![9u8; 64]));
        let pair = rt.put_tree(Tree::from_handles(vec![leaf.as_ref_handle(), leaf]));
        // inner evaluates to `pair`, whose deep-forcing differs from it.
        let inner = rt.apply(limits(), first, &[pair]).unwrap();
        let strict = rt
            .apply(limits(), first, &[inner.strict().unwrap()])
            .unwrap();
        let shallow = rt
            .apply(limits(), first, &[inner.shallow().unwrap()])
            .unwrap();
        let select = rt.select(inner.strict().unwrap(), 0).unwrap();
        // Both styles of one thunk in one tree: still one dependency.
        let both = rt
            .apply(
                limits(),
                first,
                &[inner.shallow().unwrap(), inner.strict().unwrap()],
            )
            .unwrap();
        let step = |thunk| rt.engine().step(Job::Eval(thunk)).unwrap();

        for thunk in [strict, shallow, select, both] {
            assert_eq!(step(thunk), Step::Deps(vec![Job::Eval(inner)]));
        }
        // Memoize the Eval relation only.
        assert_eq!(rt.eval(inner).unwrap(), pair);
        assert_eq!(step(strict), Step::Deps(vec![Job::Force(pair)]));
        assert_eq!(step(select), Step::Deps(vec![Job::Force(pair)]));
        // The shallow encode is satisfied by the evaluation alone, and
        // the procedure sees a Ref.
        assert_eq!(step(shallow), Step::Done(pair.as_ref_handle()));

        let forced = rt.eval_strict(pair).unwrap();
        assert_ne!(forced, pair);
        assert_eq!(step(strict), Step::Done(forced));
        assert_eq!(step(select), Step::Done(leaf));
        assert_eq!(rt.eval(both).unwrap(), pair.as_ref_handle());
        assert_eq!(rt.procedures_run(), 4);
    }

    /// The launch pass walks nested encodes depth first, entries in
    /// order: it waits on each missing relation once, walks a sub-tree
    /// met twice once, and then splices: a sub-tree with an encode is
    /// re-stored, one with nothing to splice keeps its handle.
    #[test]
    fn the_launch_pass_walks_each_subtree_once() {
        let rt = Runtime::builder().build();
        let first = rt.register_native("first4", Arc::new(|ctx| ctx.arg(0)));
        let whole = rt.register_native("whole", Arc::new(|ctx| Ok(ctx.input)));
        let blob = |b| rt.put_blob(Blob::from_vec(vec![b; 64]));
        let (a, b) = (blob(1), blob(2));
        let inner_a = rt.apply(limits(), first, &[a]).unwrap();
        let inner_b = rt.apply(limits(), first, &[b]).unwrap();
        let sub = rt.put_tree(Tree::from_handles(vec![
            inner_b.strict().unwrap(),
            inner_a.shallow().unwrap(),
        ]));
        let plain = rt.put_tree(Tree::from_handles(vec![a]));
        let outer = rt
            .apply(
                limits(),
                whole,
                &[inner_a.strict().unwrap(), sub, sub, plain],
            )
            .unwrap();

        let (_, misses) = rt.cache().stats();
        let step = rt.engine().step(Job::Eval(outer)).unwrap();
        assert_eq!(
            step,
            Step::Deps(vec![Job::Eval(inner_a), Job::Eval(inner_b)])
        );
        // `Eval` and `Apply` of `outer`, then three encodes: `sub`'s two
        // are read once, not once per occurrence.
        assert_eq!(rt.cache().stats().1 - misses, 5);

        let launched = rt.get_tree(rt.eval(outer).unwrap()).unwrap();
        let spliced = rt.get_tree(launched.get(3).unwrap()).unwrap();
        assert_eq!(launched.get(3), launched.get(4));
        assert_ne!(launched.get(3), Some(sub));
        assert_eq!(spliced.entries(), &[b, a.as_ref_handle()]);
        assert_eq!(launched.get(2), Some(a));
        assert_eq!(launched.get(5), Some(plain));
    }

    /// The launch pass and the footprint read one rule (paper §3.3): an
    /// application whose footprint is incomplete waits on exactly the
    /// jobs of its footprint's unresolved encodes, first seen first and
    /// each once, and one whose footprint is complete launches.
    #[test]
    fn the_launch_pass_waits_on_the_footprints_unresolved_encodes() {
        let rt = Runtime::builder().build();
        let first = rt.register_native("first5", Arc::new(|ctx| ctx.arg(0)));
        let whole = rt.register_native("whole5", Arc::new(|ctx| Ok(ctx.input)));
        let blob = |b| rt.put_blob(Blob::from_vec(vec![b; 64]));
        let tree = |entries: Vec<_>| rt.put_tree(Tree::from_handles(entries));
        let (a, b, leaf) = (blob(1), blob(2), blob(3));
        let inner_a = rt.apply(limits(), first, &[a]).unwrap();
        let inner_b = rt.apply(limits(), first, &[b]).unwrap();
        let (strict_a, shallow_a) = (inner_a.strict().unwrap(), inner_a.shallow().unwrap());
        let (strict_b, shallow_b) = (inner_b.strict().unwrap(), inner_b.shallow().unwrap());
        // Evaluated, not forced: its value's forcing differs from it.
        let pair = tree(vec![leaf.as_ref_handle(), leaf]);
        let unforced = rt.apply(limits(), first, &[pair]).unwrap();
        assert_eq!(rt.eval(unforced).unwrap(), pair);
        let nested = tree(vec![strict_b, tree(vec![shallow_a])]);
        let twice = tree(vec![shallow_b, strict_a]);
        let lazy = rt.apply(limits(), first, &[strict_b]).unwrap();
        let applications = [
            // Nested strict and shallow encodes.
            vec![nested, strict_a],
            // Both styles of one thunk.
            vec![shallow_a, a, strict_a],
            // A sub-tree named twice.
            vec![twice, nested, twice],
            // A strict encode evaluated but not forced, beside its
            // resolved shallow style.
            vec![
                unforced.shallow().unwrap(),
                unforced.strict().unwrap(),
                shallow_b,
            ],
            // Behind a Ref and inside a thunk's definition: not entered.
            vec![tree(vec![strict_a]).as_ref_handle(), lazy],
            // Data only.
            vec![a, tree(vec![b, pair])],
        ];
        let mut launched = 0;
        for args in applications {
            let app = rt.apply(limits(), whole, &args).unwrap();
            let fp = fix_storage::footprint(rt.store(), app).unwrap();
            let mut jobs = Vec::new();
            for &encode in &fp.unresolved_encodes {
                let job = Job::of(fix_storage::resolution(rt.store(), encode).unwrap_err());
                if !jobs.contains(&job) {
                    jobs.push(job);
                }
            }
            let step = rt.engine().step(Job::Eval(app)).unwrap();
            if fp.is_complete() {
                assert!(!matches!(step, Step::Deps(_)), "{args:?}: {step:?}");
                launched += 1;
            } else {
                assert_eq!(step, Step::Deps(jobs), "{args:?}");
            }
        }
        assert_eq!(launched, 2);
    }

    #[test]
    fn eval_strict_deep_forces_nested_results() {
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let one = rt.put_blob(Blob::from_u64(1));
        let two = rt.put_blob(Blob::from_u64(2));
        let inner = rt.apply(limits(), add, &[one, two]).unwrap();
        // A procedure returning a tree that still contains a thunk.
        let wrap = rt.register_native(
            "wrap-thunk",
            Arc::new(move |ctx| ctx.host.create_tree(vec![inner])),
        );
        let outer = rt.apply(limits(), wrap, &[]).unwrap();
        let forced = rt.eval_strict(outer).unwrap();
        let tree = rt.get_tree(forced).unwrap();
        assert_eq!(tree.len(), 1);
        let entry = tree.get(0).unwrap();
        assert!(entry.is_accessible());
        assert_eq!(rt.get_u64(entry).unwrap(), 3);
    }

    #[test]
    fn footprint_through_runtime() {
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let big = rt.put_blob(Blob::from_vec(vec![1u8; 4096]));
        let b2 = rt.put_blob(Blob::from_u64(2));
        let thunk = rt.apply(limits(), add, &[big, b2]).unwrap();
        let fp = rt.footprint(thunk).unwrap();
        assert!(fp.is_complete());
        assert!(fp.objects.contains(&big));
        assert!(fp.total_bytes >= 4096);
    }

    #[test]
    fn gc_keeps_roots() {
        let rt = Runtime::builder().build();
        let keep = rt.put_blob(Blob::from_vec(vec![1u8; 64]));
        let _unused = rt.put_blob(Blob::from_vec(vec![2u8; 64]));
        let collected = rt.gc(&[keep]).unwrap();
        assert_eq!(collected, 1);
        assert!(rt.get_blob(keep).is_ok());
    }

    /// Two applications sharing a strict-encoded sub-computation, so the
    /// second evaluation's dependency set collides with jobs finished by
    /// the first.
    fn shared_encode_pair(rt: &Runtime) -> (fix_core::handle::Handle, fix_core::handle::Handle) {
        let add = register_add(rt);
        let one = rt.put_blob(Blob::from_u64(1));
        let two = rt.put_blob(Blob::from_u64(2));
        let ten = rt.put_blob(Blob::from_u64(10));
        let inner = rt.apply(limits(), add, &[one, two]).unwrap();
        let shared = inner.strict().unwrap();
        let a = rt.apply(limits(), add, &[shared, one]).unwrap();
        let b = rt.apply(limits(), add, &[shared, ten]).unwrap();
        (a, b)
    }

    /// The table's relations are the only memo, so clearing them is a
    /// complete, consistent clear: `b`, which depends on the same strict
    /// encode the first eval resolved, re-runs it instead of hanging.
    #[test]
    fn clearing_the_relation_cache_allows_cold_reevaluation() {
        let rt = Runtime::builder().build();
        let (a, b) = shared_encode_pair(&rt);
        assert_eq!(rt.get_u64(rt.eval(a).unwrap()).unwrap(), 4);
        rt.cache().clear();
        assert_eq!(rt.get_u64(rt.eval(b).unwrap()).unwrap(), 13);
        assert_eq!(rt.procedures_run(), 4);
        assert_eq!(rt.job_entries(), 0);
    }

    /// The scheduler events of `request`, evaluated by `eval` on this
    /// thread: the recorder is process-wide, so only the events of the
    /// thread that emitted the request's `SchedSubmit` are kept.
    fn sched_events_of(
        request: fix_core::handle::Handle,
        eval: impl FnOnce() -> fix_core::error::Result<fix_core::handle::Handle>,
    ) -> (fix_core::handle::Handle, Vec<fix_obs::TraceEvent>) {
        use fix_obs::EventKind;
        let id = fix_core::handle::trace_id(request.raw());
        fix_obs::recorder().clear();
        fix_obs::set_tracing(true);
        let out = eval();
        fix_obs::set_tracing(false);
        let trace = fix_obs::recorder().drain();
        let events = trace
            .threads
            .into_iter()
            .find(|t| {
                t.events
                    .iter()
                    .any(|ev| ev.kind == EventKind::SchedSubmit && ev.id == id)
            })
            .expect("the request emitted its SchedSubmit")
            .events;
        (out.expect("the request succeeds"), events)
    }

    /// Counts the events of one kind.
    fn count(events: &[fix_obs::TraceEvent], kind: fix_obs::EventKind) -> usize {
        events.iter().filter(|ev| ev.kind == kind).count()
    }

    /// A cold single-step `eval` is stepped where it arrives: the door
    /// claims its job (no deque token, so no enqueue and no pop), steps
    /// it on the calling thread and completes it, leaving no entry, no
    /// watcher and nothing queued.
    #[test]
    fn a_cold_single_step_eval_never_queues() {
        use fix_obs::EventKind;
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let args = [5, 8].map(|n| rt.put_blob(Blob::from_u64(n)));
        let thunk = rt.apply(limits(), add, &args).unwrap();
        let (out, events) = sched_events_of(thunk, || rt.eval(thunk));
        assert_eq!(rt.get_u64(out).unwrap(), 13);
        assert_eq!(count(&events, EventKind::SchedSubmit), 1);
        assert_eq!(count(&events, EventKind::SchedExecute), 1);
        assert_eq!(count(&events, EventKind::SchedComplete), 1);
        assert_eq!(count(&events, EventKind::SchedEnqueue), 0, "no token");
        assert_eq!(count(&events, EventKind::SchedPop), 0, "no token");
        assert_eq!(rt.queued_jobs(), 0);
        assert_eq!(rt.job_entries(), 0);
        assert_eq!(rt.submission_watchers(), 0);
    }

    /// A multi-step `eval` runs to completion on the door's stack: a
    /// salted FixVM `fib(12)` parks on tail calls and on strict encodes,
    /// and each job it waits for is claimed and stepped next on the
    /// calling thread. So its 30 steps are 24 claims and 24 completions,
    /// with no deque token (no enqueue, no pop) and no watched slot (no
    /// batch fill), and it leaves no entry, watcher or queued job.
    #[test]
    fn a_multi_step_eval_never_queues() {
        use fix_obs::EventKind;
        let rt = Runtime::builder().build();
        let fib = rt
            .install_vm_module(include_str!("../../../tests/guests/fib.fvm"))
            .unwrap();
        let vm_add = rt
            .install_vm_module(include_str!("../../../tests/guests/add.fvm"))
            .unwrap();
        let n = rt.put_blob(Blob::from_u64(12));
        let salted = |salt: u64| {
            let limits = ResourceLimits::new(64 << 20, (1 << 32) + salt);
            rt.apply(limits, fib, &[vm_add, n]).unwrap()
        };
        // The first salt memoizes the Fibonacci values' forcings, as in
        // the benchmark's steady state.
        assert_eq!(rt.get_u64(rt.eval_strict(salted(7)).unwrap()).unwrap(), 144);
        let thunk = salted(8);
        let (out, events) = sched_events_of(thunk, || rt.eval_strict(thunk));
        assert_eq!(rt.get_u64(out).unwrap(), 144);
        assert_eq!(rt.procedures_run(), 48);
        let steps: Vec<_> = events
            .iter()
            .filter(|ev| ev.kind == EventKind::SchedExecute)
            .collect();
        assert_eq!(steps.len(), 30, "scheduler steps for one salted fib(12)");
        assert_eq!(steps[0].b, 1, "the door's step parks on its tail call");
        assert_eq!(count(&events, EventKind::SchedComplete), 24, "one per job");
        assert_eq!(count(&events, EventKind::SchedEnqueue), 0, "no token");
        assert_eq!(count(&events, EventKind::SchedPop), 0, "no token");
        assert_eq!(count(&events, EventKind::SchedBatchFill), 0, "no watcher");
        assert_eq!(rt.queued_jobs(), 0);
        assert_eq!(rt.job_entries(), 0);
        assert_eq!(rt.submission_watchers(), 0);
    }

    /// Regression: pool shutdown must not race a worker into a missed
    /// wakeup. The flag store now happens under the scheduler mutex;
    /// before that fix, roughly 1-in-10³ create/work/drop cycles left a
    /// worker parked forever and the drop joining it.
    #[test]
    fn worker_pool_shutdown_never_strands_a_worker() {
        for i in 0..300 {
            let rt = Runtime::builder().workers(4).build();
            let add = register_add(&rt);
            let thunk = rt
                .apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(i)),
                        rt.put_blob(Blob::from_u64(1)),
                    ],
                )
                .unwrap();
            assert_eq!(rt.get_u64(rt.eval(thunk).unwrap()).unwrap(), i + 1);
            drop(rt); // Joins the pool; must never hang.
        }
    }

    /// Regression: two inline drivers (no worker pool) sharing one
    /// scheduler must cooperate, not misreport a stall. Before the
    /// `inline_executing` claim, driver B could observe an empty queue
    /// while driver A was mid-step on the last runnable job and fail the
    /// whole request with "evaluation stalled".
    #[test]
    fn concurrent_inline_drivers_never_misreport_a_stall() {
        use std::sync::Arc;
        for round in 0..200u64 {
            let rt = Arc::new(Runtime::builder().build());
            let add = register_add(&rt);
            // Both threads race the same dependency chain: shared strict
            // encodes force one driver to wait on jobs the other may be
            // executing.
            let one = rt.put_blob(Blob::from_u64(1));
            let seed = rt.put_blob(Blob::from_u64(round));
            let inner = rt.apply(limits(), add, &[seed, one]).unwrap();
            let shared = inner.strict().unwrap();
            let left = rt.apply(limits(), add, &[shared, one]).unwrap();
            let right = rt.apply(limits(), add, &[shared, seed]).unwrap();

            let threads: Vec<_> = [left, right]
                .into_iter()
                .map(|thunk| {
                    let rt = Arc::clone(&rt);
                    std::thread::spawn(move || rt.eval(thunk).unwrap())
                })
                .collect();
            let outs: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
            assert_eq!(rt.get_u64(outs[0]).unwrap(), round + 2);
            assert_eq!(rt.get_u64(outs[1]).unwrap(), 2 * round + 1);
        }
    }

    /// A panicking codelet is a guest fault, not a scheduler failure: it
    /// must surface as `Error::Trap` to every driver (inline or pooled)
    /// and leave the scheduler fully usable — never a lost job, a hang,
    /// or a dead worker (this test *hanging* is the regression signal).
    #[test]
    fn panicking_codelet_does_not_strand_other_drivers() {
        use std::sync::Arc;
        for workers in [0usize, 2] {
            let rt = Arc::new(Runtime::builder().workers(workers).build());
            let boom = rt.register_native(
                "panicker",
                Arc::new(
                    |_ctx| -> fix_core::error::Result<fix_core::handle::Handle> {
                        panic!("guest bug")
                    },
                ),
            );
            let bad = rt.apply(limits(), boom, &[]).unwrap();

            // Two concurrent drivers of the same failing job: both must
            // come back with the trap, however the job was executed.
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let rt = Arc::clone(&rt);
                    std::thread::spawn(move || rt.eval(bad))
                })
                .collect();
            for t in threads {
                let err = t
                    .join()
                    .expect("drivers do not panic")
                    .expect_err("a panicking job must not produce a value");
                assert!(
                    err.to_string().contains("panicked"),
                    "workers={workers}: {err}"
                );
            }
            // The scheduler (and any pool workers) still work afterward.
            let add = register_add(&rt);
            let t = rt
                .apply(
                    limits(),
                    add,
                    &[
                        rt.put_blob(Blob::from_u64(1)),
                        rt.put_blob(Blob::from_u64(2)),
                    ],
                )
                .unwrap();
            assert_eq!(rt.get_u64(rt.eval(t).unwrap()).unwrap(), 3);
        }
    }

    /// What the node's table already holds is answered at the door: a
    /// batch of warmed thunks with values mixed in — under WHNF, and
    /// under strict once everything in it has been forced — is a ticket
    /// born ready, with no watcher and no job-map entry behind it while
    /// it is held, and its answers are positional.
    #[test]
    fn a_batch_the_table_answers_is_born_ready() {
        use fix_core::api::{SubmitApi, SubmitOptions};
        let rt = Runtime::builder().build();
        let add = register_add(&rt);
        let thunks: Vec<_> = (0..4u64)
            .map(|i| {
                let args = [Blob::from_u64(i).handle(), Blob::from_u64(1).handle()];
                rt.apply(limits(), add, &args).unwrap()
            })
            .collect();
        let values = [
            Blob::from_u64(7).handle(),
            rt.put_blob(Blob::from_vec(vec![3u8; 64])),
            rt.put_tree(Tree::from_handles(vec![thunks[3]])),
        ];
        let batch = [
            thunks[0], values[0], thunks[1], values[1], thunks[2], values[2], thunks[3],
        ];
        for &h in &batch {
            rt.eval_strict(h).unwrap();
        }
        for options in [SubmitOptions::default(), SubmitOptions::strict()] {
            let expected: Vec<_> = batch
                .iter()
                .map(|&h| match options.mode {
                    fix_core::api::Mode::Whnf => rt.eval(h),
                    fix_core::api::Mode::Strict => rt.eval_strict(h),
                })
                .collect();
            let ran = rt.procedures_run();
            let ticket = rt.submit_with(&batch, options);
            assert!(
                format!("{ticket:?}").contains("ready"),
                "{options:?}: {ticket:?}"
            );
            assert_eq!(rt.submission_watchers(), 0, "{options:?}");
            assert_eq!(rt.job_entries(), 0, "{options:?}");
            assert_eq!(ticket.wait(), expected, "{options:?}");
            assert_eq!(rt.procedures_run(), ran, "{options:?}");
        }
    }

    /// A finished job leaves no job-map record — inline or pooled,
    /// succeeded or failed, asked for by an eval or by a ticket that
    /// resolved or was dropped — and the relations it
    /// recorded still serve every re-evaluation with no procedure run.
    #[test]
    fn finished_jobs_leave_no_record() {
        use fix_core::api::SubmitApi;
        for workers in [0usize, 2] {
            let rt = Runtime::builder().workers(workers).build();
            let add = register_add(&rt);
            let pair = |a: u64, b: u64| {
                rt.apply(
                    limits(),
                    add,
                    &[Blob::from_u64(a).handle(), Blob::from_u64(b).handle()],
                )
                .unwrap()
            };
            let thunks: Vec<_> = (0..10_000u64).map(|i| pair(i, 1)).collect();
            for (i, &t) in (0u64..).zip(&thunks) {
                assert_eq!(rt.get_u64(rt.eval(t).unwrap()).unwrap(), i + 1);
            }
            let bad = rt
                .install_vm_module("func apply args=0 locals=0\n unreachable\nend")
                .unwrap();
            let failing = rt.apply(limits(), bad, &[]).unwrap();

            // Pushed in this order so an inline driver, popping its own
            // deque LIFO, drains every token: the two dropped tickets'
            // stale ones, then the resolving batch's.
            let resolving = rt.submit_many(&[pair(1 << 42, 0), failing]);
            drop(rt.submit(pair(1 << 40, 0)));
            drop(rt.submit(pair(1 << 41, 0)));
            let resolved = resolving.wait();
            assert_eq!(rt.get_u64(*resolved[0].as_ref().unwrap()).unwrap(), 1 << 42);
            assert!(matches!(resolved[1], Err(Error::Trap(_))));

            // A pool finishes a dropped ticket's job (or drops its stale
            // token) behind the test's back; wait for it to go quiet.
            let quiet_by = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while rt.job_entries() > 0 && std::time::Instant::now() < quiet_by {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(rt.job_entries(), 0, "workers={workers}");

            let ran = rt.procedures_run();
            for &t in &thunks {
                rt.eval(t).unwrap();
            }
            assert_eq!(
                rt.procedures_run(),
                ran,
                "workers={workers}: a re-eval is a relation-cache hit"
            );
            assert_eq!(rt.job_entries(), 0, "workers={workers}");
        }
    }
}
