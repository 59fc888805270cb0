//! Failure-injection integration tests: missing data, guest faults,
//! resource exhaustion, and capability violations must all surface as
//! clean errors (never hangs, panics, or wrong answers).

use fix::prelude::*;
use std::sync::Arc;

fn limits() -> ResourceLimits {
    ResourceLimits::default_limits()
}

/// Evaluating against data that was never stored reports NotFound with
/// the precise missing handle.
#[test]
fn missing_input_data_is_reported() {
    let rt = Runtime::builder().build();
    let ghost = Blob::from_vec(vec![9u8; 500]).handle(); // Never stored.
    let first = rt.register_native("first", Arc::new(|ctx| ctx.arg(0)));
    let thunk = rt.apply(limits(), first, &[ghost]).unwrap();
    // Footprint analysis catches it before launch.
    let err = rt.footprint(thunk).unwrap_err();
    assert!(matches!(err, Error::NotFound(h) if h == ghost), "{err}");
}

/// A failure is not memoized. A request that arrives before its data
/// fails with `NotFound`; once the data is stored, the next request for
/// the same thunk succeeds — a failed evaluation is re-attempted like
/// any relation that is not in the cache. Inline, on a pool, and
/// through a ticket alike.
#[test]
fn a_failure_for_missing_data_is_not_memoized() {
    for workers in [0usize, 2] {
        for ticket in [false, true] {
            let rt = Runtime::builder().workers(workers).build();
            let len = rt.register_native(
                "len",
                Arc::new(|ctx| {
                    let n = ctx.arg_blob(0)?.len() as u64;
                    ctx.host.create_blob(n.to_le_bytes().to_vec())
                }),
            );
            let data = Blob::from_vec(vec![7u8; 64]);
            let name = data.handle(); // Named, not stored (yet).
            let thunk = rt.apply(limits(), len, &[name]).unwrap();
            let eval = |rt: &Runtime| {
                if ticket {
                    rt.submit(thunk).wait()
                } else {
                    rt.eval(thunk)
                }
            };
            let err = eval(&rt).unwrap_err();
            assert!(matches!(err, Error::NotFound(h) if h == name), "{err}");

            rt.put_blob(data);
            let out = eval(&rt).unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(rt.get_u64(out).unwrap(), 64);
        }
    }
}

/// A guest that tries to read Ref data gets a capability fault; the
/// computation fails without poisoning unrelated evaluations.
#[test]
fn capability_violation_is_isolated() {
    let rt = Runtime::builder().build();
    let secret = rt.put_blob(Blob::from_vec(vec![1u8; 256]));
    let snoop = rt.register_native(
        "snoop",
        Arc::new(|ctx| {
            let r = ctx.arg(0)?;
            let data = ctx.host.load_blob(r)?; // Refs are not loadable.
            ctx.host.create_blob(data.as_slice().to_vec())
        }),
    );
    let bad = rt
        .apply(limits(), snoop, &[secret.as_ref_handle()])
        .unwrap();
    let err = rt.eval(bad).unwrap_err();
    assert!(matches!(err, Error::Inaccessible(_)), "{err}");

    // The same runtime keeps working for honest programs.
    let ok = rt.apply(limits(), snoop, &[secret]).unwrap();
    assert_eq!(rt.get_blob(rt.eval(ok).unwrap()).unwrap().len(), 256);
}

/// Fuel exhaustion in one VM guest fails that computation only; a
/// bigger budget succeeds and memoizes independently.
#[test]
fn fuel_exhaustion_is_per_invocation() {
    let rt = Runtime::builder().build();
    let burn = rt
        .install_vm_module(
            r#"
            func apply args=0 locals=1
              const 0
              const 2
              tree.get
              const 0
              blob.read_u64
              local.set 0
            loop:
              local.get 0
              eqz
              jump_if done
              local.get 0
              const 1
              sub
              local.set 0
              jump loop
            done:
              const 0
              const 2
              tree.get
              ret_handle
            end
            "#,
        )
        .unwrap();
    let n = rt.put_blob(Blob::from_u64(10_000));
    let starved = ResourceLimits::new(1 << 20, 100);
    let thunk = rt.apply(starved, burn, &[n]).unwrap();
    assert!(matches!(
        rt.eval(thunk).unwrap_err(),
        Error::OutOfFuel { limit: 100 }
    ));

    let fed = ResourceLimits::new(1 << 20, 1 << 20);
    let thunk2 = rt.apply(fed, burn, &[n]).unwrap();
    assert!(rt.eval(thunk2).is_ok());
}

/// Malformed application trees (bad limits slot, too few slots) fail
/// with MalformedTree, not panics.
#[test]
fn malformed_invocations_fail_cleanly() {
    let rt = Runtime::builder().build();
    // Tree whose slot 0 is not a limits blob.
    let bogus = rt.put_tree(Tree::from_handles(vec![
        rt.put_blob(Blob::from_slice(b"not-limits")),
        rt.put_blob(Blob::from_slice(b"not-a-proc")),
    ]));
    let err = rt.eval(bogus.application().unwrap()).unwrap_err();
    assert!(matches!(err, Error::MalformedTree { .. }), "{err}");

    // Selection index out of bounds.
    let small = rt.put_tree(Tree::from_handles(vec![rt.put_blob(Blob::from_u64(1))]));
    let sel = rt.select(small, 99).unwrap();
    assert!(matches!(
        rt.eval(sel).unwrap_err(),
        Error::BadSelection { .. }
    ));
}

/// A failure deep inside a dependency graph propagates to every
/// dependent — across both strict and shallow encodes — and the rest of
/// the graph still completes.
#[test]
fn deep_failure_propagation() {
    let rt = Runtime::builder().workers(2).build();
    let bad = rt
        .install_vm_module("func apply args=0 locals=0\n unreachable\nend")
        .unwrap();
    let good = rt.register_native(
        "good",
        Arc::new(|ctx| ctx.host.create_blob(7u64.to_le_bytes().to_vec())),
    );
    let join = rt.register_native(
        "join",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            ctx.host.create_blob(a.to_le_bytes().to_vec())
        }),
    );
    let limits = limits();
    let failing = rt.apply(limits, bad, &[]).unwrap();
    let fine = rt.apply(limits, good, &[]).unwrap();

    // join(strict(bad)) fails; join(strict(good)) succeeds — concurrently.
    let doomed = rt
        .apply(limits, join, &[failing.strict().unwrap()])
        .unwrap();
    let healthy = rt.apply(limits, join, &[fine.strict().unwrap()]).unwrap();
    assert!(rt.eval(doomed).is_err());
    assert_eq!(rt.get_u64(rt.eval(healthy).unwrap()).unwrap(), 7);
    // Shallow encodes of the failing thunk fail too.
    let doomed2 = rt
        .apply(limits, join, &[failing.shallow().unwrap()])
        .unwrap();
    assert!(rt.eval(doomed2).is_err());
}

/// Simulated cluster: a task graph with an unreachable input (object
/// placed nowhere) must panic loudly in the engine's validation, not
/// deadlock. We assert the builder-level contract instead: every needed
/// object must have a source.
#[test]
fn cluster_engine_requires_sourced_objects() {
    use fix::cluster::{JobGraph, ObjectSpec, TaskSpec};
    let graph = JobGraph {
        objects: vec![ObjectSpec {
            size: 100,
            initial_locations: vec![], // Nowhere!
        }],
        tasks: vec![TaskSpec {
            inputs: vec![fix::cluster::ObjectId(0)],
            deps: vec![],
            compute_us: 10,
            cores: 1,
            ram: 0,
            output_size: 8,
            output_hint: None,
            func: 0,
        }],
        outputs: vec![fix::cluster::ObjectId(0)],
    };
    let setup = fix::cluster::ClusterSetup::workers_only(
        2,
        fix::netsim::NodeSpec::default(),
        fix::netsim::NetConfig::default(),
    );
    let result = std::panic::catch_unwind(|| {
        fix::cluster::run_fix(&setup, &graph, &fix::cluster::FixConfig::default())
    });
    assert!(result.is_err(), "unsourced inputs must fail loudly");
}
