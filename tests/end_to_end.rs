//! Cross-crate integration tests: full Fix programs through the public
//! API, spanning the VM, runtime, storage, Flatware, and workloads.

use fix::prelude::*;
use std::sync::Arc;

/// The paper's Fig. 3 workload as sandboxed FixVM guests, end to end:
/// fib creates recursive thunks and tail-calls into add. The guest
/// sources are the shared fixtures from `fix_workloads::guests`.
#[test]
fn vm_fibonacci_with_memoized_recursion() {
    let rt = Runtime::builder().build();
    let fib = fix::workloads::guests::install_fib(&rt).expect("assemble fib");
    let add = fix::workloads::guests::install_add(&rt).expect("assemble add");

    for (n, expect) in [(0u64, 0u64), (1, 1), (2, 1), (10, 55), (20, 6765)] {
        let thunk = rt
            .apply(
                ResourceLimits::default_limits(),
                fib,
                &[add, rt.put_blob(Blob::from_u64(n))],
            )
            .unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), expect, "fib({n})");
    }
    // Exponential call tree, linear executions: memoization at work.
    let runs = rt
        .engine()
        .stats
        .procedures_run
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(runs < 50, "expected ~2·20 runs, got {runs}");
}

/// The if-procedure of the paper's Fig. 2: control flow via returned
/// thunks; the untaken branch is never evaluated (or even loaded).
#[test]
fn lazy_branches_run_only_when_taken() {
    let rt = Runtime::builder().build();
    let boom = rt.register_native(
        "boom",
        Arc::new(|_ctx| -> Result<Handle> { Err(Error::Trap("must never run".into())) }),
    );
    let constant = rt.register_native(
        "constant",
        Arc::new(|ctx| ctx.host.create_blob(1u64.to_le_bytes().to_vec())),
    );
    let pick = rt.register_native(
        "if",
        Arc::new(|ctx| {
            let pred = ctx.arg_blob(0)?.as_u64().unwrap_or(0) != 0;
            if pred {
                ctx.arg(1)
            } else {
                ctx.arg(2)
            }
        }),
    );
    let limits = ResourceLimits::default_limits();
    let good = rt.apply(limits, constant, &[]).unwrap();
    let bad = rt.apply(limits, boom, &[]).unwrap();

    // predicate true -> the boom branch is returned-but-lazy, never run.
    let branch = rt
        .apply(limits, pick, &[rt.put_blob(Blob::from_u64(1)), good, bad])
        .unwrap();
    let out = rt.eval(branch).unwrap();
    assert_eq!(rt.get_u64(out).unwrap(), 1);

    // predicate false -> evaluating the result does run boom.
    let branch2 = rt
        .apply(limits, pick, &[rt.put_blob(Blob::from_u64(0)), good, bad])
        .unwrap();
    let err = rt.eval(branch2).unwrap_err();
    assert!(err.to_string().contains("must never run"), "{err}");
}

/// Mixed native + VM pipeline: a VM guest's output feeds a native codelet
/// through a strict encode.
#[test]
fn vm_and_native_interoperate() {
    let rt = Runtime::builder().build();
    let vm_triple = rt
        .install_vm_module(
            r#"
            func apply args=0 locals=0
              const 0
              const 2
              tree.get
              const 0
              blob.read_u64
              const 3
              mul
              blob.create_u64
              ret_handle
            end
            "#,
        )
        .unwrap();
    let native_inc = rt.register_native(
        "inc",
        Arc::new(|ctx| {
            let x = ctx.arg_blob(0)?.as_u64().unwrap();
            ctx.host.create_blob((x + 1).to_le_bytes().to_vec())
        }),
    );
    let limits = ResourceLimits::default_limits();
    let inner = rt
        .apply(limits, vm_triple, &[rt.put_blob(Blob::from_u64(7))])
        .unwrap();
    let outer = rt
        .apply(limits, native_inc, &[inner.strict().unwrap()])
        .unwrap();
    assert_eq!(rt.get_u64(rt.eval(outer).unwrap()).unwrap(), 22);
}

/// Flatware + workloads together: compress files that were themselves
/// produced by a Fix compile job.
#[test]
fn pipeline_across_subsystems() {
    use fix::workloads::archive::extract_archive;
    use fix::workloads::compile::{compile_unit, generate_source};

    let rt = Runtime::builder().build();
    // "Compile" three units and put the object files in a filesystem.
    let mut fs = flatware::FsBuilder::new();
    for i in 0..3 {
        let obj = compile_unit(&generate_source(5, i, 2)).unwrap();
        fs.add_file(
            &format!("bucket/unit{i}.o"),
            obj.to_blob().as_slice().to_vec(),
        )
        .unwrap();
    }
    fs.add_file(
        "templates/template.html",
        fix::workloads::sebs::DYNAMIC_HTML_TEMPLATE
            .as_bytes()
            .to_vec(),
    )
    .unwrap();
    let root = fs.build(rt.store());

    let comp = fix::workloads::sebs::register_compression(&rt);
    let (code, out) = flatware::run_program(&rt, comp, &["compression", "bucket"], root).unwrap();
    assert_eq!(code, 0);
    let files = extract_archive(&Blob::from_slice(out.as_slice())).unwrap();
    assert_eq!(files.len(), 3);
    assert!(files.iter().all(|(n, _)| n.ends_with(".o")));
}

/// Garbage collection respects liveness across an evaluated program.
#[test]
fn gc_after_evaluation_keeps_results_reachable() {
    let rt = Runtime::builder().build();
    let cat = rt.register_native(
        "concat",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?;
            let b = ctx.arg_blob(1)?;
            let mut v = a.as_slice().to_vec();
            v.extend_from_slice(b.as_slice());
            ctx.host.create_blob(v)
        }),
    );
    let a = rt.put_blob(Blob::from_vec(vec![1u8; 100]));
    let b = rt.put_blob(Blob::from_vec(vec![2u8; 100]));
    let garbage = rt.put_blob(Blob::from_vec(vec![3u8; 100]));
    let thunk = rt
        .apply(ResourceLimits::default_limits(), cat, &[a, b])
        .unwrap();
    let result = rt.eval(thunk).unwrap();

    let collected = rt.gc(&[result]).unwrap();
    assert!(collected > 0, "the unused blob should be collected");
    assert!(rt.get_blob(result).is_ok(), "result survives GC");
    assert!(rt.get_blob(garbage).is_err(), "garbage does not");
    assert_eq!(rt.get_blob(result).unwrap().len(), 200);
}

/// The whole public surface is Send-friendly: evaluation from multiple
/// client threads sharing one runtime.
#[test]
fn concurrent_clients_share_a_runtime() {
    let rt = Arc::new(Runtime::builder().workers(4).build());
    let square = rt.register_native(
        "square",
        Arc::new(|ctx| {
            let x = ctx.arg_blob(0)?.as_u64().unwrap();
            ctx.host.create_blob((x * x).to_le_bytes().to_vec())
        }),
    );
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let rt = Arc::clone(&rt);
        handles.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let x = t * 1000 + i;
                let thunk = rt
                    .apply(
                        ResourceLimits::default_limits(),
                        square,
                        &[rt.put_blob(Blob::from_u64(x))],
                    )
                    .unwrap();
                let out = rt.eval(thunk).unwrap();
                assert_eq!(rt.get_u64(out).unwrap(), x * x);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// The paper's §4.2.1 delegation mechanism, for real: node A packages a
/// computation as a parcel (dependencies ship with the invocation — no
/// extra round trips), node B imports, evaluates, and ships the result
/// back. Two genuinely separate runtimes; the only channel is bytes.
#[test]
fn two_real_nodes_delegate_via_parcels() {
    use fix_core::wire::Parcel;

    let register_revsort = |rt: &Runtime| {
        rt.register_native(
            "revsort",
            Arc::new(|ctx| {
                let mut data = ctx.arg_blob(0)?.as_slice().to_vec();
                data.sort_unstable();
                data.reverse();
                ctx.host.create_blob(data)
            }),
        )
    };

    // Node A: build the computation. The procedure is named by a
    // content-addressed marker, so both nodes agree on the handle.
    let node_a = Runtime::builder().build();
    let proc_a = register_revsort(&node_a);
    let input = node_a.put_blob(Blob::from_vec((0u8..200).rev().collect()));
    let thunk = node_a
        .apply(ResourceLimits::default_limits(), proc_a, &[input])
        .unwrap();

    // Ship it: one parcel carries the definition tree and every byte of
    // the minimum repository.
    let wire_bytes = node_a.store().export(thunk).unwrap().to_bytes();

    // Node B: a different machine as far as the code is concerned.
    let node_b = Runtime::builder().build();
    register_revsort(&node_b); // B has the code for this function.
    let root = node_b.store().import(Parcel::verify(&wire_bytes).unwrap());
    let result = node_b.eval(root).unwrap();

    // Ship the result back; node A reads it without ever running revsort.
    let back = node_b.store().export(result).unwrap().to_bytes();
    let result_at_a = node_a.store().import(Parcel::verify(&back).unwrap());
    let blob = node_a.get_blob(result_at_a).unwrap();
    let mut expect: Vec<u8> = (0u8..200).collect();
    expect.reverse();
    assert_eq!(blob.as_slice(), expect.as_slice());
    assert_eq!(
        node_a
            .engine()
            .stats
            .procedures_run
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "node A never executed anything"
    );
}

/// Delegation of sandboxed code: the FixVM module travels inside the
/// parcel, so the remote node needs no registration at all — black-box
/// code as data (the paper's design goal 1).
#[test]
fn vm_code_travels_with_the_parcel() {
    use fix_core::wire::Parcel;

    let node_a = Runtime::builder().build();
    let module = node_a
        .install_vm_module(
            r#"
            func apply args=0 locals=0
              const 0
              const 2
              tree.get
              const 0
              blob.read_u64
              const 7
              mul
              blob.create_u64
              ret_handle
            end
            "#,
        )
        .unwrap();
    let thunk = node_a
        .apply(
            ResourceLimits::default_limits(),
            module,
            &[node_a.put_blob(Blob::from_u64(6))],
        )
        .unwrap();
    let bytes = node_a.store().export(thunk).unwrap().to_bytes();

    // Node B: completely fresh — no registry entries, no modules.
    let node_b = Runtime::builder().build();
    let root = node_b.store().import(Parcel::verify(&bytes).unwrap());
    let out = node_b.eval(root).unwrap();
    assert_eq!(node_b.get_u64(out).unwrap(), 42);
}
