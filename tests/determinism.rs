//! Determinism and memoization-coherence integration tests: the
//! properties that make Fix's "pay for results" model sound.

use fix::prelude::*;
use gen::{check, Rng};
use std::sync::Arc;

#[path = "support/gen.rs"]
mod gen;

fn limits() -> ResourceLimits {
    ResourceLimits::default_limits()
}

/// Two independent runtimes computing the same program produce
/// bit-identical result handles (content addressing is global truth).
#[test]
fn independent_runtimes_agree() {
    let program = |rt: &Runtime| -> Handle {
        let step = rt.register_native(
            "mix",
            Arc::new(|ctx| {
                let a = ctx.arg_blob(0)?.as_u64().unwrap();
                let b = ctx.arg_blob(1)?.as_u64().unwrap();
                ctx.host
                    .create_blob((a.rotate_left(7) ^ b).to_le_bytes().to_vec())
            }),
        );
        let mut acc = rt.put_blob(Blob::from_u64(1));
        for i in 0..20u64 {
            let t = rt
                .apply(limits(), step, &[acc, rt.put_blob(Blob::from_u64(i))])
                .unwrap();
            acc = rt.eval(t).unwrap();
        }
        acc
    };
    let a = program(&Runtime::builder().build());
    let b = program(&Runtime::builder().workers(4).build());
    assert_eq!(a, b);
}

/// The simulated cluster is deterministic end to end.
#[test]
fn cluster_simulation_is_reproducible() {
    use fix::workloads::wordcount::{fig8b_graph, Fig8bParams};
    let params = Fig8bParams {
        n_shards: 60,
        ..Fig8bParams::default()
    };
    let graph = fig8b_graph(&params);
    let setup = fix::cluster::ClusterSetup::workers_only(
        10,
        fix::netsim::NodeSpec::default(),
        fix::netsim::NetConfig::default(),
    );
    let cfg = fix::cluster::FixConfig {
        placement: fix::cluster::Placement::Random,
        seed: 99,
        ..fix::cluster::FixConfig::default()
    };
    let a = fix::cluster::run_fix(&setup, &graph, &cfg);
    let b = fix::cluster::run_fix(&setup, &graph, &cfg);
    assert_eq!(a.makespan_us, b.makespan_us);
    assert_eq!(a.bytes_moved, b.bytes_moved);
    assert_eq!(a.cpu.waiting_core_us, b.cpu.waiting_core_us);
}

/// VM guests are deterministic across runtimes, including fuel use.
#[test]
fn vm_guests_deterministic_across_runtimes() {
    let src = r#"
        func apply args=0 locals=2
          const 0
          const 2
          tree.get
          const 0
          blob.read_u64
          local.set 0
        loop:
          local.get 0
          eqz
          jump_if out
          local.get 1
          const 3
          mul
          const 1
          add
          local.set 1
          local.get 0
          const 1
          sub
          local.set 0
          jump loop
        out:
          local.get 1
          blob.create_u64
          ret_handle
        end
    "#;
    let run_once = || {
        let rt = Runtime::builder().build();
        let m = rt.install_vm_module(src).unwrap();
        let t = rt
            .apply(limits(), m, &[rt.put_blob(Blob::from_u64(37))])
            .unwrap();
        let out = rt.eval(t).unwrap();
        (
            out,
            rt.engine()
                .stats
                .fuel_used
                .load(std::sync::atomic::Ordering::Relaxed),
        )
    };
    let (r1, f1) = run_once();
    let (r2, f2) = run_once();
    assert_eq!(r1, r2);
    assert_eq!(f1, f2);
}

/// Memoization coherence: evaluating any pipeline twice returns the
/// identical handle and runs zero additional procedures.
#[test]
fn eval_twice_is_coherent() {
    check("eval_twice_is_coherent", 32, |rng| {
        let inputs = rng.vec(1..8, Rng::next);
        let rt = Runtime::builder().build();
        let sum = rt.register_native(
            "sum-all",
            Arc::new(|ctx| {
                let tree = ctx.input_tree()?;
                let mut total = 0u64;
                for slot in tree.entries().iter().skip(2) {
                    total = total.wrapping_add(ctx.host.load_blob(*slot)?.as_u64().unwrap_or(0));
                }
                ctx.host.create_blob(total.to_le_bytes().to_vec())
            }),
        );
        let args: Vec<Handle> = inputs
            .iter()
            .map(|&v| rt.put_blob(Blob::from_u64(v)))
            .collect();
        let thunk = rt.apply(limits(), sum, &args).unwrap();
        let first = rt.eval(thunk).unwrap();
        let runs_before = rt.procedures_run();
        let second = rt.eval(thunk).unwrap();
        let runs_after = rt.procedures_run();
        assert_eq!(first, second);
        assert_eq!(runs_before, runs_after);
        assert_eq!(
            rt.get_u64(first).unwrap(),
            inputs.iter().copied().fold(0u64, u64::wrapping_add)
        );
    });
}

/// Selection agrees with direct indexing for arbitrary trees.
#[test]
fn selection_matches_direct_access() {
    check("selection_matches_direct_access", 32, |rng| {
        let blobs = rng.vec(1..16, |rng| rng.vec(0..64, Rng::byte));
        let i = rng.below(blobs.len());
        let rt = Runtime::builder().build();
        let handles: Vec<Handle> = blobs
            .iter()
            .map(|b| rt.put_blob(Blob::from_slice(b)))
            .collect();
        let tree = rt.put_tree(Tree::from_handles(handles.clone()));
        let sel = rt.select(tree, i as u64).unwrap();
        assert_eq!(rt.eval(sel).unwrap(), handles[i]);
    });
}

/// Wordcount over arbitrary shard counts matches the oracle.
#[test]
fn wordcount_matches_oracle() {
    check("wordcount_matches_oracle", 32, |rng| {
        use fix::workloads::corpus::{count_nonoverlapping, generate_shard};
        use fix::workloads::wordcount::{run_wordcount_fix, store_shards};
        let (n_shards, seed) = (rng.range(1usize..10), rng.next());
        let rt = Runtime::builder().build();
        let shards = store_shards(&rt, seed, n_shards, 4096);
        let got = run_wordcount_fix(&rt, &shards, b"of").unwrap();
        let expect: u64 = (0..n_shards)
            .map(|i| count_nonoverlapping(&generate_shard(seed, i as u64, 4096), b"of"))
            .sum();
        assert_eq!(got, expect);
    });
}
