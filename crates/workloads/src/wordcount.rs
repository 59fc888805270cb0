//! The count-string workload (paper §5.3.2, Fig. 8b) and the one-off
//! function workload (§5.3.1, Fig. 8a).
//!
//! Two procedures, exactly as the paper describes: `count-string` takes
//! a corpus chunk and a needle and reports the number of non-overlapping
//! occurrences; `merge-counts` sums two counts in a binary reduction.
//! Both run for real on the Fixpoint runtime; the same workload also
//! compiles to a [`JobGraph`] for the simulated 10-node cluster.

use crate::corpus::{count_nonoverlapping, generate_shard};
use fix_cluster::{JobGraph, JobGraphBuilder, TaskId, TaskSpec};
use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::Blob;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fix_netsim::{NodeId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Registers `count-string`: `[rl, proc, chunk, needle] -> u64 blob`.
pub fn register_count_string<R: InvocationApi>(rt: &R) -> Handle {
    rt.register_native(
        "wordcount/count-string",
        Arc::new(|ctx| {
            let chunk = ctx.arg_blob(0)?;
            let needle = ctx.arg_blob(1)?;
            let n = count_nonoverlapping(chunk.as_slice(), needle.as_slice());
            ctx.host.create_blob(n.to_le_bytes().to_vec())
        }),
    )
}

/// Registers `merge-counts`: `[rl, proc, a, b] -> u64 blob`.
pub fn register_merge_counts<R: InvocationApi>(rt: &R) -> Handle {
    rt.register_native(
        "wordcount/merge-counts",
        Arc::new(|ctx| {
            let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
            let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
            ctx.host.create_blob((a + b).to_le_bytes().to_vec())
        }),
    )
}

/// Runs the full map-reduce for real on a runtime: counts `needle`
/// across `shards` with a binary merge reduction, entirely as Fix
/// thunks/encodes — an instantiation of the generic
/// [`MapReduce`](crate::mapreduce::MapReduce) paradigm.
pub fn run_wordcount_fix<R: InvocationApi + Evaluator>(
    rt: &R,
    shards: &[Handle],
    needle: &[u8],
) -> fix_core::Result<u64> {
    let mr = crate::mapreduce::MapReduce {
        map_proc: register_count_string(rt),
        reduce_proc: register_merge_counts(rt),
        limits: ResourceLimits::default_limits(),
    };
    let needle_h = rt.put_blob(Blob::from_slice(needle));
    let result = mr.run(rt, shards, &[needle_h])?;
    rt.get_u64(result)
}

/// Generates and stores corpus shards, returning their handles.
pub fn store_shards<R: ObjectApi>(
    rt: &R,
    seed: u64,
    n_shards: usize,
    shard_size: usize,
) -> Vec<Handle> {
    (0..n_shards)
        .map(|i| rt.put_blob(Blob::from_vec(generate_shard(seed, i as u64, shard_size))))
        .collect()
}

// ----------------------------------------------------------------------
// Cluster graphs.
// ----------------------------------------------------------------------

/// Parameters of the Fig. 8b cluster workload.
#[derive(Debug, Clone)]
pub struct Fig8bParams {
    /// Number of corpus shards (paper: 984).
    pub n_shards: usize,
    /// Shard size in bytes (paper: 100 MiB).
    pub shard_size: u64,
    /// Worker nodes to scatter shards across.
    pub nodes: Vec<NodeId>,
    /// Per-core scan rate in bytes/s (calibrated so ten 32-core nodes
    /// finish 984 × 100 MiB in ≈3 s, as in the paper: ≈100 MB/s).
    pub scan_bytes_per_s: u64,
    /// Merge-task compute time.
    pub merge_us: Time,
    /// Placement RNG seed (shards are scattered randomly, like the
    /// paper's setup).
    pub seed: u64,
}

impl Default for Fig8bParams {
    fn default() -> Self {
        Fig8bParams {
            n_shards: 984,
            shard_size: 100 << 20,
            nodes: (0..10).map(NodeId).collect(),
            scan_bytes_per_s: 100_000_000,
            merge_us: 50,
            seed: 8,
        }
    }
}

/// Builds the Fig. 8b job graph: `count-string` over every shard, then a
/// binary `merge-counts` reduction.
pub fn fig8b_graph(p: &Fig8bParams) -> JobGraph {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut b = JobGraphBuilder::new();
    let scan_us = |bytes: u64| (bytes as u128 * 1_000_000 / p.scan_bytes_per_s as u128) as Time;

    let mut layer: Vec<TaskId> = (0..p.n_shards)
        .map(|_| {
            let node = p.nodes[rng.gen_range(0..p.nodes.len())];
            let chunk = b.object_at(p.shard_size, &[node]);
            b.task(TaskSpec {
                inputs: vec![chunk],
                deps: vec![],
                compute_us: scan_us(p.shard_size),
                cores: 1,
                ram: p.shard_size + (64 << 20),
                output_size: 8,
                output_hint: Some(8),
                func: 1,
            })
        })
        .collect();

    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(b.task(TaskSpec {
                    inputs: vec![],
                    deps: vec![pair[0], pair[1]],
                    compute_us: p.merge_us,
                    cores: 1,
                    ram: 64 << 20,
                    output_size: 8,
                    output_hint: Some(8),
                    func: 2,
                }));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    b.build()
}

/// Parameters of the Fig. 8a one-off-function workload.
#[derive(Debug, Clone)]
pub struct Fig8aParams {
    /// Number of invocations (paper: 1024).
    pub n_tasks: usize,
    /// The storage node holding every input (150 ms away).
    pub storage: NodeId,
    /// Input size per task (small objects; latency-dominated).
    pub input_size: u64,
    /// Per-task compute once the input is local.
    pub compute_us: Time,
    /// RAM requested per invocation (paper: 1 GB).
    pub ram: u64,
}

impl Default for Fig8aParams {
    fn default() -> Self {
        Fig8aParams {
            n_tasks: 1024,
            storage: NodeId(1),
            input_size: 64 << 10,
            compute_us: 100,
            ram: 1 << 30,
        }
    }
}

/// Builds the Fig. 8a job graph: independent tasks, each reading one
/// input that lives behind the high-latency storage node.
pub fn fig8a_graph(p: &Fig8aParams) -> JobGraph {
    let mut b = JobGraphBuilder::new();
    for _ in 0..p.n_tasks {
        let input = b.object_at(p.input_size, &[p.storage]);
        b.task(TaskSpec {
            inputs: vec![input],
            deps: vec![],
            compute_us: p.compute_us,
            cores: 1,
            ram: p.ram,
            output_size: 8,
            output_hint: Some(8),
            func: 1,
        });
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixpoint::Runtime;

    #[test]
    fn real_wordcount_matches_direct_count() {
        let rt = Runtime::builder().workers(4).build();
        let shard_size = 64 << 10;
        let shards = store_shards(&rt, 5, 16, shard_size);
        let total = run_wordcount_fix(&rt, &shards, b"the").unwrap();
        let expect: u64 = (0..16)
            .map(|i| count_nonoverlapping(&generate_shard(5, i, shard_size), b"the"))
            .sum();
        assert_eq!(total, expect);
        assert!(expect > 100, "corpus should contain plenty of 'the'");
    }

    #[test]
    fn real_wordcount_single_threaded_matches_parallel() {
        let rt1 = Runtime::builder().build();
        let rt4 = Runtime::builder().workers(4).build();
        let shards1 = store_shards(&rt1, 6, 9, 16 << 10);
        let shards4 = store_shards(&rt4, 6, 9, 16 << 10);
        let a = run_wordcount_fix(&rt1, &shards1, b"of").unwrap();
        let b = run_wordcount_fix(&rt4, &shards4, b"of").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wordcount_memoizes_repeat_queries() {
        let rt = Runtime::builder().build();
        let shards = store_shards(&rt, 7, 8, 8 << 10);
        let a = run_wordcount_fix(&rt, &shards, b"and").unwrap();
        let runs = rt.procedures_run();
        let b = run_wordcount_fix(&rt, &shards, b"and").unwrap();
        assert_eq!(a, b);
        assert_eq!(
            rt.procedures_run(),
            runs,
            "identical job must be fully memoized"
        );
    }

    #[test]
    fn fig8b_graph_shape() {
        let p = Fig8bParams {
            n_shards: 100,
            shard_size: 1 << 20,
            ..Fig8bParams::default()
        };
        let g = fig8b_graph(&p);
        assert_eq!(g.tasks.len(), 100 + 99);
        assert_eq!(g.sinks().len(), 1);
        // All shards placed on the ten nodes.
        let placed = g
            .objects
            .iter()
            .filter(|o| !o.initial_locations.is_empty())
            .count();
        assert_eq!(placed, 100);
    }

    #[test]
    fn fig8a_graph_shape() {
        let g = fig8a_graph(&Fig8aParams::default());
        assert_eq!(g.tasks.len(), 1024);
        assert!(g
            .objects
            .iter()
            .filter(|o| !o.initial_locations.is_empty())
            .all(|o| o.initial_locations == vec![NodeId(1)]));
    }
}
