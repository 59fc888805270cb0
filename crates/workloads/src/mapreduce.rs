//! Map-reduce as a reusable paradigm on Fix (paper §6: the burden of
//! I/O externalization "could be lifted by … providing implementations
//! of common programming paradigms, e.g. map-reduce, on Fix").
//!
//! A job is described *entirely* as Fix objects before anything runs:
//! one lazy Application per input, then a binary tree of reduce
//! Applications whose arguments are Strict encodes of their children.
//! The caller gets back a single Thunk — evaluating it lets the
//! platform see the whole dataflow (every footprint, every dependency)
//! and schedule map tasks in parallel, merge eagerly, and memoize every
//! stage. Nothing about the pattern is workload-specific; `count-string`
//! (Fig. 8b) is one instantiation.

use fix_core::api::{Evaluator, InvocationApi};
use fix_core::error::Result;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;

/// A map-reduce job description: procedures plus per-invocation limits.
#[derive(Debug, Clone, Copy)]
pub struct MapReduce {
    /// The map procedure: `[limits, proc, input, extra...] → value`.
    pub map_proc: Handle,
    /// The reduce procedure: `[limits, proc, a, b] → value` — must be
    /// associative over the map outputs for the tree shape to be
    /// deterministic in *value* (it always is in shape).
    pub reduce_proc: Handle,
    /// Resource limits stamped on every invocation.
    pub limits: ResourceLimits,
}

impl MapReduce {
    /// Describes the job over `inputs`, with `extra_map_args` appended
    /// to every map invocation (e.g. the needle of count-string).
    /// Returns the root Thunk — **nothing has run yet**.
    pub fn describe<R: InvocationApi>(
        &self,
        rt: &R,
        inputs: &[Handle],
        extra_map_args: &[Handle],
    ) -> Result<Handle> {
        assert!(!inputs.is_empty(), "map-reduce over no inputs");
        // Map layer: one lazy application per input, strictly encoded so
        // reducers receive accessible values.
        let mut layer: Vec<Handle> = inputs
            .iter()
            .map(|&input| {
                let mut args = vec![input];
                args.extend_from_slice(extra_map_args);
                rt.apply(self.limits, self.map_proc, &args)?.strict()
            })
            .collect::<Result<_>>()?;

        // Binary reduction to a single root.
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    rt.apply(self.limits, self.reduce_proc, &[pair[0], pair[1]])?
                        .strict()?
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        // The root is an encode over the final application (or, for a
        // single input, over its map); hand back the thunk itself.
        layer[0].encoded_thunk()
    }

    /// Describes and evaluates the job, returning the final value.
    pub fn run<R: InvocationApi + Evaluator>(
        &self,
        rt: &R,
        inputs: &[Handle],
        extra_map_args: &[Handle],
    ) -> Result<Handle> {
        let root = self.describe(rt, inputs, extra_map_args)?;
        rt.eval(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordcount::{register_count_string, register_merge_counts, store_shards};
    use fix_core::api::ObjectApi;
    use fix_core::data::Blob;
    use fixpoint::Runtime;
    use std::sync::Arc;

    fn job(rt: &Runtime) -> MapReduce {
        MapReduce {
            map_proc: register_count_string(rt),
            reduce_proc: register_merge_counts(rt),
            limits: ResourceLimits::default_limits(),
        }
    }

    #[test]
    fn describe_runs_nothing() {
        let rt = Runtime::builder().build();
        let shards = store_shards(&rt, 3, 8, 8 << 10);
        let mr = job(&rt);
        let needle = rt.put_blob(Blob::from_slice(b"the"));
        let root = mr.describe(&rt, &shards, &[needle]).unwrap();
        assert!(root.is_thunk());
        assert_eq!(rt.procedures_run(), 0, "description must be pure");
        // The whole job is 8 maps + 7 merges once evaluated.
        rt.eval(root).unwrap();
        assert_eq!(rt.procedures_run(), 15);
    }

    #[test]
    fn generic_combinator_matches_direct_count() {
        let rt = Runtime::builder().build();
        let shards = store_shards(&rt, 9, 11, 16 << 10);
        let needle = rt.put_blob(Blob::from_slice(b"of"));
        let mr = job(&rt);
        let via_combinator = rt
            .get_u64(mr.run(&rt, &shards, &[needle]).unwrap())
            .unwrap();
        let direct: u64 = (0..11)
            .map(|i| {
                crate::corpus::count_nonoverlapping(
                    &crate::corpus::generate_shard(9, i, 16 << 10),
                    b"of",
                )
            })
            .sum();
        assert_eq!(via_combinator, direct);
    }

    #[test]
    fn single_input_skips_the_reduce() {
        let rt = Runtime::builder().build();
        let shards = store_shards(&rt, 5, 1, 4 << 10);
        let mr = job(&rt);
        let needle = rt.put_blob(Blob::from_slice(b"a"));
        let out = mr.run(&rt, &shards, &[needle]).unwrap();
        assert!(rt.get_u64(out).unwrap() > 0);
        // 1 map, 0 merges.
        assert_eq!(rt.procedures_run(), 1);
    }

    #[test]
    fn works_with_any_procedures() {
        // A different instantiation: map = byte-length, reduce = max.
        let rt = Runtime::builder().build();
        let len_proc = rt.register_native(
            "mr/len",
            Arc::new(|ctx| {
                let b = ctx.arg_blob(0)?;
                ctx.host
                    .create_blob((b.len() as u64).to_le_bytes().to_vec())
            }),
        );
        let max_proc = rt.register_native(
            "mr/max",
            Arc::new(|ctx| {
                let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
                let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
                ctx.host.create_blob(a.max(b).to_le_bytes().to_vec())
            }),
        );
        let inputs: Vec<Handle> = [100usize, 7, 345, 20]
            .iter()
            .map(|&n| rt.put_blob(Blob::from_vec(vec![0xAA; n])))
            .collect();
        let mr = MapReduce {
            map_proc: len_proc,
            reduce_proc: max_proc,
            limits: ResourceLimits::default_limits(),
        };
        let out = mr.run(&rt, &inputs, &[]).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 345);
    }

    #[test]
    fn memoization_spans_jobs_sharing_inputs() {
        // Two jobs over overlapping shards: shared map stages run once.
        let rt = Runtime::builder().build();
        let shards = store_shards(&rt, 4, 6, 8 << 10);
        let mr = job(&rt);
        let needle = rt.put_blob(Blob::from_slice(b"the"));
        mr.run(&rt, &shards[..4], &[needle]).unwrap();
        let before = rt.procedures_run();
        mr.run(&rt, &shards[..6], &[needle]).unwrap();
        let delta = rt.procedures_run() - before;
        // Only the 2 new maps + the new merge spine run; the first four
        // map results come from the relation cache.
        assert!(delta <= 2 + 5, "ran {delta} procedures");
    }

    #[test]
    fn parallel_workers_agree_with_inline() {
        let rt1 = Runtime::builder().build();
        let rt4 = Runtime::builder().workers(4).build();
        let needle1 = rt1.put_blob(Blob::from_slice(b"and"));
        let needle4 = rt4.put_blob(Blob::from_slice(b"and"));
        let s1 = store_shards(&rt1, 8, 12, 8 << 10);
        let s4 = store_shards(&rt4, 8, 12, 8 << 10);
        let a = job(&rt1).run(&rt1, &s1, &[needle1]).unwrap();
        let b = job(&rt4).run(&rt4, &s4, &[needle4]).unwrap();
        assert_eq!(rt1.get_u64(a).unwrap(), rt4.get_u64(b).unwrap());
    }
}
