//! Recompute-on-demand: the runtime half of computational garbage
//! collection (paper §6, "delayed-availability" storage).
//!
//! `fix-storage` plans sound evictions over recipes read from the
//! table's memoized relations; this module re-creates evicted bytes by
//! re-running those recipes. A recipe's support closure sees its Encodes
//! and thunk targets through the same relations a re-run reads them
//! from, so it is
//! exactly what the re-run needs — and materialization can recursively
//! restore a cascade of evicted inputs in dependency order, then re-run
//! the producing procedure once.
//!
//! The key invariant is determinism: a re-run must produce the same
//! payload the original run did. [`Runtime::materialize`] verifies this
//! and reports a provider-side fault otherwise.

use crate::runtime::Runtime;
use fix_core::api::Evaluator;
use fix_core::error::{Error, Result};
use fix_core::handle::{Handle, HandleMap, HandleSet, Kind, ThunkKind};
use fix_storage::{
    apply_eviction, payload_key, plan_eviction, recipes, support_closure, EvictionPlan, Relation,
};

/// What an eviction pass deleted.
#[derive(Debug, Clone)]
pub struct EvictionOutcome {
    /// The executed plan (victims with recompute depths).
    pub plan: EvictionPlan,
    /// Bytes actually reclaimed from the store.
    pub bytes_reclaimed: u64,
}

/// What a materialization did to serve a cold read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecomputeReport {
    /// Objects whose bytes were re-created (the cascade size).
    pub objects_materialized: usize,
    /// Procedure runs the cascade cost (from engine counters).
    pub procedures_rerun: u64,
    /// Longest recipe chain followed.
    pub max_depth: u32,
}

impl Runtime {
    /// Deletes every object that can be soundly brought back from what
    /// remains, keeping everything reachable from `pins`: the node's one
    /// eviction entry point.
    ///
    /// This is the paper's computational garbage collection: the
    /// provider reclaims memory for objects whose recipes the table's
    /// relations name, and later reads pay a recompute instead of a miss —
    /// or, for an object a durable log holds, one fault (depth 0).
    /// Must not run concurrently with evaluations.
    pub fn evict_recomputable(&self, pins: &[Handle]) -> Result<EvictionOutcome> {
        let plan = plan_eviction(self.store(), pins);
        let bytes_reclaimed = apply_eviction(self.store(), &plan)?;
        Ok(EvictionOutcome {
            plan,
            bytes_reclaimed,
        })
    }

    /// Ensures `handle`'s bytes are resident, re-running their recipes
    /// as needed (recursively, for evicted inputs).
    ///
    /// Returns a report of the work done — `objects_materialized == 0`
    /// means the read was warm. Fails with [`Error::NotFound`] if no
    /// memoized relation produces the object, and with a trap if a
    /// re-run produces different bytes (a determinism fault: the paper's
    /// "wrong answer" a provider would carry insurance for). A re-run
    /// that fails leaves its recipe in the table.
    pub fn materialize(&self, handle: Handle) -> Result<RecomputeReport> {
        let recipes = recipes(self.store());
        let before = self.procedures_run();
        let mut report = RecomputeReport::default();
        let mut in_progress: HandleSet<[u8; 32]> = HandleSet::default();
        self.materialize_inner(&recipes, handle, 1, &mut in_progress, &mut report)?;
        report.procedures_rerun = self.procedures_run() - before;
        Ok(report)
    }

    fn materialize_inner(
        &self,
        recipes: &HandleMap<[u8; 32], (Handle, Handle)>,
        handle: Handle,
        depth: u32,
        in_progress: &mut HandleSet<[u8; 32]>,
        report: &mut RecomputeReport,
    ) -> Result<()> {
        if !matches!(handle.kind(), Kind::Object(_) | Kind::Ref(_)) {
            return Err(Error::TypeMismatch {
                handle,
                expected: "a data handle",
            });
        }
        if self.store().contains(handle) {
            return Ok(());
        }
        let key = payload_key(handle);
        if !in_progress.insert(key) {
            return Err(Error::Trap(format!(
                "recompute cycle involving {handle}; refusing to recurse"
            )));
        }
        let &(_, recipe) = recipes.get(&key).ok_or(Error::NotFound(handle))?;

        // Restore the recipe's support first. Each pass can only see as
        // deep as resident trees allow, so loop until nothing is absent:
        // every pass materializes at least one object or fails.
        loop {
            let missing: Vec<Handle> = support_closure(self.store(), recipe)
                .into_iter()
                .filter(|s| !self.store().contains(*s))
                .collect();
            if missing.is_empty() {
                break;
            }
            for s in missing {
                self.materialize_inner(recipes, s, depth + 1, in_progress, report)?;
            }
        }

        // Forget the recipe's memos so evaluation actually re-runs (the
        // table's relations are the only memo), and put them back if the
        // re-run fails: they are the only record of the recipe.
        let mut memos = vec![(Relation::Eval, recipe)];
        if recipe.kind() == Kind::Thunk(ThunkKind::Application) {
            memos.extend(recipe.thunk_definition().map(|def| (Relation::Apply, def)));
        }
        let forgotten: Vec<_> = memos
            .into_iter()
            .filter_map(|(relation, input)| {
                let output = self.cache().remove(relation, input)?;
                Some((relation, input, output))
            })
            .collect();
        let produced = self.eval(recipe).inspect_err(|_| {
            for &(relation, input, output) in &forgotten {
                self.cache().put(relation, input, output);
            }
        })?;
        if !self.store().contains(handle) {
            // Same evaluation, different bytes: determinism violation.
            return Err(Error::Trap(format!(
                "recompute of {handle} produced {produced}: nondeterministic procedure \
                 or corrupted relation cache"
            )));
        }
        report.objects_materialized += 1;
        report.max_depth = report.max_depth.max(depth);
        in_progress.remove(&key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::{InvocationApi, ObjectApi};
    use fix_core::data::Blob;
    use fix_core::limits::ResourceLimits;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn limits() -> ResourceLimits {
        ResourceLimits::default_limits()
    }

    /// A runtime with a `double` codelet that counts runs.
    fn doubling_runtime() -> (Runtime, Handle, Arc<AtomicU64>) {
        let rt = Runtime::builder().build();
        let runs = Arc::new(AtomicU64::new(0));
        let r2 = Arc::clone(&runs);
        let double = rt.register_native(
            "double",
            Arc::new(move |ctx| {
                r2.fetch_add(1, Ordering::SeqCst);
                // Value travels in the first 8 bytes (inputs may be
                // 8-byte literals or previous 64-byte outputs).
                let data = ctx.arg_blob(0)?;
                let mut first8 = [0u8; 8];
                let n = data.len().min(8);
                first8[..n].copy_from_slice(&data.as_slice()[..n]);
                let v = u64::from_le_bytes(first8);
                // 64 bytes so outputs are never literals.
                let mut out = vec![0u8; 64];
                out[..8].copy_from_slice(&(v * 2).to_le_bytes());
                ctx.host.create_blob(out)
            }),
        );
        (rt, double, runs)
    }

    fn doubled_value(rt: &Runtime, h: Handle) -> u64 {
        let blob = rt.get_blob(h).unwrap();
        u64::from_le_bytes(blob.as_slice()[..8].try_into().unwrap())
    }

    #[test]
    fn evict_then_recompute_round_trip() {
        let (rt, double, runs) = doubling_runtime();
        let x = rt.put_blob(Blob::from_vec(vec![21u8; 64]));
        let input = rt.put_blob(Blob::from_u64(21));
        let _ = x;
        let thunk = rt.apply(limits(), double, &[input]).unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(doubled_value(&rt, out), 42);
        assert_eq!(runs.load(Ordering::SeqCst), 1);

        let outcome = rt.evict_recomputable(&[]).unwrap();
        assert!(outcome.bytes_reclaimed >= 64);
        assert!(!rt.store().contains(out));

        // A cold read transparently re-runs the procedure.
        rt.materialize(out).unwrap();
        let blob = rt.get_blob(out).unwrap();
        assert_eq!(
            u64::from_le_bytes(blob.as_slice()[..8].try_into().unwrap()),
            42
        );
        assert_eq!(runs.load(Ordering::SeqCst), 2);

        // Warm read afterwards: no further work.
        let report = rt.materialize(out).unwrap();
        assert_eq!(report.objects_materialized, 0);
    }

    #[test]
    fn cascaded_recompute_restores_chain() {
        // out2 = double(double(x)): evict both outputs, materialize the
        // outer one; the inner must be restored first.
        let (rt, double, runs) = doubling_runtime();
        let input = rt.put_blob(Blob::from_u64(10));
        let t1 = rt.apply(limits(), double, &[input]).unwrap();
        let out1 = rt.eval(t1).unwrap();
        let t2 = rt.apply(limits(), double, &[out1]).unwrap();
        let out2 = rt.eval(t2).unwrap();
        assert_eq!(doubled_value(&rt, out2), 40);
        assert_eq!(runs.load(Ordering::SeqCst), 2);

        let outcome = rt.evict_recomputable(&[]).unwrap();
        assert_eq!(outcome.plan.victims.len(), 2);
        assert_eq!(outcome.plan.max_depth(), 2);
        assert!(!rt.store().contains(out1));
        assert!(!rt.store().contains(out2));

        let report = rt.materialize(out2).unwrap();
        assert_eq!(report.objects_materialized, 2);
        assert_eq!(report.max_depth, 2);
        assert_eq!(report.procedures_rerun, 2);
        assert_eq!(runs.load(Ordering::SeqCst), 4);
        assert_eq!(doubled_value(&rt, out2), 40);
        assert!(rt.store().contains(out1), "inner restored by cascade");
    }

    #[test]
    fn pins_survive_eviction() {
        let (rt, double, _) = doubling_runtime();
        let input = rt.put_blob(Blob::from_u64(5));
        let out = rt
            .eval(rt.apply(limits(), double, &[input]).unwrap())
            .unwrap();
        let outcome = rt.evict_recomputable(&[out]).unwrap();
        assert_eq!(outcome.bytes_reclaimed, 0);
        assert!(rt.store().contains(out));
    }

    #[test]
    fn materialize_without_recipe_is_not_found() {
        let rt = Runtime::builder().build();
        let h = rt.put_blob(Blob::from_vec(vec![1u8; 64]));
        rt.store().evict(h);
        assert!(matches!(rt.materialize(h), Err(Error::NotFound(_))));
    }

    #[test]
    fn selection_results_are_recomputable() {
        let (rt, _, _) = doubling_runtime();
        let big = rt.put_blob(Blob::from_vec((0..=255u8).cycle().take(512).collect()));
        let sel = rt.select_range(big, 100, 200).unwrap();
        let slice = rt.eval(sel).unwrap();
        let expect = rt.get_blob(slice).unwrap();

        let outcome = rt.evict_recomputable(&[]).unwrap();
        assert!(outcome
            .plan
            .victims
            .iter()
            .any(|v| v.handle == slice.as_object_handle()));
        assert!(!rt.store().contains(slice));

        rt.materialize(slice).unwrap();
        let got = rt.get_blob(slice).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn a_selection_over_a_computed_target_restores_the_target_first() {
        // The selection's target is a thunk: its re-run reads the
        // target's memoized value, so that value is restored first.
        let (rt, double, runs) = doubling_runtime();
        let input = rt.put_blob(Blob::from_u64(3));
        let thunk = rt.apply(limits(), double, &[input]).unwrap();
        let sel = rt.select_range(thunk, 0, 40).unwrap();
        let slice = rt.eval(sel).unwrap();
        let expect = rt.get_blob(slice).unwrap();

        let outcome = rt.evict_recomputable(&[]).unwrap();
        assert_eq!(outcome.plan.victims.len(), 2);
        assert_eq!(outcome.plan.max_depth(), 2);

        let report = rt.materialize(slice).unwrap();
        assert_eq!(report.objects_materialized, 2);
        assert_eq!(report.max_depth, 2);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(rt.get_blob(slice).unwrap(), expect);
    }

    #[test]
    fn recompute_after_memo_clear_is_not_found() {
        // The cache is the recipe book: clearing it forgets how to
        // recompute what was evicted.
        let (rt, double, _) = doubling_runtime();
        let input = rt.put_blob(Blob::from_u64(8));
        let out = rt
            .eval(rt.apply(limits(), double, &[input]).unwrap())
            .unwrap();
        rt.evict_recomputable(&[]).unwrap();
        rt.cache().clear();
        assert!(matches!(rt.materialize(out), Err(Error::NotFound(_))));
    }
}
