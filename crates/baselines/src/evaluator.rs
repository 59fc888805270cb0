//! [`BaselineEvaluator`]: a comparator system behind the One Fix API.
//!
//! The third implementation of the `fix_core::api` trait family
//! (`SubmitApi` included — the same [`ClientCore`] submission path as
//! `fix_cluster::ClusterClient`, through the embedded node's scheduler):
//! the same workload that runs on `fixpoint::Runtime` (for real) and
//! `fix_cluster::ClusterClient` (Fixpoint's profile over netsim) runs
//! here under a baseline [`Profile`] — OpenWhisk, Ray, Pheromone, Faasm — so every
//! generic workload is automatically a cost-model row for every
//! comparator. Results stay bit-identical (semantics come from the
//! embedded Fix node); what differs is the [`RunReport`] each request
//! accumulates: dispatch round trips, store GET/PUTs, cold starts, and
//! early-binding stalls, per the profile.

use fix_cluster::{ClientCore, ClusterSetup, Profile, RunReport};
use fix_core::error::{Error, Result};
use fix_netsim::Time;
use fixpoint::Runtime;

/// A Fix client whose evaluations are costed under a baseline profile.
///
/// # Examples
///
/// ```
/// use fix_baselines::{profiles, BaselineEvaluator, CostModel};
/// use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
/// use fix_core::data::Blob;
/// use fix_core::limits::ResourceLimits;
/// use fix_netsim::NodeId;
/// use std::sync::Arc;
///
/// let profile = profiles::ray_cps(NodeId(9), &CostModel::default());
/// let rb = BaselineEvaluator::builder().profile(profile).build().unwrap();
/// let double = rb.register_native("double", Arc::new(|ctx| {
///     let x = ctx.arg_blob(0)?.as_u64().unwrap();
///     ctx.host.create_blob((2 * x).to_le_bytes().to_vec())
/// }));
/// let thunk = rb.apply(
///     ResourceLimits::default_limits(),
///     double,
///     &[rb.put_blob(Blob::from_u64(21))],
/// ).unwrap();
/// assert_eq!(rb.get_u64(rb.eval(thunk).unwrap()).unwrap(), 42);
/// assert!(rb.last_report().unwrap().makespan_us > 0);
/// ```
pub struct BaselineEvaluator {
    core: ClientCore,
}

/// Configures a [`BaselineEvaluator`].
pub struct BaselineEvaluatorBuilder {
    setup: ClusterSetup,
    profile: Option<Profile>,
    task_compute_us: Time,
}

impl Default for BaselineEvaluatorBuilder {
    fn default() -> Self {
        BaselineEvaluatorBuilder {
            setup: ClusterSetup::workers_only(
                10,
                fix_netsim::NodeSpec::default(),
                fix_netsim::NetConfig::default(),
            ),
            profile: None,
            task_compute_us: fix_core::calibration::SERVICE_COSTS.task_compute_us,
        }
    }
}

impl BaselineEvaluatorBuilder {
    /// The simulated cluster to cost against (default: ten homogeneous
    /// workers).
    pub fn setup(mut self, setup: ClusterSetup) -> Self {
        self.setup = setup;
        self
    }

    /// The baseline profile to run under (required; see
    /// [`crate::profiles`]).
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Modeled compute time per simulated task, in µs (default: the
    /// shared [`fix_core::calibration::SERVICE_COSTS`] flat charge).
    pub fn task_compute_us(mut self, us: Time) -> Self {
        self.task_compute_us = us;
        self
    }

    /// Builds the evaluator.
    pub fn build(self) -> Result<BaselineEvaluator> {
        let profile = self.profile.ok_or(Error::Backend {
            backend: "baseline",
            message: "no profile configured (see fix_baselines::profiles)".into(),
        })?;
        Ok(BaselineEvaluator {
            core: ClientCore::new("baseline", self.setup, profile, self.task_compute_us, false)?,
        })
    }
}

impl BaselineEvaluator {
    /// Starts building a baseline evaluator.
    pub fn builder() -> BaselineEvaluatorBuilder {
        BaselineEvaluatorBuilder::default()
    }

    /// The profile this evaluator costs against.
    pub fn profile(&self) -> &Profile {
        self.core.profile()
    }

    /// The embedded Fix node.
    pub fn inner(&self) -> &Runtime {
        self.core.inner()
    }

    /// Reports of every simulated run so far, in submission order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.core.reports()
    }

    /// The most recent simulated run, if any.
    pub fn last_report(&self) -> Option<RunReport> {
        self.core.last_report()
    }
}

fix_cluster::impl_one_fix_api!(BaselineEvaluator);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::CostModel;
    use fix_core::api::{Evaluator, InvocationApi, ObjectApi, Priority, SubmitApi, SubmitOptions};
    use fix_core::data::Blob;
    use fix_core::handle::Handle;
    use fix_core::limits::ResourceLimits;
    use fix_netsim::NodeId;
    use std::sync::Arc;

    fn add_thunk(rb: &BaselineEvaluator, a: u64, b: u64) -> Handle {
        let add = rb.register_native(
            "add",
            Arc::new(|ctx| {
                let a = ctx.arg_blob(0)?.as_u64().unwrap();
                let b = ctx.arg_blob(1)?.as_u64().unwrap();
                ctx.host
                    .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
            }),
        );
        rb.apply(
            ResourceLimits::default_limits(),
            add,
            &[
                rb.put_blob(Blob::from_u64(a)),
                rb.put_blob(Blob::from_u64(b)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn requires_a_profile() {
        assert!(matches!(
            BaselineEvaluator::builder().build(),
            Err(Error::Backend { .. })
        ));
    }

    /// Derived tasks need 64 MiB; 32 MiB workers can place nothing, and
    /// a late-binding profile must not wait for RAM that cannot appear.
    #[test]
    fn an_unplaceable_request_is_a_backend_fault_not_a_hang() {
        let tiny = fix_netsim::NodeSpec {
            cores: 1,
            ram_bytes: 32 << 20,
        };
        let rb = BaselineEvaluator::builder()
            .setup(ClusterSetup::workers_only(
                2,
                tiny,
                fix_netsim::NetConfig::default(),
            ))
            .profile(profiles::ray_cps(NodeId(0), &CostModel::default()))
            .build()
            .unwrap();
        let t = add_thunk(&rb, 1, 2);
        let is_fault = |r: &Result<Handle>| match r {
            Err(Error::Backend { backend, message }) => {
                *backend == "baseline" && message.contains("task 0 needs 1 cores")
            }
            _ => false,
        };
        assert!(is_fault(&rb.eval(t)));
        assert!(is_fault(&rb.eval_strict(t)));
        let batch = rb.eval_many(&[t, t]);
        assert!(batch.len() == 2 && batch.iter().all(is_fault));
        assert_eq!(rb.procedures_run(), 0, "refused before evaluating");
        assert!(rb.reports().is_empty());
    }

    #[test]
    fn costs_under_the_profile_and_agrees_on_results() {
        let rb = BaselineEvaluator::builder()
            .profile(profiles::openwhisk(&[NodeId(0)], &CostModel::default()))
            .build()
            .unwrap();
        let t = add_thunk(&rb, 40, 2);
        let out = rb.eval(t).unwrap();
        assert_eq!(rb.get_u64(out).unwrap(), 42);
        let report = rb.last_report().unwrap();
        assert_eq!(report.tasks_run, 1);
        // OpenWhisk's 30.7 ms per-invocation overhead dominates.
        assert!(report.makespan_us > 10_000, "{}", report.makespan_us);
    }

    #[test]
    fn slower_profiles_cost_more_than_the_fix_engine() {
        let cc = fix_cluster::ClusterClient::builder().build().unwrap();
        let t_fix = {
            let add = cc.register_native(
                "add",
                Arc::new(|ctx| {
                    let a = ctx.arg_blob(0)?.as_u64().unwrap();
                    let b = ctx.arg_blob(1)?.as_u64().unwrap();
                    ctx.host
                        .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
                }),
            );
            let t = cc
                .apply(
                    ResourceLimits::default_limits(),
                    add,
                    &[
                        cc.put_blob(Blob::from_u64(1)),
                        cc.put_blob(Blob::from_u64(2)),
                    ],
                )
                .unwrap();
            cc.eval(t).unwrap();
            cc.last_report().unwrap().makespan_us
        };
        let rb = BaselineEvaluator::builder()
            .profile(profiles::ray_blocking(NodeId(9), &CostModel::default()))
            .build()
            .unwrap();
        let t = add_thunk(&rb, 1, 2);
        rb.eval(t).unwrap();
        let t_ray = rb.last_report().unwrap().makespan_us;
        assert!(
            t_ray > t_fix,
            "ray (blocking) {t_ray} µs should exceed fix {t_fix} µs"
        );
    }

    /// The request-scoped submission path over a baseline profile: the
    /// evaluator submits through its embedded node's scheduler, so the
    /// options — strict mode, priorities, deadlines — behave exactly as
    /// on every other backend (the cross-backend agreement itself is
    /// pinned by tests/api_conformance.rs).
    #[test]
    fn native_submission_honors_request_options() {
        let rb = BaselineEvaluator::builder()
            .profile(profiles::openwhisk(
                &(0..4).map(NodeId).collect::<Vec<_>>(),
                &CostModel::default(),
            ))
            .build()
            .unwrap();
        let t1 = add_thunk(&rb, 40, 2);
        let t2 = add_thunk(&rb, 1, 2);

        // Strict, latency-class submission agrees with eval_strict.
        let opts = SubmitOptions::strict().with_priority(Priority::Latency);
        let results = rb.wait_batch(rb.submit_with(&[t1, t2], opts));
        assert_eq!(*results[0].as_ref().unwrap(), rb.eval_strict(t1).unwrap());
        assert_eq!(rb.get_u64(*results[1].as_ref().unwrap()).unwrap(), 3);
        assert_eq!(rb.reports().len(), 1, "one batch, one costed run");

        // A deadline the virtual clock has passed fails the batch before
        // the (costly) baseline simulation ever runs.
        rb.advance_virtual_clock(10);
        let expired = rb.wait_batch(rb.submit_with(
            &[add_thunk(&rb, 5, 5)],
            SubmitOptions::default().with_deadline(3),
        ));
        assert!(matches!(
            expired[0],
            Err(Error::DeadlineExceeded { deadline_us: 3 })
        ));
        assert_eq!(rb.reports().len(), 1, "dead work is never costed");
    }
}
