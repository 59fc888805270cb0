//! `fix-baselines`: the comparator systems of the paper's evaluation,
//! as architectural profiles over the shared cluster simulator.
//!
//! We cannot deploy OpenWhisk, Kubernetes, MinIO, Ray, Pheromone, or
//! Faasm here, so each is reproduced as a [`Profile`] — its placement
//! policy, resource-binding order, dispatch path, store usage, and
//! cold-start behavior ([`profiles`]) — and run by the same simulator
//! that runs Fixpoint, `fix_cluster::engine`, where Fixpoint is the one
//! profile with externalized I/O. [`run_baseline`] and [`Profile`] are
//! re-exports of that engine's entry point and knob set; this crate
//! owns no simulation code. Per-invocation costs are calibrated from
//! the paper's own Fig. 7a measurements ([`CostModel`]); see DESIGN.md
//! for the substitution argument.
//!
//! A comparator goes behind the backend-agnostic `fix_core::api` traits
//! the same way Fixpoint does —
//! `fix_cluster::ClusterClient::builder().profile(profiles::…)` — so
//! any workload written against the One Fix API can be costed under a
//! comparator without modification; this crate is the profiles and the
//! cost model, nothing else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
pub mod profiles;

pub use cost::CostModel;
pub use fix_cluster::{run_profile as run_baseline, Profile};

#[cfg(test)]
mod tests {
    use super::*;
    use fix_cluster::{
        run_fix, small_task, ClusterClient, ClusterSetup, FixConfig, JobGraph, JobGraphBuilder,
        TaskId,
    };
    use fix_core::api::{Evaluator, InvocationApi, ObjectApi, SubmitApi, SubmitOptions};
    use fix_core::data::Blob;
    use fix_core::error::{Error, Result};
    use fix_core::handle::Handle;
    use fix_core::limits::ResourceLimits;
    use fix_netsim::{NetConfig, NodeId, NodeSpec, MS};
    use std::sync::Arc;

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// 10 workers + node 10 as MinIO store + node 11 as client/driver.
    fn full_setup() -> ClusterSetup {
        ClusterSetup {
            specs: vec![NodeSpec::default(); 12],
            net: NetConfig::default(),
            workers: (0..10).map(NodeId).collect(),
            client: Some(NodeId(11)),
        }
    }

    fn scattered_map(n_chunks: usize, chunk_size: u64, compute_us: u64) -> JobGraph {
        let mut b = JobGraphBuilder::new();
        for i in 0..n_chunks {
            let o = b.object_at(chunk_size, &[NodeId(i % 10)]);
            let mut t = small_task(compute_us, 8);
            t.inputs.push(o);
            b.task(t);
        }
        b.build()
    }

    fn chain(n: usize) -> JobGraph {
        let mut b = JobGraphBuilder::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..n {
            let mut t = small_task(1, 8);
            if let Some(p) = prev {
                t.deps.push(p);
            }
            prev = Some(b.task(t));
        }
        b.build()
    }

    #[test]
    fn fig7b_shape_ray_pays_per_step_round_trips() {
        // Remote client 21.3 ms RTT away; 500-step chain.
        let client = NodeId(2);
        let net = NetConfig::default().with_extra_latency(client, 10_650);
        let setup = ClusterSetup {
            specs: vec![NodeSpec::default(); 3],
            net,
            workers: vec![NodeId(0), NodeId(1)],
            client: Some(client),
        };
        let g = chain(500);

        let fix = run_fix(&setup, &g, &FixConfig::default());
        let ray = run_baseline(&setup, &g, &profiles::ray_cps(client, &cost()));
        let pher = run_baseline(&setup, &g, &profiles::pheromone(&[NodeId(1)], &cost()));

        // Ray: ~500 round trips; Fix and Pheromone: ~1.
        assert!(
            ray.makespan_us > 400 * 21_300,
            "ray chain too fast: {} µs",
            ray.makespan_us
        );
        assert!(fix.makespan_us < 100 * MS);
        assert!(pher.makespan_us < 200 * MS);
        assert!(fix.makespan_us < pher.makespan_us);
        assert!(pher.makespan_us < ray.makespan_us);
    }

    #[test]
    fn fig8b_shape_system_ordering() {
        // Scattered 16 MiB chunks, compute-light map tasks.
        let setup = full_setup();
        let store = NodeId(10);
        let g = scattered_map(200, 16 << 20, 10_000);

        let fix = run_fix(&setup, &g, &FixConfig::default());
        let ray_cps = run_baseline(&setup, &g, &profiles::ray_cps(NodeId(11), &cost()));
        let ray_blk = run_baseline(&setup, &g, &profiles::ray_blocking(NodeId(11), &cost()));
        let ow = run_baseline(&setup, &g, &profiles::openwhisk(&[store], &cost()));

        // The paper's ordering: Fix < Ray CPS < Ray blocking < OpenWhisk.
        assert!(
            fix.makespan_us < ray_cps.makespan_us,
            "fix {fix} vs cps {ray_cps}"
        );
        assert!(
            ray_cps.makespan_us < ray_blk.makespan_us,
            "cps {ray_cps} vs blocking {ray_blk}"
        );
        assert!(
            ray_blk.makespan_us < ow.makespan_us,
            "blocking {ray_blk} vs openwhisk {ow}"
        );
        // OpenWhisk starves CPUs: it holds claims during store fetches.
        assert!(ow.cpu.waiting_percent() > fix.cpu.waiting_percent());
        // Fix moves (almost) nothing: chunks are processed in place.
        assert_eq!(fix.bytes_moved, 0);
        assert!(ow.bytes_moved > g.total_input_bytes());
    }

    #[test]
    fn cold_starts_charged_once_per_node() {
        let setup = full_setup();
        let store = NodeId(10);
        // Two waves of the same function on one worker.
        let mut b = JobGraphBuilder::new();
        for _ in 0..4 {
            let o = b.object_at(1 << 20, &[NodeId(0)]);
            let mut t = small_task(1_000, 8);
            t.inputs.push(o);
            t.func = 7;
            b.task(t);
        }
        let g = b.build();
        let mut profile = profiles::openwhisk(&[store], &cost());
        profile.placement = fix_cluster::Placement::Locality; // Pin to node 0.
        let report = run_baseline(&setup, &g, &profile);
        // One cold start (500 ms) + warm invocations (30.7 ms each), not 4.
        assert!(report.makespan_us > 500 * MS);
        assert!(
            report.makespan_us < 2 * 500 * MS,
            "double cold start? {} µs",
            report.makespan_us
        );
    }

    /// Late binding queues for cores after fetching; cores that cannot
    /// exist must be refused up front, not waited for.
    #[test]
    #[should_panic(expected = "task 0 needs 8 cores")]
    fn a_task_that_fits_no_worker_panics_promptly_under_ray_cps() {
        let small = NodeSpec {
            cores: 4,
            ram_bytes: 1 << 30,
        };
        let setup = ClusterSetup::workers_only(2, small, NetConfig::default());
        let mut b = JobGraphBuilder::new();
        let mut t = small_task(1_000, 8);
        t.cores = 8;
        b.task(t);
        run_baseline(&setup, &b.build(), &profiles::ray_cps(NodeId(0), &cost()));
    }

    #[test]
    fn pheromone_fetches_external_data_from_buckets() {
        // Even with chunks scattered across workers, Pheromone reads
        // external inputs from bucket storage — so bytes move.
        let setup = full_setup();
        let g = scattered_map(50, 8 << 20, 2_000);
        let report = run_baseline(&setup, &g, &profiles::pheromone(&[NodeId(10)], &cost()));
        assert!(report.bytes_moved >= 50 * (8 << 20));
    }

    #[test]
    fn faasm_isolation_without_externalization_pays_per_invocation() {
        // Many tiny tasks: Faasm's heavier runtime path (10.6 ms vs 2 µs
        // per invocation) dominates; mechanisms are otherwise similar.
        let setup = ClusterSetup {
            specs: vec![NodeSpec::default(); 2],
            net: NetConfig::default(),
            workers: vec![NodeId(0), NodeId(1)],
            client: None,
        };
        let mut b = JobGraphBuilder::new();
        for _ in 0..64 {
            b.task(small_task(10, 8));
        }
        let g = b.build();
        let faasm = run_baseline(&setup, &g, &profiles::faasm(&cost()));
        let fix = run_baseline(&setup, &g, &Profile::from(&FixConfig::default()));
        assert!(
            faasm.makespan_us > 100 * fix.makespan_us,
            "faasm {} vs fixpoint {}",
            faasm.makespan_us,
            fix.makespan_us
        );
    }

    #[test]
    fn ray_minio_distributes_binaries_and_uses_the_store() {
        // Fig. 10's mechanism: executables load per node, inputs come
        // from MinIO — so bytes_moved ≥ inputs + per-node binary copies.
        let setup = full_setup();
        let store = NodeId(10);
        let binary = 256 << 20; // A fat llvm-ish binary.
        let g = scattered_map(40, 4 << 20, 2_000);
        let report = run_baseline(
            &setup,
            &g,
            &profiles::ray_minio(NodeId(11), &[store], binary, &cost()),
        );
        assert!(
            report.bytes_moved >= 40 * (4 << 20) + binary,
            "moved only {} bytes",
            report.bytes_moved
        );
        // Against Fix on the same graph: content-addressed deps move once
        // (and inputs are processed in place).
        let fix = run_fix(&setup, &g, &FixConfig::default());
        assert!(fix.bytes_moved < report.bytes_moved / 10);
    }

    #[test]
    fn outputs_to_store_double_the_movement() {
        // OpenWhisk writes results back to MinIO; with big outputs that
        // is visible in bytes_moved even when inputs are tiny.
        let setup = full_setup();
        let store = NodeId(10);
        let mut b = JobGraphBuilder::new();
        for _ in 0..16 {
            let mut t = small_task(1_000, 32 << 20); // 32 MiB outputs.
            let o = b.object_at(1 << 10, &[store]);
            t.inputs.push(o);
            b.task(t);
        }
        let g = b.build();
        let report = run_baseline(&setup, &g, &profiles::openwhisk(&[store], &cost()));
        assert!(
            report.bytes_moved >= 16 * (32 << 20),
            "outputs not shipped to the store: {} bytes",
            report.bytes_moved
        );
    }

    #[test]
    fn baseline_runs_are_deterministic() {
        let setup = full_setup();
        let g = scattered_map(60, 2 << 20, 1_500);
        let p = profiles::openwhisk(&[NodeId(10)], &cost());
        let a = run_baseline(&setup, &g, &p);
        let b = run_baseline(&setup, &g, &p);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.bytes_moved, b.bytes_moved);
        assert_eq!(a.cpu.waiting_core_us, b.cpu.waiting_core_us);
    }

    #[test]
    fn driver_distance_scales_ray_chains_linearly() {
        // The dispatch round trip is per invocation: moving the driver
        // 10× farther stretches a chain by ≈ the extra RTTs.
        let near_rtt_half = 1_000u64;
        let far_rtt_half = 10_000u64;
        let run_at = |rtt_half: u64| {
            let client = NodeId(2);
            let net = NetConfig::default().with_extra_latency(client, rtt_half);
            let setup = ClusterSetup {
                specs: vec![NodeSpec::default(); 3],
                net,
                workers: vec![NodeId(0), NodeId(1)],
                client: Some(client),
            };
            run_baseline(&setup, &chain(100), &profiles::ray_cps(client, &cost())).makespan_us
        };
        let near = run_at(near_rtt_half);
        let far = run_at(far_rtt_half);
        let extra = far.saturating_sub(near);
        let expect = 100 * 2 * (far_rtt_half - near_rtt_half);
        let ratio = extra as f64 / expect as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "extra {extra} µs vs expected {expect} µs"
        );
    }

    #[test]
    fn blocking_gets_hold_cores() {
        // One task with 8 inputs on another node, fetched sequentially
        // while holding the claim: waiting time ≈ 8 × transfer time.
        let setup = ClusterSetup {
            specs: vec![NodeSpec::default(); 2],
            net: NetConfig::default(),
            workers: vec![NodeId(0)],
            client: None,
        };
        let mut b = JobGraphBuilder::new();
        let mut t = small_task(1_000, 8);
        for _ in 0..8 {
            let o = b.object_at(125_000_000, &[NodeId(1)]); // 0.1 s each
            t.inputs.push(o);
        }
        b.task(t);
        let g = b.build();
        let report = run_baseline(&setup, &g, &profiles::ray_blocking(NodeId(1), &cost()));
        assert!(
            report.cpu.waiting_core_us >= 700 * MS,
            "waited {} core-µs",
            report.cpu.waiting_core_us
        );
    }

    // ------------------------------------------------------------------
    // A comparator behind the One Fix API: `ClusterClient` under a
    // baseline profile.
    // ------------------------------------------------------------------

    fn add_thunk(rb: &ClusterClient, a: u64, b: u64) -> Handle {
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

    /// Derived tasks need 64 MiB; 32 MiB workers can place nothing, and
    /// a late-binding profile must not wait for RAM that cannot appear.
    #[test]
    fn an_unplaceable_request_is_a_backend_fault_not_a_hang() {
        let tiny = fix_netsim::NodeSpec {
            cores: 1,
            ram_bytes: 32 << 20,
        };
        let rb = ClusterClient::builder()
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
                *backend == "cluster" && message.contains("task 0 needs 1 cores")
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
        let rb = ClusterClient::builder()
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
        let cc = ClusterClient::builder().build().unwrap();
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
        let rb = ClusterClient::builder()
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
    /// client submits through its embedded node's scheduler, so the
    /// options — strict mode — behave exactly as on every
    /// other backend (the cross-backend agreement itself is
    /// pinned by tests/api_conformance.rs).
    #[test]
    fn native_submission_honors_request_options() {
        let rb = ClusterClient::builder()
            .profile(profiles::openwhisk(
                &(0..4).map(NodeId).collect::<Vec<_>>(),
                &CostModel::default(),
            ))
            .build()
            .unwrap();
        let t1 = add_thunk(&rb, 40, 2);
        let t2 = add_thunk(&rb, 1, 2);

        // Strict submission agrees with eval_strict.
        let results = rb.submit_with(&[t1, t2], SubmitOptions::strict()).wait();
        assert_eq!(*results[0].as_ref().unwrap(), rb.eval_strict(t1).unwrap());
        assert_eq!(rb.get_u64(*results[1].as_ref().unwrap()).unwrap(), 3);
        assert_eq!(rb.reports().len(), 1, "one batch, one costed run");
    }
}
