//! `fix-cluster`: the distributed Fixpoint execution engine, simulated
//! — and, because the paper's comparison is architectural, the one
//! task-graph simulator every comparator runs on too.
//!
//! Implements the paper's §4.2.2 over the `fix-netsim` substrate: a
//! decentralized, dataflow-aware scheduler in which every invocation's
//! data footprint is known before launch (thanks to I/O externalization),
//! placement minimizes data movement over a passively-advanced location
//! view, and physical resources are bound late — after dependencies have
//! arrived. Both mechanisms can be ablated ([`Placement::Random`],
//! [`Binding::Early`]) to regenerate the comparisons in Figs. 8a and 8b.
//!
//! Workloads are expressed as [`JobGraph`]s (see `fix-workloads` for the
//! paper's workload generators). A system is a [`Profile`] — see the
//! [`engine`] module docs for the knob table: Fixpoint is
//! [`Profile::from`]`(&`[`FixConfig`]`)`, the profile with
//! [`Profile::externalized_io`], and [`run_fix`] is [`run_profile`] on
//! it; the comparator profiles live in `fix-baselines`.
//!
//! Since the One Fix API refactor the engine is also reachable through
//! the backend-agnostic `fix_core::api` traits: [`ClusterClient`]
//! implements `ObjectApi`/`InvocationApi`/`SubmitApi`/`Evaluator`,
//! deriving each request's dataflow into a [`JobGraph`] and simulating
//! it under the [`Profile`] it was built with (Fixpoint's by default) —
//! so any generic workload doubles as a cluster benchmark, for Fix and
//! for every comparator. The derivation ([`derive_job_graph`]) has one
//! rule, the runtime's: a task's inputs are its thunk's minimum
//! repository ([`fix_storage::footprint`], §3.3), and its
//! dependencies are that footprint's unresolved encodes (a selection's
//! thunk target among them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod engine;
mod graph;
mod report;

pub use client::{derive_job_graph, ClusterClient, ClusterClientBuilder};
pub use engine::{run_fix, run_profile, Binding, ClusterSetup, FixConfig, Placement, Profile};
pub use graph::{small_task, JobGraph, JobGraphBuilder, ObjectId, ObjectSpec, TaskId, TaskSpec};
pub use report::{ReportLog, RunReport};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::try_run_profile;
    use fix_netsim::{NetConfig, NodeId, NodeSpec, MS, SEC};

    fn ten_node_setup() -> ClusterSetup {
        ClusterSetup::workers_only(10, NodeSpec::default(), NetConfig::default())
    }

    /// A map workload: one task per input chunk, chunks scattered.
    fn scattered_map(n_chunks: usize, chunk_size: u64, compute_us: u64) -> JobGraph {
        let mut b = JobGraphBuilder::new();
        for i in 0..n_chunks {
            let node = NodeId(i % 10);
            let o = b.object_at(chunk_size, &[node]);
            let mut t = small_task(compute_us, 8);
            t.inputs.push(o);
            b.task(t);
        }
        b.build()
    }

    #[test]
    fn locality_placement_avoids_all_movement() {
        let setup = ten_node_setup();
        let graph = scattered_map(100, 10 << 20, 5_000);
        let report = run_fix(&setup, &graph, &FixConfig::default());
        assert_eq!(report.bytes_moved, 0, "chunks should be processed in place");
        assert_eq!(report.tasks_run, 100);
    }

    #[test]
    fn random_placement_moves_data_and_is_slower() {
        let setup = ten_node_setup();
        let graph = scattered_map(100, 10 << 20, 5_000);
        let local = run_fix(&setup, &graph, &FixConfig::default());
        let random = run_fix(
            &setup,
            &graph,
            &FixConfig {
                placement: Placement::Random,
                ..FixConfig::default()
            },
        );
        assert!(random.bytes_moved > 0);
        assert!(
            random.makespan_us > local.makespan_us,
            "random {} vs local {}",
            random.makespan_us,
            local.makespan_us
        );
    }

    #[test]
    fn late_binding_avoids_cpu_waiting() {
        // Fig. 8a in miniature: inputs behind a 150 ms storage node.
        let storage = NodeId(1);
        let net = NetConfig::default().with_extra_latency(storage, 150 * MS);
        let setup = ClusterSetup {
            specs: vec![
                NodeSpec {
                    cores: 32,
                    ram_bytes: 64 << 30,
                },
                NodeSpec::default(),
            ],
            net,
            workers: vec![NodeId(0)],
            client: None,
        };
        let mut b = JobGraphBuilder::new();
        for _ in 0..64 {
            let o = b.object_at(64 << 10, &[storage]);
            let mut t = small_task(100, 8);
            t.ram = 1 << 30;
            t.inputs.push(o);
            b.task(t);
        }
        let graph = b.build();

        let late = run_fix(&setup, &graph, &FixConfig::default());
        let early = run_fix(
            &setup,
            &graph,
            &FixConfig {
                binding: Binding::Early,
                ..FixConfig::default()
            },
        );
        // Late binding: fetches overlap, cores only claimed to compute.
        assert!(late.cpu.waiting_core_us < early.cpu.waiting_core_us);
        assert!(
            late.makespan_us < early.makespan_us,
            "late {} vs early {}",
            late.makespan_us,
            early.makespan_us
        );
        // Early binding holds cores during the 150 ms fetch.
        assert!(early.cpu.waiting_core_us >= 32 * 150 * MS);
    }

    #[test]
    fn chain_with_remote_client_pays_one_round_trip() {
        // Fig. 7b: Fix ships the whole 500-step chain in one go.
        let client = NodeId(1);
        let rtt_half = 10_650; // 21.3 ms RTT
        let net = NetConfig::default().with_extra_latency(client, rtt_half);
        let setup = ClusterSetup {
            specs: vec![NodeSpec::default(), NodeSpec::default()],
            net,
            workers: vec![NodeId(0)],
            client: Some(client),
        };
        // The chain description (code + input) ships with the submission
        // message — Fix bundles dependencies with invocations, so there is
        // no separate program fetch.
        let mut b = JobGraphBuilder::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..500 {
            let mut t = small_task(1, 8);
            if let Some(p) = prev {
                t.deps.push(p);
            }
            prev = Some(b.task(t));
        }
        let graph = b.build();
        let report = run_fix(&setup, &graph, &FixConfig::default());
        // ~ 1 RTT (ship + return) + 500 × (overhead + compute).
        let rtt = 2 * (rtt_half + 50);
        assert!(report.makespan_us > rtt);
        assert!(
            report.makespan_us < rtt + 10 * MS,
            "chain took {} µs",
            report.makespan_us
        );
        // Shipping the dataflow is exactly one client → cluster message:
        // a client that drives the job itself is modeled as starting at
        // t = 0 (its per-step trips are the profile's dispatch path).
        let driven = run_profile(&setup, &graph, &fix_with_internal_io());
        assert_eq!(report.makespan_us - driven.makespan_us, rtt_half + 50);
    }

    /// Fixpoint's profile with only the paper's thesis switched off.
    fn fix_with_internal_io() -> Profile {
        Profile {
            externalized_io: false,
            ..Profile::from(&FixConfig::default())
        }
    }

    /// Pipeline g(f(x)) where f's output is hinted huge and g also
    /// consumes a huge object on node 7.
    fn hinted_pipeline() -> JobGraph {
        let mut b = JobGraphBuilder::new();
        let x = b.object_at(1 << 10, &[NodeId(2)]); // f's input: tiny
        let z = b.object_at(8 << 30, &[NodeId(7)]); // g's other input: 8 GiB
        let mut f = small_task(1_000, 4 << 30);
        f.inputs.push(x);
        f.output_hint = Some(4 << 30); // f's output: hinted 4 GiB
        let f_id = b.task(f);
        let mut g = small_task(1_000, 8);
        g.inputs.push(z);
        g.deps.push(f_id);
        b.task(g);
        b.build()
    }

    #[test]
    fn output_hint_attracts_task_to_consumer_data() {
        // f should run on node 7 so the intermediate never crosses the
        // network: only x (1 KiB) moves, not the 4 GiB intermediate.
        let (setup, graph) = (ten_node_setup(), hinted_pipeline());
        let report = run_fix(&setup, &graph, &FixConfig::default());
        assert!(
            report.bytes_moved <= 1 << 10,
            "moved {} bytes",
            report.bytes_moved
        );
        // A platform that cannot see declared output sizes runs f next
        // to x and ships the intermediate instead.
        let blind = run_profile(&setup, &graph, &fix_with_internal_io());
        assert!(
            blind.bytes_moved >= 4 << 30,
            "moved {} bytes",
            blind.bytes_moved
        );
    }

    #[test]
    fn reduction_tree_completes() {
        // count-string shape: map over chunks, then binary merge.
        let setup = ten_node_setup();
        let mut b = JobGraphBuilder::new();
        let mut layer: Vec<TaskId> = (0..32)
            .map(|i| {
                let o = b.object_at(100 << 20, &[NodeId(i % 10)]);
                let mut t = small_task(20_000, 8);
                t.inputs.push(o);
                b.task(t)
            })
            .collect();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    let mut m = small_task(50, 8);
                    m.deps = vec![pair[0], pair[1]];
                    next.push(b.task(m));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        let graph = b.build();
        let report = run_fix(&setup, &graph, &FixConfig::default());
        assert_eq!(report.tasks_run, 32 + 31);
        // Merge outputs are 8-byte literals: trivial movement only.
        assert!(report.bytes_moved < 1 << 10);
        assert!(report.makespan_us < SEC);
    }

    #[test]
    fn core_contention_serializes() {
        // 64 one-core tasks of 1 ms each on a single 32-core node: two
        // full waves -> ≈ 2 ms.
        let setup = ClusterSetup::workers_only(1, NodeSpec::default(), NetConfig::default());
        let mut b = JobGraphBuilder::new();
        for _ in 0..64 {
            b.task(small_task(MS, 8));
        }
        let graph = b.build();
        let report = run_fix(&setup, &graph, &FixConfig::default());
        assert!(report.makespan_us >= 2 * MS);
        assert!(report.makespan_us < 3 * MS);
    }

    #[test]
    fn concurrent_fetches_of_one_object_are_deduplicated() {
        let setup = ClusterSetup::workers_only(2, NodeSpec::default(), NetConfig::default());
        let mut b = JobGraphBuilder::new();
        // One 1 GiB object on node 1; many tasks that all need it but must
        // run on node 0 (their other input is a huge pinned object there).
        let shared = b.object_at(1 << 30, &[NodeId(1)]);
        let anchor = b.object_at(16 << 30, &[NodeId(0)]);
        for _ in 0..8 {
            let mut t = small_task(1_000, 8);
            t.inputs.push(shared);
            t.inputs.push(anchor);
            b.task(t);
        }
        let graph = b.build();
        let report = run_fix(&setup, &graph, &FixConfig::default());
        // The shared gigabyte moves once, not eight times.
        assert_eq!(report.bytes_moved, 1 << 30);
        // When each function does its own I/O, each fetches its own copy.
        let internal = run_profile(&setup, &graph, &fix_with_internal_io());
        assert_eq!(internal.bytes_moved, 8 << 30);
    }

    /// One 8-core task on two 4-core workers: it fits nowhere.
    fn unplaceable() -> (ClusterSetup, JobGraph) {
        let spec = NodeSpec {
            cores: 4,
            ram_bytes: 1 << 30,
        };
        let mut b = JobGraphBuilder::new();
        let mut t = small_task(1_000, 8);
        t.cores = 8;
        b.task(t);
        (
            ClusterSetup::workers_only(2, spec, NetConfig::default()),
            b.build(),
        )
    }

    #[test]
    fn a_task_that_fits_no_worker_is_refused_before_simulating() {
        let (setup, graph) = unplaceable();
        let why = try_run_profile(&setup, &graph, &Profile::from(&FixConfig::default()));
        let why = why.expect_err("an 8-core task cannot run on 4-core workers");
        assert!(why.contains("task 0 needs 8 cores"), "{why}");
        assert!(why.contains("the largest, node1, has 4 cores"), "{why}");
    }

    #[test]
    #[should_panic(expected = "task 0 needs 8 cores")]
    fn run_fix_panics_with_the_refusal() {
        let (setup, graph) = unplaceable();
        run_fix(&setup, &graph, &FixConfig::default());
    }

    #[test]
    fn a_task_parked_on_too_small_a_worker_is_a_stall_not_a_hang() {
        // The task fits node 1 only; over eight seeds random placement
        // sends it there at least once, and at least once parks it on
        // node 0, whose cores can never admit it.
        let (mut setup, graph) = unplaceable();
        setup.specs[1].cores = 8;
        let run = |seed| {
            let mut fix = Profile::from(&FixConfig::default());
            (fix.placement, fix.seed) = (Placement::Random, seed);
            try_run_profile(&setup, &graph, &fix)
        };
        let outcomes: Vec<_> = (0..8).map(run).collect();
        assert!(outcomes.iter().any(|r| r.is_ok()), "node 1 runs it");
        let stalled = outcomes.iter().find_map(|r| r.as_ref().err());
        assert!(stalled.expect("node 0 cannot").contains("stalled with 0/1"));
    }

    #[test]
    fn deterministic_given_seed() {
        let setup = ten_node_setup();
        let graph = scattered_map(50, 1 << 20, 500);
        let cfg = FixConfig {
            placement: Placement::Random,
            seed: 7,
            ..FixConfig::default()
        };
        let a = run_fix(&setup, &graph, &cfg);
        let b = run_fix(&setup, &graph, &cfg);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.bytes_moved, b.bytes_moved);
    }
}
