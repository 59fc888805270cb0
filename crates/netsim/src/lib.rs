//! `fix-netsim`: a deterministic discrete-event cluster simulator.
//!
//! The paper's cluster experiments (Figs. 7b, 8a, 8b, 10) ran on ten EC2
//! `m5.8xlarge` nodes. This crate substitutes a virtual-time simulation
//! of the same *mechanisms*: nodes with cores and RAM, NICs with latency
//! and bandwidth, and CPU-state accounting equivalent to sampling
//! `/proc/stat` around a run. Execution engines (the Fix distributed
//! scheduler in `fix-cluster`, the baselines in `fix-baselines`) are
//! policies layered over these primitives, so that what's compared
//! across systems is exactly what the paper compares: placement,
//! scheduling, and data movement.
//!
//! The simulator is single-threaded and deterministic: identical inputs
//! produce identical timelines.
//!
//! # Examples
//!
//! ```
//! use fix_netsim::{Sim, NodeSpec, NetConfig, NodeId, CoreState, MS};
//!
//! let mut sim = Sim::new(&[NodeSpec::default(); 2], NetConfig::default());
//! // Transfer 1 MiB from node 0 to node 1, then run a 5 ms task there.
//! sim.schedule(0, |sim| {
//!     sim.transfer(NodeId(0), NodeId(1), 1 << 20, |sim| {
//!         let claim = sim.try_claim(NodeId(1), 1, 0, CoreState::User).unwrap();
//!         sim.schedule(5 * MS, move |sim| { sim.release(claim); });
//!     });
//! });
//! let end = sim.run();
//! assert!(end > 5 * MS);
//! assert_eq!(sim.node_stats(NodeId(1)).user_core_us, 5 * MS);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod resources;
mod sim;

pub use network::NetConfig;
pub use resources::{ClaimId, CoreState, CpuReport, NodeId, NodeSpec, NodeStats};
pub use sim::{Time, MS, SEC, US};

use resources::{Claim, NodeState};
use std::collections::HashMap;

/// The simulator: virtual clock, event queue, nodes, and network.
pub struct Sim {
    now: Time,
    queue: sim::EventQueue,
    nodes: Vec<NodeState>,
    net: NetConfig,
    claims: HashMap<ClaimId, Claim>,
    next_claim: u64,
}

impl Sim {
    /// Creates a simulator with the given nodes and network.
    pub fn new(specs: &[NodeSpec], net: NetConfig) -> Sim {
        Sim {
            now: 0,
            queue: sim::EventQueue::new(),
            nodes: specs.iter().map(|s| NodeState::new(*s)).collect(),
            net,
            claims: HashMap::new(),
            next_claim: 0,
        }
    }

    /// The current virtual time, in µs.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The network configuration.
    pub fn net(&self) -> &NetConfig {
        &self.net
    }

    /// Schedules `f` to run after `delay` µs of virtual time.
    pub fn schedule(&mut self, delay: Time, f: impl FnOnce(&mut Sim) + 'static) {
        self.queue.push(self.now + delay, Box::new(f));
    }

    /// Runs until the event queue is empty.
    /// Returns the final virtual time.
    pub fn run(&mut self) -> Time {
        while let Some((at, f)) = self.queue.pop() {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            f(self);
        }
        self.now
    }

    // ------------------------------------------------------------------
    // Cores and RAM.
    // ------------------------------------------------------------------

    /// Attempts to claim `cores` cores and `ram` bytes on `node`,
    /// starting in `state`. Returns `None` if resources are unavailable —
    /// the caller (an engine) queues the request and retries on release.
    pub fn try_claim(
        &mut self,
        node: NodeId,
        cores: u32,
        ram: u64,
        state: CoreState,
    ) -> Option<ClaimId> {
        let ns = &mut self.nodes[node.0];
        if ns.cores_free < cores || ns.ram_free < ram {
            return None;
        }
        ns.cores_free -= cores;
        ns.ram_free -= ram;
        let id = ClaimId(self.next_claim);
        self.next_claim += 1;
        self.claims.insert(
            id,
            Claim {
                node,
                cores,
                ram,
                state,
                since: self.now,
            },
        );
        Some(id)
    }

    /// Changes what a claim's cores are doing (accrues the prior state).
    ///
    /// # Panics
    ///
    /// Panics if the claim is unknown (already released).
    pub fn set_claim_state(&mut self, id: ClaimId, state: CoreState) {
        let now = self.now;
        // invariant: the engine releases each claim once and acts on live ones.
        let claim = self.claims.get_mut(&id).expect("live claim");
        let elapsed = now - claim.since;
        let node = claim.node;
        let cores = claim.cores;
        let old_state = claim.state;
        claim.state = state;
        claim.since = now;
        self.nodes[node.0].accrue(old_state, cores, elapsed);
    }

    /// Releases a claim, accruing its final interval.
    ///
    /// # Panics
    ///
    /// Panics if the claim is unknown (double release).
    pub fn release(&mut self, id: ClaimId) {
        // invariant: the engine releases each claim once and acts on live ones.
        let claim = self.claims.remove(&id).expect("live claim");
        let elapsed = self.now - claim.since;
        let ns = &mut self.nodes[claim.node.0];
        ns.accrue(claim.state, claim.cores, elapsed);
        ns.cores_free += claim.cores;
        ns.ram_free += claim.ram;
    }

    /// Free cores on a node right now.
    pub fn cores_free(&self, node: NodeId) -> u32 {
        self.nodes[node.0].cores_free
    }

    /// Free RAM on a node right now.
    pub fn ram_free(&self, node: NodeId) -> u64 {
        self.nodes[node.0].ram_free
    }

    /// Records a completed task on a node (for the stats report).
    pub fn count_task(&mut self, node: NodeId) {
        self.nodes[node.0].stats.tasks_run += 1;
    }

    // ------------------------------------------------------------------
    // Network.
    // ------------------------------------------------------------------

    /// Sends a control message (latency only); `f` runs on delivery.
    pub fn message(&mut self, src: NodeId, dst: NodeId, f: impl FnOnce(&mut Sim) + 'static) {
        let delay = self.net.latency(src, dst);
        self.schedule(delay, f);
    }

    /// Transfers `bytes` from `src` to `dst`; `f` runs when the last byte
    /// arrives. Models FIFO queueing on both NICs plus propagation delay.
    pub fn transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        f: impl FnOnce(&mut Sim) + 'static,
    ) {
        if src == dst {
            // Local: no NIC involvement; deliver "immediately" (next event).
            self.schedule(0, f);
            return;
        }
        let ser = self.net.serialization_us(bytes);
        let lat = self.net.latency(src, dst);

        // Queue behind earlier traffic on the egress NIC...
        let egress_start = self.nodes[src.0].egress_free_at.max(self.now);
        let egress_done = egress_start + ser;
        self.nodes[src.0].egress_free_at = egress_done;
        // ...and on the ingress NIC (store-and-forward).
        let ingress_start = self.nodes[dst.0].ingress_free_at.max(egress_done + lat);
        let arrival = ingress_start; // Serialization already paid at egress.
        self.nodes[dst.0].ingress_free_at = arrival;

        self.nodes[src.0].stats.bytes_out += bytes;
        self.nodes[dst.0].stats.bytes_in += bytes;
        let delay = arrival - self.now;
        self.schedule(delay, f);
    }

    // ------------------------------------------------------------------
    // Statistics.
    // ------------------------------------------------------------------

    /// A snapshot of one node's counters.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        self.nodes[node.0].stats
    }

    /// Aggregates a CPU report over `nodes` (or all nodes if empty),
    /// against the elapsed virtual time.
    pub fn cpu_report(&self, nodes: &[NodeId]) -> CpuReport {
        let ids: Vec<NodeId> = if nodes.is_empty() {
            (0..self.nodes.len()).map(NodeId).collect()
        } else {
            nodes.to_vec()
        };
        let mut report = CpuReport {
            elapsed: self.now,
            ..CpuReport::default()
        };
        for id in ids {
            let ns = &self.nodes[id.0];
            report.capacity_core_us += ns.spec.cores as u64 * self.now;
            report.user_core_us += ns.stats.user_core_us;
            report.system_core_us += ns.stats.system_core_us;
            report.waiting_core_us += ns.stats.waiting_core_us;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn two_nodes() -> Sim {
        Sim::new(
            &[NodeSpec::default(), NodeSpec::default()],
            NetConfig::default(),
        )
    }

    #[test]
    fn claims_track_cpu_states() {
        let mut sim = two_nodes();
        sim.schedule(0, |sim| {
            let c = sim
                .try_claim(NodeId(0), 2, 1 << 30, CoreState::Waiting)
                .unwrap();
            sim.schedule(100, move |sim| {
                sim.set_claim_state(c, CoreState::User);
                sim.schedule(300, move |sim| sim.release(c));
            });
        });
        sim.run();
        let stats = sim.node_stats(NodeId(0));
        assert_eq!(stats.waiting_core_us, 2 * 100);
        assert_eq!(stats.user_core_us, 2 * 300);
        assert_eq!(sim.cores_free(NodeId(0)), 32);
        assert_eq!(sim.ram_free(NodeId(0)), 128 << 30);
    }

    #[test]
    fn over_claim_is_refused() {
        let mut sim = two_nodes();
        sim.schedule(0, |sim| {
            assert!(sim.try_claim(NodeId(0), 33, 0, CoreState::User).is_none());
            let _c = sim.try_claim(NodeId(0), 32, 0, CoreState::User).unwrap();
            assert!(sim.try_claim(NodeId(0), 1, 0, CoreState::User).is_none());
        });
        sim.run();
    }

    #[test]
    fn ram_is_tracked_separately() {
        let mut sim = two_nodes();
        sim.schedule(0, |sim| {
            let big = sim
                .try_claim(NodeId(0), 1, 100 << 30, CoreState::User)
                .unwrap();
            assert!(sim
                .try_claim(NodeId(0), 1, 100 << 30, CoreState::User)
                .is_none());
            sim.release(big);
            assert!(sim
                .try_claim(NodeId(0), 1, 100 << 30, CoreState::User)
                .is_some());
        });
        sim.run();
    }

    #[test]
    fn transfer_pays_latency_and_serialization() {
        let mut sim = two_nodes();
        let done_at = Rc::new(Cell::new(0u64));
        let d2 = Rc::clone(&done_at);
        sim.schedule(0, move |sim| {
            // 1.25 GB at 1.25 GB/s = 1 s serialization + 50 µs latency.
            sim.transfer(NodeId(0), NodeId(1), 1_250_000_000, move |sim| {
                d2.set(sim.now());
            });
        });
        sim.run();
        assert_eq!(done_at.get(), 1_000_000 + 50);
    }

    #[test]
    fn transfers_queue_on_the_egress_nic() {
        let mut sim = two_nodes();
        let times = Rc::new(std::cell::RefCell::new(Vec::new()));
        let t2 = Rc::clone(&times);
        sim.schedule(0, move |sim| {
            for _ in 0..3 {
                let t3 = Rc::clone(&t2);
                // Each transfer serializes for 100 ms.
                sim.transfer(NodeId(0), NodeId(1), 125_000_000, move |sim| {
                    t3.borrow_mut().push(sim.now());
                });
            }
        });
        sim.run();
        let times = times.borrow();
        // Arrivals are spaced by the serialization time, not concurrent.
        assert_eq!(times.len(), 3);
        assert_eq!(times[0], 100_000 + 50);
        assert_eq!(times[1], 200_000 + 50);
        assert_eq!(times[2], 300_000 + 50);
    }

    #[test]
    fn local_transfer_is_free() {
        let mut sim = two_nodes();
        let done_at = Rc::new(Cell::new(u64::MAX));
        let d2 = Rc::clone(&done_at);
        sim.schedule(10, move |sim| {
            sim.transfer(NodeId(0), NodeId(0), 1 << 30, move |sim| d2.set(sim.now()));
        });
        sim.run();
        assert_eq!(done_at.get(), 10);
    }

    #[test]
    fn message_pays_latency_only() {
        let storage = NodeId(1);
        let net = NetConfig::default().with_extra_latency(storage, 150_000);
        let mut sim = Sim::new(&[NodeSpec::default(); 2], net);
        let done_at = Rc::new(Cell::new(0u64));
        let d2 = Rc::clone(&done_at);
        sim.schedule(0, move |sim| {
            sim.message(NodeId(0), storage, move |sim| d2.set(sim.now()));
        });
        sim.run();
        assert_eq!(done_at.get(), 150_050);
    }

    #[test]
    fn cpu_report_matches_paper_shape() {
        let mut sim = two_nodes();
        sim.schedule(0, |sim| {
            let c = sim.try_claim(NodeId(0), 32, 0, CoreState::Waiting).unwrap();
            sim.schedule(900, move |sim| {
                sim.set_claim_state(c, CoreState::User);
                sim.schedule(100, move |sim| sim.release(c));
            });
        });
        sim.run();
        let report = sim.cpu_report(&[NodeId(0)]);
        assert_eq!(report.elapsed, 1000);
        assert_eq!(report.capacity_core_us, 32 * 1000);
        assert_eq!(report.user_core_us, 32 * 100);
        // 90% of the time all cores were claimed-but-waiting (or idle).
        assert!((report.waiting_percent() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn task_counter() {
        let mut sim = two_nodes();
        sim.schedule(0, |sim| {
            sim.count_task(NodeId(1));
            sim.count_task(NodeId(1));
        });
        sim.run();
        assert_eq!(sim.node_stats(NodeId(1)).tasks_run, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For any program of scheduled delays, events fire exactly once
        /// each, in nondecreasing virtual time, and the clock ends at
        /// the latest delay.
        #[test]
        fn events_fire_once_in_time_order(
            delays in proptest::collection::vec(0u64..100_000, 1..40),
        ) {
            let mut sim = Sim::new(&[NodeSpec::default()], NetConfig::default());
            let fired: Rc<RefCell<Vec<Time>>> = Rc::new(RefCell::new(Vec::new()));
            for &d in &delays {
                let fired = Rc::clone(&fired);
                sim.schedule(d, move |sim| fired.borrow_mut().push(sim.now()));
            }
            let end = sim.run();
            let fired = fired.borrow();
            prop_assert_eq!(fired.len(), delays.len());
            prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
            let mut expect = delays.clone();
            expect.sort_unstable();
            prop_assert_eq!(&*fired, &expect[..]);
            prop_assert_eq!(end, *expect.last().unwrap());
        }

        /// Transfer completion time is monotone in payload size, and a
        /// transfer never completes before latency + serialization.
        #[test]
        fn transfer_time_monotone_in_size(
            sizes in proptest::collection::vec(1u64..1_000_000_000, 2..8),
        ) {
            let net = NetConfig::default();
            let mut done: Vec<(u64, Time)> = Vec::new();
            for &bytes in &sizes {
                let mut sim = Sim::new(&[NodeSpec::default(); 2], net.clone());
                let t: Rc<RefCell<Time>> = Rc::new(RefCell::new(0));
                let t2 = Rc::clone(&t);
                sim.transfer(NodeId(0), NodeId(1), bytes, move |sim| {
                    *t2.borrow_mut() = sim.now();
                });
                sim.run();
                let at = *t.borrow();
                let floor = net.latency(NodeId(0), NodeId(1)) + net.serialization_us(bytes);
                prop_assert!(at >= floor, "{bytes} B arrived at {at} < floor {floor}");
                done.push((bytes, at));
            }
            done.sort_unstable();
            prop_assert!(done.windows(2).all(|w| w[0].1 <= w[1].1));
        }

        /// Claims never exceed a node's cores or RAM, and releasing
        /// restores exactly what was claimed.
        #[test]
        fn claims_conserve_resources(
            requests in proptest::collection::vec((1u32..8, 1u64..(8 << 30)), 1..20),
        ) {
            let spec = NodeSpec { cores: 16, ram_bytes: 32 << 30 };
            let mut sim = Sim::new(&[spec], NetConfig::default());
            let mut held = Vec::new();
            let (mut cores_used, mut ram_used) = (0u32, 0u64);
            for &(cores, ram) in &requests {
                match sim.try_claim(NodeId(0), cores, ram, CoreState::User) {
                    Some(id) => {
                        cores_used += cores;
                        ram_used += ram;
                        held.push(id);
                    }
                    None => {
                        // Refusal must be for a real shortage.
                        prop_assert!(
                            cores_used + cores > spec.cores
                                || ram_used + ram > spec.ram_bytes
                        );
                    }
                }
                prop_assert!(cores_used <= spec.cores);
                prop_assert!(ram_used <= spec.ram_bytes);
                prop_assert_eq!(sim.cores_free(NodeId(0)), spec.cores - cores_used);
                prop_assert_eq!(sim.ram_free(NodeId(0)), spec.ram_bytes - ram_used);
            }
            for id in held {
                sim.release(id);
            }
            prop_assert_eq!(sim.cores_free(NodeId(0)), spec.cores);
            prop_assert_eq!(sim.ram_free(NodeId(0)), spec.ram_bytes);
        }
    }
}
