//! Request routing: rendezvous (HRW) hashing with load-based spill,
//! plus the round-robin and random baselines it is measured against.
//!
//! The affinity policy exploits the paper's core property: thunk
//! handles are content addressed, so the dispatcher can compute a
//! request's name *before any node is involved* and knows exactly which
//! node has that computation memoized. Highest-random-weight hashing
//! turns the name into a stable node choice — each key independently
//! ranks every node by `hash(node_salt, key)` and picks the maximum, so
//! removing one node remaps only that node's keys (the survivors'
//! rankings are untouched). Pure affinity would let a hot key set
//! overload one node, so the policy spills: when the rendezvous
//! target's backlog exceeds the least-loaded node's by at least the
//! configured margin, the request is diverted to the least-loaded node
//! (losing its warm hit, keeping its latency).
//!
//! A request's key is its root handle's
//! [`trace_id`](fix_core::handle::trace_id), the id its serve-layer and
//! scheduler events carry too.
//!
//! Every decision is a pure function of the key, the alive set, the
//! observed depths, and the router's own deterministic state (cursor or
//! seeded PRNG) — no wall clock anywhere, which is what keeps the
//! multi-node tables bit-identical across runs.

use crate::loadgen::splitmix64_mix;

/// Which placement discipline the dispatcher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Rendezvous-hash on the request's root handle, with load-based
    /// spill to the least-loaded node past the spill margin: the
    /// memoization-affinity policy.
    Affinity,
    /// Cycle over the alive nodes in index order: load-oblivious and
    /// affinity-oblivious baseline.
    RoundRobin,
    /// Uniform random over the alive nodes (seeded, deterministic):
    /// the classic load-balancer baseline.
    Random,
}

impl RoutingPolicy {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::Affinity => "affinity",
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::Random => "random",
        }
    }
}

/// One routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The node the request was placed on.
    pub node: usize,
    /// The rendezvous target (equals `node` unless the decision
    /// spilled; for the baseline policies it always equals `node`).
    pub hrw: usize,
    /// Whether load-based spill diverted the request away from its
    /// rendezvous target.
    pub spilled: bool,
}

/// One SplitMix64 step: the same stateless mixer the serve layer draws
/// request kinds with.
fn splitmix64(seed: u64) -> u64 {
    splitmix64_mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// A node's salt depends on its index alone, so changing the node set
/// never re-salts the survivors — the minimal-remap property of
/// rendezvous hashing.
fn node_salt(node: usize) -> u64 {
    splitmix64(0xD15F_A7C4_0000_0000 ^ node as u64)
}

/// The rendezvous score of `(node, key)`: the node with the highest
/// score among the alive set owns the key.
fn hrw_score(node: usize, key: u64) -> u64 {
    splitmix64(node_salt(node) ^ key)
}

/// Deterministic router over a fixed node universe; liveness and load
/// are inputs per decision, not state.
pub struct Router {
    policy: RoutingPolicy,
    spill_margin: usize,
    cursor: usize,
    rng: u64,
}

impl Router {
    /// Creates a router. `spill_margin` is the backlog excess (in
    /// queued requests) the rendezvous target must show over the
    /// least-loaded node before an affinity decision spills; the
    /// baselines ignore it. `seed` drives only the `Random` policy.
    pub fn new(policy: RoutingPolicy, spill_margin: usize, seed: u64) -> Router {
        assert!(spill_margin > 0, "a zero margin would spill every tie");
        Router {
            policy,
            spill_margin,
            cursor: 0,
            rng: splitmix64(seed ^ 0x005E_ED0F_D15F_A7C4),
        }
    }

    /// Routes one key among the alive nodes given their current queue
    /// depths. Panics if no node is alive (the dispatcher guarantees at
    /// least one survivor by construction).
    pub fn route(&mut self, key: u64, alive: &[bool], depths: &[usize]) -> Decision {
        debug_assert_eq!(alive.len(), depths.len());
        assert!(alive.iter().any(|&a| a), "no node alive to route to");
        match self.policy {
            RoutingPolicy::Affinity => {
                let hrw = Self::rendezvous(key, alive);
                let least = (0..alive.len())
                    .filter(|&n| alive[n])
                    .min_by_key(|&n| (depths[n], n))
                    // invariant: the assert above found a live node.
                    .expect("at least one node is alive");
                if depths[hrw] >= depths[least] + self.spill_margin {
                    Decision {
                        node: least,
                        hrw,
                        spilled: true,
                    }
                } else {
                    Decision {
                        node: hrw,
                        hrw,
                        spilled: false,
                    }
                }
            }
            RoutingPolicy::RoundRobin => loop {
                let n = self.cursor % alive.len();
                self.cursor = (self.cursor + 1) % alive.len();
                if alive[n] {
                    return Decision {
                        node: n,
                        hrw: n,
                        spilled: false,
                    };
                }
            },
            RoutingPolicy::Random => {
                self.rng = splitmix64(self.rng);
                let k = alive.iter().filter(|&&a| a).count();
                let pick = (self.rng % k as u64) as usize;
                let n = (0..alive.len())
                    .filter(|&n| alive[n])
                    .nth(pick)
                    // invariant: `pick` is below the live count `k`.
                    .expect("pick < alive count");
                Decision {
                    node: n,
                    hrw: n,
                    spilled: false,
                }
            }
        }
    }

    /// The alive node with the highest rendezvous score for `key`
    /// (score ties break to the lowest index).
    fn rendezvous(key: u64, alive: &[bool]) -> usize {
        (0..alive.len())
            .filter(|&n| alive[n])
            .max_by_key(|&n| (hrw_score(n, key), usize::MAX - n))
            // invariant: `route` asserted a live node before calling.
            .expect("at least one node is alive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_alive(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    /// Synthetic keys from the same mixer the production path uses.
    fn keys(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| splitmix64(i ^ 0xABCD))
    }

    #[test]
    fn hrw_is_deterministic_across_router_instances() {
        let alive = all_alive(5);
        let depths = vec![0; 5];
        for key in keys(100) {
            let a = Router::new(RoutingPolicy::Affinity, 4, 1).route(key, &alive, &depths);
            let b = Router::new(RoutingPolicy::Affinity, 4, 99).route(key, &alive, &depths);
            assert_eq!(a, b, "affinity ignores the seed and any router state");
            assert!(!a.spilled);
        }
    }

    #[test]
    fn hrw_balances_over_10k_synthetic_handles() {
        let nodes = 4;
        let alive = all_alive(nodes);
        let depths = vec![0; nodes];
        let mut router = Router::new(RoutingPolicy::Affinity, 4, 0);
        let mut counts = vec![0u64; nodes];
        for key in keys(10_000) {
            counts[router.route(key, &alive, &depths).node] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        for (n, &c) in counts.iter().enumerate() {
            // Uniform would give 2500 ± ~150 (3σ of a binomial draw);
            // allow a generous band that still catches a broken hash.
            assert!(
                (2_200..=2_800).contains(&c),
                "node {n} owns {c} of 10000 keys"
            );
        }
    }

    #[test]
    fn killing_a_node_remaps_only_its_keys() {
        let nodes = 4;
        let depths = vec![0; nodes];
        let mut full = Router::new(RoutingPolicy::Affinity, 4, 0);
        let mut partial = Router::new(RoutingPolicy::Affinity, 4, 0);
        let alive = all_alive(nodes);
        let mut degraded = all_alive(nodes);
        degraded[2] = false;
        let mut remapped = 0u64;
        for key in keys(10_000) {
            let before = full.route(key, &alive, &depths).node;
            let after = partial.route(key, &degraded, &depths).node;
            if before == 2 {
                assert_ne!(after, 2);
                remapped += 1;
            } else {
                assert_eq!(before, after, "survivors keep their keys");
            }
        }
        assert!(remapped > 0, "the dead node owned some keys");
    }

    #[test]
    fn spill_diverts_to_least_loaded_under_imbalance() {
        let alive = all_alive(3);
        let mut router = Router::new(RoutingPolicy::Affinity, 4, 0);
        // Find a key owned by node 0 so the imbalance scenario is
        // well-defined.
        let key = keys(1000)
            .find(|&k| Router::rendezvous(k, &alive) == 0)
            .expect("some key maps to node 0");
        // Below the margin: the rendezvous target keeps the key.
        let held = router.route(key, &alive, &[3, 0, 5]);
        assert_eq!((held.node, held.spilled), (0, false));
        // At the margin: spill to the least-loaded node (node 1).
        let spilled = router.route(key, &alive, &[4, 0, 5]);
        assert_eq!(spilled.node, 1);
        assert_eq!(spilled.hrw, 0);
        assert!(spilled.spilled);
    }

    #[test]
    fn round_robin_cycles_alive_nodes() {
        let mut alive = all_alive(3);
        alive[1] = false;
        let depths = vec![0; 3];
        let mut router = Router::new(RoutingPolicy::RoundRobin, 4, 0);
        let picks: Vec<usize> = keys(6)
            .map(|k| router.route(k, &alive, &depths).node)
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2, 0, 2]);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let alive = all_alive(4);
        let depths = vec![0; 4];
        let run = |seed| {
            let mut router = Router::new(RoutingPolicy::Random, 4, seed);
            keys(200)
                .map(|k| router.route(k, &alive, &depths).node)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "a different seed must shift the picks");
        let picks = run(7);
        for n in 0..4 {
            assert!(picks.contains(&n), "node {n} never picked in 200 draws");
        }
    }
}
