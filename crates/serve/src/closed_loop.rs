//! Closed-loop tenants: a fixed client population with think times.
//!
//! An open-loop generator keeps offering traffic at its configured rate
//! no matter what the platform does — the right model for measuring a
//! static configuration, and a caricature of real clients, who wait for
//! (or give up on) one request before issuing the next. A closed-loop
//! tenant is the feedback version: `clients` independent clients, each
//! cycling *think → request → (completion | shed | expiry) → think*.
//! Under overload the population self-throttles, because a client
//! cannot offer its next request until its previous one resolved.
//!
//! Everything is driven by the virtual clock and per-client seeded
//! exponential think streams, so a closed-loop tenant's arrivals are
//! exactly as deterministic as an open-loop timeline — they are just
//! computed during the simulation (they depend on completions) instead
//! of before it.

use crate::loadgen::{tenant_seed, Micros};
use crate::tenant::{RequestKind, SloClass};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One closed-loop tenant: a client population with think times.
#[derive(Debug, Clone)]
pub struct ClosedLoopSpec {
    /// Display name (the table row key).
    pub name: String,
    /// Weighted-fair share within the tenant's SLO tier.
    pub weight: u32,
    /// Number of concurrent clients (each has at most one request
    /// outstanding).
    pub clients: usize,
    /// Mean of each client's exponential think time, µs.
    pub think_mean_us: f64,
    /// Weighted request mix, drawn per request like an open tenant's.
    pub mix: Vec<(RequestKind, u32)>,
    /// The tenant's SLO class.
    pub slo: SloClass,
}

/// One draw of a platform-stable uniform in `(0, 1]` (53 bits, matching
/// the load generator's stream discipline so closed-loop think times
/// are exactly as portable as open-loop inter-arrivals).
fn unit_open(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Per-client seeded think-time streams for one closed-loop tenant.
pub(crate) struct ThinkStreams {
    rngs: Vec<StdRng>,
    mean_us: f64,
}

impl ThinkStreams {
    /// Streams for `clients` clients of tenant `tenant`, derived from
    /// the run seed (stream ids offset by 100 so they never collide
    /// with the arrival/mix/corpus streams the open-loop path uses).
    pub(crate) fn new(run_seed: u64, tenant: usize, clients: usize, mean_us: f64) -> ThinkStreams {
        ThinkStreams {
            rngs: (0..clients)
                .map(|c| StdRng::seed_from_u64(tenant_seed(run_seed, tenant, 100 + c as u64)))
                .collect(),
            mean_us,
        }
    }

    /// The client's next think time, ≥ 1 µs (zero-length thinks would
    /// let a client re-arrive at its own resolution instant).
    pub(crate) fn next(&mut self, client: usize) -> Micros {
        let u = unit_open(&mut self.rngs[client]);
        ((-u.ln() * self.mean_us).round() as Micros).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_streams_are_seeded_and_independent() {
        let mut a = ThinkStreams::new(7, 0, 2, 500.0);
        let mut b = ThinkStreams::new(7, 0, 2, 500.0);
        let draws_a: Vec<Micros> = (0..50).map(|i| a.next(i % 2)).collect();
        let draws_b: Vec<Micros> = (0..50).map(|i| b.next(i % 2)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same thinks");
        let mut d = ThinkStreams::new(8, 0, 2, 500.0);
        let draws_d: Vec<Micros> = (0..50).map(|i| d.next(i % 2)).collect();
        assert_ne!(draws_a, draws_d, "a different run seed shifts thinks");
        // Exponential with mean 500: the empirical mean lands nearby.
        let mean = draws_a.iter().sum::<Micros>() as f64 / draws_a.len() as f64;
        assert!((200.0..900.0).contains(&mean), "mean {mean}");
        assert!(draws_a.iter().all(|&t| t >= 1));
    }
}
