//! Deterministic open-loop load generation.
//!
//! Every experiment in the repo so far was closed-loop: issue a batch,
//! wait, repeat — which can never overload anything, and therefore never
//! produces a queue or a tail. This module generates *open-loop*
//! arrivals (requests arrive on their own clock, whether or not the
//! system has kept up), the regime the serving literature measures.
//!
//! Arrival processes are pure functions of an explicit seed: the same
//! `(seed, duration)` always yields the same timestamps, on every
//! platform, which is what makes the serving tables reproducible enough
//! to assert on in CI.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A virtual-time instant or duration, in microseconds.
pub type Micros = u64;

/// An open-loop arrival process over a finite horizon.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate_rps` requests/second: i.i.d.
    /// exponential inter-arrival gaps (the canonical serving model).
    Poisson {
        /// Mean arrival rate, in requests per second.
        rate_rps: f64,
    },
    /// Evenly spaced arrivals, one every `period_us` (a pessimism-free
    /// baseline that isolates queueing caused purely by service time).
    Uniform {
        /// Gap between consecutive arrivals, in µs.
        period_us: Micros,
    },
    /// `burst` back-to-back arrivals every `period_us` — the on/off
    /// shape that exercises admission control and shedding.
    Bursts {
        /// Gap between the start of consecutive bursts, in µs.
        period_us: Micros,
        /// Requests per burst (all stamped with the same arrival time).
        burst: u32,
    },
    /// Explicit timestamps (µs), e.g. replayed from a trace. Out-of-range
    /// or unsorted entries are sorted and clipped to the horizon.
    Trace(Vec<Micros>),
    /// A flash crowd: Poisson at `base_rps` except for one hot window
    /// `[spike_at_us, spike_at_us + spike_len_us)` served at
    /// `spike_rps` — the hostile shape admission control and
    /// autoscaling exist for. Piecewise-exact (exponential gaps are
    /// memoryless, so re-drawing at each rate boundary is lossless).
    FlashCrowd {
        /// Background arrival rate, in requests per second.
        base_rps: f64,
        /// Start of the spike window, µs.
        spike_at_us: Micros,
        /// Spike duration, µs.
        spike_len_us: Micros,
        /// Arrival rate inside the spike window, requests per second.
        spike_rps: f64,
    },
}

/// One draw of a platform-stable uniform in `(0, 1]` (53 bits, so the
/// stream does not depend on the platform's `f64` rounding of wider
/// integers).
fn unit_open(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Whether `rate` is a usable arrival rate: positive and finite (the gap
/// loops never reach the horizon on a negative, NaN or infinite one).
fn positive_rate(rate: f64) -> bool {
    rate.is_finite() && rate > 0.0
}

impl ArrivalProcess {
    /// Checks the parameters [`generate`](Self::generate) relies on: every
    /// rate positive and finite, every period positive.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalProcess::Poisson { rate_rps } if !positive_rate(*rate_rps) => Err(format!(
                "Poisson rate {rate_rps} must be positive and finite"
            )),
            ArrivalProcess::FlashCrowd {
                base_rps,
                spike_rps,
                ..
            } if !positive_rate(*base_rps) || !positive_rate(*spike_rps) => Err(format!(
                "flash-crowd rates {base_rps} and {spike_rps} must be positive and finite"
            )),
            ArrivalProcess::Uniform { period_us: 0 }
            | ArrivalProcess::Bursts { period_us: 0, .. } => {
                Err("arrival period must be positive".into())
            }
            _ => Ok(()),
        }
    }

    /// Generates the sorted arrival timestamps in `[0, duration_us)`.
    ///
    /// Deterministic: the stream depends only on `seed` (ignored by the
    /// non-random processes) and the process parameters.
    ///
    /// # Panics
    ///
    /// On a process [`validate`](Self::validate) rejects.
    pub fn generate(&self, seed: u64, duration_us: Micros) -> Vec<Micros> {
        if let Err(message) = self.validate() {
            panic!("{message}");
        }
        match self {
            ArrivalProcess::Poisson { rate_rps } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                let mut t = 0.0f64;
                loop {
                    // Inverse-CDF exponential gap; `unit_open` is never
                    // 0, so ln is finite.
                    t += -unit_open(&mut rng).ln() * 1e6 / rate_rps;
                    if t >= duration_us as f64 {
                        return out;
                    }
                    out.push(t as Micros);
                }
            }
            ArrivalProcess::Uniform { period_us } => {
                (0..duration_us).step_by(*period_us as usize).collect()
            }
            ArrivalProcess::Bursts { period_us, burst } => {
                let mut out = Vec::new();
                let mut t = 0;
                while t < duration_us {
                    out.extend(std::iter::repeat_n(t, *burst as usize));
                    t += period_us;
                }
                out
            }
            ArrivalProcess::Trace(times) => {
                let mut out: Vec<Micros> =
                    times.iter().copied().filter(|&t| t < duration_us).collect();
                out.sort_unstable();
                out
            }
            ArrivalProcess::FlashCrowd {
                base_rps,
                spike_at_us,
                spike_len_us,
                spike_rps,
            } => {
                let spike_end = spike_at_us.saturating_add(*spike_len_us);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                let mut t = 0.0f64;
                while t < duration_us as f64 {
                    let in_spike = t >= *spike_at_us as f64 && t < spike_end as f64;
                    let rate = if in_spike { *spike_rps } else { *base_rps };
                    let next = t + -unit_open(&mut rng).ln() * 1e6 / rate;
                    // Crossing a rate boundary discards the gap and
                    // restarts from the boundary at the new rate —
                    // exact for exponential gaps (memorylessness).
                    let boundary = if t < *spike_at_us as f64 {
                        *spike_at_us as f64
                    } else if in_spike {
                        spike_end as f64
                    } else {
                        duration_us as f64
                    };
                    if next >= boundary {
                        t = boundary;
                        continue;
                    }
                    t = next;
                    if t < duration_us as f64 {
                        out.push(t as Micros);
                    }
                }
                out
            }
        }
    }
}

/// One generated request arrival, before admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time, µs.
    pub time_us: Micros,
    /// Index into the configured tenant list.
    pub tenant: usize,
    /// Per-tenant request sequence number (names the request's inputs).
    pub seq: u64,
}

/// The SplitMix64 finalizer: the one stateless mixer behind tenant
/// seeds, request-kind draws and rendezvous scores. Each caller folds
/// its own inputs into `z` first.
pub(crate) fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives tenant `i`'s private RNG stream from the run seed
/// (SplitMix64-style mixing, so adjacent tenants are uncorrelated).
pub fn tenant_seed(run_seed: u64, tenant: usize, stream: u64) -> u64 {
    splitmix64_mix(
        run_seed
            .wrapping_add((tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    )
}

/// Merges per-tenant arrival streams into one globally ordered
/// timeline. Ties break by tenant index then sequence number, so the
/// timeline is a pure function of the configuration.
pub fn merge_timelines(per_tenant: Vec<Vec<Micros>>) -> Vec<Arrival> {
    let mut all: Vec<Arrival> = Vec::with_capacity(per_tenant.iter().map(Vec::len).sum());
    for (tenant, times) in per_tenant.into_iter().enumerate() {
        for (seq, time_us) in times.into_iter().enumerate() {
            all.push(Arrival {
                time_us,
                tenant,
                seq: seq as u64,
            });
        }
    }
    all.sort_by_key(|a| (a.time_us, a.tenant, a.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_near_rate() {
        let p = ArrivalProcess::Poisson { rate_rps: 1000.0 };
        let a = p.generate(42, 1_000_000);
        let b = p.generate(42, 1_000_000);
        assert_eq!(a, b, "same seed, same stream");
        // 1000 rps over 1 s: within ±20% whp for this fixed seed.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let c = p.generate(43, 1_000_000);
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn uniform_and_bursts_cover_the_horizon() {
        let u = ArrivalProcess::Uniform { period_us: 250 }.generate(0, 1000);
        assert_eq!(u, vec![0, 250, 500, 750]);
        let b = ArrivalProcess::Bursts {
            period_us: 500,
            burst: 3,
        }
        .generate(0, 1000);
        assert_eq!(b, vec![0, 0, 0, 500, 500, 500]);
    }

    #[test]
    fn trace_is_sorted_and_clipped() {
        let t = ArrivalProcess::Trace(vec![900, 100, 5000, 100]).generate(7, 1000);
        assert_eq!(t, vec![100, 100, 900]);
    }

    #[test]
    fn merged_timeline_is_totally_ordered() {
        let merged = merge_timelines(vec![vec![0, 10, 20], vec![10, 15], vec![10]]);
        let times: Vec<(Micros, usize)> = merged.iter().map(|a| (a.time_us, a.tenant)).collect();
        assert_eq!(
            times,
            vec![(0, 0), (10, 0), (10, 1), (10, 2), (15, 1), (20, 0)]
        );
        // Sequence numbers stay per-tenant.
        assert_eq!(merged[1].seq, 1);
        assert_eq!(merged[3].seq, 0);
    }

    #[test]
    fn flash_crowd_is_pinned_and_spikes() {
        let p = ArrivalProcess::FlashCrowd {
            base_rps: 500.0,
            spike_at_us: 400_000,
            spike_len_us: 200_000,
            spike_rps: 10_000.0,
        };
        let a = p.generate(42, 1_000_000);
        assert_eq!(a, p.generate(42, 1_000_000), "same seed, same stream");
        assert_eq!(a.len(), 2397, "seeded event count is pinned");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let in_spike = a
            .iter()
            .filter(|&&t| (400_000..600_000).contains(&t))
            .count();
        let outside = a.len() - in_spike;
        // 0.2 s at 10k rps ≈ 2000 arrivals vs 0.8 s at 500 rps ≈ 400:
        // the crowd must dominate its window.
        assert!(
            in_spike > 4 * outside,
            "{in_spike} in spike vs {outside} outside"
        );
        assert_ne!(a, p.generate(43, 1_000_000), "seed shifts the stream");
    }

    #[test]
    fn new_shapes_merge_in_timeline_order() {
        // Merging a flash crowd with a Poisson stream follows the same
        // (time, tenant, seq) total order as the pinned trio.
        let flash = ArrivalProcess::FlashCrowd {
            base_rps: 1000.0,
            spike_at_us: 5_000,
            spike_len_us: 5_000,
            spike_rps: 20_000.0,
        }
        .generate(3, 20_000);
        let poisson = ArrivalProcess::Poisson { rate_rps: 1500.0 }.generate(4, 20_000);
        let merged = merge_timelines(vec![flash.clone(), poisson.clone()]);
        assert_eq!(merged.len(), flash.len() + poisson.len());
        assert!(
            merged
                .windows(2)
                .all(|w| (w[0].time_us, w[0].tenant, w[0].seq)
                    < (w[1].time_us, w[1].tenant, w[1].seq))
        );
        // Per-tenant subsequences keep their own arrival order.
        let sub: Vec<Micros> = merged
            .iter()
            .filter(|a| a.tenant == 0)
            .map(|a| a.time_us)
            .collect();
        assert_eq!(sub, flash);
    }

    #[test]
    fn tenant_seeds_are_distinct() {
        let s: Vec<u64> = (0..8).map(|i| tenant_seed(1, i, 0)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
        assert_ne!(tenant_seed(1, 0, 0), tenant_seed(1, 0, 1));
    }
}
