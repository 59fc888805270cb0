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
    /// A sinusoidal day/night cycle: a non-homogeneous Poisson process
    /// whose rate swings between `base_rps` (trough) and `peak_rps`
    /// (crest) with period `period_us`, starting at the trough.
    /// Generated by thinning a `peak_rps` Poisson stream, so the
    /// process is exact, not a step approximation.
    Diurnal {
        /// Trough arrival rate, in requests per second.
        base_rps: f64,
        /// Crest arrival rate, in requests per second.
        peak_rps: f64,
        /// Full cycle length, in µs.
        period_us: Micros,
    },
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

impl ArrivalProcess {
    /// Generates the sorted arrival timestamps in `[0, duration_us)`.
    ///
    /// Deterministic: the stream depends only on `seed` (ignored by the
    /// non-random processes) and the process parameters.
    pub fn generate(&self, seed: u64, duration_us: Micros) -> Vec<Micros> {
        match self {
            ArrivalProcess::Poisson { rate_rps } => {
                assert!(*rate_rps > 0.0, "Poisson rate must be positive");
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                let mut t = 0.0f64;
                loop {
                    // Inverse-CDF exponential gap; u ∈ (0, 1] so ln is
                    // finite. 53 bits keeps the stream platform-stable.
                    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                    t += -u.ln() * 1e6 / rate_rps;
                    if t >= duration_us as f64 {
                        return out;
                    }
                    out.push(t as Micros);
                }
            }
            ArrivalProcess::Uniform { period_us } => {
                assert!(*period_us > 0, "period must be positive");
                (0..duration_us).step_by(*period_us as usize).collect()
            }
            ArrivalProcess::Bursts { period_us, burst } => {
                assert!(*period_us > 0, "period must be positive");
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
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_us,
            } => {
                assert!(*base_rps > 0.0, "diurnal base rate must be positive");
                assert!(
                    peak_rps >= base_rps,
                    "diurnal peak rate must be at least the base rate"
                );
                assert!(*period_us > 0, "diurnal period must be positive");
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                let mut t = 0.0f64;
                loop {
                    // Thinning: candidate stream at the peak rate, each
                    // candidate kept with probability rate(t)/peak.
                    t += -unit_open(&mut rng).ln() * 1e6 / peak_rps;
                    if t >= duration_us as f64 {
                        return out;
                    }
                    let phase = (t / *period_us as f64) * std::f64::consts::TAU;
                    let rate = base_rps + (peak_rps - base_rps) * 0.5 * (1.0 - phase.cos());
                    if unit_open(&mut rng) * peak_rps <= rate {
                        out.push(t as Micros);
                    }
                }
            }
            ArrivalProcess::FlashCrowd {
                base_rps,
                spike_at_us,
                spike_len_us,
                spike_rps,
            } => {
                assert!(*base_rps > 0.0, "flash-crowd base rate must be positive");
                assert!(*spike_rps > 0.0, "flash-crowd spike rate must be positive");
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
    fn diurnal_is_pinned_and_peaks_mid_cycle() {
        let p = ArrivalProcess::Diurnal {
            base_rps: 200.0,
            peak_rps: 4000.0,
            period_us: 1_000_000,
        };
        let a = p.generate(7, 1_000_000);
        assert_eq!(a, p.generate(7, 1_000_000), "same seed, same stream");
        assert_eq!(a.len(), 2147, "seeded event count is pinned");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // The cycle starts at the trough, so the middle half-period
        // (the crest) must carry far more arrivals than the edges.
        let crest = a
            .iter()
            .filter(|&&t| (250_000..750_000).contains(&t))
            .count();
        let trough = a.len() - crest;
        assert!(crest > 3 * trough, "{crest} at crest vs {trough} at trough");
    }

    #[test]
    fn new_shapes_merge_in_timeline_order() {
        // Merge ordering with the new processes follows the same
        // (time, tenant, seq) total order as the pinned trio.
        let flash = ArrivalProcess::FlashCrowd {
            base_rps: 1000.0,
            spike_at_us: 5_000,
            spike_len_us: 5_000,
            spike_rps: 20_000.0,
        }
        .generate(3, 20_000);
        let diurnal = ArrivalProcess::Diurnal {
            base_rps: 1000.0,
            peak_rps: 2000.0,
            period_us: 20_000,
        }
        .generate(4, 20_000);
        let merged = merge_timelines(vec![flash.clone(), diurnal.clone()]);
        assert_eq!(merged.len(), flash.len() + diurnal.len());
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
