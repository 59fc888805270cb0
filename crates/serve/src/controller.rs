//! The two deterministic controllers: admission pricing and the
//! driver-pool autoscaler.
//!
//! Both run on the virtual clock inside the simulation loop, so their
//! decisions are part of the bit-identical report surface — the same
//! seed produces the same rejections and the same scaling timeline on
//! every backend. (The *wall-clock* scheduler gauges, `sched.parked`
//! and `sched.steal_rate`, stay in each runtime's own registry,
//! `Runtime::metrics()`, and never feed a decision that shapes a
//! table.)

use crate::loadgen::Micros;
use crate::queue::TenantQueues;
use crate::server::ScaleEvent;
use fix_obs::EventKind;

/// Attainment-driven admission: reject an arrival that provably cannot
/// dispatch before its deadline.
///
/// The bound prices the arrival against the tenant's *FIFO-prefix*
/// backlog. When the new request finally dispatches, at most
/// `active_drivers × batch − 1` of its FIFO predecessors can still be
/// co-batched or in service beside it; every earlier predecessor must
/// already have been served. The modeled service time of that prefix,
/// spread across the active drivers, therefore lower-bounds the new
/// arrival's queue wait:
///
/// ```text
/// wait ≥ batch_overhead + prefix_backlog / active_drivers
/// ```
///
/// If `arrival + wait` already exceeds the absolute deadline, queueing
/// the request only manufactures an expiry — so the controller refuses
/// it at the door (`rejected` accounting, O(drivers × batch) work, no
/// thunk minted).
///
/// The bound is exact under the usual idealization — work-conserving
/// drivers, no predecessor expiring first, cross-tenant interference
/// ignored. Interference only *delays* dispatch further, so ignoring it
/// under-rejects (the safe direction); a predecessor expiring first
/// could free capacity the bound did not credit, which is why the bound
/// is applied only to deadlines the prefix already overruns outright.
///
/// The policy has no settings: an arrival is refused exactly when
/// `now + wait > deadline`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionPolicy {}

/// The dispatch capacity an arrival is priced against: the live driver
/// count beside the fixed batch shape. The kernel rebuilds this from
/// the autoscaler's current `active` on every priced arrival, so the
/// admission bound always reflects the pool the autoscaler just chose.
#[derive(Debug, Clone, Copy)]
pub struct PoolShape {
    /// Drivers currently active (the autoscaler's live count).
    pub active_drivers: usize,
    /// Requests pulled per dispatched batch.
    pub batch: usize,
    /// Fixed per-batch dispatch overhead, virtual µs.
    pub batch_overhead_us: Micros,
}

impl AdmissionPolicy {
    /// The lower bound on the queue wait a new arrival of `tenant`
    /// would face, in virtual µs (see the type docs for the argument).
    fn predicted_wait_us(&self, queues: &TenantQueues, tenant: usize, pool: PoolShape) -> Micros {
        let drivers = pool.active_drivers.max(1);
        let immediate = drivers * pool.batch.max(1);
        let prefix = queues.tenant_backlog_prefix_us(tenant, immediate - 1);
        pool.batch_overhead_us + prefix / drivers as Micros
    }

    /// Prices one arrival at `now_us` with absolute deadline
    /// `deadline_us`; returns the predicted wait if the request must be
    /// rejected, `None` if it may be admitted. Deadline-free arrivals
    /// are always admitted — there is nothing to provably miss.
    pub fn price(
        &self,
        queues: &TenantQueues,
        tenant: usize,
        now_us: Micros,
        deadline_us: Option<Micros>,
        pool: PoolShape,
    ) -> Option<Micros> {
        let deadline = deadline_us?;
        let wait = self.predicted_wait_us(queues, tenant, pool);
        (now_us + wait > deadline).then_some(wait)
    }
}

/// Configuration of the driver-pool autoscaler.
#[derive(Debug, Clone, Copy)]
pub struct ScalerConfig {
    /// Smallest active pool (also the starting size).
    pub min_drivers: usize,
    /// Largest active pool (the capacity actually provisioned: the
    /// execution phase spawns this many real driver threads).
    pub max_drivers: usize,
    /// Controller tick period on the virtual clock, µs.
    pub control_interval_us: Micros,
    /// Scale *up* one driver when the per-active-driver queued backlog
    /// has been at or above this for [`hold_ticks`](Self::hold_ticks)
    /// consecutive ticks.
    pub up_backlog_us: Micros,
    /// Scale *down* one driver when the per-active-driver backlog has
    /// been at or below this for the hold count. Keep it well under
    /// [`up_backlog_us`](Self::up_backlog_us): the dead band between
    /// the two thresholds is the hysteresis that stops flapping.
    pub down_backlog_us: Micros,
    /// Consecutive out-of-band ticks required before a resize.
    pub hold_ticks: u32,
}

impl ScalerConfig {
    /// A fixed pool of `drivers`: the degenerate scaler (min = max)
    /// whose tick can never resize. This is how the static baseline is
    /// expressed in the same engine as the adaptive configuration.
    pub fn fixed(drivers: usize) -> ScalerConfig {
        ScalerConfig {
            min_drivers: drivers,
            max_drivers: drivers,
            control_interval_us: Micros::MAX,
            up_backlog_us: Micros::MAX,
            down_backlog_us: 0,
            hold_ticks: 1,
        }
    }

    /// Structural validation (positive bounds, min ≤ max, a real dead
    /// band, a positive tick period).
    pub fn validate(&self) -> Result<(), String> {
        if self.min_drivers == 0 {
            return Err("driver pool must have at least one driver".into());
        }
        if self.max_drivers < self.min_drivers {
            return Err("scaler max_drivers must be ≥ min_drivers".into());
        }
        if self.control_interval_us == 0 {
            return Err("scaler control interval must be positive".into());
        }
        if self.hold_ticks == 0 {
            return Err("scaler hold_ticks must be positive".into());
        }
        if self.min_drivers != self.max_drivers && self.down_backlog_us >= self.up_backlog_us {
            return Err("scaler thresholds must leave a dead band (down < up)".into());
        }
        Ok(())
    }
}

/// The deterministic driver-pool controller: ticks on the virtual
/// clock, compares per-active-driver backlog against the configured
/// band, and resizes one driver at a time after the hold count —
/// recording every move in the [`ScaleEvent`] timeline the report
/// prints.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: ScalerConfig,
    active: usize,
    over: u32,
    under: u32,
    timeline: Vec<ScaleEvent>,
}

impl Autoscaler {
    /// A scaler starting at `cfg.min_drivers` active drivers.
    pub fn new(cfg: ScalerConfig) -> Autoscaler {
        Autoscaler {
            active: cfg.min_drivers,
            cfg,
            over: 0,
            under: 0,
            timeline: Vec::new(),
        }
    }

    /// Currently active drivers.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Consumes the scaler, yielding its timeline for the report.
    pub fn into_timeline(self) -> Vec<ScaleEvent> {
        self.timeline
    }

    /// One controller tick at virtual `at_us` with `backlog_us` total
    /// modeled service queued across all tenants. Returns the new
    /// active count when the tick resized the pool.
    pub fn tick(&mut self, at_us: Micros, backlog_us: Micros, tracing: bool) -> Option<usize> {
        let per_driver = backlog_us / self.active.max(1) as Micros;
        if per_driver >= self.cfg.up_backlog_us && self.active < self.cfg.max_drivers {
            self.under = 0;
            self.over += 1;
            if self.over >= self.cfg.hold_ticks {
                self.over = 0;
                return Some(self.resize(at_us, self.active + 1, tracing));
            }
        } else if per_driver <= self.cfg.down_backlog_us && self.active > self.cfg.min_drivers {
            self.over = 0;
            self.under += 1;
            if self.under >= self.cfg.hold_ticks {
                self.under = 0;
                return Some(self.resize(at_us, self.active - 1, tracing));
            }
        } else {
            // In the dead band: the hold counters reset, so a resize
            // always reflects *consecutive* pressure, not pressure
            // accumulated across lulls.
            self.over = 0;
            self.under = 0;
        }
        None
    }

    fn resize(&mut self, at_us: Micros, to: usize, tracing: bool) -> usize {
        let from = self.active;
        self.active = to;
        self.timeline.push(ScaleEvent { at_us, from, to });
        if tracing {
            let kind = if to > from {
                EventKind::CtrlScaleUp
            } else {
                EventKind::CtrlScaleDown
            };
            fix_obs::emit(kind, at_us, 0, from as u32, to as u32);
        }
        to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueuedRequest, RequestKind};

    fn queued(tenant: usize, service_us: Micros, deadline_us: Option<Micros>) -> QueuedRequest {
        QueuedRequest {
            arrival_us: 0,
            tenant,
            seq: 0,
            kind: RequestKind::Add,
            thunk: fix_core::data::Blob::from_u64(service_us).handle(),
            service_us,
            deadline_us,
        }
    }

    #[test]
    fn admission_rejects_exactly_the_provably_late() {
        let mut q = TenantQueues::weighted(vec![1], 1000);
        // 1 driver × batch 2 ⇒ the newest 1 predecessor is "immediate";
        // 10 queued 100 µs requests leave a 900 µs prefix.
        for _ in 0..10 {
            q.offer(queued(0, 100, None));
        }
        let pool = |active_drivers| PoolShape {
            active_drivers,
            batch: 2,
            batch_overhead_us: 7,
        };
        let p = AdmissionPolicy::default();
        assert_eq!(p.predicted_wait_us(&q, 0, pool(1)), 907);
        // Deadline past the bound: admit. At/below: reject.
        assert_eq!(p.price(&q, 0, 0, Some(1000), pool(1)), None);
        assert_eq!(p.price(&q, 0, 0, Some(900), pool(1)), Some(907));
        // No deadline ⇒ nothing to provably miss ⇒ never rejected.
        assert_eq!(p.price(&q, 0, 0, None, pool(1)), None);
        // More drivers spread the prefix and shrink the bound.
        assert!(p.predicted_wait_us(&q, 0, pool(4)) < 907);
    }

    #[test]
    fn scaler_holds_then_resizes_within_bounds() {
        let cfg = ScalerConfig {
            min_drivers: 2,
            max_drivers: 4,
            control_interval_us: 1000,
            up_backlog_us: 100,
            down_backlog_us: 10,
            hold_ticks: 2,
        };
        cfg.validate().unwrap();
        let mut s = Autoscaler::new(cfg);
        assert_eq!(s.active(), 2);
        // One hot tick is not enough (hysteresis)…
        assert_eq!(s.tick(1000, 1000, false), None);
        // …two consecutive are.
        assert_eq!(s.tick(2000, 1000, false), Some(3));
        // A dead-band tick resets the hold counter.
        assert_eq!(s.tick(3000, 150, false), None); // 150/3 = 50: in band
        assert_eq!(s.tick(4000, 1000, false), None);
        assert_eq!(s.tick(5000, 1000, false), Some(4));
        // At max the scaler saturates.
        assert_eq!(s.tick(6000, 9000, false), None);
        assert_eq!(s.tick(7000, 9000, false), None);
        // Draining scales back down to min, never below.
        assert_eq!(s.tick(8000, 0, false), None);
        assert_eq!(s.tick(9000, 0, false), Some(3));
        assert_eq!(s.tick(10_000, 0, false), None);
        assert_eq!(s.tick(11_000, 0, false), Some(2));
        assert_eq!(s.tick(12_000, 0, false), None);
        assert_eq!(s.tick(13_000, 0, false), None);
        assert_eq!(
            s.timeline
                .iter()
                .map(|e| (e.at_us, e.from, e.to))
                .collect::<Vec<_>>(),
            vec![(2000, 2, 3), (5000, 3, 4), (9000, 4, 3), (11_000, 3, 2)]
        );
    }

    #[test]
    fn fixed_scaler_never_moves() {
        let cfg = ScalerConfig::fixed(3);
        cfg.validate().unwrap();
        let mut s = Autoscaler::new(cfg);
        for t in 0..100u64 {
            assert_eq!(s.tick(t, t * 1_000_000, false), None);
        }
        assert_eq!(s.active(), 3);
        assert!(s.into_timeline().is_empty());
    }
}
