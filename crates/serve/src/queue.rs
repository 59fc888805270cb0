//! Admission control and two-level SLO dispatch.
//!
//! Each tenant gets a bounded FIFO queue; an arrival to a full queue is
//! *shed* and charged to that tenant's drop counter (per-tenant
//! isolation: one tenant's burst cannot grow another tenant's queue).
//!
//! Dispatch is two-level, driven by each tenant's
//! [`SloClass`](crate::tenant::SloClass):
//!
//! 1. **Strict priority across tiers** — a batch is always assembled
//!    from the highest [`Priority`] tier with backlogged requests;
//!    lower tiers wait.
//! 2. **EDF within a tier** — when any tenant of the serving tier
//!    carries a deadline, requests are taken earliest-absolute-deadline
//!    first (deadline-free tenants rank last). When no tenant of the
//!    tier has a deadline, the two request streams are
//!    indistinguishable to EDF and dispatch falls back to
//!    **deficit round robin** weighted by the tenants' shares — the
//!    classic weighted-fair discipline, and exactly the pre-SLO
//!    behavior for the default (single-tier, no-deadline)
//!    configuration.
//!
//! Expiry is part of dispatch, and the only deadline mechanism the
//! platform has: a queued request whose absolute deadline the virtual
//! clock has passed is *expired* — returned separately from the batch so
//! the caller can account it as work the platform withdrew instead of
//! served. An expired request is never submitted.

use crate::loadgen::Micros;
use crate::tenant::{Priority, RequestKind};
use fix_core::handle::Handle;
use std::collections::VecDeque;

/// One admitted request waiting for (or receiving) service.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    /// Virtual arrival time, µs.
    pub arrival_us: Micros,
    /// Owning tenant index.
    pub tenant: usize,
    /// Tenant-stream sequence number of the arrival — with `tenant` and
    /// `kind`, everything a [`RequestFactory`](crate::tenant::RequestFactory)
    /// needs to re-mint the identical (content-addressed) thunk on
    /// another backend, which is how the dispatcher moves a queued
    /// request to a different node.
    pub seq: u64,
    /// The drawn request kind (prices a cold evaluation when the
    /// request is re-routed to a node that has not memoized it).
    pub kind: RequestKind,
    /// The thunk to evaluate.
    pub thunk: Handle,
    /// Modeled service time, µs.
    pub service_us: Micros,
    /// Absolute expiry instant on the virtual clock, µs (`None`: never
    /// expires). Within one tenant deadlines are monotone — FIFO
    /// arrivals plus a constant relative deadline — which is what makes
    /// expiry a pop-from-the-front scan.
    pub deadline_us: Option<Micros>,
}

/// The per-tenant dispatch parameters [`TenantQueues`] schedules by:
/// the weighted-fair share plus the SLO tier and relative deadline.
#[derive(Debug, Clone, Copy)]
pub struct TenantClass {
    /// Weighted-fair share within the tenant's tier.
    pub weight: u32,
    /// Strict-priority dispatch tier.
    pub priority: Priority,
    /// Relative deadline (µs from arrival) the tenant's requests carry.
    pub deadline_us: Option<Micros>,
}

/// One assembled dispatch decision: the batch to serve (all from one
/// priority tier) plus the requests that expired instead of serving.
pub struct Dispatch {
    /// The requests to serve, in dispatch order.
    pub requests: Vec<QueuedRequest>,
    /// Requests whose deadline passed while queued: withdrawn, not
    /// served, to be accounted as expired.
    pub expired: Vec<QueuedRequest>,
}

/// Per-tenant bounded FIFO queues with two-level SLO dispatch.
pub struct TenantQueues {
    queues: Vec<VecDeque<QueuedRequest>>,
    classes: Vec<TenantClass>,
    capacity: usize,
    deficits: Vec<u64>,
    /// Rotating round-robin start, so equal-weight tenants alternate
    /// who goes first instead of privileging tenant 0 forever.
    cursor: usize,
    queued: usize,
    /// Arrivals offered per tenant (admitted + dropped + rejected).
    pub offered: Vec<u64>,
    /// Arrivals shed at admission per tenant because the queue was at
    /// capacity.
    pub dropped: Vec<u64>,
    /// Arrivals shed at admission per tenant by an admission
    /// *controller* (priced to expire before dispatch) — a policy
    /// decision, accounted separately from capacity sheds.
    pub rejected: Vec<u64>,
    /// Modeled service time queued per tenant, in virtual µs: the
    /// backlog an admission controller prices new arrivals against.
    backlog_us: Vec<Micros>,
}

impl TenantQueues {
    /// Creates queues for tenants with the given dispatch `classes`,
    /// each bounded at `capacity` waiting requests.
    pub fn new(classes: Vec<TenantClass>, capacity: usize) -> TenantQueues {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            classes.iter().all(|c| c.weight > 0),
            "tenant weights must be positive"
        );
        let n = classes.len();
        TenantQueues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            classes,
            capacity,
            deficits: vec![0; n],
            cursor: 0,
            queued: 0,
            offered: vec![0; n],
            dropped: vec![0; n],
            rejected: vec![0; n],
            backlog_us: vec![0; n],
        }
    }

    /// Creates single-tier queues from bare weights (normal priority,
    /// no deadlines): the plain weighted-fair configuration.
    pub fn weighted(weights: Vec<u32>, capacity: usize) -> TenantQueues {
        Self::new(
            weights
                .into_iter()
                .map(|weight| TenantClass {
                    weight,
                    priority: Priority::Normal,
                    deadline_us: None,
                })
                .collect(),
            capacity,
        )
    }

    /// True when the tenant's queue is at capacity — the admission
    /// check, exposed separately so callers can shed *before* paying
    /// any per-request construction cost (see [`shed`](Self::shed)).
    pub fn at_capacity(&self, tenant: usize) -> bool {
        self.queues[tenant].len() >= self.capacity
    }

    /// Records one arrival shed at admission without building a
    /// request: under overload, rejecting must stay O(1) — that is the
    /// protection admission control exists to provide.
    pub fn shed(&mut self, tenant: usize) {
        self.offered[tenant] += 1;
        self.dropped[tenant] += 1;
    }

    /// Records one arrival shed by an admission *controller* — the
    /// request was priced (against the calibrated service model and the
    /// current backlog) to expire before it could dispatch, so the
    /// platform refuses it at the door instead of queueing dead work.
    /// Accounted under `rejected`, separate from capacity `dropped`.
    pub fn reject(&mut self, tenant: usize) {
        self.offered[tenant] += 1;
        self.rejected[tenant] += 1;
    }

    /// Modeled service time currently queued for `tenant`, in virtual
    /// µs — the own-tenant backlog an admission controller divides by
    /// the driver count to lower-bound a new arrival's dispatch wait.
    pub fn tenant_backlog_us(&self, tenant: usize) -> Micros {
        self.backlog_us[tenant]
    }

    /// Modeled service time of the tenant's queued requests *excluding*
    /// the newest `keep_last`, in virtual µs. This is the FIFO-prefix
    /// backlog an admission controller's provable-expiry bound divides
    /// by the driver count: when a new arrival dispatches, at most
    /// `drivers × batch − 1` of its FIFO predecessors can still be
    /// co-batched or in service beside it, so every *earlier*
    /// predecessor — the prefix this method sums — must have been served
    /// first (see [`AdmissionPolicy`](crate::controller::AdmissionPolicy)
    /// for the argument).
    pub fn tenant_backlog_prefix_us(&self, tenant: usize, keep_last: usize) -> Micros {
        let q = &self.queues[tenant];
        if keep_last >= q.len() {
            return 0;
        }
        // O(keep_last), not O(depth): the prefix is the maintained
        // running backlog minus the newest `keep_last` — an admission
        // controller prices every arrival, so this is on the hot path
        // exactly when the queue is deepest.
        self.backlog_us[tenant]
            - q.iter()
                .rev()
                .take(keep_last)
                .map(|r| r.service_us)
                .sum::<Micros>()
    }

    /// Offers one arrival: enqueues it, or sheds it if the tenant's
    /// queue is at capacity. Returns whether the request was admitted.
    pub fn offer(&mut self, req: QueuedRequest) -> bool {
        self.offered[req.tenant] += 1;
        if self.queues[req.tenant].len() >= self.capacity {
            self.dropped[req.tenant] += 1;
            return false;
        }
        self.backlog_us[req.tenant] += req.service_us;
        self.queues[req.tenant].push_back(req);
        self.queued += 1;
        true
    }

    /// Total requests currently waiting.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True when no request is waiting.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Requests waiting for one tenant.
    pub fn tenant_depth(&self, tenant: usize) -> usize {
        self.queues[tenant].len()
    }

    /// Assembles the next dispatch of at most `max` requests at virtual
    /// time `now`: expires deadline-passed work, then serves the
    /// highest backlogged tier — EDF when the tier carries deadlines,
    /// weighted deficit round robin when it does not (see the module
    /// docs for the discipline).
    pub fn next_dispatch(&mut self, max: usize, now: Micros) -> Dispatch {
        let expired = self.expire(now);
        let Some(tier) = self.serving_tier() else {
            return Dispatch {
                requests: Vec::new(),
                expired,
            };
        };
        let tier_has_deadlines = (0..self.queues.len()).any(|t| {
            self.classes[t].priority == tier
                && self.classes[t].deadline_us.is_some()
                && !self.queues[t].is_empty()
        });
        let requests = if tier_has_deadlines {
            self.next_batch_edf(max, tier)
        } else {
            self.next_batch_drr(max, tier)
        };
        Dispatch { requests, expired }
    }

    /// Pops every request whose absolute deadline `now` has passed.
    /// Deadlines are monotone within a tenant's FIFO queue, so this
    /// only ever looks at queue fronts.
    fn expire(&mut self, now: Micros) -> Vec<QueuedRequest> {
        let mut expired = Vec::new();
        for (t, queue) in self.queues.iter_mut().enumerate() {
            while let Some(front) = queue.front() {
                match front.deadline_us {
                    Some(deadline) if now > deadline => {
                        // invariant: `front()` just returned this request.
                        let req = queue.pop_front().expect("front exists");
                        self.backlog_us[t] -= req.service_us;
                        expired.push(req);
                        self.queued -= 1;
                    }
                    _ => break,
                }
            }
        }
        expired
    }

    /// The highest (first-dispatched) tier with backlogged requests.
    fn serving_tier(&self) -> Option<Priority> {
        (0..self.queues.len())
            .filter(|&t| !self.queues[t].is_empty())
            .map(|t| self.classes[t].priority)
            .min()
    }

    /// Earliest-deadline-first assembly across the tier's tenants:
    /// repeatedly take the queue front with the smallest absolute
    /// deadline (deadline-free tenants rank last; exact ties break by
    /// rotation offset, so equal tenants alternate across batches).
    fn next_batch_edf(&mut self, max: usize, tier: Priority) -> Vec<QueuedRequest> {
        let n = self.queues.len();
        let mut batch = Vec::new();
        while batch.len() < max {
            let pick = (0..n)
                .filter(|&t| self.classes[t].priority == tier && !self.queues[t].is_empty())
                .min_by_key(|&t| {
                    let deadline = self.queues[t]
                        .front()
                        .and_then(|r| r.deadline_us)
                        .unwrap_or(Micros::MAX);
                    (deadline, (t + n - self.cursor % n) % n)
                });
            let Some(t) = pick else { break };
            // invariant: `pick` only names a tenant whose queue is non-empty.
            let req = self.queues[t].pop_front().expect("queue is non-empty");
            self.backlog_us[t] -= req.service_us;
            self.queued -= 1;
            batch.push(req);
        }
        self.cursor = (self.cursor + 1) % n.max(1);
        batch
    }

    /// Deficit-round-robin assembly across the tier's tenants: each
    /// pass credits every backlogged tenant `weight` units and drains
    /// up to its accumulated deficit, so service converges to the
    /// weight ratios whenever several tenants stay backlogged. An idle
    /// tenant's deficit resets — weighted fairness shares *capacity*,
    /// it does not bank credit for traffic never offered.
    fn next_batch_drr(&mut self, max: usize, tier: Priority) -> Vec<QueuedRequest> {
        let n = self.queues.len();
        let mut batch = Vec::new();
        while batch.len() < max && self.queued > 0 {
            let mut progressed = false;
            for k in 0..n {
                let t = (self.cursor + k) % n;
                if self.classes[t].priority != tier {
                    continue;
                }
                if self.queues[t].is_empty() {
                    self.deficits[t] = 0;
                    continue;
                }
                self.deficits[t] += self.classes[t].weight as u64;
                while self.deficits[t] > 0 && batch.len() < max {
                    match self.queues[t].pop_front() {
                        Some(req) => {
                            self.backlog_us[t] -= req.service_us;
                            self.queued -= 1;
                            self.deficits[t] -= 1;
                            batch.push(req);
                            progressed = true;
                        }
                        None => break,
                    }
                }
                if batch.len() >= max {
                    break;
                }
            }
            if !progressed {
                break;
            }
        }
        self.cursor = (self.cursor + 1) % n.max(1);
        batch
    }

    /// Re-enqueues a request without admission accounting: no
    /// `offered` increment and no capacity check. This is the failover
    /// path — the request was already admitted (and counted) once on a
    /// node that has since died, so it must land on a survivor even if
    /// that survivor's queue is momentarily over its bound; shedding it
    /// here would break the offered = admitted + dropped identity.
    ///
    /// A request with a deadline is inserted in deadline order, not at
    /// the back: it may be older than arrivals the survivor has already
    /// queued, and expiry and EDF both rely on each tenant's queue
    /// being deadline-monotone from the front.
    pub fn requeue(&mut self, req: QueuedRequest) {
        self.backlog_us[req.tenant] += req.service_us;
        let queue = &mut self.queues[req.tenant];
        let at = match req.deadline_us {
            Some(deadline) => {
                queue.partition_point(|q| q.deadline_us.is_some_and(|d| d <= deadline))
            }
            None => queue.len(),
        };
        queue.insert(at, req);
        self.queued += 1;
    }

    /// Drains every waiting request, in (tenant, FIFO) order, leaving
    /// the queues empty but the admission counters intact — what a
    /// dispatcher pulls off a killed node before re-routing its backlog
    /// to the survivors.
    pub fn drain_all(&mut self) -> Vec<QueuedRequest> {
        let mut all = Vec::with_capacity(self.queued);
        for queue in &mut self.queues {
            all.extend(queue.drain(..));
        }
        self.backlog_us.fill(0);
        self.queued = 0;
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::Blob;

    fn req(tenant: usize, arrival: Micros) -> QueuedRequest {
        QueuedRequest {
            arrival_us: arrival,
            tenant,
            seq: arrival,
            kind: RequestKind::Add,
            thunk: Blob::from_u64(arrival).handle(),
            service_us: 10,
            deadline_us: None,
        }
    }

    fn deadlined(tenant: usize, arrival: Micros, deadline: Micros) -> QueuedRequest {
        QueuedRequest {
            deadline_us: Some(deadline),
            ..req(tenant, arrival)
        }
    }

    #[test]
    fn bounded_queues_shed_and_account_per_tenant() {
        let mut q = TenantQueues::weighted(vec![1, 1], 2);
        assert!(q.offer(req(0, 1)));
        assert!(q.offer(req(0, 2)));
        assert!(!q.offer(req(0, 3)), "third request exceeds capacity 2");
        assert!(q.offer(req(1, 4)), "tenant 1 is isolated from tenant 0");
        assert_eq!(q.offered, vec![3, 1]);
        assert_eq!(q.dropped, vec![1, 0]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn precheck_shed_matches_offer_accounting() {
        // The cheap path (at_capacity + shed) and the full offer() path
        // must agree on counters, so callers can shed before building a
        // request without perturbing the telemetry.
        let mut a = TenantQueues::weighted(vec![1], 2);
        let mut b = TenantQueues::weighted(vec![1], 2);
        for i in 0..5 {
            a.offer(req(0, i));
            if b.at_capacity(0) {
                b.shed(0);
            } else {
                assert!(b.offer(req(0, i)));
            }
        }
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn backlog_tracks_queued_service_and_prefix_excludes_the_tail() {
        let mut q = TenantQueues::weighted(vec![1], 10);
        for i in 0..5 {
            q.offer(req(0, i)); // 10 µs each
        }
        assert_eq!(q.tenant_backlog_us(0), 50);
        assert_eq!(q.tenant_backlog_prefix_us(0, 0), 50);
        assert_eq!(q.tenant_backlog_prefix_us(0, 2), 30);
        assert_eq!(q.tenant_backlog_prefix_us(0, 5), 0);
        assert_eq!(q.tenant_backlog_prefix_us(0, 99), 0);
        // Dispatch drains the backlog along with the queue.
        let _ = q.next_dispatch(3, 0);
        assert_eq!(q.tenant_backlog_us(0), 20);
        let _ = q.next_dispatch(8, 0);
        assert_eq!(q.tenant_backlog_us(0), 0);
    }

    #[test]
    fn reject_accounts_separately_from_capacity_drops() {
        let mut q = TenantQueues::weighted(vec![1, 1], 2);
        assert!(q.offer(req(0, 1)));
        q.reject(0);
        assert!(q.offer(req(0, 2)));
        assert!(!q.offer(req(0, 3)), "capacity shed");
        q.reject(1);
        assert_eq!(q.offered, vec![4, 1]);
        assert_eq!(q.dropped, vec![1, 0]);
        assert_eq!(q.rejected, vec![1, 1]);
        // offered = queued + dropped + rejected, per tenant.
        assert_eq!(q.tenant_depth(0), 2);
        assert_eq!(q.tenant_depth(1), 0);
    }

    #[test]
    fn dispatch_is_fifo_within_a_tenant() {
        let mut q = TenantQueues::weighted(vec![1], 10);
        for i in 0..5 {
            q.offer(req(0, i));
        }
        let arrivals: Vec<Micros> = q
            .next_dispatch(5, 0)
            .requests
            .iter()
            .map(|r| r.arrival_us)
            .collect();
        assert_eq!(arrivals, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn service_follows_weights_under_backlog() {
        // Tenant 0 (weight 3) and tenant 1 (weight 1), both saturated.
        let mut q = TenantQueues::weighted(vec![3, 1], 1000);
        for i in 0..400 {
            q.offer(req(0, i));
            q.offer(req(1, i));
        }
        let mut served = [0usize; 2];
        for _ in 0..10 {
            for r in q.next_dispatch(32, 0).requests {
                served[r.tenant] += 1;
            }
        }
        assert_eq!(served[0] + served[1], 320);
        let share = served[0] as f64 / 320.0;
        assert!(
            (0.70..0.80).contains(&share),
            "weight-3 tenant got {share:.2} of service"
        );
    }

    #[test]
    fn batches_exhaust_a_lone_tenant() {
        let mut q = TenantQueues::weighted(vec![2, 5], 100);
        for i in 0..7 {
            q.offer(req(1, i));
        }
        assert_eq!(
            q.next_dispatch(32, 0).requests.len(),
            7,
            "no other tenant to wait for"
        );
        assert!(q.next_dispatch(32, 0).requests.is_empty());
    }

    #[test]
    fn higher_tiers_preempt_lower_ones() {
        let mut q = TenantQueues::new(
            vec![
                TenantClass {
                    weight: 1,
                    priority: Priority::Batch,
                    deadline_us: None,
                },
                TenantClass {
                    weight: 1,
                    priority: Priority::Latency,
                    deadline_us: None,
                },
            ],
            100,
        );
        for i in 0..4 {
            q.offer(req(0, i));
            q.offer(req(1, i));
        }
        let d = q.next_dispatch(4, 100);
        assert!(
            d.requests.iter().all(|r| r.tenant == 1),
            "the latency tier must be served before the batch tier"
        );
        let d = q.next_dispatch(4, 100);
        assert!(d.requests.iter().all(|r| r.tenant == 0));
    }

    #[test]
    fn edf_orders_by_absolute_deadline_within_a_tier() {
        let mut q = TenantQueues::new(
            vec![
                TenantClass {
                    weight: 1,
                    priority: Priority::Latency,
                    deadline_us: Some(100),
                },
                TenantClass {
                    weight: 1,
                    priority: Priority::Latency,
                    deadline_us: Some(10),
                },
            ],
            100,
        );
        // Tenant 0 arrived first but has the laxer deadline.
        q.offer(deadlined(0, 0, 100));
        q.offer(deadlined(1, 5, 15));
        q.offer(deadlined(0, 20, 120));
        let order: Vec<usize> = q
            .next_dispatch(3, 0)
            .requests
            .iter()
            .map(|r| r.tenant)
            .collect();
        assert_eq!(order, vec![1, 0, 0], "earliest absolute deadline first");
    }

    #[test]
    fn expired_requests_are_withdrawn_not_served() {
        let mut q = TenantQueues::new(
            vec![TenantClass {
                weight: 1,
                priority: Priority::Latency,
                deadline_us: Some(10),
            }],
            100,
        );
        q.offer(deadlined(0, 0, 10));
        q.offer(deadlined(0, 50, 60));
        let d = q.next_dispatch(8, 30); // The first deadline has passed.
        assert_eq!(d.expired.len(), 1);
        assert_eq!(d.expired[0].arrival_us, 0);
        assert_eq!(d.requests.len(), 1);
        assert_eq!(d.requests[0].arrival_us, 50);
        assert!(q.is_empty());
    }

    #[test]
    fn requeue_bypasses_admission_accounting_and_capacity() {
        let mut q = TenantQueues::weighted(vec![1], 2);
        assert!(q.offer(req(0, 1)));
        assert!(q.offer(req(0, 2)));
        // The queue is full, yet failover work must still land.
        q.requeue(req(0, 3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.offered, vec![2], "requeue never counts as offered");
        assert_eq!(q.dropped, vec![0]);
        let arrivals: Vec<Micros> = q
            .next_dispatch(8, 0)
            .requests
            .iter()
            .map(|r| r.arrival_us)
            .collect();
        assert_eq!(arrivals, vec![1, 2, 3], "requeued work keeps FIFO order");
    }

    /// Failover can land an *older* request behind newer arrivals; it
    /// must take its place in deadline order, or `expire` (which only
    /// scans fronts) would let it be served after its deadline.
    #[test]
    fn requeue_keeps_deadlines_monotone_so_late_work_expires() {
        let class = TenantClass {
            weight: 1,
            priority: Priority::Latency,
            deadline_us: Some(50),
        };
        let mut q = TenantQueues::new(vec![class], 10);
        assert!(q.offer(deadlined(0, 50, 100)));
        q.requeue(deadlined(0, 0, 50));
        let d = q.next_dispatch(8, 60);
        let expired: Vec<Micros> = d.expired.iter().filter_map(|r| r.deadline_us).collect();
        let served: Vec<Micros> = d.requests.iter().filter_map(|r| r.deadline_us).collect();
        assert_eq!(
            expired,
            vec![50],
            "the deadline-passed request is withdrawn"
        );
        assert_eq!(served, vec![100]);
    }

    #[test]
    fn drain_all_empties_queues_but_keeps_counters() {
        let mut q = TenantQueues::weighted(vec![1, 1], 4);
        q.offer(req(0, 1));
        q.offer(req(1, 2));
        q.offer(req(0, 3));
        let drained = q.drain_all();
        assert_eq!(drained.len(), 3);
        let order: Vec<(usize, Micros)> =
            drained.iter().map(|r| (r.tenant, r.arrival_us)).collect();
        assert_eq!(order, vec![(0, 1), (0, 3), (1, 2)], "(tenant, FIFO) order");
        assert!(q.is_empty());
        assert_eq!(
            q.offered,
            vec![2, 1],
            "admission counters survive the drain"
        );
    }

    #[test]
    fn default_classes_match_plain_weighted_queues() {
        // A default-class config must dispatch exactly like the bare
        // weighted constructor — the bit-identical-tables guarantee for
        // configurations that never opt into SLOs.
        let classes = vec![
            TenantClass {
                weight: 3,
                priority: Priority::Normal,
                deadline_us: None,
            },
            TenantClass {
                weight: 1,
                priority: Priority::Normal,
                deadline_us: None,
            },
        ];
        let mut a = TenantQueues::new(classes, 50);
        let mut b = TenantQueues::weighted(vec![3, 1], 50);
        for i in 0..40 {
            a.offer(req(i as usize % 2, i));
            b.offer(req(i as usize % 2, i));
        }
        for _ in 0..6 {
            let da: Vec<Micros> = a
                .next_dispatch(8, 1_000)
                .requests
                .iter()
                .map(|r| r.arrival_us)
                .collect();
            let db: Vec<Micros> = b
                .next_dispatch(8, 0)
                .requests
                .iter()
                .map(|r| r.arrival_us)
                .collect();
            assert_eq!(da, db);
        }
    }
}
