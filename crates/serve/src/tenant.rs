//! Tenants and their request mixes.
//!
//! A tenant is a stream of requests drawn from a weighted mix of
//! request kinds, all expressed as ordinary Fix thunks against the One
//! Fix API — which is the point: the serving layer never special-cases
//! a workload, it just builds thunks and asks a backend to evaluate
//! them. The kinds cover the repo's real workloads: native codelets
//! (the Fig. 7a hot path), FixVM guest programs (`fib`), the
//! count-string map shard (Fig. 8b), and the SeBS `dynamic-html` port
//! running through Flatware.

use crate::closed_loop::ClosedLoopSpec;
use crate::loadgen::{splitmix64_mix, ArrivalProcess, Micros};
use crate::snf::SnfSpec;
use fix_core::api::InvocationApi;
use fix_core::data::Blob;
use fix_core::error::Result;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fix_workloads::guests;
use fix_workloads::sebs::{build_sebs_fs, register_dynamic_html};
use fix_workloads::wordcount::{register_count_string, store_shards};
use std::sync::Arc;

/// One kind of request a tenant can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Native `add` codelet with per-request arguments — every request
    /// is distinct, so this exercises the cold native-invocation path.
    Add,
    /// FixVM guest `fib(n)` with `n` cycling below this bound; repeats
    /// hit the memoization cache, so a fib tenant mixes cold and warm.
    Fib {
        /// Exclusive upper bound on the cycled `n` (≥ 1).
        max_n: u64,
    },
    /// `count-string` over one of the tenant's corpus shards (the Fig. 8b
    /// map task, served one at a time). Request `seq` is instance
    /// `seq % 64`: the needle cycles over 64 per tenant, and the shard
    /// over the tenant's four, so repeats hit the memoization cache.
    Wordcount {
        /// Size of each stored corpus shard, in bytes.
        shard_bytes: usize,
    },
    /// The SeBS `dynamic-html` port through Flatware, with the username
    /// cycling over a small user population (warm after first render).
    SebsHtml {
        /// Number of distinct usernames to cycle through (≥ 1).
        users: u64,
    },
}

impl RequestKind {
    /// Modeled service time of a request, in µs of virtual time: a warm
    /// (memoized) repeat pays the Fig. 7a warm-memoized path, independent
    /// of the procedure; a cold one pays its kind's execution. Both are
    /// read from the workspace-wide calibration table
    /// ([`fix_core::calibration::SERVICE_COSTS`]) — the same table
    /// `ClusterClient` charges its flat per-task compute cost from, so
    /// the serving clock and the cluster clock share one source of
    /// truth. Calibration constants, not measurements: they anchor the
    /// virtual clock that makes latency tables reproducible.
    pub fn service_us(&self, warm: bool) -> Micros {
        let c = fix_core::calibration::SERVICE_COSTS;
        if warm {
            return c.warm_hit_us;
        }
        match self {
            RequestKind::Add => c.native_cold_us,
            RequestKind::Fib { max_n } => c.vm_start_us + c.vm_step_us * max_n,
            RequestKind::Wordcount { shard_bytes } => {
                c.wordcount_base_us + (*shard_bytes as Micros) / c.wordcount_bytes_per_us
            }
            RequestKind::SebsHtml { .. } => c.sebs_html_cold_us,
        }
    }

    /// Which distinct request `seq` is within its tenant: two requests
    /// of one tenant and kind with equal instances are the same thunk,
    /// and [`RequestFactory::mint`] builds a request from its instance
    /// alone. `None` for [`Add`](RequestKind::Add), whose every request
    /// is distinct.
    pub fn instance(&self, seq: u64) -> Option<u64> {
        match *self {
            RequestKind::Add => None,
            RequestKind::Fib { max_n } => Some(seq % max_n.max(1)),
            RequestKind::Wordcount { .. } => Some(seq % WORDCOUNT_NEEDLES),
            RequestKind::SebsHtml { users } => Some(seq % users.max(1)),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            RequestKind::Add => "add",
            RequestKind::Fib { .. } => "fib",
            RequestKind::Wordcount { .. } => "wordcount",
            RequestKind::SebsHtml { .. } => "sebs-html",
        }
    }
}

/// A request's dispatch tier, decided once by [`TenantQueues`] on the
/// kernel's virtual clock. The node scheduler never sees it: a batch is
/// submitted after the queue has put it in order.
///
/// Ordered: `Latency < Normal < Batch`, so `a < b` means `a` is served
/// before `b` under contention.
///
/// [`TenantQueues`]: crate::queue::TenantQueues
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic: dispatched before every other tier.
    Latency,
    /// The default tier.
    #[default]
    Normal,
    /// Throughput traffic: served only when higher tiers are idle.
    Batch,
}

impl Priority {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Latency => "latency",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }
}

/// A tenant's service-level objective class: which [`Priority`] tier
/// its traffic dispatches at, and (optionally) how long a request may
/// wait before it is *expired* rather than served.
///
/// The default class — [`Priority::Normal`], no deadline — reproduces
/// plain weighted-fair serving exactly, which is what keeps the
/// no-SLO serving tables bit-identical to their pre-SLO form within a
/// run. With classes configured, dispatch is two-level: strict priority
/// across tiers, earliest-deadline-first within a tier, and
/// deficit-round-robin only among tenants the first two levels cannot
/// tell apart (see [`TenantQueues`](crate::queue::TenantQueues)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloClass {
    /// The dispatch tier ([`Priority::Latency`] preempts
    /// [`Priority::Normal`] preempts [`Priority::Batch`]).
    pub priority: Priority,
    /// Relative deadline, in virtual µs from arrival. A request still
    /// queued when its deadline passes is expired at dispatch, on the
    /// virtual clock, instead of served — the platform withdraws dead
    /// work before submitting it rather than burning drivers on it.
    pub deadline_us: Option<Micros>,
}

impl SloClass {
    /// A latency-tier class with a relative deadline.
    pub fn latency(deadline_us: Micros) -> SloClass {
        SloClass {
            priority: Priority::Latency,
            deadline_us: Some(deadline_us),
        }
    }

    /// A batch-tier class: served only when other tiers are idle, never
    /// expired.
    pub fn batch() -> SloClass {
        SloClass {
            priority: Priority::Batch,
            deadline_us: None,
        }
    }
}

/// One tenant of the serving layer.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (also the table row key).
    pub name: String,
    /// Weighted-fair share of driver capacity relative to tenants in
    /// the same SLO tier (tiers themselves are strict-priority).
    pub weight: u32,
    /// The tenant's arrival process.
    pub arrivals: ArrivalProcess,
    /// Weighted request mix; kinds are drawn per-request with these
    /// relative weights (deterministically, from the tenant's seed).
    pub mix: Vec<(RequestKind, u32)>,
    /// The tenant's SLO class (default: normal tier, no deadline).
    pub slo: SloClass,
}

impl TenantSpec {
    /// A tenant issuing only `kind`.
    pub fn uniform_mix(
        name: &str,
        weight: u32,
        arrivals: ArrivalProcess,
        kind: RequestKind,
    ) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight,
            arrivals,
            mix: vec![(kind, 1)],
            slo: SloClass::default(),
        }
    }

    /// Sets the tenant's SLO class.
    pub fn with_slo(mut self, slo: SloClass) -> Self {
        self.slo = slo;
        self
    }
}

/// One tenant of a serving run, by where its arrivals come from. Plain
/// [`serve`](crate::serve) runs are all [`Open`](Tenant::Open); the
/// adaptive control plane ([`adaptive_serve`](crate::adaptive_serve))
/// adds the two feedback-driven sources.
#[derive(Debug, Clone)]
pub enum Tenant {
    /// A plain open-loop tenant (any [`ArrivalProcess`], including the
    /// hostile `FlashCrowd` shape).
    Open(TenantSpec),
    /// A closed-loop client population.
    Closed(ClosedLoopSpec),
    /// An SNF streaming pipeline.
    Snf(SnfSpec),
}

impl Tenant {
    /// The tenant's display name.
    pub fn name(&self) -> &str {
        match self {
            Tenant::Open(t) => &t.name,
            Tenant::Closed(t) => &t.name,
            Tenant::Snf(t) => &t.name,
        }
    }

    /// The tenant's weighted-fair share.
    pub fn weight(&self) -> u32 {
        match self {
            Tenant::Open(t) => t.weight,
            Tenant::Closed(t) => t.weight,
            Tenant::Snf(t) => t.weight,
        }
    }

    /// The tenant's SLO class.
    pub fn slo(&self) -> SloClass {
        match self {
            Tenant::Open(t) => t.slo,
            Tenant::Closed(t) => t.slo,
            Tenant::Snf(t) => t.slo,
        }
    }

    /// The weighted request mix its requests are drawn from (empty for
    /// an SNF pipeline, whose folds are minted by
    /// [`SnfPipeline`](crate::snf::SnfPipeline) instead).
    pub fn mix(&self) -> &[(RequestKind, u32)] {
        match self {
            Tenant::Open(t) => &t.mix,
            Tenant::Closed(t) => &t.mix,
            Tenant::Snf(_) => &[],
        }
    }
}

/// Per-backend request factory: registers each tenant's procedures and
/// data once, then mints the thunk for any `(tenant, seq, kind)`.
///
/// Thunks are content addressed, so the factory is deterministic by
/// construction: the same configuration mints bit-identical handles on
/// every backend — which is what lets `figures trace` and
/// `runs_identically_on_the_cluster_backend` compare backends under
/// identical traffic.
pub struct RequestFactory {
    add_proc: Handle,
    fib_mod: Handle,
    fib_add_mod: Handle,
    count_proc: Handle,
    html_proc: Handle,
    sebs_root: Handle,
    /// Per-tenant corpus shards (lazily sized by the first Wordcount
    /// kind in the tenant's mix; one shard set per tenant).
    shards: Vec<Vec<Handle>>,
    limits: ResourceLimits,
}

/// Shards stored per wordcount tenant (requests cycle across them).
const SHARDS_PER_TENANT: usize = 4;

/// Needles a wordcount tenant cycles over: its requests' instances.
const WORDCOUNT_NEEDLES: u64 = 64;

// The instance must determine the shard as well as the needle.
const _: () = assert!(WORDCOUNT_NEEDLES.is_multiple_of(SHARDS_PER_TENANT as u64));

impl RequestFactory {
    /// Registers procedures and stores per-tenant data on `rt`.
    pub fn install<R: InvocationApi>(
        rt: &R,
        tenants: &[TenantSpec],
        seed: u64,
    ) -> Result<RequestFactory> {
        Self::install_mixes(rt, tenants.iter().map(|t| t.mix.as_slice()), seed)
    }

    /// [`install`](Self::install) from the tenants' request mixes alone
    /// — all the factory reads of a tenant.
    pub(crate) fn install_mixes<'a, R: InvocationApi>(
        rt: &R,
        mixes: impl Iterator<Item = &'a [(RequestKind, u32)]>,
        seed: u64,
    ) -> Result<RequestFactory> {
        let add_proc = rt.register_native(
            "serve/add",
            Arc::new(|ctx| {
                let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
                let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
                ctx.host
                    .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
            }),
        );
        let fib_mod = guests::install_fib(rt)?;
        let fib_add_mod = guests::install_add(rt)?;
        let count_proc = register_count_string(rt);
        let html_proc = register_dynamic_html(rt);
        let sebs_root = build_sebs_fs(
            rt,
            &[("inbox.txt".to_string(), b"serve-layer fixture".to_vec())],
        )?;
        let mut shards = Vec::new();
        for (i, mix) in mixes.enumerate() {
            let shard_bytes = mix.iter().find_map(|(k, _)| match k {
                RequestKind::Wordcount { shard_bytes } => Some(*shard_bytes),
                _ => None,
            });
            shards.push(match shard_bytes {
                Some(bytes) => store_shards(
                    rt,
                    crate::loadgen::tenant_seed(seed, i, 7),
                    SHARDS_PER_TENANT,
                    bytes,
                ),
                None => Vec::new(),
            });
        }
        Ok(RequestFactory {
            add_proc,
            fib_mod,
            fib_add_mod,
            count_proc,
            html_proc,
            sebs_root,
            shards,
            limits: ResourceLimits::default_limits(),
        })
    }

    /// Builds the thunk for request `seq` of `tenant` with `kind`, from
    /// the request's [`instance`](RequestKind::instance) alone.
    pub fn mint<R: InvocationApi>(
        &self,
        rt: &R,
        tenant: usize,
        seq: u64,
        kind: RequestKind,
    ) -> Result<Handle> {
        let instance = kind.instance(seq).unwrap_or(seq);
        match kind {
            RequestKind::Add => rt.apply(
                self.limits,
                self.add_proc,
                &[
                    rt.put_blob(Blob::from_u64(instance)),
                    rt.put_blob(Blob::from_u64((tenant as u64) << 32 | 1)),
                ],
            ),
            RequestKind::Fib { .. } => rt.apply(
                self.limits,
                self.fib_mod,
                &[self.fib_add_mod, rt.put_blob(Blob::from_u64(instance))],
            ),
            RequestKind::Wordcount { .. } => {
                let shard = self.shards[tenant][instance as usize % SHARDS_PER_TENANT];
                let needle =
                    rt.put_blob(Blob::from_slice(format!("t{tenant}w{instance}").as_bytes()));
                rt.apply(self.limits, self.count_proc, &[shard, needle])
            }
            RequestKind::SebsHtml { .. } => {
                let argv = rt.put_blob(flatware::encode_argv(&[
                    "dynamic-html",
                    &format!("tenant{tenant}-user{instance}"),
                    "4",
                ]));
                rt.apply(self.limits, self.html_proc, &[argv, self.sebs_root])
            }
        }
    }
}

/// Draws the kind of request `seq` from `mix` (weighted, deterministic
/// in `(seed, seq)` alone so admission replay and real execution agree).
pub fn draw_kind(mix: &[(RequestKind, u32)], seed: u64, seq: u64) -> RequestKind {
    assert!(!mix.is_empty(), "tenant mix must not be empty");
    let total: u64 = mix.iter().map(|(_, w)| *w as u64).sum();
    assert!(total > 0, "tenant mix weights must not all be zero");
    // Stateless splittable draw: hash (seed, seq) to a weight slot.
    let mut slot = splitmix64_mix(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % total;
    for (kind, w) in mix {
        if slot < *w as u64 {
            return *kind;
        }
        slot -= *w as u64;
    }
    mix[mix.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::Evaluator;
    use fixpoint::Runtime;

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "mixed".into(),
                weight: 2,
                arrivals: ArrivalProcess::Uniform { period_us: 100 },
                mix: vec![
                    (RequestKind::Add, 3),
                    (RequestKind::Fib { max_n: 10 }, 1),
                    (RequestKind::Wordcount { shard_bytes: 4096 }, 1),
                    (RequestKind::SebsHtml { users: 4 }, 1),
                ],
                slo: SloClass::default(),
            },
            TenantSpec::uniform_mix(
                "adds",
                1,
                ArrivalProcess::Uniform { period_us: 50 },
                RequestKind::Add,
            ),
        ]
    }

    /// One of each kind, as tenant 0 of [`tenants`] draws them.
    const KINDS: [RequestKind; 4] = [
        RequestKind::Add,
        RequestKind::Fib { max_n: 10 },
        RequestKind::Wordcount { shard_bytes: 4096 },
        RequestKind::SebsHtml { users: 4 },
    ];

    #[test]
    fn every_kind_mints_an_evaluable_thunk() {
        let rt = Runtime::builder().build();
        let specs = tenants();
        let f = RequestFactory::install(&rt, &specs, 5).unwrap();
        for kind in KINDS {
            let t = f.mint(&rt, 0, 3, kind).unwrap();
            rt.eval(t).unwrap_or_else(|e| panic!("{kind:?}: {e:?}"));
        }
    }

    #[test]
    fn equal_instances_and_only_they_mint_equal_handles() {
        let rt = Runtime::builder().build();
        let f = RequestFactory::install(&rt, &tenants(), 5).unwrap();
        for kind in KINDS {
            let minted: Vec<(Option<u64>, Handle)> = (0..256)
                .map(|seq| (kind.instance(seq), f.mint(&rt, 0, seq, kind).unwrap()))
                .collect();
            for (i, a) in minted.iter().enumerate() {
                for b in &minted[..i] {
                    // No instance (an add): every request is distinct.
                    let same = a.0.is_some() && a.0 == b.0;
                    assert_eq!(same, a.1 == b.1, "{kind:?}: {a:?} vs {b:?}");
                }
            }
        }
        assert_eq!(RequestKind::Add.instance(7), None);
    }

    #[test]
    fn minting_is_deterministic_across_backends() {
        let specs = tenants();
        let rt = Runtime::builder().build();
        let cc = fix_cluster::ClusterClient::builder().build().unwrap();
        let fa = RequestFactory::install(&rt, &specs, 5).unwrap();
        let fb = RequestFactory::install(&cc, &specs, 5).unwrap();
        for seq in 0..8 {
            let kind = draw_kind(&specs[0].mix, 99, seq);
            assert_eq!(
                fa.mint(&rt, 0, seq, kind).unwrap(),
                fb.mint(&cc, 0, seq, kind).unwrap(),
                "content addressing must make minting backend-agnostic"
            );
        }
    }

    #[test]
    fn draw_kind_respects_weights_roughly() {
        let mix = vec![(RequestKind::Add, 9), (RequestKind::Fib { max_n: 4 }, 1)];
        let adds = (0..1000)
            .filter(|&s| draw_kind(&mix, 1, s) == RequestKind::Add)
            .count();
        assert!((820..980).contains(&adds), "{adds} adds of 1000");
    }

    #[test]
    fn service_model_orders_kinds_sensibly() {
        let add = RequestKind::Add;
        let html = RequestKind::SebsHtml { users: 4 };
        assert!(add.service_us(false) < html.service_us(false));
        assert!(add.service_us(true) < add.service_us(false));
    }
}
