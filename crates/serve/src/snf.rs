//! SNF-style streaming tenants: per-flow state folds chained on the
//! previous state handle.
//!
//! A serverless network function is not a bag of independent requests:
//! packet batch `k` of a flow folds into the state produced by batch
//! `k−1`. In Fix terms each batch is an application thunk whose first
//! argument is the *strict-encoded previous state* — the engine must
//! force the predecessor chain before the fold runs, which is exactly
//! the externally-visible dependency structure the paper's SNF case
//! study stresses. Two consequences the adaptive scenario leans on:
//!
//! * **Skipping is not free.** If the platform sheds batches `k..k+j`,
//!   batch `k+j+1` does not get cheaper — it must catch up over every
//!   unprocessed packet range, so its modeled service is
//!   `(j+1) × snf_step_us` (the calibrated
//!   [`snf_step_us`](fix_core::calibration::Calibration::snf_step_us)
//!   per folded batch). Backlog deferred is backlog owed.
//! * **Identity is content-addressed.** The thunk for a batch is a pure
//!   function of (flow, folded packet range, previous state), so every
//!   backend mints bit-identical handles and the serving tables stay
//!   backend-independent.

use crate::loadgen::Micros;
use crate::tenant::SloClass;
use fix_core::api::InvocationApi;
use fix_core::data::Blob;
use fix_core::error::Result;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use std::sync::Arc;

/// One SNF streaming tenant: `flows` flow-state shards, each offered
/// one packet batch per period.
#[derive(Debug, Clone)]
pub struct SnfSpec {
    /// Display name (the table row key).
    pub name: String,
    /// Weighted-fair share within the tenant's SLO tier.
    pub weight: u32,
    /// Flow-state shards (independent chains).
    pub flows: usize,
    /// Per-flow packet-batch period, µs: flow `f` offers batch `k` at
    /// `k × period + f × period / flows` (flows staggered across the
    /// period so the tenant's aggregate rate is smooth).
    pub batch_period_us: Micros,
    /// The tenant's SLO class. Leave the deadline off for a
    /// never-shed-never-expire pipeline (the streaming state must not
    /// silently lose folds); give it a deadline to let admission
    /// trade state freshness against catch-up cost.
    pub slo: SloClass,
}

impl SnfSpec {
    /// The tenant's deterministic arrival instants over the horizon,
    /// sorted. The merged timeline assigns sequence numbers in this
    /// order, so arrival `seq` is batch `seq / flows` of flow
    /// `seq % flows` — the inverse mapping [`SnfPipeline::flow_of`] and
    /// [`SnfPipeline::batch_of`] rely on.
    pub fn arrival_times(&self, duration_us: Micros) -> Vec<Micros> {
        let mut out = Vec::new();
        let stagger = self.batch_period_us / self.flows.max(1) as Micros;
        'outer: for k in 0.. {
            for f in 0..self.flows as Micros {
                let t = k * self.batch_period_us + f * stagger;
                if t >= duration_us {
                    break 'outer;
                }
                out.push(t);
            }
        }
        out
    }
}

/// Per-flow chain state.
struct FlowState {
    /// The first argument of the *next* fold: the initial-state blob,
    /// or the strict-encoded thunk of the last admitted batch.
    arg: Handle,
    /// Next packet-batch index the chain has not folded yet (batches
    /// below it are admitted; batches from it up to the one being
    /// minted are the catch-up range).
    next_batch: u64,
}

/// The per-backend SNF request factory: one registered fold procedure
/// plus the live chain head of every flow.
pub struct SnfPipeline {
    proc: Handle,
    limits: ResourceLimits,
    init: Handle,
    flows: Vec<FlowState>,
}

impl SnfPipeline {
    /// Registers the fold codelet on `rt` and initializes `flows`
    /// chains from the zero state.
    pub fn install<R: InvocationApi>(rt: &R, flows: usize) -> SnfPipeline {
        // The fold: new_state = prev_state + packets_in_range. The
        // packet blob carries (flow, from, to) so the thunk's identity
        // covers exactly the range it folds — and a catch-up fold over
        // a wider range is a *different* thunk than the never-shed one.
        let proc = rt.register_native(
            "adapt/snf-fold",
            Arc::new(|ctx| {
                let prev = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
                let packets = ctx.arg_blob(1)?;
                let b = packets.as_slice();
                let word = |i: usize| {
                    b.get(i * 8..i * 8 + 8)
                        .and_then(|w| w.try_into().ok())
                        .map(u64::from_le_bytes)
                        .unwrap_or(0)
                };
                let (from, to) = (word(1), word(2));
                let folded = to.saturating_sub(from) + 1;
                ctx.host
                    .create_blob(prev.wrapping_add(folded).to_le_bytes().to_vec())
            }),
        );
        let init = rt.put_blob(Blob::from_u64(0));
        SnfPipeline {
            proc,
            limits: ResourceLimits::default_limits(),
            init,
            flows: (0..flows)
                .map(|_| FlowState {
                    arg: init,
                    next_batch: 0,
                })
                .collect(),
        }
    }

    /// The flow an arrival sequence number belongs to.
    pub fn flow_of(&self, seq: u64) -> usize {
        (seq % self.flows.len().max(1) as u64) as usize
    }

    /// The packet-batch index of an arrival sequence number.
    pub fn batch_of(&self, seq: u64) -> u64 {
        seq / self.flows.len().max(1) as u64
    }

    /// Batches the fold for (`flow`, `batch`) would cover: everything
    /// the chain has not folded yet, through `batch`. 1 when the chain
    /// is caught up; larger after sheds (the catch-up debt).
    pub fn fold_span(&self, flow: usize, batch: u64) -> u64 {
        batch + 1 - self.flows[flow].next_batch
    }

    /// Modeled service of the fold for (`flow`, `batch`), in virtual
    /// µs: the calibrated per-batch step times the catch-up span.
    pub fn service_us(&self, flow: usize, batch: u64) -> Micros {
        fix_core::calibration::SERVICE_COSTS.snf_step_us * self.fold_span(flow, batch)
    }

    /// Mints the fold thunk for (`flow`, `batch`): the chain head
    /// (strict-encoded previous state) applied to the pending packet
    /// range. Does not advance the chain — call
    /// [`admit`](Self::admit) once the request is actually admitted.
    pub fn mint<R: InvocationApi>(&self, rt: &R, flow: usize, batch: u64) -> Result<Handle> {
        let f = &self.flows[flow];
        let mut packets = Vec::with_capacity(24);
        packets.extend_from_slice(&(flow as u64).to_le_bytes());
        packets.extend_from_slice(&f.next_batch.to_le_bytes());
        packets.extend_from_slice(&batch.to_le_bytes());
        let range = rt.put_blob(Blob::from_vec(packets));
        rt.apply(self.limits, self.proc, &[f.arg, range])
    }

    /// Advances `flow`'s chain head past `batch`: the next fold will
    /// chain on `thunk`'s strict encode (forcing this fold — and,
    /// transitively, the whole admitted prefix — before it runs).
    pub fn admit(&mut self, flow: usize, batch: u64, thunk: Handle) -> Result<()> {
        let f = &mut self.flows[flow];
        f.arg = thunk.strict()?;
        f.next_batch = batch + 1;
        Ok(())
    }

    /// Resets every chain to the zero state (used by determinism tests
    /// re-running one pipeline).
    pub fn reset(&mut self) {
        for f in &mut self.flows {
            f.arg = self.init;
            f.next_batch = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::{Evaluator, ObjectApi};
    use fixpoint::Runtime;

    #[test]
    fn arrivals_stagger_flows_across_the_period() {
        let s = SnfSpec {
            name: "snf".into(),
            weight: 1,
            flows: 4,
            batch_period_us: 100,
            slo: SloClass::default(),
        };
        let times = s.arrival_times(250);
        assert_eq!(times, vec![0, 25, 50, 75, 100, 125, 150, 175, 200, 225]);
        // seq ↔ (flow, batch) round-trips under the staggered order.
        let rt = Runtime::builder().build();
        let p = SnfPipeline::install(&rt, 4);
        assert_eq!((p.flow_of(0), p.batch_of(0)), (0, 0));
        assert_eq!((p.flow_of(5), p.batch_of(5)), (1, 1));
        assert_eq!((p.flow_of(11), p.batch_of(11)), (3, 2));
    }

    #[test]
    fn chained_folds_force_the_admitted_prefix() {
        let rt = Runtime::builder().build();
        let mut p = SnfPipeline::install(&rt, 2);
        // Flow 0 admits batches 0 and 1; each fold covers one batch.
        for batch in 0..2 {
            assert_eq!(p.fold_span(0, batch), 1);
            let t = p.mint(&rt, 0, batch).unwrap();
            p.admit(0, batch, t).unwrap();
        }
        // Batch 4 after shedding 2 and 3: a catch-up fold over 3
        // batches, priced accordingly…
        assert_eq!(p.fold_span(0, 4), 3);
        assert_eq!(
            p.service_us(0, 4),
            3 * fix_core::calibration::SERVICE_COSTS.snf_step_us
        );
        let t = p.mint(&rt, 0, 4).unwrap();
        p.admit(0, 4, t).unwrap();
        // …and evaluating the head forces the whole chain: 5 batches
        // folded in total, one packet range each.
        let out = rt.eval(t).unwrap();
        let blob = rt.get_blob(out).unwrap();
        assert_eq!(blob.as_u64(), Some(5));
        // Flow 1 is an independent chain, still at its initial state.
        assert_eq!(p.fold_span(1, 0), 1);
    }

    #[test]
    fn minting_is_deterministic_across_backends() {
        let rt = Runtime::builder().build();
        let cc = fix_cluster::ClusterClient::builder().build().unwrap();
        let mut pa = SnfPipeline::install(&rt, 2);
        let mut pb = SnfPipeline::install(&cc, 2);
        for batch in 0..4 {
            let a = pa.mint(&rt, 1, batch).unwrap();
            let b = pb.mint(&cc, 1, batch).unwrap();
            assert_eq!(a, b, "content addressing is backend-agnostic");
            // Skip admitting batch 2 on both: the catch-up thunk for
            // batch 3 must also agree.
            if batch != 2 {
                pa.admit(1, batch, a).unwrap();
                pb.admit(1, batch, b).unwrap();
            }
        }
        pa.reset();
        assert_eq!(pa.fold_span(1, 0), 1);
    }
}
