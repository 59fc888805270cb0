//! `fix-billing`: pay-for-results pricing for Fix (paper §6).
//!
//! Today's serverless platforms are "pay-for-effort": the customer is
//! billed for every millisecond a function occupies its slice, idle or
//! not — so bad placement, slow storage, and noisy neighbors all show
//! up on the *customer's* bill, and the provider has no direct
//! incentive to schedule better. Because Fix invocations declare their
//! data footprint up front and run to completion without blocking, a
//! provider can instead quote:
//!
//! * an **upfront** price, computable from the invocation description
//!   alone (input footprint bytes + RAM reservation), and
//! * a **runtime** price over counters that are the invocation's own
//!   fault — instructions retired and L1/L2 cache-miss penalties, but
//!   *not* L3 misses (a neighbor can cause those) and *not* wall time —
//!   discounted for far deadlines that let the provider spread load.
//!
//! Modules:
//!
//! * [`money`] — exact fixed-point amounts (picodollars);
//! * [`price`] — the provider's published [`PriceSheet`];
//! * [`perf`] — a deterministic analytic stand-in for hardware perf
//!   counters, with a noisy-neighbor mode;
//! * [`usage`] — per-invocation metering ([`meter_eval`] for real
//!   runs on a `fixpoint::Runtime`);
//! * [`bill`](mod@bill) — itemized [`Invoice`]s under both models;
//! * [`experiment`] — the noisy-neighbor and scheduling-incentive
//!   experiments (the latter re-runs Fig. 8a on the simulated cluster
//!   under both binding policies and compares aggregate bills).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bill;
pub mod experiment;
pub mod money;
pub mod perf;
pub mod price;
pub mod usage;

pub use bill::{bill_effort, bill_results, Invoice, LineItem, Model};
pub use experiment::{
    noisy_neighbor, scheduling_incentive, NoisyNeighborOutcome, SchedulingIncentiveOutcome,
};
pub use money::Money;
pub use perf::{project, CacheSpec, Contention, PerfSample};
pub use price::PriceSheet;
pub use usage::{meter_eval, InvocationUsage};

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::{InvocationApi, ObjectApi};

    /// End-to-end: meter a real VM evaluation, bill it both ways.
    #[test]
    fn real_run_bills_under_both_models() {
        let rt = fixpoint::Runtime::builder().build();
        let neg = rt
            .install_vm_module(
                r#"
                func apply args=0 locals=0
                  const 0
                  const 2
                  tree.get
                  const 0
                  blob.read_u64
                  const 0
                  sub
                  blob.create_u64
                  ret_handle
                end
                "#,
            )
            .unwrap();
        let x = rt.put_blob(fix_core::data::Blob::from_u64(7));
        let thunk = rt
            .apply(
                fix_core::limits::ResourceLimits::new(1 << 20, 1 << 20),
                neg,
                &[x],
            )
            .unwrap();
        let (_, usage) = meter_eval(&rt, thunk).unwrap();
        let price = PriceSheet::default();
        let effort = bill_effort(&usage, &price);
        let results = bill_results(&usage, &price);
        // A microsecond-scale run on a 1 MiB reservation: both bills are
        // tiny but well-formed and itemized.
        assert_eq!(effort.items.len(), 1);
        assert_eq!(results.items.len(), 6);
        assert!(results
            .items
            .iter()
            .any(|i| i.label.contains("instructions") && i.quantity > 0));
    }
}
