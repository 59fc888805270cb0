//! The shared service-cost calibration table.
//!
//! Two simulating layers charge modeled time for work they do not
//! really measure: the cluster simulator charges a flat compute
//! cost per derived task, and the serving layer's virtual clock charges
//! per-kind cold/warm service times. These constants used to live in
//! two places (the cluster client's builder and
//! `fix_serve::RequestKind`'s cold prices) and could drift apart;
//! this module is the single table both consume.
//!
//! The values are *calibration constants, not measurements*: they
//! anchor virtual clocks so that latency tables and simulated makespans
//! are reproducible bit for bit. Their magnitudes, however, are now
//! **derived from measured procedure runtimes** on the real
//! `fixpoint::Runtime` (release mode): the `figures calibrate`
//! subcommand times the warm/cold path of every request kind and
//! prints measured-vs-table rows, and a standing test in
//! `fix_bench::calibrate` pins each constant to within an order of
//! magnitude of measurement — closing the ROADMAP's "hand-set
//! constants" item. The paper's Fig. 7a scale (native invocation
//! ≈ 2.9 µs, warm-memoized ≈ 0.8 µs) agrees with those measurements.
//! Changing any value changes every serving table and every simulated
//! makespan downstream, deterministically.

/// Modeled per-kind service costs, in virtual µs (one shared instance:
/// [`SERVICE_COSTS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibration {
    /// Cold native-codelet invocation (the `add` request kind): VM-free
    /// dispatch plus argument loads.
    pub native_cold_us: u64,
    /// FixVM guest startup: module decode plus interpreter spin-up.
    pub vm_start_us: u64,
    /// Per recursion step of the `fib` guest (each step is one memoized
    /// sub-invocation).
    pub vm_step_us: u64,
    /// `count-string` shard scan: fixed per-request overhead…
    pub wordcount_base_us: u64,
    /// …plus one µs per this many corpus bytes scanned.
    pub wordcount_bytes_per_us: u64,
    /// The SeBS `dynamic-html` render through Flatware (template fetch,
    /// render loop, filesystem traversal).
    pub sebs_html_cold_us: u64,
    /// A warm repeat of any kind: the Fig. 7a warm-memoized path,
    /// independent of the procedure.
    pub warm_hit_us: u64,
    /// One SNF (serverless-network-function) packet-batch step: fold a
    /// batch of packets into a flow-state shard through a native
    /// codelet, chained on the previous state handle. A batch that has
    /// to catch up over `k` unprocessed predecessor batches charges
    /// `k × snf_step_us` — the long-memoized-dependency-chain cost the
    /// adaptive-serving scenario stresses. Priced like a native
    /// invocation plus the argument force of the previous state.
    pub snf_step_us: u64,
    /// The flat compute charge per simulated cluster task, used when a
    /// derived dataflow graph carries no per-kind information (the
    /// graph deriver sees thunks, not request kinds). Sits mid-range
    /// across the measured kind costs — between the cheapest cold path
    /// ([`native_cold_us`](Self::native_cold_us)) and the dearest (a
    /// deep [`vm_step_us`](Self::vm_step_us) guest chain).
    pub task_compute_us: u64,
}

/// The one calibration every simulating layer shares. Magnitudes match
/// the `figures calibrate` measurements (see the module docs).
pub const SERVICE_COSTS: Calibration = Calibration {
    native_cold_us: 3,
    vm_start_us: 30,
    vm_step_us: 13,
    wordcount_base_us: 8,
    wordcount_bytes_per_us: 512,
    sebs_html_cold_us: 8,
    warm_hit_us: 1,
    snf_step_us: 5,
    task_compute_us: 40,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_is_cheapest_and_flat_charge_is_mid_range() {
        let c = SERVICE_COSTS;
        assert!(c.warm_hit_us < c.native_cold_us);
        assert!(c.native_cold_us < c.sebs_html_cold_us);
        // An SNF step is a native fold plus the previous-state force:
        // dearer than a bare native call, cheaper than a cold render.
        assert!((c.native_cold_us..=c.sebs_html_cold_us).contains(&c.snf_step_us));
        // The flat per-task charge sits inside the span of modeled kind
        // costs: dearer than any single native invocation, cheaper than
        // a deep guest chain.
        let dearest_kind = c.vm_start_us + 8 * c.vm_step_us;
        assert!(
            (c.native_cold_us..=dearest_kind).contains(&c.task_compute_us),
            "the flat per-task charge must sit inside the per-kind range"
        );
    }
}
