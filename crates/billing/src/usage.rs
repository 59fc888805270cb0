//! Metered usage for one invocation: what the provider measures and
//! what each billing model reads from it.

use crate::perf::PerfSample;
use fix_core::api::{Evaluator, ObjectApi};
use fix_core::error::Result;
use fix_core::handle::Handle;
use fix_core::invocation::application_header;
use fixpoint::Runtime;
use std::sync::atomic::Ordering;

/// Everything metered for one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvocationUsage {
    /// Input data footprint in bytes (known *before* launch: the
    /// minimum repository — this is what makes the upfront component
    /// computable by the client, too).
    pub input_bytes: u64,
    /// RAM reservation in bytes (from the invocation's resource limits).
    pub ram_reserved_bytes: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses (metered but never billed under pay-for-results).
    pub l3_misses: u64,
    /// Wall-clock occupancy of the slice, in µs — what pay-for-effort
    /// bills, *including* time spent waiting on I/O or neighbors.
    pub wall_us: u64,
    /// How long the provider may delay the result (0 = due now).
    pub deadline_slack_us: u64,
}

impl InvocationUsage {
    /// Combines a perf sample with the invocation-shape fields.
    pub fn from_perf(
        input_bytes: u64,
        ram_reserved_bytes: u64,
        sample: PerfSample,
        deadline_slack_us: u64,
    ) -> InvocationUsage {
        InvocationUsage {
            input_bytes,
            ram_reserved_bytes,
            instructions: sample.instructions,
            l1_misses: sample.l1_misses,
            l2_misses: sample.l2_misses,
            l3_misses: sample.l3_misses,
            wall_us: sample.wall_us,
            deadline_slack_us,
        }
    }
}

/// Meters a real evaluation on a [`Runtime`]: evaluates `thunk` and
/// returns the result together with usage derived from the run.
///
/// The footprint is computed from the thunk (the same analysis the
/// scheduler uses pre-launch); RAM comes from the invocation's resource
/// limits; instructions come from guest fuel (exact for FixVM codelets;
/// native codelets retire no guest fuel and meter as zero — the
/// simulation-based experiments use [`InvocationUsage::from_perf`]
/// instead). Cache counters need hardware and stay zero here.
pub fn meter_eval(rt: &Runtime, thunk: Handle) -> Result<(Handle, InvocationUsage)> {
    let fp = rt.footprint(thunk)?;
    let def = rt.get_tree(thunk.thunk_definition()?)?;
    let (limits, _) = application_header(&def)?;
    let fuel = |rt: &Runtime| rt.engine().stats.fuel_used.load(Ordering::Relaxed);
    let start = std::time::Instant::now();
    let fuel_before = fuel(rt);
    let result = rt.eval(thunk)?;
    let usage = InvocationUsage {
        input_bytes: fp.total_bytes,
        ram_reserved_bytes: limits.memory_bytes,
        instructions: fuel(rt) - fuel_before,
        l1_misses: 0,
        l2_misses: 0,
        l3_misses: 0,
        wall_us: (start.elapsed().as_micros() as u64).max(1),
        deadline_slack_us: 0,
    };
    Ok((result, usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::InvocationApi;
    use fix_core::data::Blob;
    use fix_core::limits::ResourceLimits;

    #[test]
    fn meter_vm_invocation_captures_fuel_and_footprint() {
        let rt = Runtime::builder().build();
        let add = rt
            .install_vm_module(
                r#"
                func apply args=0 locals=0
                  const 0
                  const 2
                  tree.get
                  const 0
                  blob.read_u64
                  const 0
                  const 3
                  tree.get
                  const 0
                  blob.read_u64
                  add
                  blob.create_u64
                  ret_handle
                end
                "#,
            )
            .unwrap();
        // A large, non-literal arg so the footprint is visible.
        let a = rt.put_blob(Blob::from_u64(40));
        let b = rt.put_blob(Blob::from_u64(2));
        let limits = ResourceLimits::new(1 << 20, 1 << 20);
        let thunk = rt.apply(limits, add, &[a, b]).unwrap();
        let (out, usage) = meter_eval(&rt, thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 42);
        assert!(usage.instructions > 0, "VM fuel must be metered");
        assert_eq!(usage.ram_reserved_bytes, 1 << 20);
        assert!(usage.input_bytes > 0, "module blob is in the footprint");
        assert!(usage.wall_us >= 1);
    }
}
