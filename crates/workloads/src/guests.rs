//! Shared FixVM guest fixtures (the paper's Fig. 3 programs).
//!
//! The `fib`/`add` assembler sources live once, in
//! `tests/guests/*.fvm`, and are embedded here so every example, test,
//! and bench uses the same modules instead of repeating inline strings
//! (and so their content-addressed handles agree everywhere). Install
//! them on any backend with [`install_fib`] / [`install_add`].

use fix_core::api::InvocationApi;
use fix_core::error::Result;
use fix_core::handle::Handle;

/// `fib.fvm`: recursive Fibonacci over Fix thunks — input
/// `[rlimits, fib, add, n]`, returns `n` for `n < 2` and otherwise an
/// application of `add` to two strictly-encoded recursive calls
/// (memoization collapses the exponential call tree).
pub const FIB_FVM: &str = include_str!("../../../tests/guests/fib.fvm");

/// `add.fvm`: the trivial add codelet of Fig. 7a — input
/// `[rlimits, add, a, b]`, returns the u64 sum.
pub const ADD_FVM: &str = include_str!("../../../tests/guests/add.fvm");

/// Assembles and installs [`FIB_FVM`], returning its module handle.
pub fn install_fib<R: InvocationApi>(rt: &R) -> Result<Handle> {
    install(rt, FIB_FVM)
}

/// Assembles and installs [`ADD_FVM`], returning its module handle.
pub fn install_add<R: InvocationApi>(rt: &R) -> Result<Handle> {
    install(rt, ADD_FVM)
}

/// Assembles FixVM source and installs the module blob on any backend
/// (the generic counterpart of `fixpoint::Runtime::install_vm_module`).
pub fn install<R: InvocationApi>(rt: &R, source: &str) -> Result<Handle> {
    rt.install_module(fix_vm::assemble(source)?.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::api::{Evaluator, ObjectApi};
    use fix_core::data::Blob;
    use fix_core::limits::ResourceLimits;
    use fixpoint::Runtime;

    #[test]
    fn fixtures_assemble_and_run() {
        let rt = Runtime::builder().build();
        let fib = install_fib(&rt).unwrap();
        let add = install_add(&rt).unwrap();
        let thunk = rt
            .apply(
                ResourceLimits::default_limits(),
                fib,
                &[add, rt.put_blob(Blob::from_u64(10))],
            )
            .unwrap();
        let out = rt.eval(thunk).unwrap();
        assert_eq!(rt.get_u64(out).unwrap(), 55);
    }

    #[test]
    fn fixture_handles_agree_across_backends() {
        // Content addressing: both backends install identical modules.
        let rt = Runtime::builder().build();
        let cc = fix_cluster::ClusterClient::builder().build().unwrap();
        assert_eq!(install_add(&rt).unwrap(), install_add(&cc).unwrap());
        assert_eq!(install_fib(&rt).unwrap(), install_fib(&cc).unwrap());
    }

    #[test]
    fn embedded_source_matches_runtime_installer() {
        let rt = Runtime::builder().build();
        assert_eq!(
            install_add(&rt).unwrap(),
            rt.install_vm_module(ADD_FVM).unwrap()
        );
    }
}
