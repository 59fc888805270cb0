//! The program registry: mapping procedure Blobs to runnable code.
//!
//! Fixpoint runs two kinds of procedures:
//!
//! * **FixVM codelets** — Blobs in the [`fix_vm::Module`] format,
//!   recognized by their magic bytes. These are the "black-box machine
//!   code" of the paper (its Wasm→x86-64 codelets) and need no
//!   registration: any node holding the blob can run it.
//! * **Native codelets** — trusted Rust functions registered under a
//!   content-addressed marker blob (`"FIXNATIVE:<name>"`). These model
//!   the paper's ahead-of-time-compiled native procedures, and let the
//!   workloads run at native speed. Because the marker is content
//!   addressed, every node that registers the same name agrees on the
//!   handle.

use fix_core::data::Blob;
use fix_core::handle::{payload_key, Handle, HandleMap};
use parking_lot::RwLock;

use fix_core::api::NativeFn;

/// Maps procedure handles to native implementations.
#[derive(Default)]
pub(crate) struct ProgramRegistry {
    by_handle: RwLock<HandleMap<[u8; 32], NativeFn>>,
}

/// Builds the content-addressed marker blob for a native procedure name.
pub fn native_marker(name: &str) -> Blob {
    Blob::from_vec(format!("FIXNATIVE:{name}").into_bytes())
}

impl ProgramRegistry {
    /// Creates an empty registry.
    pub fn new() -> ProgramRegistry {
        ProgramRegistry::default()
    }

    /// Registers a native codelet under `name`, returning the marker
    /// blob whose handle names the procedure. Re-registering a name
    /// replaces the implementation (the handle is unchanged).
    pub fn register(&self, name: &str, f: NativeFn) -> (Blob, Handle) {
        let blob = native_marker(name);
        let handle = blob.handle();
        self.by_handle.write().insert(payload_key(handle), f);
        (blob, handle)
    }

    /// Looks up the native implementation for a procedure handle.
    pub fn lookup(&self, handle: Handle) -> Option<NativeFn> {
        self.by_handle.read().get(&payload_key(handle)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn register_and_lookup() {
        let reg = ProgramRegistry::new();
        let (_, h) = reg.register("noop", Arc::new(|ctx| Ok(ctx.input)));
        assert!(reg.lookup(h).is_some());
        assert!(reg.lookup(h.as_ref_handle()).is_some(), "lookup by payload");
        let other = Blob::from_slice(b"FIXNATIVE:unregistered").handle();
        assert!(reg.lookup(other).is_none());
    }

    #[test]
    fn markers_are_content_addressed() {
        let a = native_marker("add");
        let b = native_marker("add");
        assert_eq!(a.handle(), b.handle());
        assert_ne!(a.handle(), native_marker("sub").handle());
    }
}
