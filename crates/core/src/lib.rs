//! `fix-core`: the Fix ABI — a shared representation of computation.
//!
//! This crate implements the paper's primary contribution at the data
//! level: a low-level binary representation in which programs, users, and
//! the platform describe computations identically (paper §3). Programs
//! never perform I/O; they *name* the code and data they need:
//!
//! * [`data::Blob`] / [`data::Tree`] — the two data types;
//! * [`handle::Handle`] — 256-bit self-describing names (Object, Ref,
//!   Thunk, Encode), with ≤30-byte blobs inlined as literals;
//! * [`invocation`] — the tree layouts for applications and selections,
//!   plus the Table-1 construction API;
//! * [`limits::ResourceLimits`] — explicit per-invocation resource bounds;
//! * [`api`] — the One Fix API: backend-agnostic [`api::ObjectApi`] /
//!   [`api::InvocationApi`] / [`api::Evaluator`] / [`api::SubmitApi`]
//!   traits implemented by every execution engine in the workspace,
//!   the [`api::Footprint`] an evaluator reports, and the [`ticket`]
//!   machinery behind submission-first evaluation;
//! * [`calibration`] — the shared service-cost table every simulating
//!   layer (cluster tasks, serving clocks) charges from.
//!
//! The runtime that evaluates these objects is the `fixpoint` crate; the
//! distributed engine is `fix-cluster`. The rule for what data an
//! invocation may touch (the minimum repository, §3.3) reads a node's
//! table, so it lives beside the table, in `fix-storage`.
//!
//! # Examples
//!
//! Describing `add(1, 2)` without running anything:
//!
//! ```
//! use fix_core::data::{Blob, Tree};
//! use fix_core::invocation::build;
//! use fix_core::limits::ResourceLimits;
//!
//! let add_code = Blob::from_slice(b"\0fixvm-module-bytes...");
//! let tree = Tree::from_handles(vec![
//!     ResourceLimits::default_limits().handle(),
//!     add_code.handle(),
//!     Blob::from_u64(1).handle(),
//!     Blob::from_u64(2).handle(),
//! ]);
//! let thunk = build::application(&tree).unwrap();
//! let request = build::strict(thunk).unwrap();
//! assert!(request.is_encode());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod calibration;
pub mod data;
pub mod error;
pub mod handle;
pub mod invocation;
pub mod limits;
pub mod ticket;
pub mod wire;

pub use api::{
    BatchTicket, Evaluator, HostApi, InvocationApi, NativeCtx, NativeFn, ObjectApi, SubmitApi,
    Ticket,
};
pub use data::{Blob, Node, Tree};
pub use error::{Error, Result};
pub use handle::{DataType, EncodeStyle, Handle, Kind, ThunkKind};
pub use invocation::{Invocation, Selection};
pub use limits::ResourceLimits;
pub use wire::{Parcel, VerifiedParcel};

#[cfg(test)]
mod handle_tests {
    use super::*;
    use crate::handle::MAX_LITERAL;

    #[test]
    fn literal_boundary() {
        assert!(Handle::literal(&[0u8; MAX_LITERAL]).is_some());
        assert!(Handle::literal(&[0u8; MAX_LITERAL + 1]).is_none());
    }

    #[test]
    fn kind_transitions_preserve_payload() {
        let blob = Blob::from_slice(&[3u8; 100]);
        let obj = blob.handle();
        let r = obj.as_ref_handle();
        assert_eq!(obj.digest(), r.digest());
        assert_eq!(obj.size(), r.size());
        assert!(!r.is_accessible());
        assert_eq!(r.as_object_handle(), obj);

        let ident = obj.identification().unwrap();
        assert_eq!(ident.thunk_definition().unwrap(), obj);
        let strict = ident.strict().unwrap();
        assert_eq!(strict.encoded_thunk().unwrap(), ident);
        assert_eq!(
            strict.kind(),
            Kind::Encode(EncodeStyle::Strict, ThunkKind::Identification)
        );
    }

    #[test]
    fn application_requires_tree() {
        let blob = Blob::from_slice(&[1u8; 40]).handle();
        assert!(blob.application().is_err());
        let tree = Tree::from_handles(vec![]).handle();
        assert!(tree.application().is_ok());
        assert!(tree.selection().is_ok());
    }

    #[test]
    fn encode_requires_thunk() {
        let blob = Blob::from_slice(&[1u8; 40]).handle();
        assert!(blob.strict().is_err());
        let tree = Tree::from_handles(vec![]).handle();
        let thunk = tree.application().unwrap();
        assert!(thunk.strict().is_ok());
        assert!(thunk.shallow().is_ok());
        // Double-encode is rejected.
        assert!(thunk.strict().unwrap().strict().is_err());
    }

    #[test]
    fn raw_round_trip_valid_handles() {
        let samples = vec![
            Blob::from_slice(b"small").handle(),
            Blob::from_slice(&[9u8; 4096]).handle(),
            Tree::from_handles(vec![]).handle(),
            Tree::from_handles(vec![]).handle().as_ref_handle(),
            Tree::from_handles(vec![]).handle().application().unwrap(),
            Blob::from_slice(b"v").handle().identification().unwrap(),
            Tree::from_handles(vec![])
                .handle()
                .selection()
                .unwrap()
                .shallow()
                .unwrap(),
        ];
        for h in samples {
            let rt = Handle::from_raw(*h.raw()).unwrap();
            assert_eq!(rt, h);
            assert_eq!(rt.kind(), h.kind());
        }
    }

    #[test]
    fn from_raw_rejects_garbage() {
        // Nonzero reserved bits.
        let mut raw = *Blob::from_slice(b"x").handle().raw();
        raw[31] |= 0x80;
        assert!(Handle::from_raw(raw).is_err());

        // Literal with nonzero padding.
        let mut raw2 = *Handle::literal(b"ab").unwrap().raw();
        raw2[10] = 1;
        assert!(Handle::from_raw(raw2).is_err());

        // Application thunk tagged as blob-typed.
        let mut raw3 = *Tree::from_handles(vec![])
            .handle()
            .application()
            .unwrap()
            .raw();
        raw3[31] &= !1; // Clear the tree flag.
        assert!(Handle::from_raw(raw3).is_err());
    }

    #[test]
    fn display_is_stable_and_readable() {
        let lit = Blob::from_slice(b"abc").handle();
        assert_eq!(format!("{lit}"), "blob:obj:lit:\"abc\"");
        let tree = Tree::from_handles(vec![]).handle();
        let shown = format!("{tree}");
        assert!(shown.starts_with("tree:obj:"), "{shown}");
        assert!(shown.ends_with(":0"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "as_ref_handle on non-value")]
    fn demoting_a_thunk_panics() {
        let t = Tree::from_handles(vec![]).handle().application().unwrap();
        let _ = t.as_ref_handle();
    }
}

#[cfg(test)]
#[path = "../../../tests/support/gen.rs"]
mod gen;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::gen::{check, Rng};

    /// Literal and canonical handles round-trip through raw bytes.
    #[test]
    fn handle_raw_round_trip() {
        check("handle_raw_round_trip", 64, |rng| {
            let data = rng.vec(0..200, Rng::byte);
            let h = Blob::from_slice(&data).handle();
            let rt = Handle::from_raw(*h.raw()).unwrap();
            assert_eq!(h, rt);
            assert_eq!(h.size(), data.len() as u64);
            assert_eq!(h.is_literal(), data.len() <= 30);
        });
    }

    /// Content addressing: equal content gives equal handles, and
    /// different content gives different handles.
    #[test]
    fn content_addressing() {
        check("content_addressing", 64, |rng| {
            let a = rng.vec(0..100, Rng::byte);
            let b = rng.vec(0..100, Rng::byte);
            let ha = Blob::from_slice(&a).handle();
            let hb = Blob::from_slice(&b).handle();
            assert_eq!(ha == hb, a == b);
        });
    }

    /// Trees round-trip through their canonical serialization.
    #[test]
    fn tree_serialization_round_trip() {
        check("tree_serialization_round_trip", 64, |rng| {
            let blobs = rng.vec(0..20, |rng| rng.vec(0..64, Rng::byte));
            let entries: Vec<Handle> = blobs.iter().map(|b| Blob::from_slice(b).handle()).collect();
            let tree = Tree::from_handles(entries);
            let rt = Tree::from_canonical_bytes(&tree.canonical_bytes()).unwrap();
            assert_eq!(rt.handle(), tree.handle());
        });
    }

    /// Selection trees round-trip.
    #[test]
    fn selection_round_trip() {
        check("selection_round_trip", 64, |rng| {
            let (begin, len) = (rng.range(0u64..1_000_000), rng.range(0u64..1_000_000));
            let target = Tree::from_handles(vec![]).handle();
            let sel = if rng.bool() {
                Selection::range(target, begin, begin + len)
            } else {
                Selection::index(target, begin)
            };
            let rt = Selection::from_tree(&sel.to_tree()).unwrap();
            assert_eq!(rt, sel);
        });
    }

    /// Kind transitions never alter payload, size, or literal status.
    #[test]
    fn transitions_preserve_identity() {
        check("transitions_preserve_identity", 64, |rng| {
            let data = rng.vec(0..64, Rng::byte);
            let obj = Blob::from_slice(&data).handle();
            let ident = obj.identification().unwrap();
            let enc = ident.shallow().unwrap();
            for h in [
                obj.as_ref_handle(),
                ident,
                enc,
                enc.encoded_thunk().unwrap(),
            ] {
                assert_eq!(h.size(), obj.size());
                assert_eq!(h.is_literal(), obj.is_literal());
                assert_eq!(h.digest(), obj.digest());
            }
        });
    }

    /// Resource limits round-trip.
    #[test]
    fn limits_round_trip() {
        check("limits_round_trip", 64, |rng| {
            let (m, f, o) = (rng.next(), rng.next(), rng.next());
            let l = ResourceLimits::new(m, f).with_output_hint(o);
            assert_eq!(ResourceLimits::from_handle(l.handle()).unwrap(), l);
        });
    }
}
