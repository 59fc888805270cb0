//! Structured views over the tree layouts Fix assigns meaning to.
//!
//! Two tree shapes carry semantics (paper §3.2, Fig. 1):
//!
//! * an **application tree** `[resource-limits, procedure, args...]`
//!   describes a function invocation, and
//! * a **selection tree** `[target, begin]` or `[target, begin, end]`
//!   describes extraction of a subrange of a Blob or Tree.
//!
//! This module parses and builds those layouts; it performs no evaluation.

use crate::data::{Blob, Tree};
use crate::error::{Error, Result};
use crate::handle::{Handle, Kind};
use crate::limits::ResourceLimits;

/// The application tree `[limits, procedure, args...]`, collected
/// straight into its shared entry slice: one allocation.
pub(crate) fn application_tree(limits: ResourceLimits, procedure: Handle, args: &[Handle]) -> Tree {
    [limits.handle(), procedure]
        .into_iter()
        .chain(args.iter().copied())
        .collect()
}

/// The header of an application tree `[limits, procedure, args...]`:
/// its limits and its procedure, read in place. Nothing is allocated;
/// the arguments stay in the tree, where the procedure reads them.
///
/// The tree must have at least two entries, and slot 0 must be a
/// literal resource-limits blob.
pub fn application_header(tree: &Tree) -> Result<(ResourceLimits, Handle)> {
    let &[limits, procedure, ..] = tree.entries() else {
        return Err(Error::MalformedTree {
            handle: tree.handle(),
            reason: format!(
                "application tree needs at least [limits, procedure], got {} entries",
                tree.len()
            ),
        });
    };
    Ok((ResourceLimits::from_handle(limits)?, procedure))
}

/// An application tree to build: `[limits, procedure, args...]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// Resource limits for the invocation (slot 0).
    pub limits: ResourceLimits,
    /// The procedure to run (slot 1) — a Blob of machine code / VM
    /// bytecode, or a Thunk/Encode that evaluates to one.
    pub procedure: Handle,
    /// The remaining slots, available to the procedure as its input.
    pub args: Vec<Handle>,
}

impl Invocation {
    /// Builds the canonical application tree for this invocation.
    pub fn to_tree(&self) -> Tree {
        application_tree(self.limits, self.procedure, &self.args)
    }
}

/// A parsed selection tree: `[target, begin]` or `[target, begin, end]`.
///
/// With two entries the selection extracts the single element / byte at
/// `begin`; with three it extracts the half-open range `[begin, end)` as a
/// new Tree or Blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// What to select from: a Tree or Blob (Object or Ref), or a
    /// Thunk/Encode evaluating to one.
    pub target: Handle,
    /// First index (tree entries) or byte offset (blobs).
    pub begin: u64,
    /// One past the last index/byte; `None` selects the single element at
    /// `begin`.
    pub end: Option<u64>,
}

impl Selection {
    /// Selection of the single element / byte at `index`.
    pub fn index(target: Handle, index: u64) -> Selection {
        Selection {
            target,
            begin: index,
            end: None,
        }
    }

    /// Selection of the half-open range `[begin, end)`.
    pub fn range(target: Handle, begin: u64, end: u64) -> Selection {
        Selection {
            target,
            begin,
            end: Some(end),
        }
    }

    /// Builds the canonical selection tree.
    pub fn to_tree(&self) -> Tree {
        let mut entries = vec![self.target, Blob::from_u64(self.begin).handle()];
        if let Some(end) = self.end {
            entries.push(Blob::from_u64(end).handle());
        }
        Tree::from_handles(entries)
    }

    /// Parses a selection tree.
    pub fn from_tree(tree: &Tree) -> Result<Selection> {
        let (target, begin, end) = match *tree.entries() {
            [target, begin] => (target, begin, None),
            [target, begin, end] => (target, begin, Some(end)),
            _ => {
                return Err(Error::MalformedTree {
                    handle: tree.handle(),
                    reason: format!("selection tree needs 2 or 3 entries, got {}", tree.len()),
                })
            }
        };
        let index_of = |h: Handle| -> Result<u64> {
            crate::data::literal_blob(h)
                .and_then(|b| b.as_u64())
                .ok_or(Error::MalformedTree {
                    handle: tree.handle(),
                    reason: "selection index must be a small literal integer blob".into(),
                })
        };
        Ok(Selection {
            target,
            begin: index_of(begin)?,
            end: end.map(index_of).transpose()?,
        })
    }

    /// Validates the range against a target length, returning the concrete
    /// `[begin, end)` bounds.
    pub fn bounds(&self, target_len: u64) -> Result<(u64, u64)> {
        let end = self.end.unwrap_or(self.begin.saturating_add(1));
        if self.begin > end || end > target_len {
            return Err(Error::BadSelection {
                target: self.target,
                begin: self.begin,
                end,
                len: target_len,
            });
        }
        Ok((self.begin, end))
    }
}

/// Convenience constructors mirroring the paper's pseudocode API (Table 1).
pub mod build {
    use super::*;
    use crate::handle::EncodeStyle;

    /// `application(tree)`: wraps an application tree in an Application
    /// Thunk. Returns the thunk handle; the tree must be stored separately.
    pub fn application(tree: &Tree) -> Result<Handle> {
        tree.handle().application()
    }

    /// `identification(value)`: the identity thunk on a value.
    pub fn identification(value: Handle) -> Result<Handle> {
        value.identification()
    }

    /// `selection(value, index)`: builds the definition tree and returns
    /// `(definition_tree, thunk_handle)`; the tree must be stored.
    pub fn selection(value: Handle, index: u64) -> Result<(Tree, Handle)> {
        selection_of(Selection::index(value, index))
    }

    /// Range selection: `[begin, end)` of a Blob or Tree.
    pub fn selection_range(value: Handle, begin: u64, end: u64) -> Result<(Tree, Handle)> {
        selection_of(Selection::range(value, begin, end))
    }

    fn selection_of(sel: Selection) -> Result<(Tree, Handle)> {
        match sel.target.kind() {
            Kind::Object(_) | Kind::Ref(_) | Kind::Thunk(_) | Kind::Encode(..) => {
                let tree = sel.to_tree();
                let thunk = tree.handle().selection()?;
                Ok((tree, thunk))
            }
        }
    }

    /// `strict(thunk)`: requests full evaluation.
    pub fn strict(thunk: Handle) -> Result<Handle> {
        thunk.encode(EncodeStyle::Strict)
    }

    /// `shallow(thunk)`: requests minimal evaluation, result as a Ref.
    pub fn shallow(thunk: Handle) -> Result<Handle> {
        thunk.encode(EncodeStyle::Shallow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Blob;

    fn limits() -> ResourceLimits {
        ResourceLimits::new(1 << 20, 1 << 20)
    }

    #[test]
    fn invocation_round_trip() {
        let proc_blob = Blob::from_slice(&[0xAA; 100]);
        let inv = Invocation {
            limits: limits(),
            procedure: proc_blob.handle(),
            args: vec![Blob::from_u64(1).handle(), Blob::from_u64(2).handle()],
        };
        let tree = inv.to_tree();
        assert_eq!(tree.len(), 4);
        assert_eq!(
            application_header(&tree).unwrap(),
            (inv.limits, inv.procedure)
        );
    }

    #[test]
    fn invocation_requires_limits_slot() {
        // Slot 0 is not a valid limits blob.
        let tree = Tree::from_handles(vec![
            Blob::from_slice(b"junk").handle(),
            Blob::from_slice(b"proc").handle(),
        ]);
        assert!(application_header(&tree).is_err());
    }

    #[test]
    fn invocation_requires_two_slots() {
        let tree = Tree::from_handles(vec![limits().handle()]);
        assert!(application_header(&tree).is_err());
    }

    #[test]
    fn selection_round_trip_index() {
        let target = Blob::from_slice(&[1u8; 64]).handle();
        let sel = Selection::index(target, 7);
        let parsed = Selection::from_tree(&sel.to_tree()).unwrap();
        assert_eq!(parsed, sel);
    }

    #[test]
    fn selection_round_trip_range() {
        let target = Blob::from_slice(&[1u8; 64]).handle().as_ref_handle();
        let sel = Selection::range(target, 8, 32);
        let parsed = Selection::from_tree(&sel.to_tree()).unwrap();
        assert_eq!(parsed, sel);
    }

    #[test]
    fn selection_bounds_checking() {
        let target = Blob::from_slice(&[1u8; 64]).handle();
        assert_eq!(Selection::index(target, 63).bounds(64).unwrap(), (63, 64));
        assert!(Selection::index(target, 64).bounds(64).is_err());
        assert_eq!(Selection::range(target, 0, 64).bounds(64).unwrap(), (0, 64));
        assert!(Selection::range(target, 10, 9).bounds(64).is_err());
        assert!(Selection::range(target, 0, 65).bounds(64).is_err());
    }

    #[test]
    fn build_api_mirrors_table1() {
        let tree = Tree::from_handles(vec![limits().handle(), Blob::from_u64(1).handle()]);
        let app = build::application(&tree).unwrap();
        assert!(app.is_thunk());
        let enc = build::strict(app).unwrap();
        assert!(enc.is_encode());
        assert_eq!(enc.encoded_thunk().unwrap(), app);

        let val = Blob::from_slice(b"v").handle();
        let ident = build::identification(val).unwrap();
        assert!(ident.is_thunk());
        assert_eq!(ident.thunk_definition().unwrap(), val);

        let (sel_tree, sel_thunk) = build::selection(tree.handle(), 1).unwrap();
        assert_eq!(sel_tree.len(), 2);
        assert!(sel_thunk.is_thunk());
    }
}
