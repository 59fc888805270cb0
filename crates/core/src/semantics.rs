//! Storage-agnostic pieces of Fix semantics: data access, dependency
//! analysis, and minimum-repository (footprint) computation.
//!
//! The evaluator itself lives in the `fixpoint` runtime crate; what lives
//! here is everything that must be *shared understanding* between user
//! programs, the runtime, and the distributed scheduler — most importantly
//! the rule for what data an invocation may touch (paper §3.3):
//!
//! * Objects reachable from the application tree are in the footprint
//!   (recursively, through accessible Trees);
//! * Refs contribute only their metadata;
//! * Thunks contribute nothing (their definitions are lazily needed only
//!   if *they* are evaluated);
//! * Encodes must be resolved before launch, and their results join the
//!   footprint according to the encode style (a selection's thunk target
//!   counts as its shallow encode).

use crate::data::{literal_blob, Blob, Node, Tree};
use crate::error::{Error, Result};
use crate::handle::{
    payload_key, transfer_size, DataType, EncodeStyle, Handle, HandleMap, HandleSet, Kind,
    ThunkKind,
};
use crate::invocation::Selection;

/// Anything that can produce the data behind canonical handles.
///
/// Implemented by `fix-storage`'s store and by in-memory test fixtures.
/// Lookups are by *payload* (digest); accessibility tags on the handle are
/// a capability concept, enforced at the guest API layer, not here.
pub trait DataSource {
    /// Loads the datum named by `handle`.
    ///
    /// Implementations should accept any data handle (Object or Ref, Blob
    /// or Tree) whose payload they hold, and must return
    /// [`Error::NotFound`] otherwise.
    fn load(&self, handle: Handle) -> Result<Node>;
}

/// Loads a Blob through a [`DataSource`], serving literals inline.
pub fn load_blob(source: &dyn DataSource, handle: Handle) -> Result<Blob> {
    match handle.kind() {
        Kind::Object(DataType::Blob) | Kind::Ref(DataType::Blob) => {
            if let Some(b) = literal_blob(handle) {
                Ok(b)
            } else {
                source.load(handle)?.as_blob().cloned()
            }
        }
        _ => Err(Error::TypeMismatch {
            handle,
            expected: "blob",
        }),
    }
}

/// Loads a Tree through a [`DataSource`].
pub fn load_tree(source: &dyn DataSource, handle: Handle) -> Result<Tree> {
    match handle.kind() {
        Kind::Object(DataType::Tree) | Kind::Ref(DataType::Tree) => {
            source.load(handle)?.as_tree().cloned()
        }
        _ => Err(Error::TypeMismatch {
            handle,
            expected: "tree",
        }),
    }
}

/// Resolves previously-computed Encode results.
///
/// The runtime implements this with its memoized relation cache; footprint
/// analysis uses it to fold resolved encodes into the repository.
pub trait EncodeResolver {
    /// The result of the encode, if it has already been computed.
    fn resolved(&self, encode: Handle) -> Option<Handle>;
}

/// An [`EncodeResolver`] that knows nothing (used before any evaluation).
pub struct NoResolution;

impl EncodeResolver for NoResolution {
    fn resolved(&self, _encode: Handle) -> Option<Handle> {
        None
    }
}

/// The minimum repository of a Thunk: what must be resident before launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Canonical data handles whose contents must be local (deduplicated,
    /// in discovery order). Literals never appear here.
    pub objects: Vec<Handle>,
    /// Total bytes across `objects` (blob lengths + 32 bytes/tree entry).
    pub total_bytes: u64,
    /// Encodes that are not yet resolved; the runtime must evaluate these
    /// before the footprint is complete. A selection's thunk target is
    /// listed as its shallow encode: it is evaluated, not forced, first.
    pub unresolved_encodes: Vec<Handle>,
    /// Refs encountered: data that is *named* but must not be fetched.
    pub refs: Vec<Handle>,
}

impl Footprint {
    /// True when every dependency is resolved and the footprint is final.
    pub fn is_complete(&self) -> bool {
        self.unresolved_encodes.is_empty()
    }

    /// Merges `other` into `self`, deduplicating: a datum required by two
    /// requests appears (and is counted in `total_bytes`) once. The merge
    /// of per-request footprints is exactly the set a batch transfer — or
    /// a snapshot pinning the batch — must cover.
    pub fn merge(&mut self, other: &Footprint) {
        let mut seen: HandleSet<[u8; 32]> = self.objects.iter().map(|h| payload_key(*h)).collect();
        for &h in &other.objects {
            if seen.insert(payload_key(h)) {
                self.objects.push(h);
                self.total_bytes += transfer_size(h);
            }
        }
        merge_unique(&mut self.unresolved_encodes, &other.unresolved_encodes);
        merge_unique(&mut self.refs, &other.refs);
    }
}

/// Appends the elements of `extra` not already in `dst`, preserving order.
fn merge_unique(dst: &mut Vec<Handle>, extra: &[Handle]) {
    let mut seen: HandleSet<[u8; 32]> = dst.iter().map(|h| *h.raw()).collect();
    for &h in extra {
        if seen.insert(*h.raw()) {
            dst.push(h);
        }
    }
}

/// Computes the minimum repository of `thunk` (paper §3.3): the
/// [`footprint_many`] of a batch of one, so every list in it names each
/// handle once.
///
/// For Application thunks, walks the definition tree applying the footprint
/// rules. For Selection and Identification thunks, the target data itself
/// is required (the runtime performs the extraction). Returns an error if
/// tree data needed for the analysis is missing from `source`.
///
/// # Examples
///
/// ```
/// use fix_core::data::{Blob, Tree};
/// use fix_core::limits::ResourceLimits;
/// use fix_core::semantics::{footprint, NoResolution, MapSource};
///
/// let mut src = MapSource::default();
/// let big = Blob::from_slice(&[7u8; 100]);
/// let tree = Tree::from_handles(vec![
///     ResourceLimits::default_limits().handle(),
///     Blob::from_slice(b"code").handle(),
///     big.handle(),                    // accessible: in footprint
///     big.handle().as_ref_handle(),    // ref: metadata only
/// ]);
/// src.insert_blob(&big);
/// src.insert_tree(&tree);
/// let thunk = tree.handle().application().unwrap();
/// let fp = footprint(&src, thunk, &NoResolution).unwrap();
/// assert_eq!(fp.objects.len(), 2); // The tree itself + the big blob.
/// assert!(fp.refs.len() == 1 && fp.is_complete());
/// ```
pub fn footprint(
    source: &dyn DataSource,
    thunk: Handle,
    resolver: &dyn EncodeResolver,
) -> Result<Footprint> {
    footprint_many(source, &[thunk], resolver)
}

/// Computes the combined minimum repository of a batch of thunks.
///
/// Equivalent to folding [`Footprint::merge`] over per-thunk
/// [`footprint`]s, but shares one seen-set so data common to several
/// requests is walked once: the result is exactly the set of objects a
/// batch transfer must ship — or a snapshot must pin — to cover every
/// request, with `total_bytes` counting each distinct object once.
pub fn footprint_many(
    source: &dyn DataSource,
    thunks: &[Handle],
    resolver: &dyn EncodeResolver,
) -> Result<Footprint> {
    let mut fp = Footprint::default();
    let mut seen = HandleSet::default();
    for &thunk in thunks {
        footprint_into(source, thunk, resolver, &mut fp, &mut seen)?;
    }
    // The object walk dedups via `seen`; refs and unresolved encodes are
    // pushed per occurrence, so dedup them here.
    dedup_in_place(&mut fp.unresolved_encodes);
    dedup_in_place(&mut fp.refs);
    Ok(fp)
}

fn dedup_in_place(handles: &mut Vec<Handle>) {
    let mut seen = HandleSet::default();
    handles.retain(|h| seen.insert(*h.raw()));
}

fn footprint_into(
    source: &dyn DataSource,
    thunk: Handle,
    resolver: &dyn EncodeResolver,
    fp: &mut Footprint,
    seen: &mut HandleSet<[u8; 32]>,
) -> Result<()> {
    match thunk.kind() {
        Kind::Thunk(ThunkKind::Application) => {
            let def = thunk.thunk_definition()?;
            add_accessible(source, def, resolver, fp, seen)?;
        }
        Kind::Thunk(ThunkKind::Selection) => {
            let def = thunk.thunk_definition()?;
            // The definition tree is tiny ([target, begin, end?]) but
            // needed: parsed as added, or loaded again only when an
            // earlier thunk of the batch added it.
            let sel = match add_data(source, def, fp, seen)? {
                Some(node) => Selection::from_tree(node.as_tree()?)?,
                None => Selection::from_tree(&load_tree(source, def)?)?,
            };
            // The target's own data is needed (but not its children): the
            // runtime reads it to perform the extraction. A thunk target is
            // evaluated first, as its shallow encode would be resolved, so
            // it counts as that encode.
            let target = match sel.target.kind() {
                Kind::Thunk(_) => sel.target.shallow()?,
                _ => sel.target,
            };
            match target.kind() {
                Kind::Encode(..) => match resolver.resolved(target) {
                    Some(r) => {
                        add_data(source, r, fp, seen)?;
                    }
                    None => fp.unresolved_encodes.push(target),
                },
                _ => {
                    add_data(source, target, fp, seen)?;
                }
            }
        }
        Kind::Thunk(ThunkKind::Identification) => {
            let target = thunk.thunk_definition()?;
            add_data(source, target, fp, seen)?;
        }
        _ => {
            return Err(Error::TypeMismatch {
                handle: thunk,
                expected: "a Thunk",
            })
        }
    }
    Ok(())
}

/// Adds a single datum (no recursion into tree children), returning it
/// when it was not in the footprint yet.
fn add_data(
    source: &dyn DataSource,
    handle: Handle,
    fp: &mut Footprint,
    seen: &mut HandleSet<[u8; 32]>,
) -> Result<Option<Node>> {
    if handle.is_literal() || !seen.insert(payload_key(handle)) {
        return Ok(None);
    }
    // Record canonical-object residency; verify presence so that missing
    // data is reported at analysis time rather than mid-execution.
    let node = source.load(handle)?;
    fp.objects.push(handle.as_object_handle());
    fp.total_bytes += node.transfer_size();
    Ok(Some(node))
}

/// Applies the footprint rules from an accessible handle, depth first
/// with tree entries in order (`Footprint::objects` is in discovery
/// order). An explicit worklist, not recursion: nesting depth is data
/// (a cons list is as deep as it is long) and must not be bounded by
/// the caller's stack.
fn add_accessible(
    source: &dyn DataSource,
    handle: Handle,
    resolver: &dyn EncodeResolver,
    fp: &mut Footprint,
    seen: &mut HandleSet<[u8; 32]>,
) -> Result<()> {
    let mut stack = vec![handle];
    while let Some(handle) = stack.pop() {
        match handle.kind() {
            Kind::Object(DataType::Blob) => {
                add_data(source, handle, fp, seen)?;
            }
            // Trees are never literal, and one seen before was walked then.
            Kind::Object(DataType::Tree) => {
                if let Some(node) = add_data(source, handle, fp, seen)? {
                    stack.extend(node.as_tree()?.entries().iter().rev());
                }
            }
            Kind::Ref(_) => fp.refs.push(handle),
            // Lazy: a thunk's definition is not part of the parent's footprint.
            Kind::Thunk(_) => {}
            Kind::Encode(style, _) => match (resolver.resolved(handle), style) {
                // Strict results are fully accessible: walk as Object.
                (Some(result), EncodeStyle::Strict) => stack.push(result.as_object_handle()),
                // Shallow results are provided as Refs: metadata only.
                (Some(result), EncodeStyle::Shallow) => {
                    if result.is_value() {
                        fp.refs.push(result.as_ref_handle());
                    }
                }
                (None, _) => fp.unresolved_encodes.push(handle),
            },
        }
    }
    Ok(())
}

/// A simple in-memory [`DataSource`] for tests, examples, and doc tests.
#[derive(Debug, Default, Clone)]
pub struct MapSource {
    items: HandleMap<[u8; 32], Node>,
}

impl MapSource {
    /// Registers a blob.
    pub fn insert_blob(&mut self, blob: &Blob) -> Handle {
        let h = blob.handle();
        if !h.is_literal() {
            self.items.insert(payload_key(h), Node::Blob(blob.clone()));
        }
        h
    }

    /// Registers a tree (entries are *not* automatically registered).
    pub fn insert_tree(&mut self, tree: &Tree) -> Handle {
        let h = tree.handle();
        self.items.insert(payload_key(h), Node::Tree(tree.clone()));
        h
    }
}

impl DataSource for MapSource {
    fn load(&self, handle: Handle) -> Result<Node> {
        if let Some(b) = literal_blob(handle) {
            return Ok(Node::Blob(b));
        }
        self.items
            .get(&payload_key(handle))
            .cloned()
            .ok_or(Error::NotFound(handle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::build;
    use crate::limits::ResourceLimits;

    fn setup() -> (MapSource, Blob, Blob) {
        let src = MapSource::default();
        let code = Blob::from_slice(&[0xC0; 64]);
        let data = Blob::from_slice(&[0xDA; 256]);
        (src, code, data)
    }

    fn limits_handle() -> Handle {
        ResourceLimits::default_limits().handle()
    }

    #[test]
    fn footprint_counts_accessible_objects_once() {
        let (mut src, code, data) = setup();
        src.insert_blob(&code);
        src.insert_blob(&data);
        let tree = Tree::from_handles(vec![
            limits_handle(),
            code.handle(),
            data.handle(),
            data.handle(), // Duplicate: must not double count.
        ]);
        src.insert_tree(&tree);
        let thunk = tree.handle().application().unwrap();
        let fp = footprint(&src, thunk, &NoResolution).unwrap();
        assert_eq!(fp.objects.len(), 3); // tree + code + data
        assert_eq!(
            fp.total_bytes,
            (tree.len() * 32) as u64 + code.len() as u64 + data.len() as u64
        );
    }

    #[test]
    fn footprint_excludes_thunk_definitions() {
        let (mut src, code, data) = setup();
        src.insert_blob(&code);
        src.insert_blob(&data);
        // A lazy branch: application thunk over some other tree.
        let branch_tree = Tree::from_handles(vec![limits_handle(), code.handle(), data.handle()]);
        src.insert_tree(&branch_tree);
        let branch = branch_tree.handle().application().unwrap();

        let tree = Tree::from_handles(vec![limits_handle(), code.handle(), branch]);
        src.insert_tree(&tree);
        let thunk = tree.handle().application().unwrap();
        let fp = footprint(&src, thunk, &NoResolution).unwrap();
        // The branch's definition tree and `data` are NOT in the footprint.
        assert_eq!(fp.objects.len(), 2); // Just the application tree + code.
        assert!(fp.is_complete());
    }

    #[test]
    fn footprint_counts_refs_as_metadata_only() {
        let (mut src, code, data) = setup();
        src.insert_blob(&code);
        src.insert_blob(&data);
        let tree = Tree::from_handles(vec![
            limits_handle(),
            code.handle(),
            data.handle().as_ref_handle(),
        ]);
        src.insert_tree(&tree);
        let thunk = tree.handle().application().unwrap();
        let fp = footprint(&src, thunk, &NoResolution).unwrap();
        assert_eq!(fp.objects.len(), 2);
        assert_eq!(fp.refs.len(), 1);
        assert_eq!(fp.total_bytes, (tree.len() * 32) as u64 + code.len() as u64);
    }

    #[test]
    fn footprint_reports_unresolved_encodes() {
        let (mut src, code, data) = setup();
        src.insert_blob(&code);
        src.insert_blob(&data);
        let inner = Tree::from_handles(vec![limits_handle(), code.handle(), data.handle()]);
        src.insert_tree(&inner);
        let enc = build::strict(inner.handle().application().unwrap()).unwrap();
        // The encode once, and twice: each lists it once, as a batch does.
        for entries in [vec![enc], vec![enc, enc]] {
            let mut handles = vec![limits_handle(), code.handle()];
            handles.extend(entries);
            let tree = Tree::from_handles(handles);
            src.insert_tree(&tree);
            let thunk = tree.handle().application().unwrap();
            let fp = footprint(&src, thunk, &NoResolution).unwrap();
            assert_eq!(fp.unresolved_encodes, vec![enc]);
            assert!(!fp.is_complete());
        }
    }

    #[test]
    fn footprint_folds_in_resolved_strict_encodes() {
        struct Fixed(Handle, Handle);
        impl EncodeResolver for Fixed {
            fn resolved(&self, e: Handle) -> Option<Handle> {
                (e == self.0).then_some(self.1)
            }
        }
        let (mut src, code, data) = setup();
        src.insert_blob(&code);
        src.insert_blob(&data);
        let inner = Tree::from_handles(vec![limits_handle(), code.handle()]);
        src.insert_tree(&inner);
        let enc = build::strict(inner.handle().application().unwrap()).unwrap();
        let tree = Tree::from_handles(vec![limits_handle(), code.handle(), enc]);
        src.insert_tree(&tree);
        let thunk = tree.handle().application().unwrap();

        let fp = footprint(&src, thunk, &Fixed(enc, data.handle())).unwrap();
        assert!(fp.is_complete());
        // The resolved result (a 256-byte blob) joined the footprint.
        assert!(fp.objects.contains(&data.handle()));
    }

    #[test]
    fn footprint_shallow_resolution_stays_metadata() {
        struct Fixed(Handle, Handle);
        impl EncodeResolver for Fixed {
            fn resolved(&self, e: Handle) -> Option<Handle> {
                (e == self.0).then_some(self.1)
            }
        }
        let (mut src, code, data) = setup();
        src.insert_blob(&code);
        src.insert_blob(&data);
        let inner = Tree::from_handles(vec![limits_handle(), code.handle()]);
        src.insert_tree(&inner);
        let enc = build::shallow(inner.handle().application().unwrap()).unwrap();
        let tree = Tree::from_handles(vec![limits_handle(), code.handle(), enc]);
        src.insert_tree(&tree);
        let thunk = tree.handle().application().unwrap();

        let fp = footprint(&src, thunk, &Fixed(enc, data.handle())).unwrap();
        assert!(fp.is_complete());
        assert!(!fp.objects.contains(&data.handle()));
        assert_eq!(fp.refs, vec![data.handle().as_ref_handle()]);
    }

    #[test]
    fn footprint_of_selection_needs_target_data_only() {
        let (mut src, _code, data) = setup();
        let child = Blob::from_slice(&[1u8; 512]);
        src.insert_blob(&data);
        src.insert_blob(&child);
        let target = Tree::from_handles(vec![child.handle(), data.handle()]);
        src.insert_tree(&target);
        let (sel_tree, sel_thunk) = build::selection(target.handle().as_ref_handle(), 0).unwrap();
        src.insert_tree(&sel_tree);
        let fp = footprint(&src, sel_thunk, &NoResolution).unwrap();
        // Needs: the selection definition tree and the target tree's own
        // entry list. NOT the children blobs.
        assert_eq!(fp.objects.len(), 2);
        assert!(!fp.objects.contains(&child.handle()));
    }

    /// A selection over a thunk waits on the thunk's evaluation, and
    /// once it is evaluated reads the value's own data.
    #[test]
    fn footprint_of_a_selection_over_a_thunk_waits_on_its_value() {
        struct Fixed(Handle, Handle);
        impl EncodeResolver for Fixed {
            fn resolved(&self, e: Handle) -> Option<Handle> {
                (e == self.0).then_some(self.1)
            }
        }
        let (mut src, code, data) = setup();
        src.insert_blob(&data);
        let inner = Tree::from_handles(vec![limits_handle(), code.handle()]);
        let target = inner.handle().application().unwrap();
        let (sel_tree, sel_thunk) = build::selection(target, 0).unwrap();
        src.insert_tree(&sel_tree);
        let fp = footprint(&src, sel_thunk, &NoResolution).unwrap();
        assert_eq!(fp.unresolved_encodes, vec![target.shallow().unwrap()]);
        assert_eq!(fp.objects, vec![sel_tree.handle()]);
        let resolved = Fixed(target.shallow().unwrap(), data.handle());
        let fp = footprint(&src, sel_thunk, &resolved).unwrap();
        assert!(fp.is_complete());
        assert_eq!(fp.objects, vec![sel_tree.handle(), data.handle()]);
    }

    /// A selection's definition tree is loaded once per footprint: the
    /// load that adds it to the footprint is the one parsed. A batch that
    /// names it twice loads it once more, for the second thunk.
    #[test]
    fn a_selections_definition_is_loaded_once() {
        struct Counting(MapSource, std::cell::Cell<usize>, Handle);
        impl DataSource for Counting {
            fn load(&self, handle: Handle) -> Result<Node> {
                if handle == self.2 {
                    self.1.set(self.1.get() + 1);
                }
                self.0.load(handle)
            }
        }
        let (mut src, _, data) = setup();
        src.insert_blob(&data);
        let (sel_tree, sel_thunk) = build::selection(data.handle(), 0).unwrap();
        src.insert_tree(&sel_tree);
        let counting = Counting(src, std::cell::Cell::new(0), sel_tree.handle());
        let fp = footprint(&counting, sel_thunk, &NoResolution).unwrap();
        assert_eq!(fp.objects, vec![sel_tree.handle(), data.handle()]);
        assert_eq!(counting.1.get(), 1);
        footprint_many(&counting, &[sel_thunk, sel_thunk], &NoResolution).unwrap();
        assert_eq!(counting.1.get(), 3);
    }

    #[test]
    fn missing_data_is_reported() {
        let (src, code, _) = setup();
        // `code` was never inserted.
        let tree = Tree::from_handles(vec![limits_handle(), code.handle()]);
        let mut src2 = src.clone();
        src2.insert_tree(&tree);
        let thunk = tree.handle().application().unwrap();
        let err = footprint(&src2, thunk, &NoResolution).unwrap_err();
        assert!(matches!(err, Error::NotFound(h) if h == code.handle()));
    }
}
