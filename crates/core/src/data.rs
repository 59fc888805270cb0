//! Fix data: Blobs and Trees, and their canonical content addressing.
//!
//! Data are represented in a format that minimizes copying (paper §3.2):
//! a Blob is a contiguous, cheaply-cloneable byte region ([`bytes::Bytes`])
//! and a Tree is a reference-counted sequence of 32-byte Handles.
//!
//! Content addressing is domain separated: blob digests and tree digests
//! are computed with different BLAKE3 keys, so a Tree whose serialized
//! entries happen to equal some Blob's bytes can never alias it.

use crate::handle::{DataType, Handle, Kind, DIGEST_LEN};
use bytes::Bytes;
use std::sync::{Arc, OnceLock};

fn blob_key() -> &'static fix_hash::Key {
    static KEY: OnceLock<fix_hash::Key> = OnceLock::new();
    KEY.get_or_init(|| fix_hash::Key::new(&fix_hash::hash(b"fix-v1:blob")))
}

fn tree_key() -> &'static fix_hash::Key {
    static KEY: OnceLock<fix_hash::Key> = OnceLock::new();
    KEY.get_or_init(|| fix_hash::Key::new(&fix_hash::hash(b"fix-v1:tree")))
}

fn truncate(digest: [u8; 32]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(&digest[..DIGEST_LEN]);
    out
}

/// Computes the truncated, domain-separated digest of blob contents.
fn blob_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    truncate(blob_key().hash(data))
}

/// A region of memory: the atomic unit of Fix data.
///
/// Cloning a Blob is O(1); the underlying bytes are shared.
///
/// # Examples
///
/// ```
/// use fix_core::data::Blob;
///
/// let blob = Blob::from_slice(b"hello");
/// assert_eq!(blob.len(), 5);
/// assert!(blob.handle().is_literal()); // Five bytes fit inline.
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    bytes: Bytes,
}

impl Blob {
    /// Creates a blob by copying from a slice.
    pub fn from_slice(data: &[u8]) -> Blob {
        Blob {
            bytes: Bytes::copy_from_slice(data),
        }
    }

    /// Creates a blob from an owned byte vector without copying.
    pub fn from_vec(data: Vec<u8>) -> Blob {
        Blob {
            bytes: Bytes::from(data),
        }
    }

    /// Creates a blob from shared bytes without copying.
    pub fn from_bytes(bytes: Bytes) -> Blob {
        Blob { bytes }
    }

    /// Encodes a `u64` as an 8-byte little-endian blob (always a literal).
    pub fn from_u64(v: u64) -> Blob {
        Blob::from_slice(&v.to_le_bytes())
    }

    /// Decodes a little-endian unsigned integer of 1, 2, 4, or 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let mut buf = [0u8; 8];
        match self.len() {
            1 | 2 | 4 | 8 => {
                buf[..self.len()].copy_from_slice(&self.bytes);
                Some(u64::from_le_bytes(buf))
            }
            _ => None,
        }
    }

    /// The blob's bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// The underlying shared byte buffer.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the blob is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Zero-copy sub-range of this blob (used by Selection thunks).
    pub fn slice(&self, begin: usize, end: usize) -> Blob {
        Blob {
            bytes: self.bytes.slice(begin..end),
        }
    }

    /// The canonical Handle naming this blob: a literal for contents of 30
    /// bytes or fewer, otherwise a digest-addressed BlobObject.
    pub fn handle(&self) -> Handle {
        match Handle::literal(&self.bytes) {
            Some(literal) => literal,
            None => Handle::blob_object(blob_digest(&self.bytes), self.len() as u64),
        }
    }
}

impl From<&[u8]> for Blob {
    fn from(v: &[u8]) -> Blob {
        Blob::from_slice(v)
    }
}

impl From<Vec<u8>> for Blob {
    fn from(v: Vec<u8>) -> Blob {
        Blob::from_vec(v)
    }
}

impl From<&str> for Blob {
    fn from(v: &str) -> Blob {
        Blob::from_slice(v.as_bytes())
    }
}

/// A collection of Handles: the branching unit of Fix data.
///
/// Cloning a Tree is O(1); entries are shared.
///
/// # Examples
///
/// ```
/// use fix_core::data::{Blob, Tree};
///
/// let t = Tree::from_handles(vec![Blob::from_slice(b"a").handle()]);
/// assert_eq!(t.len(), 1);
/// assert!(!t.handle().is_literal()); // Trees are always digest addressed.
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    entries: Arc<[Handle]>,
}

impl Tree {
    /// Creates a tree from a vector of entry handles.
    pub fn from_handles(entries: Vec<Handle>) -> Tree {
        Tree {
            entries: entries.into(),
        }
    }

    /// The entry handles.
    pub fn entries(&self) -> &[Handle] {
        &self.entries
    }

    /// The entry at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<Handle> {
        self.entries.get(index).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sub-range of entries as a new Tree (used by Selection thunks).
    pub fn slice(&self, begin: usize, end: usize) -> Tree {
        Tree::from_handles(self.entries[begin..end].to_vec())
    }

    /// The canonical serialization: entry handles concatenated, 32 bytes
    /// each. This is also the wire format for shipping trees between nodes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * 32);
        for h in self.entries.iter() {
            out.extend_from_slice(h.raw());
        }
        out
    }

    /// Parses a canonical serialization back into a Tree, validating every
    /// handle encoding.
    pub fn from_canonical_bytes(data: &[u8]) -> crate::error::Result<Tree> {
        if !data.len().is_multiple_of(32) {
            return Err(crate::error::Error::Trap(format!(
                "tree serialization length {} is not a multiple of 32",
                data.len()
            )));
        }
        let mut entries = Vec::with_capacity(data.len() / 32);
        for chunk in data.chunks_exact(32) {
            let mut raw = [0u8; 32];
            raw.copy_from_slice(chunk);
            entries.push(Handle::from_raw(raw)?);
        }
        Ok(Tree::from_handles(entries))
    }

    /// The canonical Handle naming this tree: the digest of
    /// [`canonical_bytes`](Tree::canonical_bytes), fed to the hash entry
    /// by entry instead of through that copy.
    pub fn handle(&self) -> Handle {
        let digest = tree_key().hash_parts(self.entries.iter().map(|h| &h.raw()[..]));
        Handle::tree_object(truncate(digest), self.entries.len() as u64)
    }
}

impl From<Vec<Handle>> for Tree {
    fn from(v: Vec<Handle>) -> Tree {
        Tree::from_handles(v)
    }
}

/// Collects straight into the shared entry slice: an iterator of known
/// length (a chain of arrays and slices, say) is one allocation.
impl FromIterator<Handle> for Tree {
    fn from_iter<I: IntoIterator<Item = Handle>>(iter: I) -> Tree {
        Tree {
            entries: iter.into_iter().collect(),
        }
    }
}

/// A stored datum: either a Blob or a Tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Blob data.
    Blob(Blob),
    /// Tree data.
    Tree(Tree),
}

impl Node {
    /// The canonical Handle naming this datum.
    pub fn handle(&self) -> Handle {
        match self {
            Node::Blob(b) => b.handle(),
            Node::Tree(t) => t.handle(),
        }
    }

    /// Approximate storage / transfer size in bytes (blob length, or 32
    /// bytes per tree entry).
    pub fn transfer_size(&self) -> u64 {
        match self {
            Node::Blob(b) => b.len() as u64,
            Node::Tree(t) => (t.len() * 32) as u64,
        }
    }

    /// Borrows the blob, or fails with a type mismatch.
    pub fn as_blob(&self) -> crate::error::Result<&Blob> {
        match self {
            Node::Blob(b) => Ok(b),
            Node::Tree(_) => Err(crate::error::Error::TypeMismatch {
                handle: self.handle(),
                expected: "blob",
            }),
        }
    }

    /// Borrows the tree, or fails with a type mismatch.
    pub fn as_tree(&self) -> crate::error::Result<&Tree> {
        match self {
            Node::Tree(t) => Ok(t),
            Node::Blob(_) => Err(crate::error::Error::TypeMismatch {
                handle: self.handle(),
                expected: "tree",
            }),
        }
    }
}

/// Reads the data behind a literal handle back out as a Blob.
///
/// Returns `None` for canonical (digest-addressed) handles — those must be
/// looked up in storage.
pub fn literal_blob(handle: Handle) -> Option<Blob> {
    match handle.kind() {
        Kind::Object(DataType::Blob) | Kind::Ref(DataType::Blob) => {
            handle.literal_content().map(Blob::from_slice)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Kind;

    /// The truncated, domain-separated digest of serialized tree
    /// entries: the reference a tree's handle is checked against.
    fn tree_digest(serialized_entries: &[u8]) -> [u8; DIGEST_LEN] {
        truncate(tree_key().hash(serialized_entries))
    }

    #[test]
    fn small_blob_is_literal() {
        let blob = Blob::from_slice(b"0123456789012345678901234567890"[..30].as_ref());
        assert!(blob.handle().is_literal());
        assert_eq!(blob.handle().size(), 30);
        let bigger = Blob::from_slice(b"0123456789012345678901234567890");
        assert!(!bigger.handle().is_literal());
        assert_eq!(bigger.handle().size(), 31);
    }

    #[test]
    fn blob_tree_digests_are_domain_separated() {
        // A tree with one literal entry serializes to 32 bytes; a blob with
        // those same 32 bytes must not share the digest.
        let tree = Tree::from_handles(vec![Blob::from_slice(b"x").handle()]);
        let raw = tree.canonical_bytes();
        let blob = Blob::from_vec(raw);
        assert_ne!(
            tree.handle().digest().unwrap(),
            blob.handle().digest().unwrap()
        );
    }

    #[test]
    fn tree_round_trips_canonical_bytes() {
        let entries = vec![
            Blob::from_slice(b"a").handle(),
            Blob::from_slice(&[7u8; 100]).handle(),
            Tree::from_handles(vec![]).handle(),
        ];
        let tree = Tree::from_handles(entries.clone());
        let parsed = Tree::from_canonical_bytes(&tree.canonical_bytes()).unwrap();
        assert_eq!(parsed.entries(), entries.as_slice());
        assert_eq!(parsed.handle(), tree.handle());
    }

    #[test]
    fn tree_handle_is_the_digest_of_its_canonical_bytes() {
        let leaf = Blob::from_slice(&[3u8; 40]).handle();
        for len in [0usize, 1, 4, 31, 32, 33, 100] {
            let tree = Tree::from_handles(vec![leaf; len]);
            let expect = Handle::tree_object(tree_digest(&tree.canonical_bytes()), len as u64);
            assert_eq!(tree.handle(), expect, "{len} entries");
        }
    }

    #[test]
    fn u64_round_trip() {
        let blob = Blob::from_u64(0xDEAD_BEEF_1234);
        assert_eq!(blob.as_u64(), Some(0xDEAD_BEEF_1234));
        assert!(blob.handle().is_literal());
    }

    #[test]
    fn literal_blob_readback() {
        let h = Blob::from_slice(b"tiny").handle();
        assert_eq!(literal_blob(h).unwrap().as_slice(), b"tiny");
        let big = Blob::from_slice(&[1u8; 64]).handle();
        assert!(literal_blob(big).is_none());
    }

    #[test]
    fn node_accessors() {
        let b = Node::Blob(Blob::from_slice(b"data"));
        let t = Node::Tree(Tree::from_handles(vec![]));
        assert!(b.as_blob().is_ok());
        assert!(b.as_tree().is_err());
        assert!(t.as_tree().is_ok());
        assert!(t.as_blob().is_err());
        assert!(matches!(b.handle().kind(), Kind::Object(DataType::Blob)));
        assert!(matches!(t.handle().kind(), Kind::Object(DataType::Tree)));
    }

    #[test]
    fn same_content_same_handle() {
        let a = Blob::from_vec(vec![9u8; 1000]);
        let b = Blob::from_slice(&[9u8; 1000]);
        assert_eq!(a.handle(), b.handle());
    }
}
