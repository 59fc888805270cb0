//! The 256-bit Fix Handle: a self-describing, placement-independent name.
//!
//! Every Fix value is named by a Handle (paper §3.2): a truncated 192-bit
//! BLAKE3 digest, a 48-bit size, and 16 bits of type metadata, packed into
//! 32 bytes so a Handle fits in one SIMD register. As an optimization,
//! blobs of 30 bytes or fewer are *literals*: their content is stored
//! directly in the Handle and never touches storage.
//!
//! Byte layout (32 bytes total):
//!
//! ```text
//! canonical:  [ digest: 24 bytes ][ size: 6 bytes LE ][ kind ][ flags ]
//! literal:    [ content: 30 bytes, zero padded       ][ kind ][ flags ]
//! ```
//!
//! `kind` encodes Object / Ref / Thunk(Application|Identification|Selection)
//! / Encode(Strict|Shallow); `flags` encodes the referent data type
//! (Blob/Tree), the literal bit, and — for literals — the content length.

use crate::error::{Error, Result};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The two data types of Fix (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// A region of memory (an array of bytes).
    Blob,
    /// A collection of other Fix Handles.
    Tree,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Blob => write!(f, "blob"),
            DataType::Tree => write!(f, "tree"),
        }
    }
}

/// The three styles of deferred computation (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThunkKind {
    /// The execution of a function in a container of available data:
    /// the definition tree is `[resource-limits, function, args...]`.
    Application,
    /// The identity function applied to some data.
    Identification,
    /// Extraction of a subrange of a Blob or a Tree; the definition tree
    /// is `[target, begin]` or `[target, begin, end]`.
    Selection,
}

impl fmt::Display for ThunkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThunkKind::Application => write!(f, "apply"),
            ThunkKind::Identification => write!(f, "ident"),
            ThunkKind::Selection => write!(f, "select"),
        }
    }
}

/// How much evaluation an Encode requests (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncodeStyle {
    /// Maximum evaluation: the Thunk is replaced by its fully-evaluated
    /// result as an accessible Object, recursing into Trees.
    Strict,
    /// Minimum progress: the Thunk is evaluated until the result is not a
    /// Thunk, and the result is provided as an inaccessible Ref.
    Shallow,
}

impl fmt::Display for EncodeStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeStyle::Strict => write!(f, "strict"),
            EncodeStyle::Shallow => write!(f, "shallow"),
        }
    }
}

/// The full classification of a Handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A reference to accessible data: the holder may read it.
    Object(DataType),
    /// A reference to inaccessible data: only type and size are visible.
    Ref(DataType),
    /// A deferred computation.
    Thunk(ThunkKind),
    /// A request to evaluate a Thunk and splice in the result.
    Encode(EncodeStyle, ThunkKind),
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Object(t) => write!(f, "{t}:obj"),
            Kind::Ref(t) => write!(f, "{t}:ref"),
            Kind::Thunk(k) => write!(f, "thunk:{k}"),
            Kind::Encode(s, k) => write!(f, "encode:{s}:{k}"),
        }
    }
}

// Kind-byte encoding (byte 30).
const TAG_OBJECT: u8 = 0;
const TAG_REF: u8 = 1;
const TAG_THUNK: u8 = 2;
const TAG_ENCODE: u8 = 3;
const THUNK_APPLICATION: u8 = 0;
const THUNK_IDENTIFICATION: u8 = 1;
const THUNK_SELECTION: u8 = 2;
const STYLE_STRICT: u8 = 0;
const STYLE_SHALLOW: u8 = 1;

// Flag-byte encoding (byte 31).
const FLAG_TREE: u8 = 1 << 0;
const FLAG_LITERAL: u8 = 1 << 1;
const LITERAL_LEN_SHIFT: u8 = 2; // Bits 2..=6 hold the literal length (0..=30).

/// The maximum blob size that is stored inline in the Handle.
pub const MAX_LITERAL: usize = 30;

/// The number of digest bytes in a canonical Handle (192 bits).
pub const DIGEST_LEN: usize = 24;

/// Maximum representable size (48-bit field).
const MAX_SIZE: u64 = (1 << 48) - 1;

/// A 256-bit Fix Handle.
///
/// Handles are plain values: `Copy`, totally ordered, hashable, and cheap
/// to move between threads and (in the distributed engine) between nodes.
///
/// # Examples
///
/// ```
/// use fix_core::handle::{Handle, Kind, DataType};
///
/// let lit = Handle::literal(b"hi").unwrap();
/// assert!(lit.is_literal());
/// assert_eq!(lit.size(), 2);
/// assert_eq!(lit.kind(), Kind::Object(DataType::Blob));
/// assert_eq!(lit.literal_content().unwrap(), b"hi");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle([u8; 32]);

impl Handle {
    // ------------------------------------------------------------------
    // Constructors.
    // ------------------------------------------------------------------

    /// Creates a literal BlobObject handle holding `content` inline.
    ///
    /// Returns `None` if `content` is longer than [`MAX_LITERAL`] bytes.
    pub fn literal(content: &[u8]) -> Option<Handle> {
        if content.len() > MAX_LITERAL {
            return None;
        }
        let mut raw = [0u8; 32];
        raw[..content.len()].copy_from_slice(content);
        raw[30] = TAG_OBJECT;
        raw[31] = FLAG_LITERAL | ((content.len() as u8) << LITERAL_LEN_SHIFT);
        Some(Handle(raw))
    }

    /// Creates a canonical (digest-addressed) BlobObject handle.
    pub fn blob_object(digest: [u8; DIGEST_LEN], len: u64) -> Handle {
        Handle::canonical(digest, len, TAG_OBJECT, false)
    }

    /// Creates a canonical TreeObject handle; `count` is the entry count.
    pub fn tree_object(digest: [u8; DIGEST_LEN], count: u64) -> Handle {
        Handle::canonical(digest, count, TAG_OBJECT, true)
    }

    fn canonical(digest: [u8; DIGEST_LEN], size: u64, kind_byte: u8, is_tree: bool) -> Handle {
        debug_assert!(size <= MAX_SIZE, "size exceeds the 48-bit field");
        let mut raw = [0u8; 32];
        raw[..DIGEST_LEN].copy_from_slice(&digest);
        raw[24..30].copy_from_slice(&size.to_le_bytes()[..6]);
        raw[30] = kind_byte;
        raw[31] = if is_tree { FLAG_TREE } else { 0 };
        Handle(raw)
    }

    /// Reconstructs a Handle from its raw 32-byte representation,
    /// validating that the encoding is canonical.
    pub fn from_raw(raw: [u8; 32]) -> Result<Handle> {
        let h = Handle(raw);
        let kind_byte = raw[30];
        let flags = raw[31];
        let tag = kind_byte & 0b11;
        let thunk = (kind_byte >> 2) & 0b11;
        let reserved_kind = kind_byte >> 5;
        let literal = flags & FLAG_LITERAL != 0;
        let is_tree = flags & FLAG_TREE != 0;
        let style_bit = (kind_byte >> 4) & 1;

        let fail = |reason: &str| {
            Err(Error::MalformedTree {
                handle: h,
                reason: format!("invalid handle encoding: {reason}"),
            })
        };

        if reserved_kind != 0 {
            return fail("reserved kind bits set");
        }
        if flags >> 7 != 0 {
            return fail("reserved flag bit set");
        }
        if tag > TAG_ENCODE {
            return fail("bad tag");
        }
        if (tag == TAG_THUNK || tag == TAG_ENCODE) && thunk > THUNK_SELECTION {
            return fail("bad thunk kind");
        }
        if tag != TAG_ENCODE && style_bit != 0 {
            return fail("encode style bit set on non-encode");
        }
        if tag != TAG_THUNK && tag != TAG_ENCODE && thunk != 0 {
            return fail("thunk bits set on non-thunk");
        }
        if literal {
            if is_tree {
                return fail("literal trees are not representable");
            }
            let len = (flags >> LITERAL_LEN_SHIFT) as usize & 0x1f;
            if len > MAX_LITERAL {
                return fail("literal length exceeds 30");
            }
            // Padding beyond the literal content must be zero.
            if raw[len..30].iter().any(|&b| b != 0) {
                return fail("nonzero padding in literal");
            }
        } else if flags >> LITERAL_LEN_SHIFT != 0 {
            return fail("literal length bits set on canonical handle");
        }
        // Application and Selection thunks always target trees.
        if (tag == TAG_THUNK || tag == TAG_ENCODE)
            && (thunk == THUNK_APPLICATION || thunk == THUNK_SELECTION)
            && !is_tree
        {
            return fail("application/selection thunk must target a tree");
        }
        Ok(h)
    }

    /// Returns the raw 32-byte representation.
    pub fn raw(&self) -> &[u8; 32] {
        &self.0
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Classifies this handle.
    pub fn kind(&self) -> Kind {
        let kind_byte = self.0[30];
        let tag = kind_byte & 0b11;
        let ty = self.data_type();
        match tag {
            TAG_OBJECT => Kind::Object(ty),
            TAG_REF => Kind::Ref(ty),
            // The tag is two bits: TAG_THUNK or TAG_ENCODE.
            _ => {
                let tk = match (kind_byte >> 2) & 0b11 {
                    THUNK_APPLICATION => ThunkKind::Application,
                    THUNK_IDENTIFICATION => ThunkKind::Identification,
                    _ => ThunkKind::Selection,
                };
                if tag == TAG_THUNK {
                    Kind::Thunk(tk)
                } else {
                    let style = if (kind_byte >> 4) & 1 == STYLE_SHALLOW {
                        EncodeStyle::Shallow
                    } else {
                        EncodeStyle::Strict
                    };
                    Kind::Encode(style, tk)
                }
            }
        }
    }

    /// The data type of the referent.
    ///
    /// For Objects and Refs this is the data's own type. For Application
    /// and Selection thunks it is always [`DataType::Tree`] (the definition
    /// tree); for Identification thunks it is the identified datum's type.
    /// Encodes inherit from the wrapped thunk.
    fn data_type(&self) -> DataType {
        if self.0[31] & FLAG_TREE != 0 {
            DataType::Tree
        } else {
            DataType::Blob
        }
    }

    /// The size field: byte length for blobs, entry count for trees.
    ///
    /// For thunks and encodes this describes the definition target (the
    /// tree or datum named by the digest).
    pub fn size(&self) -> u64 {
        if self.is_literal() {
            ((self.0[31] >> LITERAL_LEN_SHIFT) & 0x1f) as u64
        } else {
            let mut buf = [0u8; 8];
            buf[..6].copy_from_slice(&self.0[24..30]);
            u64::from_le_bytes(buf)
        }
    }

    /// Whether the content is stored inline in the handle.
    pub fn is_literal(&self) -> bool {
        self.0[31] & FLAG_LITERAL != 0
    }

    /// The inline content, if this is a literal handle.
    pub fn literal_content(&self) -> Option<&[u8]> {
        if self.is_literal() {
            Some(&self.0[..self.size() as usize])
        } else {
            None
        }
    }

    /// The truncated 192-bit digest, if this is a canonical handle.
    pub fn digest(&self) -> Option<[u8; DIGEST_LEN]> {
        if self.is_literal() {
            None
        } else {
            let mut d = [0u8; DIGEST_LEN];
            d.copy_from_slice(&self.0[..DIGEST_LEN]);
            Some(d)
        }
    }

    /// True for Objects and Refs (evaluated values, i.e. normal forms).
    pub fn is_value(&self) -> bool {
        matches!(self.kind(), Kind::Object(_) | Kind::Ref(_))
    }

    /// True if the holder may read the referent's data.
    pub fn is_accessible(&self) -> bool {
        matches!(self.kind(), Kind::Object(_))
    }

    /// True for Thunks of any kind.
    pub fn is_thunk(&self) -> bool {
        matches!(self.kind(), Kind::Thunk(_))
    }

    /// True for Encodes of any style.
    pub fn is_encode(&self) -> bool {
        matches!(self.kind(), Kind::Encode(..))
    }

    // ------------------------------------------------------------------
    // Kind transformations. These re-tag the same name: the payload
    // (digest or literal) never changes, so content addressing is stable.
    // ------------------------------------------------------------------

    fn with_kind_byte(mut self, kind_byte: u8) -> Handle {
        self.0[30] = kind_byte;
        self
    }

    /// Demotes an Object to a Ref (inaccessible); idempotent on Refs.
    ///
    /// # Panics
    ///
    /// Panics if called on a Thunk or Encode — those are not data
    /// references and have no accessibility to demote.
    pub fn as_ref_handle(self) -> Handle {
        match self.kind() {
            Kind::Object(_) | Kind::Ref(_) => self.with_kind_byte(TAG_REF),
            // invariant: the documented contract — callers pass values.
            k => panic!("as_ref_handle on non-value handle ({k})"),
        }
    }

    /// Promotes a Ref to an Object (accessible); idempotent on Objects.
    ///
    /// Only the runtime may do this, after ensuring the data is local;
    /// guest procedures are never given the ability to call it.
    ///
    /// # Panics
    ///
    /// Panics if called on a Thunk or Encode.
    pub fn as_object_handle(self) -> Handle {
        match self.kind() {
            Kind::Object(_) | Kind::Ref(_) => self.with_kind_byte(TAG_OBJECT),
            // invariant: the documented contract — callers pass values.
            k => panic!("as_object_handle on non-value handle ({k})"),
        }
    }

    /// Wraps a value in an Identification Thunk (the identity function).
    pub fn identification(self) -> Result<Handle> {
        match self.kind() {
            Kind::Object(_) | Kind::Ref(_) => {
                Ok(self.with_kind_byte(TAG_THUNK | (THUNK_IDENTIFICATION << 2)))
            }
            _ => Err(Error::TypeMismatch {
                handle: self,
                expected: "a value (Object or Ref) to identify",
            }),
        }
    }

    /// Turns a tree describing an invocation into an Application Thunk.
    pub fn application(self) -> Result<Handle> {
        match self.kind() {
            Kind::Object(DataType::Tree) | Kind::Ref(DataType::Tree) => {
                Ok(self.with_kind_byte(TAG_THUNK | (THUNK_APPLICATION << 2)))
            }
            _ => Err(Error::TypeMismatch {
                handle: self,
                expected: "a tree describing an invocation",
            }),
        }
    }

    /// Turns a tree describing a selection into a Selection Thunk.
    pub fn selection(self) -> Result<Handle> {
        match self.kind() {
            Kind::Object(DataType::Tree) | Kind::Ref(DataType::Tree) => {
                Ok(self.with_kind_byte(TAG_THUNK | (THUNK_SELECTION << 2)))
            }
            _ => Err(Error::TypeMismatch {
                handle: self,
                expected: "a tree describing a selection",
            }),
        }
    }

    /// Wraps a Thunk in an Encode of the given style.
    pub fn encode(self, style: EncodeStyle) -> Result<Handle> {
        match self.kind() {
            Kind::Thunk(_) => {
                let style_bit = match style {
                    EncodeStyle::Strict => STYLE_STRICT,
                    EncodeStyle::Shallow => STYLE_SHALLOW,
                };
                Ok(self.with_kind_byte(TAG_ENCODE | (self.0[30] & 0b1100) | (style_bit << 4)))
            }
            _ => Err(Error::TypeMismatch {
                handle: self,
                expected: "a Thunk to encode",
            }),
        }
    }

    /// Wraps a Thunk in a Strict Encode.
    pub fn strict(self) -> Result<Handle> {
        self.encode(EncodeStyle::Strict)
    }

    /// Wraps a Thunk in a Shallow Encode.
    pub fn shallow(self) -> Result<Handle> {
        self.encode(EncodeStyle::Shallow)
    }

    /// Unwraps an Encode back to the Thunk it requests evaluation of.
    pub fn encoded_thunk(self) -> Result<Handle> {
        match self.kind() {
            Kind::Encode(_, _) => Ok(self.with_kind_byte(TAG_THUNK | (self.0[30] & 0b1100))),
            _ => Err(Error::TypeMismatch {
                handle: self,
                expected: "an Encode to unwrap",
            }),
        }
    }

    /// Recovers the definition target of a Thunk, as an accessible Object.
    ///
    /// For Application and Selection thunks this is the definition tree;
    /// for Identification thunks it is the identified datum.
    pub fn thunk_definition(self) -> Result<Handle> {
        match self.kind() {
            Kind::Thunk(_) => Ok(self.with_kind_byte(TAG_OBJECT)),
            _ => Err(Error::TypeMismatch {
                handle: self,
                expected: "a Thunk",
            }),
        }
    }
}

/// The trace id of a handle, or of its payload key, which shares its
/// first bytes: those 8 bytes, little-endian. The serve layer's events
/// and routing key, the scheduler's job events and the durable tier's
/// frame events all take it from here, so one request's events carry
/// one id. Collisions are irrelevant: ids only correlate events.
pub fn trace_id(bytes: &[u8; 32]) -> u64 {
    let [a, b, c, d, e, f, g, h, ..] = *bytes;
    u64::from_le_bytes([a, b, c, d, e, f, g, h])
}

/// The canonical lookup key: the handle's payload and type, with the
/// kind byte stripped (an Object and a Ref to the same bytes are the
/// same stored datum). Because the canonical Object tag is zero, a
/// payload key is itself a valid raw Object handle — the durable tier
/// exploits this to reconstruct a handle from an on-disk key.
pub fn payload_key(handle: Handle) -> [u8; 32] {
    let mut key = *handle.raw();
    key[30] = 0;
    key
}

/// Bytes that must move to make the datum `handle` names resident, from
/// the handle alone (the size rides in the name: blob length, or 32
/// bytes per tree entry) — `Node::transfer_size` without the node.
pub fn transfer_size(handle: Handle) -> u64 {
    match handle.kind() {
        Kind::Object(DataType::Tree) | Kind::Ref(DataType::Tree) => 32 * handle.size(),
        _ => handle.size(),
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(content) = self.literal_content() {
            if content.iter().all(|b| b.is_ascii_graphic() || *b == b' ') {
                write!(
                    f,
                    "{}:lit:\"{}\"",
                    self.kind(),
                    String::from_utf8_lossy(content)
                )
            } else {
                write!(f, "{}:lit:0x{}", self.kind(), fix_hash::to_hex(content))
            }
        } else {
            // A canonical handle leads with its digest.
            write!(
                f,
                "{}:{}…:{}",
                self.kind(),
                fix_hash::to_hex(&self.0[..6]),
                self.size()
            )
        }
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

// ----------------------------------------------------------------------
// Hashing handle-shaped keys.
// ----------------------------------------------------------------------

/// A `HashMap` keyed on handle bytes (a [`Handle`], a payload key, a
/// digest, or a small tuple or enum around one), hashed by
/// [`HandleBuildHasher`].
pub type HandleMap<K, V> = HashMap<K, V, HandleBuildHasher>;

/// The set counterpart of [`HandleMap`].
pub type HandleSet<K> = HashSet<K, HandleBuildHasher>;

/// The [`BuildHasher`] for maps keyed on handle bytes.
///
/// A canonical handle already *is* a BLAKE3 digest, so running a
/// general-purpose byte hash over it again buys nothing; this folds the
/// key's 8-byte words into one `u64` with a multiply per word.
///
/// It is **keyed**, with a seed drawn once per process from the standard
/// library's [`RandomState`](std::collections::hash_map::RandomState):
/// a literal handle carries up to 30 bytes of caller-chosen content in
/// the very bytes being folded, and grinding a digest until 20 low bits
/// collide is cheap, so an unkeyed fold would let outside input pile
/// every key into one bucket chain. Under a secret seed each word is
/// xored into unknown state before it is multiplied, and iteration order
/// stays as unspecified as the default hasher leaves it.
///
/// The slice length prefix (`write_usize`) is dropped, so the hasher is
/// only for fixed-width keys: byte arrays, [`Handle`]s, and enums or
/// tuples over them (discriminants arrive through `write_isize` and are
/// folded).
#[derive(Debug, Clone, Copy)]
pub struct HandleBuildHasher {
    seed: u64,
}

impl Default for HandleBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed =
            *SEED.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one("fix"));
        HandleBuildHasher { seed }
    }
}

impl HandleBuildHasher {
    /// Picks one of `shards` lock shards for `key` from the same fold
    /// the shard's map buckets by. The bits taken sit between the low
    /// bits (hashbrown's bucket index) and the top seven (its control
    /// byte), so keys that share a shard still differ in both.
    pub fn shard_of<K: std::hash::Hash + ?Sized>(&self, key: &K, shards: usize) -> usize {
        (self.hash_one(key) >> 40) as usize % shards
    }
}

impl BuildHasher for HandleBuildHasher {
    type Hasher = HandleHasher;

    #[inline]
    fn build_hasher(&self) -> HandleHasher {
        HandleHasher { state: self.seed }
    }
}

/// The word fold behind [`HandleBuildHasher`].
#[derive(Debug, Clone, Copy)]
pub struct HandleHasher {
    state: u64,
}

impl HandleHasher {
    /// One folded multiply: the high half of the 128-bit product xored
    /// into the low half, so every input bit reaches both the low bits
    /// and the top seven of the result.
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
        self.state = (product as u64) ^ (product >> 64) as u64;
    }
}

impl Hasher for HandleHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for &word in words {
            self.fold(u64::from_le_bytes(word));
        }
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(last));
        }
    }

    /// The length prefix of a slice or array: constant for every key
    /// this hasher is for, so not folded.
    #[inline]
    fn write_usize(&mut self, _len: usize) {}

    /// An enum discriminant (`Job::Eval` vs `Job::Force`, a `Relation`).
    #[inline]
    fn write_isize(&mut self, discriminant: isize) {
        self.fold(discriminant as u64);
    }

    /// No further mixing: the last fold already spread its input over
    /// the low bits and the top seven.
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    /// Max and mean load when `hashes` are dealt into `buckets` by `f`.
    fn max_load(hashes: &[u64], buckets: usize, f: impl Fn(u64) -> usize) -> (usize, usize) {
        let mut load = vec![0usize; buckets];
        for &h in hashes {
            load[f(h)] += 1;
        }
        (
            load.into_iter().max().expect("buckets > 0"),
            hashes.len() / buckets,
        )
    }

    /// hashbrown indexes buckets by the low bits and tags slots with the
    /// top seven: both must spread, for content-keyed and digest-keyed
    /// handles alike.
    fn assert_spreads(hashes: &[u64], what: &str) {
        let (max, mean) = max_load(hashes, 1 << 10, |h| (h & 0x3ff) as usize);
        assert!(
            max <= 2 * mean,
            "{what}: low bits load {max} vs mean {mean}"
        );
        let (max, mean) = max_load(hashes, 1 << 7, |h| (h >> 57) as usize);
        assert!(
            max <= 2 * mean,
            "{what}: top bits load {max} vs mean {mean}"
        );
    }

    #[test]
    fn literal_and_digest_handles_spread_over_buckets_and_control_bytes() {
        let build = HandleBuildHasher::default();
        let literals: Vec<u64> = (0..1u64 << 16)
            .map(|i| build.hash_one(Handle::literal(&i.to_le_bytes()).expect("8 bytes")))
            .collect();
        assert_spreads(&literals, "u64 literals");
        let digests: Vec<u64> = (0..1u64 << 16)
            .map(|i| {
                let digest = fix_hash::hash_truncated192(&i.to_le_bytes());
                build.hash_one(Handle::blob_object(digest, 64))
            })
            .collect();
        assert_spreads(&digests, "digest handles");
    }

    #[test]
    fn discriminants_and_seeds_reach_the_hash() {
        #[derive(Hash)]
        enum Tagged {
            A(Handle),
            B(Handle),
        }
        let h = Handle::literal(b"same payload").expect("fits");
        let build = HandleBuildHasher::default();
        assert_ne!(
            build.hash_one(Tagged::A(h)),
            build.hash_one(Tagged::B(h)),
            "the variant must perturb the hash"
        );
        let (one, two) = (HandleBuildHasher { seed: 1 }, HandleBuildHasher { seed: 2 });
        assert_ne!(one.hash_one(h), two.hash_one(h), "the fold must be keyed");
        assert_ne!(one.hash_one(*h.raw()), two.hash_one(*h.raw()));
    }
}
