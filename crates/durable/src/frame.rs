//! The on-disk framing: length-prefixed, checksummed records.
//!
//! The durable file — the append-only log — is a magic header followed
//! by a sequence of *frames*:
//!
//! ```text
//! [ u32 payload length ][ u32 CRC-32 of payload ][ payload ]
//! ```
//!
//! A frame payload is one *record*, discriminated by its first byte:
//!
//! * `1` (node) — `[ 32-byte payload key ][ Parcel bytes ]`: one stored
//!   object, encoded as a single-object [`fix_core::wire::Parcel`] whose
//!   root is the object's canonical handle. Reusing the parcel format
//!   means every fault-in re-verifies the payload against its
//!   content-addressed name for free.
//! * `2` (relation) — `[ u8 relation ][ 32-byte input ][ 32-byte output ]`:
//!   one memoized evaluation relation.
//! * `4` (tombstone) — `[ 32-byte payload key ]`: the object under this
//!   key was collected or forgotten. Replay applies records in log
//!   order, so a tombstone undoes the node frames before it and a later
//!   node frame puts the object back.
//!
//! (Tag `3` was a snapshot file's commit record; it is not a record of
//! the log, and a scan stops at it like at any unknown tag.)
//!
//! Scanning is *lazy* and *streamed*: frames are read one at a time
//! through a reusable buffer, and node frames are classified by peeking
//! the key and the parcel's root handle without parsing (or verifying)
//! the payload — that work is deferred to first touch. A scan stops at
//! the first invalid frame (bad length or checksum); everything after it
//! is an unsynced torn tail, reported so recovery can truncate it.
//!
//! Frames are *built* here too, straight from `(key, handle, node)` into
//! the caller's buffer: the store already holds the handle, so writing
//! an object hashes nothing. [`decode_node`] is the one place the
//! durable tier derives a name from bytes.

use fix_core::data::Node;
use fix_core::error::{Error, Result};
use fix_core::handle::Handle;
use fix_core::wire::Parcel;
use fix_storage::Relation;
use std::io::{self, Read};

/// The 8-byte magic opening the append-only log.
pub const LOG_MAGIC: &[u8; 8] = b"FIXLOG1\0";

const TAG_NODE: u8 = 1;
const TAG_RELATION: u8 = 2;
const TAG_TOMBSTONE: u8 = 4;

/// Frame header size: u32 length + u32 checksum.
pub const FRAME_HEADER: usize = 8;
/// Length of a whole relation frame: header, tag, relation, two handles.
pub const RELATION_FRAME: usize = FRAME_HEADER + 66;
/// Length of a whole tombstone frame: header, tag, key.
pub const TOMBSTONE_FRAME: usize = FRAME_HEADER + 33;

// CRC-32 (IEEE 802.3 polynomial, reflected) has two kernels with one
// output. `fold` folds 64 bytes per step with carry-less multiplies
// (PCLMULQDQ) and reduces through Barrett to 32 bits; `sliced` is the
// slicing-by-8 register update: table `k` advances a byte's
// contribution past `k` further zero bytes, so eight lookups retire
// eight input bytes per step. `sliced` runs on a CPU without PCLMULQDQ,
// on any input under 64 bytes and on `fold`'s tail under 16
// bytes, and it is the oracle `fold` is pinned to. CPU detection picks
// the kernel; nothing else does.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    folded(data).unwrap_or_else(|| !sliced(!0, data))
}

/// Advances the CRC register `c` (not inverted) over `data`.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, rest) = data.as_chunks::<8>();
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The CRC-32 of `data` by [`fold`], when this CPU has what it needs.
fn folded(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `fold` enables PCLMULQDQ, detected just above.
        #[allow(unsafe_code)]
        let crc = unsafe { fold::fold(data) };
        return Some(crc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
    None
}

#[cfg(target_arch = "x86_64")]
mod fold {
    //! The folded CRC-32 (Gopal et al., "Fast CRC Computation for Generic
    //! Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in its
    //! bit-reflected form. Each fold constant is `[(x^n mod P(x)) <<
    //! 32]' << 1`, `'` being bit reflection, for the `n` its fold
    //! distance needs.
    use std::arch::x86_64::*;

    /// Folds a lane 512 bits ahead: `x^(4·128+32)`, `x^(4·128-32)`.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Folds a lane 128 bits ahead: `x^(128+32)`, `x^(128-32)`.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// Folds 64 bits down to 32: `x^64`.
    const K5: i64 = 0x1_63CD_6124;
    /// The polynomial `P(x)` and Barrett's `⌊x^64 / P(x)⌋`, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// One 16-byte block as a 128-bit lane, first byte lowest.
    #[target_feature(enable = "pclmulqdq")]
    fn lane(block: &[u8; 16]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let word = |half: &[u8]| {
            i64::from_le_bytes([
                half[0], half[1], half[2], half[3], half[4], half[5], half[6], half[7],
            ])
        };
        _mm_set_epi64x(word(hi), word(lo))
    }

    /// Folds `acc` forward over the distance `keys` encode onto `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The CRC-32 of `data`: four lanes fold 64 bytes per step, then
    /// one lane, then 128 → 64 → 32 bits; the tail under 16 bytes goes
    /// through the sliced update.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(data: &[u8]) -> u32 {
        if data.len() < 64 {
            return !super::sliced(!0, data);
        }
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        let mut x = [
            _mm_xor_si128(lane(&first[0]), _mm_cvtsi32_si128(!0)),
            lane(&first[1]),
            lane(&first[2]),
            lane(&first[3]),
        ];
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (acc, block) in x.iter_mut().zip(quad) {
                *acc = fold_into(*acc, lane(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], x[1], k3k4);
        acc = fold_into(acc, x[2], k3k4);
        acc = fold_into(acc, x[3], k3k4);
        for block in singles {
            acc = fold_into(acc, lane(block), k3k4);
        }

        // 128 → 64 bits, then 64 → 32 by Barrett reduction (the
        // reflected variant keeps the result in the upper word).
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
        !super::sliced(c, tail)
    }
}

/// A frame header's two fields: payload length and payload checksum.
pub(crate) fn header_fields(header: &[u8]) -> (u32, u32) {
    let word = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    (word(0), word(4))
}

/// Appends one frame to `out`: the record `body` writes, behind the
/// length and checksum of exactly those bytes.
fn push_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    body(out);
    let payload = &out[start + FRAME_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Appends the frame of one stored object: `(payload key, single-object
/// parcel rooted at handle)`. `handle` is `node`'s canonical handle,
/// which the caller already holds — nothing is hashed here.
pub fn push_node(out: &mut Vec<u8>, key: &[u8; 32], handle: Handle, node: &Node) {
    push_frame(out, |out| {
        out.push(TAG_NODE);
        out.extend_from_slice(key);
        out.extend_from_slice(fix_core::wire::MAGIC);
        out.extend_from_slice(handle.raw());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(handle.raw());
        out.extend_from_slice(&(node.transfer_size() as u32).to_le_bytes());
        match node {
            Node::Blob(b) => out.extend_from_slice(b.as_slice()),
            Node::Tree(t) => {
                for entry in t.entries() {
                    out.extend_from_slice(entry.raw());
                }
            }
        }
    });
}

/// Appends the frame of one memoized relation.
pub fn push_relation(out: &mut Vec<u8>, relation: Relation, input: Handle, output: Handle) {
    push_frame(out, |out| {
        out.push(TAG_RELATION);
        out.push(match relation {
            Relation::Eval => 0,
            Relation::Apply => 1,
            Relation::Force => 2,
        });
        out.extend_from_slice(input.raw());
        out.extend_from_slice(output.raw());
    });
}

/// Appends the tombstone of the object stored under `key`.
pub fn push_tombstone(out: &mut Vec<u8>, key: &[u8; 32]) {
    push_frame(out, |out| {
        out.push(TAG_TOMBSTONE);
        out.extend_from_slice(key);
    });
}

/// Parses one whole frame holding a node record, as read back from the
/// offset an index slot names (fault-in path): the checksum must match,
/// the frame must be exactly `frame` long, and the object's bytes are
/// re-verified against its content-addressed name. Returns the object
/// beside the handle its bytes were just hashed to; whether that is the
/// object the caller wanted is the caller's check (the record's own key
/// field is what the index was built from, not evidence).
pub fn decode_node(frame: &[u8]) -> Result<(Handle, Node)> {
    let malformed = |r: &str| Error::Backend {
        backend: "durable",
        message: format!("malformed node record: {r}"),
    };
    let (header, payload) = frame
        .split_at_checked(FRAME_HEADER)
        .ok_or_else(|| malformed("truncated frame header"))?;
    let (len, crc) = header_fields(header);
    if payload.len() != len as usize || crc32(payload) != crc {
        return Err(malformed("bad frame length or checksum"));
    }
    if payload.first() != Some(&TAG_NODE) || payload.len() < 33 {
        return Err(malformed("bad tag or truncated key"));
    }
    let parcel = Parcel::verify(&payload[33..])?;
    let root = parcel.root();
    match <[_; 1]>::try_from(parcel.into_objects()) {
        Ok([named @ (handle, _)]) if handle == root => Ok(named),
        _ => Err(malformed("expected exactly one object matching the root")),
    }
}

/// A record classified by a scan, without parsing node payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scanned {
    /// A stored object at `offset` (frame start, from the file head);
    /// `len` is the whole frame length including its header.
    Node {
        /// The object's payload key.
        key: [u8; 32],
        /// The object's canonical handle (parcel root, unverified —
        /// verification happens when the payload is parsed on fault-in).
        handle: Handle,
        /// Frame start offset in the file.
        offset: u64,
        /// Whole frame length (header + payload).
        len: u32,
    },
    /// A memoized relation.
    Relation(Relation, Handle, Handle),
    /// The object under this payload key was dropped.
    Tombstone([u8; 32]),
}

/// Streams the frames of a file through `each`, one record at a time,
/// stopping at the first invalid frame. `reader` stands just past the
/// magic, at file offset `base`; `end` is the file's length, which bounds
/// what a frame's length field may claim (so a torn header cannot make
/// the scan allocate). Node payloads are classified, not parsed.
///
/// Returns the offset one past the last valid frame; `end` minus that is
/// the torn or corrupt tail.
pub fn scan(
    reader: &mut impl Read,
    base: u64,
    end: u64,
    mut each: impl FnMut(Scanned),
) -> io::Result<u64> {
    let mut valid_len = base;
    let mut payload = Vec::new();
    while end - valid_len >= FRAME_HEADER as u64 {
        let mut header = [0u8; FRAME_HEADER];
        reader.read_exact(&mut header)?;
        let (len, declared_crc) = header_fields(&header);
        let frame_len = FRAME_HEADER as u64 + len as u64;
        if frame_len > end - valid_len || frame_len > u32::MAX as u64 {
            break; // Torn mid-payload.
        }
        payload.resize(len as usize, 0);
        reader.read_exact(&mut payload)?;
        if crc32(&payload) != declared_crc {
            break; // Corrupt: treat like a torn tail (unsynced garbage).
        }
        let Some(record) = classify(&payload, valid_len, frame_len as u32) else {
            break; // Unknown tag or malformed record body.
        };
        each(record);
        valid_len += frame_len;
    }
    Ok(valid_len)
}

fn classify(payload: &[u8], offset: u64, frame_len: u32) -> Option<Scanned> {
    match *payload.first()? {
        TAG_NODE => {
            // [tag][key:32][parcel: magic:8 root:32 ...] — peek the root
            // handle without touching the object bytes.
            let key: [u8; 32] = payload.get(1..33)?.try_into().ok()?;
            if payload.get(33..41)? != fix_core::wire::MAGIC {
                return None;
            }
            let raw: [u8; 32] = payload.get(41..73)?.try_into().ok()?;
            let handle = Handle::from_raw(raw).ok()?;
            Some(Scanned::Node {
                key,
                handle,
                offset,
                len: frame_len,
            })
        }
        TAG_RELATION => {
            let relation = match payload.get(1)? {
                0 => Relation::Eval,
                1 => Relation::Apply,
                2 => Relation::Force,
                _ => return None,
            };
            let input: [u8; 32] = payload.get(2..34)?.try_into().ok()?;
            let output: [u8; 32] = payload.get(34..66)?.try_into().ok()?;
            if payload.len() != 66 {
                return None;
            }
            Some(Scanned::Relation(
                relation,
                Handle::from_raw(input).ok()?,
                Handle::from_raw(output).ok()?,
            ))
        }
        TAG_TOMBSTONE => {
            let key: [u8; 32] = payload.get(1..)?.try_into().ok()?;
            Some(Scanned::Tombstone(key))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::{Blob, Tree};
    use fix_storage::payload_key;

    /// The byte-at-a-time CRC-32 the log was first written with: the
    /// oracle for the sliced one.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = &CRC_TABLES[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// A node frame as the first format writer built it: a `Parcel`
    /// serialized by `fix-core`, behind tag and key, framed around the
    /// bytewise checksum. The format pin's reference.
    fn reference_node_frame(key: [u8; 32], node: &Node) -> Vec<u8> {
        let mut payload = vec![TAG_NODE];
        payload.extend_from_slice(&key);
        payload.extend_from_slice(&Parcel::new(node.handle(), vec![node.clone()]).to_bytes());
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32_bytewise(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn node_frame(node: &Node) -> Vec<u8> {
        let mut out = Vec::new();
        push_node(&mut out, &payload_key(node.handle()), node.handle(), node);
        out
    }

    fn scan_all(bytes: &[u8]) -> (Vec<Scanned>, u64) {
        let mut records = Vec::new();
        let end = 8 + bytes.len() as u64;
        let valid_len = scan(&mut &bytes[..], 8, end, |r| records.push(r)).unwrap();
        (records, valid_len)
    }

    /// The sliced kernel, inverted in and out like [`crc32`].
    fn crc32_sliced(data: &[u8]) -> u32 {
        !sliced(!0, data)
    }

    /// Seeded xorshift bytes.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Both kernels on one input, each called by name: each must equal
    /// the bytewise oracle. `folded` is `None` on a CPU without
    /// PCLMULQDQ (and [`crc32`] is then `sliced`).
    fn assert_kernels_agree(data: &[u8], what: &str) {
        let want = crc32_bytewise(data);
        assert_eq!(crc32_sliced(data), want, "sliced, {what}");
        if let Some(got) = folded(data) {
            assert_eq!(got, want, "folded, {what}");
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value for "123456789", on both kernels.
        for crc in [crc32, crc32_sliced] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
        if let Some(got) = folded(b"123456789") {
            assert_eq!(got, 0xCBF4_3926);
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = noise(4096 + 16, 0x9E37_79B9_7F4A_7C15);
        for start in 0..16 {
            for len in 0..=4096 {
                assert_kernels_agree(
                    &buf[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
    }

    #[test]
    fn crc32_kernels_agree_on_seeded_lengths_up_to_64_kib() {
        let buf = noise(64 * 1024 + 16, 0x2545_F491_4F6C_DD1D);
        let mut x = 0x1234_5678_9ABC_DEF1u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = (x % (64 * 1024 + 1)) as usize;
            let start = ((x >> 32) % 16) as usize;
            assert_kernels_agree(
                &buf[start..start + len],
                &format!("start {start} len {len}"),
            );
        }
    }

    #[test]
    fn built_frames_are_byte_identical_to_the_parcel_encoding() {
        let big = Blob::from_vec(vec![7u8; 100]).handle();
        for node in [
            Node::Blob(Blob::from_vec((0..=255).collect())),
            Node::Tree(Tree::from_handles(vec![])),
            Node::Tree(Tree::from_handles(vec![
                big,
                Blob::from_slice(b"lit").handle(),
                big.as_ref_handle(),
            ])),
        ] {
            let key = payload_key(node.handle());
            assert_eq!(node_frame(&node), reference_node_frame(key, &node));
        }
    }

    #[test]
    fn node_record_round_trips_and_scans_lazily() {
        let node = Node::Blob(Blob::from_vec(vec![7u8; 100]));
        let key = payload_key(node.handle());
        let bytes = node_frame(&node);
        assert_eq!(decode_node(&bytes).unwrap(), (node.handle(), node.clone()));

        let (records, valid_len) = scan_all(&bytes);
        assert_eq!(valid_len, 8 + bytes.len() as u64);
        assert_eq!(
            records,
            vec![Scanned::Node {
                key,
                handle: node.handle(),
                offset: 8,
                len: bytes.len() as u32,
            }]
        );
    }

    #[test]
    fn relation_and_tombstone_records_round_trip() {
        let tree = Tree::from_handles(vec![]);
        let input = tree.handle().application().unwrap();
        let output = Blob::from_vec(vec![9u8; 64]).handle();
        let key = payload_key(output);
        let mut bytes = Vec::new();
        push_relation(&mut bytes, Relation::Eval, input, output);
        assert_eq!(bytes.len(), RELATION_FRAME);
        push_tombstone(&mut bytes, &key);
        assert_eq!(bytes.len(), RELATION_FRAME + TOMBSTONE_FRAME);
        let (records, valid_len) = scan_all(&bytes);
        assert_eq!(valid_len, 8 + bytes.len() as u64);
        assert_eq!(
            records,
            vec![
                Scanned::Relation(Relation::Eval, input, output),
                Scanned::Tombstone(key),
            ]
        );
    }

    #[test]
    fn scan_stops_at_a_short_tombstone_and_an_unknown_tag() {
        let node = Node::Blob(Blob::from_vec(vec![4u8; 64]));
        let good = node_frame(&node);
        // Checksums right, records wrong: a tombstone one key byte short,
        // the retired commit tag, and a tag never assigned.
        for payload in [&[TAG_TOMBSTONE; 32][..], &[3, 0, 0, 0, 0, 0, 0, 0, 1], &[9]] {
            let mut bytes = good.clone();
            push_frame(&mut bytes, |out| out.extend_from_slice(payload));
            push_relation(&mut bytes, Relation::Eval, node.handle(), node.handle());
            let (records, valid_len) = scan_all(&bytes);
            assert_eq!(records.len(), 1, "{payload:?}");
            assert_eq!(valid_len, 8 + good.len() as u64, "{payload:?}");
        }
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut bytes = node_frame(&Node::Blob(Blob::from_vec(vec![1u8; 64])));
        let valid = bytes.len();
        // A torn frame: a header promising more bytes than exist.
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 11]);
        let (records, valid_len) = scan_all(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(valid_len, 8 + valid as u64);
        assert_eq!(bytes.len() - valid, 8 + 11);
        // Torn mid-header: fewer than eight bytes after the last frame.
        let (records, valid_len) = scan_all(&bytes[..valid + 5]);
        assert_eq!((records.len(), valid_len), (1, 8 + valid as u64));
    }

    #[test]
    fn scan_stops_at_corrupt_checksum() {
        let node = Node::Blob(Blob::from_vec(vec![2u8; 64]));
        let mut bytes = node_frame(&node);
        let first = bytes.len();
        push_relation(&mut bytes, Relation::Apply, node.handle(), node.handle());
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // Corrupt the second frame's payload.
        let (records, valid_len) = scan_all(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(valid_len, 8 + first as u64);
    }

    #[test]
    fn decode_rejects_mismatched_payload() {
        let node = Node::Blob(Blob::from_vec(vec![3u8; 64]));
        let good = node_frame(&node);
        // A flipped data byte fails the checksum ...
        let mut frame = good.clone();
        let n = frame.len();
        frame[n - 5] ^= 0xFF;
        assert!(decode_node(&frame).is_err());
        // ... and with the checksum recomputed over it, the content hash.
        let crc = crc32(&frame[FRAME_HEADER..]);
        frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        let err = decode_node(&frame).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        // A frame longer or shorter than its length field is refused.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_node(&long).is_err());
        assert!(decode_node(&good[..n - 1]).is_err());
    }
}
