//! `fix-hash`: a from-scratch BLAKE3 implementation.
//!
//! Fix content-addresses every object with a truncated 192-bit BLAKE3
//! digest (see the paper, §3.2). This crate provides the hash function
//! itself; the Handle packing lives in `fix-core`.
//!
//! Every name, fault verification and parcel check runs one chunk at a
//! time through the compression function, which has two kernels with
//! one output: the 4×4 state as four SSE4.1 row vectors, picked at run
//! time when the CPU has SSE4.1, and the portable word-at-a-time one,
//! which runs everywhere else. What is pinned to what:
//!
//! * the row kernel to the portable one, called by name on 10⁵ seeded
//!   inputs (counters past 2³², every block length and flag set);
//! * the whole hash, through whichever kernel this CPU picks, to
//!   published test vectors and to the official `blake3` crate (used
//!   strictly as a dev-dependency oracle) at every length boundary, in
//!   keyed, streaming and extended-output modes.
//!
//! The one `unsafe` in the crate is the call into the row kernel after
//! detection: `std::arch` intrinsics are safe inside a
//! `#[target_feature]` function, but calling one is not. The crate
//! root `deny`s `unsafe_code` and that call site alone allows it.
//!
//! # Examples
//!
//! ```
//! let digest = fix_hash::hash(b"hello world");
//! assert_eq!(digest.len(), 32);
//! // Truncated addressing as used by Fix handles:
//! let short = fix_hash::hash_truncated192(b"hello world");
//! assert_eq!(&digest[..24], &short[..]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compress;
mod hasher;

pub use compress::{BLOCK_LEN, CHUNK_LEN, IV};
pub use hasher::{Hasher, Key, KEY_LEN, OUT_LEN};

/// Hashes `input` and returns the standard 32-byte BLAKE3 digest.
pub fn hash(input: &[u8]) -> [u8; OUT_LEN] {
    hasher::one_shot(IV, 0, [input])
}

/// Hashes `input` with a 32-byte key (BLAKE3 keyed mode).
pub fn keyed_hash(key: &[u8; KEY_LEN], input: &[u8]) -> [u8; OUT_LEN] {
    Key::new(key).hash(input)
}

/// Hashes `input` and returns the first 24 bytes (192 bits) of the digest.
///
/// This is the truncation Fix uses inside 256-bit Handles: 192 bits of
/// hash + 16 bits of metadata + 48 bits of size.
pub fn hash_truncated192(input: &[u8]) -> [u8; 24] {
    let full = hash(input);
    let mut out = [0u8; 24];
    out.copy_from_slice(&full[..24]);
    out
}

/// Formats a digest (of any length) as lowercase hex.
pub fn to_hex(digest: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(digest.len() * 2);
    for byte in digest {
        s.push(DIGITS[(byte >> 4) as usize] as char);
        s.push(DIGITS[(byte & 0xf) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published BLAKE3 digests for well-known inputs.
    #[test]
    fn known_vectors() {
        assert_eq!(
            to_hex(&hash(b"")),
            "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262"
        );
        assert_eq!(
            to_hex(&hash(b"abc")),
            "6437b3ac38465133ffb63b75273a8db548c558465d79db03fd359c6cd5bd9d85"
        );
    }

    /// The official test-vector input pattern: byte `i` is `i % 251`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Cross-check against the reference `blake3` crate across the important
    /// length boundaries: sub-block, block, chunk, and multi-chunk trees.
    #[test]
    fn oracle_agreement_across_boundaries() {
        let lengths = [
            0usize, 1, 2, 3, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 2047, 2048,
            2049, 3072, 3073, 4096, 4097, 5120, 6144, 8192, 16384, 31744, 102400,
        ];
        for &len in &lengths {
            let input = pattern(len);
            let ours = hash(&input);
            let theirs = blake3::hash(&input);
            assert_eq!(
                ours,
                *theirs.as_bytes(),
                "digest mismatch at input length {len}"
            );
        }
    }

    #[test]
    fn oracle_agreement_keyed() {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        for &len in &[0usize, 1, 64, 1024, 1025, 4096] {
            let input = pattern(len);
            let ours = keyed_hash(&key, &input);
            let theirs = blake3::keyed_hash(&key, &input);
            assert_eq!(ours, *theirs.as_bytes(), "keyed mismatch at length {len}");
        }
    }

    #[test]
    fn oracle_agreement_xof() {
        let input = pattern(2049);
        let mut ours = vec![0u8; 301];
        let mut hasher = Hasher::new();
        hasher.update(&input);
        hasher.finalize_xof(&mut ours);

        let mut theirs = vec![0u8; 301];
        let mut reader = blake3::Hasher::new();
        reader.update(&input);
        reader.finalize_xof().fill(&mut theirs);
        assert_eq!(ours, theirs);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let input = pattern(10_000);
        let oneshot = hash(&input);
        // Feed the same input in awkward split sizes.
        for split in [1usize, 7, 63, 64, 65, 1000, 1024, 1025, 4096] {
            let mut hasher = Hasher::new();
            for chunk in input.chunks(split) {
                hasher.update(chunk);
            }
            assert_eq!(hasher.finalize(), oneshot, "split size {split}");
        }
    }

    /// `Key::hash_parts` against the oracle on the concatenation, with
    /// the part size and the total chosen to land before, on and past
    /// the one-chunk boundary (32-byte parts are tree entries).
    #[test]
    fn oracle_agreement_keyed_parts() {
        let key_bytes: [u8; KEY_LEN] = std::array::from_fn(|i| (i * 7) as u8);
        let key = Key::new(&key_bytes);
        for &len in &[0usize, 32, 96, 992, 1023, 1024, 1025, 1056, 2048, 5000] {
            let input = pattern(len);
            let theirs = blake3::keyed_hash(&key_bytes, &input);
            for part in [1usize, 32, 100, 1024, 4096] {
                assert_eq!(
                    key.hash_parts(input.chunks(part)),
                    *theirs.as_bytes(),
                    "length {len} in parts of {part}"
                );
            }
            assert_eq!(key.hash(&input), *theirs.as_bytes(), "length {len}");
        }
    }

    #[test]
    fn truncation_is_a_prefix() {
        let input = b"truncate me";
        assert_eq!(&hash(input)[..24], &hash_truncated192(input)[..]);
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }
}
