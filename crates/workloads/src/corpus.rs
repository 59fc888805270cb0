//! Deterministic pseudo-text corpus generation (the Wikipedia stand-in).
//!
//! The paper's §5.3.2 counts a 3-character string over a 96 GiB dump of
//! English Wikipedia, sharded into 984 × 100 MiB chunks. The dump is not
//! available here; what the experiment actually depends on is shard
//! *count*, shard *size*, placement, and bytes scanned per core — so the
//! substitute is seeded pseudo-prose with the same shape, at a
//! configurable scale factor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small synthetic vocabulary; word lengths roughly match English.
const VOCAB: &[&str] = &[
    "the",
    "of",
    "and",
    "in",
    "was",
    "article",
    "history",
    "city",
    "world",
    "state",
    "university",
    "system",
    "computer",
    "network",
    "known",
    "new",
    "first",
    "century",
    "population",
    "river",
    "music",
    "island",
    "language",
    "science",
    "group",
    "house",
    "party",
    "between",
    "several",
    "during",
    "under",
    "american",
    "national",
    "government",
    "also",
    "used",
    "which",
    "with",
    "from",
    "were",
    "their",
    "this",
    "that",
    "have",
    "been",
    "other",
    "more",
    "most",
    "some",
];

/// Generates one corpus shard deterministically from `(seed, index)`.
///
/// # Examples
///
/// ```
/// let a = fix_workloads::corpus::generate_shard(7, 3, 1024);
/// let b = fix_workloads::corpus::generate_shard(7, 3, 1024);
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 1024);
/// ```
pub fn generate_shard(seed: u64, index: u64, size: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = Vec::with_capacity(size + 16);
    while out.len() < size {
        let word = VOCAB[rng.gen_range(0..VOCAB.len())];
        out.extend_from_slice(word.as_bytes());
        // Occasional punctuation and newlines, mostly spaces.
        match rng.gen_range(0..20) {
            0 => out.extend_from_slice(b".\n"),
            1 => out.extend_from_slice(b", "),
            _ => out.push(b' '),
        }
    }
    out.truncate(size);
    out
}

/// Counts non-overlapping occurrences of `needle` in `haystack`
/// (the paper's count-string semantics: scan left to right, and after a
/// match resume behind it).
///
/// Eight positions at a time: position `p` can only match if
/// `haystack[p]` is the needle's first byte and `haystack[p + n - 1]`
/// its last, so two unaligned word loads `n - 1` apart, each xored with
/// its byte splatted, are zero in byte `k` of their OR exactly when
/// position `p + k` passes both tests. Only those candidates are
/// compared in full, in ascending order, and one is accepted only at or
/// after the end of the last accepted match — which is the greedy
/// non-overlapping scan. The last `< 8 + n` bytes are scanned a byte at
/// a time.
pub fn count_nonoverlapping(haystack: &[u8], needle: &[u8]) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let n = needle.len();
    if n == 0 || haystack.len() < n {
        return 0;
    }
    // invariant: an `at..at + 8` slice is eight bytes.
    let word_at =
        |at: usize| u64::from_le_bytes(haystack[at..at + 8].try_into().expect("8-byte window"));
    let first = u64::from_le_bytes([needle[0]; 8]);
    let last = u64::from_le_bytes([needle[n - 1]; 8]);
    let mut count = 0;
    // The end of the last accepted match: no match may start before it.
    let mut free = 0;
    let mut block = 0;
    while block + n - 1 + 8 <= haystack.len() {
        let diff = (word_at(block) ^ first) | (word_at(block + n - 1) ^ last);
        // 0x80 in exactly the bytes of `diff` that are zero (no borrow
        // crosses a byte: the add cannot carry out of seven bits).
        let mut candidates = !(((diff & LOW7) + LOW7) | diff | LOW7);
        while candidates != 0 {
            let at = block + candidates.trailing_zeros() as usize / 8;
            if at >= free && &haystack[at..at + n] == needle {
                count += 1;
                free = at + n;
            }
            candidates &= candidates - 1;
        }
        block += 8;
    }
    count + count_bytewise(&haystack[block.max(free)..], needle)
}

/// The scan [`count_nonoverlapping`] must agree with, one position at a
/// time: its tail loop, and the oracle its tests compare against.
fn count_bytewise(haystack: &[u8], needle: &[u8]) -> u64 {
    let mut count = 0;
    let mut i = 0;
    while i + needle.len() <= haystack.len() {
        if &haystack[i..i + needle.len()] == needle {
            count += 1;
            i += needle.len();
        } else {
            i += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_deterministic_and_distinct() {
        let a = generate_shard(1, 0, 4096);
        let b = generate_shard(1, 0, 4096);
        let c = generate_shard(1, 1, 4096);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shards_look_like_text() {
        let shard = generate_shard(2, 0, 10_000);
        let spaces = shard.iter().filter(|b| **b == b' ').count();
        assert!(spaces > 1000, "prose should be mostly words and spaces");
        assert!(shard.iter().all(|b| b.is_ascii()));
    }

    #[test]
    fn counting_basics() {
        assert_eq!(count_nonoverlapping(b"abcabcabc", b"abc"), 3);
        assert_eq!(count_nonoverlapping(b"", b"x"), 0);
        assert_eq!(count_nonoverlapping(b"xyz", b""), 0);
        assert_eq!(count_nonoverlapping(b"ab", b"abc"), 0);
    }

    #[test]
    fn counting_is_nonoverlapping() {
        assert_eq!(count_nonoverlapping(b"aaaa", b"aa"), 2);
        assert_eq!(count_nonoverlapping(b"aaa", b"aa"), 1);
        assert_eq!(count_nonoverlapping(b"aaaaaa", b"aaa"), 2);
    }

    #[test]
    fn counting_agrees_with_bytewise_scan() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let check = |hay: &[u8], needle: &[u8]| {
            assert_eq!(
                count_nonoverlapping(hay, needle),
                count_bytewise(hay, needle),
                "needle {needle:?} in {} bytes starting {:?}",
                hay.len(),
                &hay[..hay.len().min(24)]
            );
        };
        // Self-overlapping needles, where greedy skipping matters.
        check(b"aaaaa", b"aa");
        check(b"abababab", b"abab");
        check(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", b"aaa");
        // Short haystacks (down to empty, below 8 + n, below n) over a
        // two-letter alphabet so matches are dense, then prose shards.
        let mut haystacks: Vec<Vec<u8>> = (0..=300)
            .map(|len| (0..len).map(|_| b"ab"[rng.gen_range(0..2)]).collect())
            .collect();
        haystacks.extend((0..3).map(|i| generate_shard(11, i, 16 << 10)));
        for hay in &haystacks {
            for n in 1..=12usize {
                // One needle cut from the haystack (when it is long
                // enough), one drawn at random from its alphabet.
                if hay.len() >= n {
                    let at = rng.gen_range(0..hay.len() - n + 1);
                    check(hay, &hay[at..at + n]);
                }
                let random: Vec<u8> = (0..n).map(|_| b"abet "[rng.gen_range(0..5)]).collect();
                check(hay, &random);
            }
        }
    }

    #[test]
    fn common_trigram_appears() {
        let shard = generate_shard(4, 7, 100_000);
        assert!(count_nonoverlapping(&shard, b"the") > 100);
    }
}
