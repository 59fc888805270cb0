//! The BLAKE3 compression function.
//!
//! This follows the structure of the reference implementation in the BLAKE3
//! paper: a 7-round ARX permutation over a 16-word state, with the message
//! schedule produced by repeated application of a fixed permutation.
//!
//! [`compress`] has two kernels with one output. `rows::compress` keeps
//! the state as four SSE4.1 row vectors and mixes four columns (then
//! four diagonals) per step, building each round's message vectors with
//! shuffles and blends; it runs when the CPU has SSE4.1. `portable` is
//! the word-at-a-time kernel: the fallback everywhere else and the
//! oracle the row kernel is pinned to. CPU detection picks the kernel;
//! no option does. Both return all 16 words (the XOF needs the upper 8).

/// Number of bytes in one compression block.
pub const BLOCK_LEN: usize = 64;
/// Number of bytes in one chunk (1024 = 16 blocks).
pub const CHUNK_LEN: usize = 1024;
/// Domain-separation flag: first block of a chunk.
pub const CHUNK_START: u32 = 1 << 0;
/// Domain-separation flag: last block of a chunk.
pub const CHUNK_END: u32 = 1 << 1;
/// Domain-separation flag: parent node in the hash tree.
pub const PARENT: u32 = 1 << 2;
/// Domain-separation flag: the root compression.
pub const ROOT: u32 = 1 << 3;
/// Domain-separation flag: keyed hashing mode.
pub const KEYED_HASH: u32 = 1 << 4;

/// The BLAKE3 initialization vector (the first eight SHA-256 IV words).
pub const IV: [u32; 8] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

/// The fixed message-word permutation applied between rounds.
const MSG_PERMUTATION: [usize; 16] = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8];

#[inline(always)]
fn g(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, mx: u32, my: u32) {
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(mx);
    state[d] = (state[d] ^ state[a]).rotate_right(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(12);
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(my);
    state[d] = (state[d] ^ state[a]).rotate_right(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(7);
}

#[inline(always)]
fn round(state: &mut [u32; 16], m: &[u32; 16]) {
    // Mix the columns.
    g(state, 0, 4, 8, 12, m[0], m[1]);
    g(state, 1, 5, 9, 13, m[2], m[3]);
    g(state, 2, 6, 10, 14, m[4], m[5]);
    g(state, 3, 7, 11, 15, m[6], m[7]);
    // Mix the diagonals.
    g(state, 0, 5, 10, 15, m[8], m[9]);
    g(state, 1, 6, 11, 12, m[10], m[11]);
    g(state, 2, 7, 8, 13, m[12], m[13]);
    g(state, 3, 4, 9, 14, m[14], m[15]);
}

#[inline(always)]
fn permute(m: &mut [u32; 16]) {
    let mut permuted = [0u32; 16];
    for i in 0..16 {
        permuted[i] = m[MSG_PERMUTATION[i]];
    }
    *m = permuted;
}

/// Runs the BLAKE3 compression function, returning the full 16-word state.
///
/// The first eight words of the result are the new chaining value; in
/// extended-output mode the remaining eight words also contribute output.
pub fn compress(
    chaining_value: &[u32; 8],
    block_words: &[u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
) -> [u32; 16] {
    in_rows(chaining_value, block_words, counter, block_len, flags)
        .unwrap_or_else(|| portable(chaining_value, block_words, counter, block_len, flags))
}

/// The compression by [`rows::compress`], when this CPU has SSE4.1.
#[inline(always)]
fn in_rows(
    chaining_value: &[u32; 8],
    block_words: &[u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
) -> Option<[u32; 16]> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.1") {
        // SAFETY: `rows::compress` enables SSE4.1, detected just above.
        #[allow(unsafe_code)]
        let state =
            unsafe { rows::compress(chaining_value, block_words, counter, block_len, flags) };
        return Some(state);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (chaining_value, block_words, counter, block_len, flags);
    None
}

/// The word-at-a-time compression: the fallback on a CPU without
/// SSE4.1, and the oracle [`rows::compress`] is pinned to.
fn portable(
    chaining_value: &[u32; 8],
    block_words: &[u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
) -> [u32; 16] {
    let mut state = [
        chaining_value[0],
        chaining_value[1],
        chaining_value[2],
        chaining_value[3],
        chaining_value[4],
        chaining_value[5],
        chaining_value[6],
        chaining_value[7],
        IV[0],
        IV[1],
        IV[2],
        IV[3],
        counter as u32,
        (counter >> 32) as u32,
        block_len,
        flags,
    ];
    let mut block = *block_words;

    round(&mut state, &block); // round 1
    permute(&mut block);
    round(&mut state, &block); // round 2
    permute(&mut block);
    round(&mut state, &block); // round 3
    permute(&mut block);
    round(&mut state, &block); // round 4
    permute(&mut block);
    round(&mut state, &block); // round 5
    permute(&mut block);
    round(&mut state, &block); // round 6
    permute(&mut block);
    round(&mut state, &block); // round 7

    for i in 0..8 {
        state[i] ^= state[i + 8];
        state[i + 8] ^= chaining_value[i];
    }
    state
}

#[cfg(target_arch = "x86_64")]
mod rows {
    //! The compression on the 4×4 state as four SSE4.1 row vectors: a G
    //! step mixes all four columns (or diagonals) at once. Diagonalising
    //! rotates rows 0, 2 and 3 and leaves row 1 alone, so the diagonal
    //! steps' message vectors are rotated to match. Rounds 2–7 build
    //! their message vectors from the previous round's by shuffles and
    //! blends that apply `MSG_PERMUTATION`. The structure follows the
    //! reference implementation's SSE4.1 kernel.
    use super::IV;
    use std::arch::x86_64::*;

    /// `_MM_SHUFFLE(z, y, x, w)`: lane 3 takes `z`, …, lane 0 takes `w`.
    const fn mm_shuffle(z: i32, y: i32, x: i32, w: i32) -> i32 {
        (z << 6) | (y << 4) | (x << 2) | w
    }
    /// Lane rotations: each word moves up one lane (lane 3's to lane 0),
    /// two lanes, or down one lane.
    const LANES_UP_1: i32 = mm_shuffle(2, 1, 0, 3);
    const LANES_UP_2: i32 = mm_shuffle(1, 0, 3, 2);
    const LANES_DOWN_1: i32 = mm_shuffle(0, 3, 2, 1);

    #[target_feature(enable = "sse4.1")]
    fn rotr<const R: i32, const L: i32>(a: __m128i) -> __m128i {
        _mm_or_si128(_mm_srli_epi32::<R>(a), _mm_slli_epi32::<L>(a))
    }

    /// Half a G step on every column at once: `x` adds message words,
    /// the rotations are (16, 12) for the first half and (8, 7) for the
    /// second.
    #[target_feature(enable = "sse4.1")]
    fn half_g<const D: i32, const DL: i32, const B: i32, const BL: i32>(
        rows: &mut [__m128i; 4],
        x: __m128i,
    ) {
        rows[0] = _mm_add_epi32(_mm_add_epi32(rows[0], x), rows[1]);
        rows[3] = rotr::<D, DL>(_mm_xor_si128(rows[3], rows[0]));
        rows[2] = _mm_add_epi32(rows[2], rows[3]);
        rows[1] = rotr::<B, BL>(_mm_xor_si128(rows[1], rows[2]));
    }

    /// One round: columns, diagonalise, diagonals, undiagonalise.
    #[target_feature(enable = "sse4.1")]
    fn round(rows: &mut [__m128i; 4], m: &[__m128i; 4]) {
        half_g::<16, 16, 12, 20>(rows, m[0]);
        half_g::<8, 24, 7, 25>(rows, m[1]);
        rows[0] = _mm_shuffle_epi32::<LANES_UP_1>(rows[0]);
        rows[3] = _mm_shuffle_epi32::<LANES_UP_2>(rows[3]);
        rows[2] = _mm_shuffle_epi32::<LANES_DOWN_1>(rows[2]);
        half_g::<16, 16, 12, 20>(rows, m[2]);
        half_g::<8, 24, 7, 25>(rows, m[3]);
        rows[0] = _mm_shuffle_epi32::<LANES_DOWN_1>(rows[0]);
        rows[3] = _mm_shuffle_epi32::<LANES_UP_2>(rows[3]);
        rows[2] = _mm_shuffle_epi32::<LANES_UP_1>(rows[2]);
    }

    /// `_mm_shuffle_ps` on integer lanes: two lanes of `a`, two of `b`.
    #[target_feature(enable = "sse4.1")]
    fn shuffle2<const IMM: i32>(a: __m128i, b: __m128i) -> __m128i {
        _mm_castps_si128(_mm_shuffle_ps::<IMM>(
            _mm_castsi128_ps(a),
            _mm_castsi128_ps(b),
        ))
    }

    /// The next round's message vectors from this round's. With `p` the
    /// words in the order this round used them and `q[i] =
    /// p[MSG_PERMUTATION[i]]`, the vectors are the columns' `q[0,2,4,6]`
    /// and `q[1,3,5,7]`, then the diagonals' `q[14,8,10,12]` and
    /// `q[15,9,11,13]`.
    #[target_feature(enable = "sse4.1")]
    fn permute(m: &[__m128i; 4]) -> [__m128i; 4] {
        let t0 = shuffle2::<{ mm_shuffle(3, 1, 1, 2) }>(m[0], m[1]);
        let t0 = _mm_shuffle_epi32::<LANES_DOWN_1>(t0);
        let t1 = shuffle2::<{ mm_shuffle(3, 3, 2, 2) }>(m[2], m[3]);
        let tt = _mm_shuffle_epi32::<{ mm_shuffle(0, 0, 3, 3) }>(m[0]);
        let t1 = _mm_blend_epi16::<0xCC>(tt, t1);
        let t2 = _mm_unpacklo_epi64(m[3], m[1]);
        let tt = _mm_blend_epi16::<0xC0>(t2, m[2]);
        let t2 = _mm_shuffle_epi32::<{ mm_shuffle(1, 3, 2, 0) }>(tt);
        let t3 = _mm_unpackhi_epi32(m[1], m[3]);
        let tt = _mm_unpacklo_epi32(m[2], t3);
        let t3 = _mm_shuffle_epi32::<{ mm_shuffle(0, 1, 3, 2) }>(tt);
        [t0, t1, t2, t3]
    }

    #[target_feature(enable = "sse4.1")]
    fn set4(w: [u32; 4]) -> __m128i {
        _mm_setr_epi32(w[0] as i32, w[1] as i32, w[2] as i32, w[3] as i32)
    }

    /// The four words of a row, lane 0 first.
    #[target_feature(enable = "sse4.1")]
    fn words(row: __m128i) -> [u32; 4] {
        [
            _mm_extract_epi32::<0>(row) as u32,
            _mm_extract_epi32::<1>(row) as u32,
            _mm_extract_epi32::<2>(row) as u32,
            _mm_extract_epi32::<3>(row) as u32,
        ]
    }

    /// [`super::portable`]'s output, computed in rows.
    #[target_feature(enable = "sse4.1")]
    pub(super) fn compress(
        chaining_value: &[u32; 8],
        block_words: &[u32; 16],
        counter: u64,
        block_len: u32,
        flags: u32,
    ) -> [u32; 16] {
        let cv_lo = set4([
            chaining_value[0],
            chaining_value[1],
            chaining_value[2],
            chaining_value[3],
        ]);
        let cv_hi = set4([
            chaining_value[4],
            chaining_value[5],
            chaining_value[6],
            chaining_value[7],
        ]);
        let mut rows = [
            cv_lo,
            cv_hi,
            set4([IV[0], IV[1], IV[2], IV[3]]),
            set4([counter as u32, (counter >> 32) as u32, block_len, flags]),
        ];
        let w = |i: usize| {
            [
                block_words[i],
                block_words[i + 1],
                block_words[i + 2],
                block_words[i + 3],
            ]
        };
        let (m0, m1, m2, m3) = (set4(w(0)), set4(w(4)), set4(w(8)), set4(w(12)));

        // Round 1 takes the words in input order: the columns' even and
        // odd words, then the diagonals' rotated to the diagonal rows.
        let m = [
            shuffle2::<{ mm_shuffle(2, 0, 2, 0) }>(m0, m1),
            shuffle2::<{ mm_shuffle(3, 1, 3, 1) }>(m0, m1),
            _mm_shuffle_epi32::<LANES_UP_1>(shuffle2::<{ mm_shuffle(2, 0, 2, 0) }>(m2, m3)),
            _mm_shuffle_epi32::<LANES_UP_1>(shuffle2::<{ mm_shuffle(3, 1, 3, 1) }>(m2, m3)),
        ];
        round(&mut rows, &m);
        let m = permute(&m);
        round(&mut rows, &m);
        let m = permute(&m);
        round(&mut rows, &m);
        let m = permute(&m);
        round(&mut rows, &m);
        let m = permute(&m);
        round(&mut rows, &m);
        let m = permute(&m);
        round(&mut rows, &m);
        let m = permute(&m);
        round(&mut rows, &m);

        let out = [
            _mm_xor_si128(rows[0], rows[2]),
            _mm_xor_si128(rows[1], rows[3]),
            _mm_xor_si128(rows[2], cv_lo),
            _mm_xor_si128(rows[3], cv_hi),
        ];
        let mut state = [0u32; 16];
        for (dest, row) in state.as_chunks_mut::<4>().0.iter_mut().zip(out) {
            *dest = words(row);
        }
        state
    }
}

/// Converts a 64-byte block into sixteen little-endian message words.
#[inline(always)]
pub fn words_from_le_bytes(block: &[u8; BLOCK_LEN]) -> [u32; 16] {
    let mut words = [0u32; 16];
    for (word, chunk) in words.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    words
}

/// Extracts the first eight words of a compression result (the chaining value).
#[inline(always)]
pub fn first_8_words(compression_output: [u32; 16]) -> [u32; 8] {
    let mut out = [0u32; 8];
    out.copy_from_slice(&compression_output[..8]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g_is_deterministic() {
        let mut s1 = [7u32; 16];
        let mut s2 = [7u32; 16];
        g(&mut s1, 0, 4, 8, 12, 1, 2);
        g(&mut s2, 0, 4, 8, 12, 1, 2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn permutation_has_order_dividing_lcm() {
        // Applying the permutation repeatedly must eventually return to the
        // identity; the BLAKE3 permutation has a small order.
        let mut m = [0u32; 16];
        for (i, w) in m.iter_mut().enumerate() {
            *w = i as u32;
        }
        let start = m;
        let mut seen_identity = false;
        for _ in 0..1000 {
            permute(&mut m);
            if m == start {
                seen_identity = true;
                break;
            }
        }
        assert!(
            seen_identity,
            "permutation should be a bijection with finite order"
        );
    }

    #[test]
    fn compress_changes_with_flags() {
        let block = [0u8; BLOCK_LEN];
        let words = words_from_le_bytes(&block);
        let a = compress(&IV, &words, 0, BLOCK_LEN as u32, 0);
        let b = compress(&IV, &words, 0, BLOCK_LEN as u32, CHUNK_START);
        assert_ne!(a, b, "flag bits must be domain separating");
    }

    #[test]
    fn compress_changes_with_counter() {
        let block = [0u8; BLOCK_LEN];
        let words = words_from_le_bytes(&block);
        let a = compress(&IV, &words, 0, BLOCK_LEN as u32, 0);
        let b = compress(&IV, &words, 1, BLOCK_LEN as u32, 0);
        assert_ne!(a, b, "the chunk counter must be domain separating");
    }

    /// `rows::compress`, called by name, equals `portable` on 10⁵ seeded
    /// inputs: every `block_len` 0..=64 and every flag set 0..=31 occur
    /// (each input takes the next of each in turn), and counters run
    /// over the whole `u64` range, most of them above 2³².
    #[test]
    fn rows_equal_portable_on_seeded_inputs() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..100_000u32 {
            let cv: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let block: [u32; 16] = std::array::from_fn(|_| next() as u32);
            let counter = match i % 4 {
                0 => next() & 0xFFFF_FFFF,
                1 => (1 << 32) + (next() & 0xFFFF),
                _ => next(),
            };
            let (block_len, flags) = (i % 65, i % 32);
            let want = portable(&cv, &block, counter, block_len, flags);
            if let Some(got) = in_rows(&cv, &block, counter, block_len, flags) {
                assert_eq!(got, want, "input {i}");
            }
            assert_eq!(compress(&cv, &block, counter, block_len, flags), want);
        }
    }

    #[test]
    fn words_round_trip_endianness() {
        let mut block = [0u8; BLOCK_LEN];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as u8;
        }
        let words = words_from_le_bytes(&block);
        assert_eq!(words[0], u32::from_le_bytes([0, 1, 2, 3]));
        assert_eq!(words[15], u32::from_le_bytes([60, 61, 62, 63]));
    }
}
