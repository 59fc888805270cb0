//! Incremental BLAKE3 hashing: chunk states and the binary hash tree.
//!
//! The implementation mirrors the reference: input is consumed in 1024-byte
//! chunks; each finished chunk's chaining value is merged into a stack of
//! subtree roots ("CV stack"), and finalization merges the stack down to a
//! single root output.

use crate::compress::{
    compress, first_8_words, words_from_le_bytes, BLOCK_LEN, CHUNK_END, CHUNK_LEN, CHUNK_START, IV,
    KEYED_HASH, PARENT, ROOT,
};

/// The number of bytes in a full BLAKE3 digest.
pub const OUT_LEN: usize = 32;
/// The number of bytes in a BLAKE3 key.
pub const KEY_LEN: usize = 32;

// Maximum depth of the CV stack: enough for 2^54 chunks (> 2^64 bytes).
const MAX_DEPTH: usize = 54;

/// A pending output: everything needed to run the final compression(s).
///
/// Delaying the root compression lets the same structure serve both as an
/// interior chaining-value producer and as the root XOF.
#[derive(Clone, Copy)]
struct Output {
    input_chaining_value: [u32; 8],
    block_words: [u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
}

impl Output {
    fn chaining_value(&self) -> [u32; 8] {
        first_8_words(compress(
            &self.input_chaining_value,
            &self.block_words,
            self.counter,
            self.block_len,
            self.flags,
        ))
    }

    fn root_output_bytes(&self, out: &mut [u8]) {
        // Extended output: re-run the root compression with an incrementing
        // output-block counter.
        for (block_index, out_block) in out.chunks_mut(2 * OUT_LEN).enumerate() {
            let words = compress(
                &self.input_chaining_value,
                &self.block_words,
                block_index as u64,
                self.block_len,
                self.flags | ROOT,
            );
            for (word, dest) in words.iter().zip(out_block.chunks_mut(4)) {
                dest.copy_from_slice(&word.to_le_bytes()[..dest.len()]);
            }
        }
    }
}

/// State for hashing a single 1024-byte chunk.
#[derive(Clone, Copy)]
struct ChunkState {
    chaining_value: [u32; 8],
    chunk_counter: u64,
    block: [u8; BLOCK_LEN],
    block_len: u8,
    blocks_compressed: u8,
    flags: u32,
}

impl ChunkState {
    fn new(key_words: [u32; 8], chunk_counter: u64, flags: u32) -> Self {
        Self {
            chaining_value: key_words,
            chunk_counter,
            block: [0; BLOCK_LEN],
            block_len: 0,
            blocks_compressed: 0,
            flags,
        }
    }

    fn len(&self) -> usize {
        BLOCK_LEN * self.blocks_compressed as usize + self.block_len as usize
    }

    fn start_flag(&self) -> u32 {
        if self.blocks_compressed == 0 {
            CHUNK_START
        } else {
            0
        }
    }

    fn update(&mut self, mut input: &[u8]) {
        while !input.is_empty() {
            // If the block buffer is full, compress it and clear it. More
            // input is coming, so this compression is not CHUNK_END.
            if self.block_len as usize == BLOCK_LEN {
                let block_words = words_from_le_bytes(&self.block);
                self.chaining_value = first_8_words(compress(
                    &self.chaining_value,
                    &block_words,
                    self.chunk_counter,
                    BLOCK_LEN as u32,
                    self.flags | self.start_flag(),
                ));
                self.blocks_compressed += 1;
                self.block = [0; BLOCK_LEN];
                self.block_len = 0;
            }

            // Copy input bytes into the block buffer.
            let want = BLOCK_LEN - self.block_len as usize;
            let take = want.min(input.len());
            self.block[self.block_len as usize..self.block_len as usize + take]
                .copy_from_slice(&input[..take]);
            self.block_len += take as u8;
            input = &input[take..];
        }
    }

    fn output(&self) -> Output {
        let block_words = words_from_le_bytes(&self.block);
        Output {
            input_chaining_value: self.chaining_value,
            block_words,
            counter: self.chunk_counter,
            block_len: self.block_len as u32,
            flags: self.flags | self.start_flag() | CHUNK_END,
        }
    }
}

fn parent_output(
    left_child_cv: [u32; 8],
    right_child_cv: [u32; 8],
    key_words: [u32; 8],
    flags: u32,
) -> Output {
    let mut block_words = [0u32; 16];
    block_words[..8].copy_from_slice(&left_child_cv);
    block_words[8..].copy_from_slice(&right_child_cv);
    Output {
        input_chaining_value: key_words,
        block_words,
        counter: 0, // Always 0 for parent nodes.
        block_len: BLOCK_LEN as u32,
        flags: PARENT | flags,
    }
}

fn parent_cv(
    left_child_cv: [u32; 8],
    right_child_cv: [u32; 8],
    key_words: [u32; 8],
    flags: u32,
) -> [u32; 8] {
    parent_output(left_child_cv, right_child_cv, key_words, flags).chaining_value()
}

/// An incremental BLAKE3 hasher.
///
/// # Examples
///
/// ```
/// let mut hasher = fix_hash::Hasher::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let one = hasher.finalize();
/// assert_eq!(one, fix_hash::hash(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Hasher {
    chunk_state: ChunkState,
    key_words: [u32; 8],
    cv_stack: [[u32; 8]; MAX_DEPTH],
    cv_stack_len: u8,
    flags: u32,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    fn new_internal(key_words: [u32; 8], flags: u32) -> Self {
        Self::from_first_chunk(ChunkState::new(key_words, 0, flags), key_words, flags)
    }

    /// A hasher whose input so far is what `chunk_state` (chunk 0) holds.
    fn from_first_chunk(chunk_state: ChunkState, key_words: [u32; 8], flags: u32) -> Self {
        Self {
            chunk_state,
            key_words,
            cv_stack: [[0; 8]; MAX_DEPTH],
            cv_stack_len: 0,
            flags,
        }
    }

    /// Constructs a hasher for the default (unkeyed) hash function.
    pub fn new() -> Self {
        Self::new_internal(IV, 0)
    }

    /// Constructs a hasher for the keyed hash function.
    pub fn new_keyed(key: &[u8; KEY_LEN]) -> Self {
        Self::new_internal(Key::new(key).words, KEYED_HASH)
    }

    fn push_stack(&mut self, cv: [u32; 8]) {
        self.cv_stack[self.cv_stack_len as usize] = cv;
        self.cv_stack_len += 1;
    }

    fn pop_stack(&mut self) -> [u32; 8] {
        self.cv_stack_len -= 1;
        self.cv_stack[self.cv_stack_len as usize]
    }

    fn add_chunk_chaining_value(&mut self, mut new_cv: [u32; 8], mut total_chunks: u64) {
        // The count of trailing zero bits in `total_chunks` equals the number
        // of completed subtrees that this chunk completes; merge them.
        while total_chunks & 1 == 0 {
            new_cv = parent_cv(self.pop_stack(), new_cv, self.key_words, self.flags);
            total_chunks >>= 1;
        }
        self.push_stack(new_cv);
    }

    /// Absorbs more input. May be called any number of times.
    pub fn update(&mut self, mut input: &[u8]) {
        while !input.is_empty() {
            // If the current chunk is complete, finalize it and start a new
            // one. More input is coming, so this chunk is not the root.
            if self.chunk_state.len() == CHUNK_LEN {
                let chunk_cv = self.chunk_state.output().chaining_value();
                let total_chunks = self.chunk_state.chunk_counter + 1;
                self.add_chunk_chaining_value(chunk_cv, total_chunks);
                self.chunk_state = ChunkState::new(self.key_words, total_chunks, self.flags);
            }

            let want = CHUNK_LEN - self.chunk_state.len();
            let take = want.min(input.len());
            self.chunk_state.update(&input[..take]);
            input = &input[take..];
        }
    }

    /// Finalizes the hash, writing `out.len()` bytes of output.
    ///
    /// BLAKE3 is an XOF: any output length is allowed, and shorter outputs
    /// are prefixes of longer ones.
    pub fn finalize_xof(&self, out: &mut [u8]) {
        // Starting with the Output from the current chunk, compute all the
        // parent chaining values along the right edge of the tree.
        let mut output = self.chunk_state.output();
        let mut parent_nodes_remaining = self.cv_stack_len as usize;
        while parent_nodes_remaining > 0 {
            parent_nodes_remaining -= 1;
            output = parent_output(
                self.cv_stack[parent_nodes_remaining],
                output.chaining_value(),
                self.key_words,
                self.flags,
            );
        }
        output.root_output_bytes(out);
    }

    /// Finalizes the hash and returns the standard 32-byte digest.
    pub fn finalize(&self) -> [u8; OUT_LEN] {
        let mut out = [0u8; OUT_LEN];
        self.finalize_xof(&mut out);
        out
    }
}

/// Hashes the concatenation of `parts` in one shot.
///
/// Input that fits one chunk — every handle-sized object, every tree of
/// up to 32 entries — is the root of a one-node hash tree: it needs the
/// chunk state only, not the [`Hasher`]'s 1.7 KB chaining-value stack,
/// which is built (around the chunk filled so far) only when a part
/// would overflow the chunk.
pub(crate) fn one_shot<'a>(
    key_words: [u32; 8],
    flags: u32,
    parts: impl IntoIterator<Item = &'a [u8]>,
) -> [u8; OUT_LEN] {
    let mut chunk = ChunkState::new(key_words, 0, flags);
    let mut parts = parts.into_iter();
    while let Some(part) = parts.next() {
        if chunk.len() + part.len() > CHUNK_LEN {
            let mut hasher = Hasher::from_first_chunk(chunk, key_words, flags);
            hasher.update(part);
            parts.for_each(|part| hasher.update(part));
            return hasher.finalize();
        }
        chunk.update(part);
    }
    let mut out = [0u8; OUT_LEN];
    chunk.output().root_output_bytes(&mut out);
    out
}

/// A BLAKE3 key parsed into its eight words once, for callers that hash
/// many inputs under one key ([`keyed_hash`](crate::keyed_hash) parses
/// the 32 key bytes on every call).
///
/// # Examples
///
/// ```
/// let key = fix_hash::Key::new(&[7u8; 32]);
/// assert_eq!(key.hash(b"abcdef"), fix_hash::keyed_hash(&[7u8; 32], b"abcdef"));
/// // Parts hash as their concatenation, without building it.
/// assert_eq!(key.hash_parts([&b"abc"[..], b"def"]), key.hash(b"abcdef"));
/// ```
#[derive(Clone, Copy)]
pub struct Key {
    words: [u32; 8],
}

impl Key {
    /// Parses a 32-byte key.
    pub fn new(key: &[u8; KEY_LEN]) -> Key {
        let mut words = [0u32; 8];
        for (word, chunk) in words.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Key { words }
    }

    /// The keyed hash of `input`.
    pub fn hash(&self, input: &[u8]) -> [u8; OUT_LEN] {
        self.hash_parts([input])
    }

    /// The keyed hash of the concatenation of `parts`.
    pub fn hash_parts<'a>(&self, parts: impl IntoIterator<Item = &'a [u8]>) -> [u8; OUT_LEN] {
        one_shot(self.words, KEYED_HASH, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_state_length_accounting() {
        let mut cs = ChunkState::new(IV, 0, 0);
        assert_eq!(cs.len(), 0);
        cs.update(&[0u8; 65]);
        assert_eq!(cs.len(), 65);
        cs.update(&[0u8; 959]);
        assert_eq!(cs.len(), CHUNK_LEN);
    }

    #[test]
    fn xof_prefix_property() {
        let mut h = Hasher::new();
        h.update(b"prefix property");
        let mut short = [0u8; 32];
        let mut long = [0u8; 177];
        h.finalize_xof(&mut short);
        h.finalize_xof(&mut long);
        assert_eq!(&long[..32], &short[..]);
    }

    #[test]
    fn keyed_differs_from_unkeyed() {
        let key = [0x42u8; KEY_LEN];
        let mut a = Hasher::new();
        let mut b = Hasher::new_keyed(&key);
        a.update(b"data");
        b.update(b"data");
        assert_ne!(a.finalize(), b.finalize());
    }
}
