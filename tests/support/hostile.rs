//! The kit the hostile-bytes suites share: an allocator that records the
//! largest single request, the byte mutators every format takes, and a
//! runner that names the case and the input a panic came from; the
//! seeded generator is `gen.rs`'s. Each suite keeps its seeds, its
//! oracle and its format-aware mutations, and pulls the kit in with
//! `#[path = "../../../tests/support/hostile.rs"] mod hostile;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::{Debug, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

#[path = "gen.rs"]
mod gen;
pub use gen::Rng;

/// How far past its input's length one allocation of a decoder may reach.
const SLACK: usize = 64 << 10;

/// Records the largest single allocation request, per thread and overall.
struct Largest;

thread_local! {
    static THREAD: Cell<usize> = const { Cell::new(0) };
}

static PROCESS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    // A thread being torn down has no slot left: only the overall maximum.
    let _ = THREAD.try_with(|l| l.set(l.get().max(size)));
    PROCESS.fetch_max(size, Relaxed);
}

/// Forgets the calling thread's maximum and the process's.
pub fn reset() {
    THREAD.with(|l| l.set(0));
    PROCESS.store(0, Relaxed);
}

/// The largest request of any thread since [`reset`]: the one to read
/// when the code under test allocates on threads of its own.
pub fn process_largest() -> usize {
    PROCESS.load(Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the maxima are plain
// statistics and never influence a pointer, a layout, or a result.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Runs `decode` on `input`, asserting that no allocation it made on this
/// thread (others may run tests beside it) reached [`SLACK`] past its end.
pub fn decode<I: AsRef<[u8]> + ?Sized, T>(input: &I, decode: impl FnOnce(&I) -> T) -> T {
    reset();
    let decoded = decode(input);
    let (largest, len) = (THREAD.with(Cell::get), input.as_ref().len());
    assert!(
        largest <= len + SLACK,
        "allocated {largest} bytes for a {len}-byte input"
    );
    decoded
}

/// Flips `1..=most` bits of `bytes`, each anywhere.
pub fn flip_bits(rng: &mut Rng, bytes: &mut [u8], most: usize) {
    for _ in 0..1 + rng.below(most) {
        let bit = rng.below(8 * bytes.len());
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Rewrites the little-endian `u32` length field at `at`: `u32::MAX`, a
/// random value, or the declared length plus or minus `1..=16`.
pub fn poke_length(rng: &mut Rng, bytes: &mut [u8], at: usize) {
    let declared = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let len = match rng.below(4) {
        0 => u32::MAX,
        1 => rng.next() as u32,
        2 => declared.wrapping_add(1 + rng.below(16) as u32),
        _ => declared.wrapping_sub(1 + rng.below(16) as u32),
    };
    bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Splices `1..=8` random bytes in at an offset in `from..=bytes.len()`.
pub fn splice_junk(rng: &mut Rng, bytes: &mut Vec<u8>, from: usize) {
    let at = from + rng.below(bytes.len() - from + 1);
    let len = 1 + rng.below(8);
    bytes.splice(at..at, rng.bytes(len));
}

/// Deletes up to 8 bytes from an offset in `from..bytes.len()`.
pub fn delete_run(rng: &mut Rng, bytes: &mut Vec<u8>, from: usize) {
    let at = from + rng.below(bytes.len() - from);
    let end = (at + 1 + rng.below(8)).min(bytes.len());
    bytes.drain(at..end);
}

/// The cases a suite ran, and how many of them its decoder accepted.
#[derive(Default)]
pub struct Cases {
    pub run: u64,
    pub accepted: u64,
}

impl Cases {
    /// Runs `check` on `input`. `check` panics where the decoder broke
    /// its contract, and says whether the decoder accepted the input; a
    /// panic is raised again with the case's name and the input.
    pub fn run<I: Debug + ?Sized>(
        &mut self,
        case: impl Display,
        input: &I,
        check: impl FnOnce(&I) -> bool,
    ) {
        self.run += 1;
        match catch_unwind(AssertUnwindSafe(|| check(input))) {
            Ok(accepted) => self.accepted += u64::from(accepted),
            Err(panic) => panic!("{case}: {}\ninput: {input:02x?}", gen::message(&*panic)),
        }
    }

    /// Runs `check` on `n` mutants, each made by `mutate` from a seed
    /// drawn from `seeds`.
    pub fn mutants<S: AsRef<I>, M: AsRef<I>, I: Debug + ?Sized>(
        &mut self,
        rng: &mut Rng,
        n: u64,
        seeds: &[S],
        mutate: impl Fn(&mut Rng, &I) -> (M, &'static str),
        check: impl Fn(&I) -> bool,
    ) {
        for case in 0..n {
            let s = rng.below(seeds.len());
            let (mutant, kind) = mutate(rng, seeds[s].as_ref());
            let case = format_args!("case {case} ({kind}) of seed {s}");
            self.run(case, mutant.as_ref(), &check);
        }
    }

    /// Runs `check` on every prefix of every seed, from the empty one to
    /// the whole seed.
    pub fn prefixes<S: AsRef<[u8]>>(&mut self, seeds: &[S], check: impl Fn(&[u8]) -> bool) {
        for (s, seed) in seeds.iter().map(AsRef::as_ref).enumerate() {
            for len in 0..=seed.len() {
                let case = format_args!("seed {s} truncated to {len}");
                self.run(case, &seed[..len], &check);
            }
        }
    }
}
