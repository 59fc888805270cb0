//! Hostile bytes into the FixVM module decoder: a seeded mutation fuzz
//! over real modules. Every mutant must decode without a panic and
//! without one allocation larger than 64 KiB beyond its own length, and
//! every module the decoder accepts must round-trip through `to_bytes`.
//!
//! The tests have a binary of their own: it installs a global allocator
//! that records each thread's largest single request.

use fix_vm::{assemble, Module, MAGIC};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Records the calling thread's largest single allocation request since
/// its last [`reset`].
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread being torn down has no slot left; its requests go uncounted.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

fn reset() {
    LARGEST.with(|l| l.set(0));
}

fn largest() -> usize {
    LARGEST.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the maximum is a plain
// statistic and never influences a pointer, a layout, or a result.
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

/// How far past the input's length one allocation may reach.
const SLACK: usize = 64 << 10;
/// Seeded mutants, spread over the seed modules.
const RANDOM_CASES: u64 = 100_000;

/// A module with two functions, a call between them, locals and jumps.
const TWO_FUNCTIONS: &str = r#"
func apply args=0 locals=1
  const 5
  call twice
  local.set 0
loop:
  local.get 0
  eqz
  jump_if done
  local.get 0
  const 1
  sub
  local.set 0
  jump loop
done:
  const 0
  ret_handle
end
func twice args=1 locals=2
  local.get 0
  local.get 0
  add
  return
end
"#;

/// The byte images of real modules: the shared test guests, the
/// benchmark's loop guest and a two-function module.
fn seed_modules() -> Vec<Vec<u8>> {
    [
        include_str!("../../../tests/guests/add.fvm"),
        include_str!("../../../tests/guests/fib.fvm"),
        include_str!("../../../fixbench/guests/loop.fvm"),
        TWO_FUNCTIONS,
    ]
    .iter()
    .map(|source| assemble(source).expect("a seed assembles").to_bytes())
    .collect()
}

/// Decodes `bytes` and checks the decoder's contract on it; true if the
/// decoder accepted them.
fn check(bytes: &[u8]) -> bool {
    reset();
    let decoded = Module::from_bytes(bytes);
    let largest = largest();
    assert!(
        largest <= bytes.len() + SLACK,
        "allocated {largest} bytes for a {}-byte module",
        bytes.len()
    );
    let Ok(module) = decoded else {
        return false;
    };
    let encoded = module.to_bytes();
    assert_eq!(encoded, bytes, "an accepted module re-encodes differently");
    assert_eq!(Module::from_bytes(&encoded).ok(), Some(module));
    true
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Where a seed's function headers start (the count field sits at 8).
fn header_offsets(module: &[u8]) -> Vec<usize> {
    let count = u16::from_le_bytes([module[8], module[9]]) as usize;
    let mut at = MAGIC.len() + 2;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(at);
        let len = u32::from_le_bytes(module[at + 4..at + 8].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    out
}

/// One random mutant of `module` and the name of the mutation.
fn mutate(rng: &mut Rng, module: &[u8]) -> (Vec<u8>, &'static str) {
    let mut out = module.to_vec();
    let headers = header_offsets(module);
    let put = |out: &mut Vec<u8>, at: usize, bytes: &[u8]| {
        out[at..at + bytes.len()].copy_from_slice(bytes);
    };
    match rng.below(6) {
        0 => {
            for _ in 0..1 + rng.below(4) {
                let bit = rng.below(8 * out.len());
                out[bit / 8] ^= 1 << (bit % 8);
            }
            (out, "bit flips")
        }
        1 => {
            let count = match rng.below(3) {
                0 => u16::MAX,
                1 => rng.next() as u16,
                _ => (headers.len() as u16).wrapping_add(1 + rng.below(4) as u16),
            };
            put(&mut out, MAGIC.len(), &count.to_le_bytes());
            (out, "function count")
        }
        2 => {
            let at = headers[rng.below(headers.len())] + 4;
            let declared = u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
            let len = match rng.below(4) {
                0 => u32::MAX,
                1 => rng.next() as u32,
                2 => declared.wrapping_add(1 + rng.below(16) as u32),
                _ => declared.wrapping_sub(1 + rng.below(16) as u32),
            };
            put(&mut out, at, &len.to_le_bytes());
            (out, "code length")
        }
        3 => {
            let at = headers[rng.below(headers.len())] + 2 * rng.below(2);
            put(&mut out, at, &(rng.next() as u16).to_le_bytes());
            (out, "args or locals")
        }
        4 => {
            let at = MAGIC.len() + 2 + rng.below(out.len() - MAGIC.len() - 1);
            let junk: Vec<u8> = (0..1 + rng.below(8)).map(|_| rng.next() as u8).collect();
            out.splice(at..at, junk);
            (out, "inserted bytes")
        }
        _ => {
            let at = MAGIC.len() + rng.below(out.len() - MAGIC.len());
            let end = (at + 1 + rng.below(8)).min(out.len());
            out.drain(at..end);
            (out, "deleted bytes")
        }
    }
}

#[test]
fn a_function_count_the_bytes_cannot_hold_reserves_nothing() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&[0xFF, 0xFF]);
    reset();
    assert!(Module::from_bytes(&bytes).is_err());
    let largest = largest();
    assert!(largest <= bytes.len() + SLACK, "allocated {largest} bytes");
}

#[test]
fn hostile_modules_never_panic_or_over_allocate_and_accepted_ones_round_trip() {
    let seeds = seed_modules();
    let (mut cases, mut accepted) = (0u64, 0u64);
    let mut run = |case: String, mutant: &[u8]| {
        cases += 1;
        match catch_unwind(AssertUnwindSafe(|| check(mutant))) {
            Ok(ok) => accepted += u64::from(ok),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("a panic");
                panic!("{case}: {what}\nmutant: {mutant:02x?}");
            }
        }
    };
    for (s, seed) in seeds.iter().enumerate() {
        run(format!("seed {s}"), seed);
        for len in 0..seed.len() {
            run(format!("seed {s} truncated to {len}"), &seed[..len]);
        }
    }
    let mut rng = Rng(0xF1C5_0DE5_u64);
    for case in 0..RANDOM_CASES {
        let s = rng.below(seeds.len());
        let (mutant, kind) = mutate(&mut rng, &seeds[s]);
        run(format!("case {case} ({kind}) of seed {s}"), &mutant);
    }
    eprintln!("{cases} hostile modules, {accepted} accepted and round-tripped");
    // The seeds themselves are accepted, so the round trip is exercised.
    assert!(accepted >= seeds.len() as u64);
}
