//! Hostile bytes into the parcel decoder: a seeded mutation fuzz over
//! real parcels — exported from a store, and one carrying literal
//! objects. Every mutant must decode without a panic and without one
//! allocation larger than 64 KiB beyond its own length, and every parcel
//! the decoder accepts must re-encode to exactly the bytes it came from:
//! an object's payload always hashes to the name it was shipped under.
//!
//! The tests have a binary of their own: it installs a global allocator
//! that records each thread's largest single request.

use fix_core::api::{InvocationApi, ObjectApi};
use fix_core::data::{Blob, Node, Tree};
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fix_core::wire::{Parcel, MAGIC};
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
/// Seeded mutants, spread over the seed parcels.
const RANDOM_CASES: u64 = 100_000;
/// Where the object count sits: after the magic and the root handle.
const COUNT_AT: usize = MAGIC.len() + 32;

/// The byte images of real parcels: stores' exports of a digest blob, a
/// tree mixing literal and digest entries, nested trees, and an
/// application thunk; and a parcel that ships literal objects (which an
/// export leaves out, their bytes being in their names).
fn seed_parcels() -> Vec<Vec<u8>> {
    let rt = fixpoint::Runtime::builder().build();
    let digest = rt.put_blob(Blob::from_vec((0..100u8).collect()));
    let mixed = rt.put_tree(Tree::from_handles(vec![
        Blob::from_slice(b"hi").handle(),
        digest,
        Blob::from_u64(7).handle(),
    ]));
    let leaf = rt.put_tree(Tree::from_handles(vec![digest.as_ref_handle()]));
    let middle = rt.put_tree(Tree::from_handles(vec![leaf, mixed, leaf]));
    let empty = rt.put_tree(Tree::from_handles(vec![]));
    let nested = rt.put_tree(Tree::from_handles(vec![middle, empty]));
    let adder = rt.put_blob(Blob::from_vec(vec![0xAD; 48]));
    let thunk = rt
        .apply(ResourceLimits::default_limits(), adder, &[nested, digest])
        .expect("an application");
    let exported = [digest, mixed, nested, thunk]
        .map(|root| rt.store().export(root).expect("exports").to_bytes());
    let literals = Parcel::new(
        Blob::from_slice(b"abc").handle(),
        vec![
            Node::Blob(Blob::from_slice(b"abc")),
            Node::Blob(Blob::from_u64(0xF1C5)),
            Node::Blob(Blob::from_slice(b"")),
            Node::Blob(Blob::from_slice(&[9u8; 40])),
            Node::Tree(Tree::from_handles(vec![Blob::from_slice(b"abc").handle()])),
        ],
    )
    .to_bytes();
    exported.into_iter().chain([literals]).collect()
}

/// Decodes `bytes` and checks the decoder's contract on it; true if the
/// decoder accepted them.
fn check(bytes: &[u8]) -> bool {
    reset();
    let decoded = Parcel::verify(bytes);
    let largest = largest();
    assert!(
        largest <= bytes.len() + SLACK,
        "allocated {largest} bytes for a {}-byte parcel",
        bytes.len()
    );
    let Ok(verified) = decoded else {
        return false;
    };
    let root = verified.root();
    let objects = verified.into_objects();
    for (handle, node) in &objects {
        assert_eq!(
            *handle,
            node.handle(),
            "an object kept a name it does not hash to"
        );
    }
    let parcel = Parcel::new(root, objects.into_iter().map(|(_, node)| node).collect());
    let encoded = parcel.to_bytes();
    assert_eq!(encoded, bytes, "an accepted parcel re-encodes differently");
    assert_eq!(Parcel::from_bytes(&encoded).ok(), Some(parcel));
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

/// One shipped object's place in a parcel: where its handle starts, and
/// its payload's range.
struct Object {
    at: usize,
    payload: std::ops::Range<usize>,
}

impl Object {
    fn handle(&self, parcel: &[u8]) -> Handle {
        let raw: [u8; 32] = parcel[self.at..self.at + 32].try_into().unwrap();
        Handle::from_raw(raw).unwrap()
    }
}

fn objects(parcel: &[u8]) -> Vec<Object> {
    let word = |at: usize| u32::from_le_bytes(parcel[at..at + 4].try_into().unwrap()) as usize;
    let mut at = COUNT_AT + 4;
    (0..word(COUNT_AT))
        .map(|_| {
            let start = at + 36;
            let object = Object {
                at,
                payload: start..start + word(at + 32),
            };
            at = object.payload.end;
            object
        })
        .collect()
}

/// `bytes` replaced by as many others, at least one bit different.
fn other_bytes(rng: &mut Rng, bytes: &mut [u8]) {
    let before = bytes.to_vec();
    for b in bytes.iter_mut() {
        *b = rng.next() as u8;
    }
    if bytes == before && !bytes.is_empty() {
        bytes[0] ^= 1;
    }
}

/// One random mutant of `parcel` and the name of the mutation.
fn mutate(rng: &mut Rng, parcel: &[u8]) -> (Vec<u8>, &'static str) {
    let mut out = parcel.to_vec();
    let objects = objects(parcel);
    let put = |out: &mut Vec<u8>, at: usize, bytes: &[u8]| {
        out[at..at + bytes.len()].copy_from_slice(bytes);
    };
    match rng.below(7) {
        0 => {
            for _ in 0..1 + rng.below(4) {
                let bit = rng.below(8 * out.len());
                out[bit / 8] ^= 1 << (bit % 8);
            }
            (out, "bit flips")
        }
        1 => {
            let declared = objects.len() as u32;
            let count = match rng.below(4) {
                0 => u32::MAX,
                1 => rng.next() as u32,
                2 => declared.wrapping_add(1 + rng.below(4) as u32),
                _ => declared.wrapping_sub(1),
            };
            put(&mut out, COUNT_AT, &count.to_le_bytes());
            (out, "object count")
        }
        2 => {
            let at = objects[rng.below(objects.len())].at + 32;
            let declared = u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
            let len = match rng.below(4) {
                0 => u32::MAX,
                1 => rng.next() as u32,
                2 => declared.wrapping_add(1 + rng.below(16) as u32),
                _ => declared.wrapping_sub(1 + rng.below(16) as u32),
            };
            put(&mut out, at, &len.to_le_bytes());
            (out, "payload length")
        }
        3 => {
            // A literal's payload swapped for other bytes of its length
            // (any object's, in a seed that ships no literal).
            let literals: Vec<&Object> = objects
                .iter()
                .filter(|o| o.handle(parcel).is_literal() && !o.payload.is_empty())
                .collect();
            let object = if literals.is_empty() {
                &objects[rng.below(objects.len())]
            } else {
                literals[rng.below(literals.len())]
            };
            other_bytes(rng, &mut out[object.payload.clone()]);
            (out, "swapped contents")
        }
        4 => {
            // One object shipped under another's name.
            let from = &objects[rng.below(objects.len())];
            let to = &objects[rng.below(objects.len())];
            out.copy_within(from.at..from.at + 32, to.at);
            (out, "swapped names")
        }
        5 => {
            let at = COUNT_AT + rng.below(out.len() - COUNT_AT + 1);
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
fn a_count_the_bytes_cannot_hold_reserves_nothing() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(Blob::from_slice(b"x").handle().raw());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 36]);
    reset();
    assert!(Parcel::verify(&bytes).is_err());
    let largest = largest();
    assert!(largest <= bytes.len() + SLACK, "allocated {largest} bytes");
}

#[test]
fn hostile_parcels_never_panic_or_over_allocate_and_accepted_ones_round_trip() {
    let seeds = seed_parcels();
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
    let mut rng = Rng(0xF1C5_0DE5_u64);
    for (s, seed) in seeds.iter().enumerate() {
        run(format!("seed {s}"), seed);
        for len in 0..seed.len() {
            run(format!("seed {s} truncated to {len}"), &seed[..len]);
        }
        // Every literal object, shipped with other bytes under its name.
        for (i, object) in objects(seed).iter().enumerate() {
            if object.handle(seed).is_literal() && !object.payload.is_empty() {
                let mut mutant = seed.clone();
                other_bytes(&mut rng, &mut mutant[object.payload.clone()]);
                run(format!("seed {s}, literal object {i} swapped"), &mutant);
            }
        }
    }
    for case in 0..RANDOM_CASES {
        let s = rng.below(seeds.len());
        let (mutant, kind) = mutate(&mut rng, &seeds[s]);
        run(format!("case {case} ({kind}) of seed {s}"), &mutant);
    }
    eprintln!("{cases} hostile parcels, {accepted} accepted and round-tripped");
    // The seeds themselves are accepted, so the round trip is exercised.
    assert!(accepted >= seeds.len() as u64);
}
