//! Hostile bytes into the parcel decoder: a seeded mutation fuzz over
//! real parcels — exported from a store, and one carrying literal
//! objects. Every mutant must decode without a panic and without one
//! allocation larger than 64 KiB beyond its own length, and every parcel
//! the decoder accepts must re-encode to exactly the bytes it came from:
//! an object's payload always hashes to the name it was shipped under.
//!
//! The fuzz kit (`tests/support/hostile.rs`) installs a global allocator,
//! so these tests have a binary of their own.

use fix_core::api::{InvocationApi, ObjectApi};
use fix_core::data::{Blob, Node, Tree};
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fix_core::wire::{Parcel, MAGIC};
use hostile::{Cases, Rng};

#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

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
    let Ok(verified) = hostile::decode(bytes, Parcel::verify) else {
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
    bytes.copy_from_slice(&rng.bytes(bytes.len()));
    if bytes == before && !bytes.is_empty() {
        bytes[0] ^= 1;
    }
}

/// One random mutant of `parcel` and the name of the mutation.
fn mutate(rng: &mut Rng, parcel: &[u8]) -> (Vec<u8>, &'static str) {
    let mut out = parcel.to_vec();
    let objects = objects(parcel);
    match rng.below(7) {
        0 => {
            hostile::flip_bits(rng, &mut out, 4);
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
            out[COUNT_AT..COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
            (out, "object count")
        }
        2 => {
            let at = objects[rng.below(objects.len())].at + 32;
            hostile::poke_length(rng, &mut out, at);
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
            hostile::splice_junk(rng, &mut out, COUNT_AT);
            (out, "inserted bytes")
        }
        _ => {
            hostile::delete_run(rng, &mut out, MAGIC.len());
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
    assert!(hostile::decode(&bytes[..], Parcel::verify).is_err());
}

#[test]
fn hostile_parcels_never_panic_or_over_allocate_and_accepted_ones_round_trip() {
    let seeds = seed_parcels();
    let mut cases = Cases::default();
    let mut rng = Rng(0xF1C5_0DE5_u64);
    cases.prefixes(&seeds, check);
    for (s, seed) in seeds.iter().enumerate() {
        // Every literal object, shipped with other bytes under its name.
        for (i, object) in objects(seed).iter().enumerate() {
            if object.handle(seed).is_literal() && !object.payload.is_empty() {
                let mut mutant = seed.clone();
                other_bytes(&mut rng, &mut mutant[object.payload.clone()]);
                let case = format_args!("seed {s}, literal object {i} swapped");
                cases.run(case, &mutant[..], check);
            }
        }
    }
    cases.mutants(&mut rng, RANDOM_CASES, &seeds, mutate, check);
    let Cases { run, accepted } = cases;
    eprintln!("{run} hostile parcels, {accepted} accepted and round-tripped");
    // The seeds themselves are accepted, so the round trip is exercised.
    assert!(accepted >= seeds.len() as u64);
}
