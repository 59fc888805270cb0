//! Hostile bytes into the FixVM module decoder: a seeded mutation fuzz
//! over real modules. Every mutant must decode without a panic and
//! without one allocation larger than 64 KiB beyond its own length, and
//! every module the decoder accepts must round-trip through `to_bytes`.
//!
//! The fuzz kit (`tests/support/hostile.rs`) installs a global allocator,
//! so these tests have a binary of their own.

use fix_vm::{assemble, Module, MAGIC};
use hostile::{Cases, Rng};

#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

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
    let Ok(module) = hostile::decode(bytes, Module::from_bytes) else {
        return false;
    };
    let encoded = module.to_bytes();
    assert_eq!(encoded, bytes, "an accepted module re-encodes differently");
    assert_eq!(Module::from_bytes(&encoded).ok(), Some(module));
    true
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
    match rng.below(6) {
        0 => {
            hostile::flip_bits(rng, &mut out, 4);
            (out, "bit flips")
        }
        1 => {
            let count = match rng.below(3) {
                0 => u16::MAX,
                1 => rng.next() as u16,
                _ => (headers.len() as u16).wrapping_add(1 + rng.below(4) as u16),
            };
            out[MAGIC.len()..MAGIC.len() + 2].copy_from_slice(&count.to_le_bytes());
            (out, "function count")
        }
        2 => {
            let at = headers[rng.below(headers.len())] + 4;
            hostile::poke_length(rng, &mut out, at);
            (out, "code length")
        }
        3 => {
            let at = headers[rng.below(headers.len())] + 2 * rng.below(2);
            out[at..at + 2].copy_from_slice(&(rng.next() as u16).to_le_bytes());
            (out, "args or locals")
        }
        4 => {
            hostile::splice_junk(rng, &mut out, MAGIC.len() + 2);
            (out, "inserted bytes")
        }
        _ => {
            hostile::delete_run(rng, &mut out, MAGIC.len());
            (out, "deleted bytes")
        }
    }
}

#[test]
fn a_function_count_the_bytes_cannot_hold_reserves_nothing() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&[0xFF, 0xFF]);
    assert!(hostile::decode(&bytes[..], Module::from_bytes).is_err());
}

#[test]
fn hostile_modules_never_panic_or_over_allocate_and_accepted_ones_round_trip() {
    let seeds = seed_modules();
    let mut cases = Cases::default();
    cases.prefixes(&seeds, check);
    let mut rng = Rng(0xF1C5_0DE5_u64);
    cases.mutants(&mut rng, RANDOM_CASES, &seeds, mutate, check);
    let Cases { run, accepted } = cases;
    eprintln!("{run} hostile modules, {accepted} accepted and round-tripped");
    // The seeds themselves are accepted, so the round trip is exercised.
    assert!(accepted >= seeds.len() as u64);
}
