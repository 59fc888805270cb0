//! Hostile text into the FixVM assembler, which `install_vm_module`
//! hands callers' source to: a seeded token-level fuzz over real guests.
//! Every mutant must assemble without a panic and without one allocation
//! larger than 64 KiB beyond its own length, and every module the
//! assembler accepts must round-trip through its byte image.
//!
//! The fuzz kit (`tests/support/hostile.rs`) installs a global allocator,
//! so this test has a binary of its own.

use fix_vm::{assemble, Module};
use hostile::{Cases, Rng};

#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

/// Seeded mutants, spread over the seed guests: 2 × 10⁵ at release speed
/// (CI's decoder step), a tenth in a debug build.
const RANDOM_CASES: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};

/// Tokens a mutant may gain: operands past every field's range, broken
/// attributes and character literals, labels nothing defines or uses,
/// stray structure, non-ASCII text and NUL.
const EDGE_TOKENS: &[&str] = &[
    "65536",
    "0xFFFF_FFFF_FFFF_FFFF",
    "0xFFFFFFFFFFFFFFFF",
    "18446744073709551616",
    "-1",
    "0x",
    "args=99999",
    "locals=65535",
    "args=",
    "''",
    "'''",
    "'é'",
    "dangling",
    "dangling:",
    ":",
    "end",
    "func",
    "call",
    "é",
    "\0",
    ";",
    "\n",
];

/// The seed guests: the shared test guests and the benchmark's loop.
fn seed_sources() -> Vec<&'static str> {
    vec![
        include_str!("../../../tests/guests/add.fvm"),
        include_str!("../../../tests/guests/fib.fvm"),
        include_str!("../../../fixbench/guests/loop.fvm"),
    ]
}

/// A source's tokens with its line breaks among them, comments left out.
fn tokens(source: &str) -> Vec<&str> {
    source
        .lines()
        .flat_map(|line| {
            let code = line.split([';', '#']).next().unwrap_or("");
            code.split_whitespace().chain(["\n"])
        })
        .collect()
}

/// Assembles `source` and checks the assembler's contract on it; true if
/// the assembler accepted it.
fn check(source: &str) -> bool {
    let Ok(module) = hostile::decode(source, assemble) else {
        return false;
    };
    let decoded = Module::from_bytes(&module.to_bytes());
    assert_eq!(
        decoded,
        Ok(module),
        "an assembled module does not round-trip"
    );
    true
}

/// One random mutant of `source`: one to three tokens inserted, deleted
/// or replaced, each new one an edge case or one of the seed's own.
fn mutate(rng: &mut Rng, source: &str) -> (String, &'static str) {
    let mut tokens = tokens(source);
    let kind = rng.below(3);
    for _ in 0..1 + rng.below(3) {
        let new = if rng.below(2) == 0 {
            EDGE_TOKENS[rng.below(EDGE_TOKENS.len())]
        } else {
            tokens[rng.below(tokens.len())]
        };
        match kind {
            0 => tokens.insert(rng.below(tokens.len() + 1), new),
            1 => {
                tokens.remove(rng.below(tokens.len()));
            }
            _ => {
                let at = rng.below(tokens.len());
                tokens[at] = new;
            }
        }
    }
    let kind = ["inserted tokens", "deleted tokens", "replaced tokens"][kind];
    (tokens.join(" "), kind)
}

#[test]
fn hostile_sources_never_panic_or_over_allocate_and_accepted_ones_round_trip() {
    let seeds = seed_sources();
    let mut cases = Cases::default();
    // Every prefix of every seed, a token at a time.
    for (s, seed) in seeds.iter().enumerate() {
        let tokens = tokens(seed);
        for len in 0..=tokens.len() {
            let case = format_args!("seed {s} cut to {len} tokens");
            cases.run(case, tokens[..len].join(" ").as_str(), check);
        }
    }
    let mut rng = Rng(0xF1C5_0DE5_u64);
    cases.mutants(&mut rng, RANDOM_CASES, &seeds, mutate, check);
    let Cases { run, accepted } = cases;
    eprintln!("{run} hostile sources, {accepted} assembled and round-tripped");
    // The seeds themselves are accepted, so the round trip is exercised.
    assert!(accepted >= seeds.len() as u64);
}
