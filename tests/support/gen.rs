//! The seeded generator every property test and hostile-bytes suite
//! draws from: a xorshift stream, the draws the properties need, and
//! one runner that gives each case its own stream and names the
//! property and the case a panic came from. A Fix computation is a
//! function of its inputs, so a case reproduces exactly on re-run; no
//! case is shrunk.
//!
//! It installs no global allocator, so unit tests include it too: a
//! crate's `lib.rs` pulls it in with
//! `#[cfg(test)] #[path = "../../../tests/support/gen.rs"] mod gen;`,
//! a root integration test with `#[path = "support/gen.rs"] mod gen;`.

// Each includer uses a subset of the draws.
#![allow(dead_code)]

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A xorshift generator: seeded, so every run draws the same values. A
/// zero state is a fixed point, so seed it with anything else.
pub struct Rng(pub u64);

impl Rng {
    /// The stream of case `case` of the property `name`: FNV-1a of the
    /// name, mixed with the case by SplitMix64's finalizer, which is a
    /// bijection, so only one input maps to the zero state it avoids.
    pub fn for_case(name: &str, case: u32) -> Rng {
        let fnv = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let mut z = fnv ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)).max(1))
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A draw from `range`, which must not be empty.
    pub fn range<T: Copy + TryFrom<u64> + TryInto<u64>>(&mut self, range: Range<T>) -> T {
        let wide = |n: T| n.try_into().ok().expect("an integer of at most 64 bits");
        let (lo, hi) = (wide(range.start), wide(range.end));
        assert!(lo < hi, "an empty range");
        let n = lo + self.next() % (hi - lo);
        T::try_from(n).ok().expect("a draw inside the range")
    }

    pub fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub fn byte(&mut self) -> u8 {
        self.next() as u8
    }

    /// `n` bytes, one draw each.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.byte()).collect()
    }

    /// A `Vec` of a length drawn from `len`, each element from `draw`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut draw: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| draw(self)).collect()
    }

    /// A set of a size drawn from `len`: draws from `draw` until that
    /// many are distinct, and fails where the domain is too narrow.
    pub fn set<T: Ord>(
        &mut self,
        len: Range<usize>,
        mut draw: impl FnMut(&mut Rng) -> T,
    ) -> BTreeSet<T> {
        let n = self.range(len);
        let mut set = BTreeSet::new();
        for tries in 0.. {
            if set.len() == n {
                break;
            }
            assert!(
                tries < 100 * n + 256,
                "no {n} distinct draws: the domain is too narrow"
            );
            set.insert(draw(self));
        }
        set
    }

    /// A map of a size drawn from `len`, keys from `key` and values from
    /// `value`; a key drawn twice keeps its second value.
    pub fn map<K: Ord, V>(
        &mut self,
        len: Range<usize>,
        mut key: impl FnMut(&mut Rng) -> K,
        mut value: impl FnMut(&mut Rng) -> V,
    ) -> BTreeMap<K, V> {
        let n = self.range(len);
        let mut map = BTreeMap::new();
        for tries in 0.. {
            if map.len() == n {
                break;
            }
            assert!(
                tries < 100 * n + 256,
                "no {n} distinct keys: the domain is too narrow"
            );
            let k = key(self);
            map.insert(k, value(self));
        }
        map
    }

    /// A string of a length drawn from `len`, each character from the
    /// ASCII `class`.
    pub fn string(&mut self, class: &[u8], len: Range<usize>) -> String {
        let n = self.range(len);
        (0..n)
            .map(|_| char::from(class[self.below(class.len())]))
            .collect()
    }
}

/// `a..=z`, the class most names are drawn from.
pub const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// What a caught panic said.
pub fn message(panic: &(dyn Any + Send)) -> &str {
    let what = panic.downcast_ref::<String>().map(String::as_str);
    what.or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("a panic")
}

/// Runs the property `name` on `cases` cases, case `i` on
/// `Rng::for_case(name, i)`. A panic is raised again with the
/// property's name and the case, which re-running reproduces.
pub fn check(name: &str, cases: u32, property: impl Fn(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::for_case(name, case);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            panic!("{name}: case {case} of {cases}: {}", message(&*panic));
        }
    }
}
