//! Deterministic article-title generation (the 6 M Wikipedia titles
//! stand-in for the B+-tree experiment, paper §5.4).
//!
//! Titles average ≈22 bytes like the paper's dataset, are unique, and
//! come out lexicographically sortable for bulk-loading the B+ tree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIRST: &[&str] = &[
    "History",
    "Geography",
    "List",
    "Battle",
    "Treaty",
    "County",
    "Lake",
    "Mount",
    "River",
    "Province",
    "Kingdom",
    "Republic",
    "Empire",
    "Church",
    "Castle",
    "Bridge",
    "Museum",
    "Festival",
    "Symphony",
    "Railway",
];

const SECOND: &[&str] = &[
    "of_Albania",
    "of_Bavaria",
    "of_Cornwall",
    "of_Denmark",
    "of_Estonia",
    "of_Finland",
    "of_Galicia",
    "of_Hungary",
    "of_Iceland",
    "of_Jutland",
    "of_Kyoto",
    "of_Lorraine",
    "of_Moravia",
    "of_Norway",
    "of_Orkney",
    "of_Prussia",
    "of_Quebec",
    "of_Rome",
    "of_Saxony",
    "of_Tuscany",
];

/// Generates `n` unique titles (unsorted), deterministically.
fn generate_titles(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = FIRST[rng.gen_range(0..FIRST.len())];
        let b = SECOND[rng.gen_range(0..SECOND.len())];
        // A numeric disambiguator guarantees uniqueness (like Wikipedia's
        // parenthetical disambiguation) and spreads the keyspace.
        out.push(format!("{a}_{b}_{i:07}"));
    }
    out
}

/// Generates `n` unique titles, sorted (ready for B+-tree bulk load).
pub fn generate_sorted_titles(seed: u64, n: usize) -> Vec<String> {
    let mut titles = generate_titles(seed, n);
    titles.sort();
    titles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titles_are_unique_and_deterministic() {
        let a = generate_titles(9, 10_000);
        let b = generate_titles(9, 10_000);
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        for t in &a {
            assert!(set.insert(t), "duplicate title {t}");
        }
    }

    #[test]
    fn average_length_is_paper_like() {
        let titles = generate_titles(1, 5_000);
        let total: usize = titles.iter().map(String::len).sum();
        let avg = total as f64 / titles.len() as f64;
        // The paper reports ≈22 bytes average.
        assert!((18.0..32.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn sorted_variant_is_sorted() {
        let titles = generate_sorted_titles(2, 2_000);
        assert!(titles.windows(2).all(|w| w[0] < w[1]));
    }
}
