//! Fixed-point money: picodollars.
//!
//! Cloud prices are tiny per unit (AWS Lambda charges about
//! $0.0000000167 per MB-ms), so floating point would accumulate rounding
//! across millions of invocations. All amounts here are integers in
//! units of 10⁻¹² dollars; a `u128` holds about 3.4 × 10²⁶ dollars,
//! comfortably beyond any invoice.
//!
//! Arithmetic past that range panics ("invoice overflow") rather than
//! wrap or saturate: either would print a wrong bill as a right one.
//! Billing runs over metered counters after the fact, off every request
//! path, so a loud failure costs no request its answer.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// An exact, non-negative amount of money in picodollars (10⁻¹² $).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Money(u128);

/// Picodollars per dollar.
const PICOS: u128 = 1_000_000_000_000;

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Constructs from raw picodollars.
    pub const fn from_picos(picos: u128) -> Money {
        Money(picos)
    }

    /// Constructs from whole dollars.
    pub const fn from_dollars(dollars: u64) -> Money {
        Money(dollars as u128 * PICOS)
    }

    /// Constructs from microdollars (10⁻⁶ $), a convenient price-sheet
    /// granularity.
    pub const fn from_micros(micros: u64) -> Money {
        Money(micros as u128 * 1_000_000)
    }

    /// The raw picodollar count.
    pub const fn picos(self) -> u128 {
        self.0
    }

    /// The amount in (approximate) dollars, for display and plotting.
    pub fn as_dollars_f64(self) -> f64 {
        self.0 as f64 / PICOS as f64
    }

    /// `self × numerator / denominator` with intermediate headroom;
    /// rounds down. Used for fractional quantities (e.g. GiB-ms from
    /// byte-µs) and basis-point multipliers.
    ///
    /// # Panics
    ///
    /// Panics on a zero denominator, and if `self × numerator` overflows.
    pub fn scaled(self, numerator: u128, denominator: u128) -> Money {
        assert!(denominator != 0, "scaling by zero denominator");
        // invariant: no invoice reaches 3.4 × 10²⁶ $ (see the module docs).
        let product = self.0.checked_mul(numerator).expect("invoice overflow");
        Money(product / denominator)
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        // invariant: no invoice reaches 3.4 × 10²⁶ $ (see the module docs).
        Money(self.0.checked_add(rhs.0).expect("invoice overflow"))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Mul<u128> for Money {
    type Output = Money;
    fn mul(self, rhs: u128) -> Money {
        // invariant: no invoice reaches 3.4 × 10²⁶ $ (see the module docs).
        Money(self.0.checked_mul(rhs).expect("invoice overflow"))
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dollars = self.0 / PICOS;
        let frac = self.0 % PICOS;
        // Six fractional digits is plenty for display; amounts smaller
        // than a microdollar print as $0.000000…
        write!(f, "${dollars}.{:06}", frac / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        assert_eq!(Money::from_dollars(3).picos(), 3 * PICOS);
        assert_eq!(
            Money::from_micros(2_500_000),
            Money::from_dollars(2) + Money::from_micros(500_000)
        );
        assert_eq!(Money::from_dollars(1).to_string(), "$1.000000");
        assert_eq!(Money::from_micros(1).to_string(), "$0.000001");
        assert_eq!(Money::from_picos(999_999).to_string(), "$0.000000");
    }

    #[test]
    fn scaled_rounds_down_exactly() {
        let m = Money::from_picos(10);
        assert_eq!(m.scaled(1, 3).picos(), 3);
        assert_eq!(m.scaled(2, 3).picos(), 6);
        assert_eq!(m.scaled(3, 3), m);
    }

    #[test]
    fn sum_and_ordering() {
        let items = [Money::from_micros(10), Money::from_micros(5)];
        let total: Money = items.iter().copied().sum();
        assert_eq!(total, Money::from_micros(15));
        assert!(items[1] < items[0]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_is_loud() {
        let _ = Money::from_picos(u128::MAX) + Money::from_picos(1);
    }

    #[test]
    #[should_panic(expected = "invoice overflow")]
    fn an_overflowing_scale_is_loud_not_wrapped() {
        let _ = Money::from_picos(u128::MAX / 2).scaled(3, 4);
    }
}
