//! Invoices under the two service models.
//!
//! *Pay-for-effort* bills the occupied machine slice by wall time —
//! every millisecond, idle or not, like today's FaaS platforms. A
//! provider that schedules poorly (or a neighbor that thrashes the
//! cache) makes the *customer's* bill go up.
//!
//! *Pay-for-results* bills an upfront component computable from the
//! invocation description alone, plus a runtime component over counters
//! that are the invocation's own fault (instructions, L1/L2 misses) —
//! never L3 misses or wall time. Identical work yields an identical
//! bill, however badly it was placed (paper §6).

use crate::money::Money;
use crate::price::PriceSheet;
use crate::usage::InvocationUsage;

const GIB: u128 = 1 << 30;

/// The two service models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Wall-clock × RAM occupancy (status quo).
    PayForEffort,
    /// Upfront + own-fault runtime counters (Fix's proposal).
    PayForResults,
}

/// One charged line of an invoice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineItem {
    /// What is being charged.
    pub label: &'static str,
    /// The metered quantity, in the unit named by the label.
    pub quantity: u128,
    /// The charge.
    pub amount: Money,
}

/// An itemized invoice for one invocation (or an aggregate of many).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invoice {
    /// Which model produced it.
    pub model: Model,
    /// The charged lines.
    pub items: Vec<LineItem>,
}

impl Invoice {
    /// The invoice total.
    pub fn total(&self) -> Money {
        self.items.iter().map(|i| i.amount).sum()
    }
}

impl std::fmt::Display for Invoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:?}", self.model)?;
        for item in &self.items {
            writeln!(
                f,
                "  {:<28} {:>16}  {}",
                item.label, item.quantity, item.amount
            )?;
        }
        write!(f, "  {:<28} {:>16}  {}", "TOTAL", "", self.total())
    }
}

/// Bills an invocation under pay-for-effort: GiB-ms of occupied slice.
pub fn bill_effort(usage: &InvocationUsage, price: &PriceSheet) -> Invoice {
    // GiB-ms = (ram_bytes × wall_us) / (GiB × 1000), in exact integers.
    let byte_us = usage.ram_reserved_bytes as u128 * usage.wall_us as u128;
    let amount = price.effort_per_gib_ms.scaled(byte_us, GIB * 1_000);
    Invoice {
        model: Model::PayForEffort,
        items: vec![LineItem {
            label: "slice occupancy (GiB-ms)",
            quantity: byte_us / (GIB * 1_000),
            amount,
        }],
    }
}

/// Bills an invocation under pay-for-results.
///
/// Upfront lines use only pre-launch facts; runtime lines use only
/// own-fault counters, scaled by the deadline multiplier. L3 misses
/// appear as a zero-charge line so the exclusion is visible on the
/// invoice.
pub fn bill_results(usage: &InvocationUsage, price: &PriceSheet) -> Invoice {
    let bps = price.deadline_multiplier_bps(usage.deadline_slack_us) as u128;
    let scaled = |m: Money| m.scaled(bps, 10_000);
    let items = vec![
        LineItem {
            label: "input footprint (bytes)",
            quantity: usage.input_bytes as u128,
            amount: price
                .upfront_per_input_gib
                .scaled(usage.input_bytes as u128, GIB),
        },
        LineItem {
            label: "RAM reservation (bytes)",
            quantity: usage.ram_reserved_bytes as u128,
            amount: price
                .upfront_per_ram_gib
                .scaled(usage.ram_reserved_bytes as u128, GIB),
        },
        LineItem {
            label: "instructions retired",
            quantity: usage.instructions as u128,
            amount: scaled(
                price
                    .per_giga_instruction
                    .scaled(usage.instructions as u128, 1_000_000_000),
            ),
        },
        LineItem {
            label: "L1 misses",
            quantity: usage.l1_misses as u128,
            amount: scaled(
                price
                    .per_mega_l1_miss
                    .scaled(usage.l1_misses as u128, 1_000_000),
            ),
        },
        LineItem {
            label: "L2 misses",
            quantity: usage.l2_misses as u128,
            amount: scaled(
                price
                    .per_mega_l2_miss
                    .scaled(usage.l2_misses as u128, 1_000_000),
            ),
        },
        LineItem {
            label: "L3 misses (not billed)",
            quantity: usage.l3_misses as u128,
            amount: Money::ZERO,
        },
    ];
    Invoice {
        model: Model::PayForResults,
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_usage() -> InvocationUsage {
        InvocationUsage {
            input_bytes: 64 << 20,
            ram_reserved_bytes: 1 << 30,
            instructions: 2_000_000_000,
            l1_misses: 5_000_000,
            l2_misses: 1_000_000,
            l3_misses: 400_000,
            wall_us: 1_500_000,
            deadline_slack_us: 0,
        }
    }

    #[test]
    fn effort_bill_is_ram_times_wall() {
        let p = PriceSheet::default();
        let inv = bill_effort(&sample_usage(), &p);
        // 1 GiB × 1500 ms at 16 667 pico$/GiB-ms.
        assert_eq!(inv.total(), Money::from_picos(16_667 * 1_500));
    }

    #[test]
    fn results_bill_ignores_wall_time_and_l3() {
        let p = PriceSheet::default();
        let mut slow = sample_usage();
        slow.wall_us *= 10; // Noisy neighbor, or terrible placement.
        slow.l3_misses *= 50;
        let fast = sample_usage();
        assert_eq!(
            bill_results(&fast, &p).total(),
            bill_results(&slow, &p).total(),
            "pay-for-results must be placement/neighbor invariant"
        );
        // While pay-for-effort punishes the customer 10×.
        assert_eq!(
            bill_effort(&slow, &p).total(),
            bill_effort(&fast, &p).total() * 10,
        );
    }

    #[test]
    fn results_bill_has_upfront_and_runtime_lines() {
        let p = PriceSheet::default();
        let inv = bill_results(&sample_usage(), &p);
        assert_eq!(inv.items.len(), 6);
        let l3 = inv
            .items
            .iter()
            .find(|i| i.label.contains("L3"))
            .expect("L3 line present");
        assert_eq!(l3.amount, Money::ZERO);
        assert!(inv.total() > Money::ZERO);
    }

    #[test]
    fn far_deadlines_discount_runtime_but_not_upfront() {
        let p = PriceSheet::default();
        let now = sample_usage();
        let mut later = now;
        later.deadline_slack_us = 7_200_000_000; // Two hours.
        let inv_now = bill_results(&now, &p);
        let inv_later = bill_results(&later, &p);
        assert!(inv_later.total() < inv_now.total());
        // Upfront lines (first two) are identical.
        assert_eq!(inv_now.items[0], inv_later.items[0]);
        assert_eq!(inv_now.items[1], inv_later.items[1]);
        // Instruction line halves at the floor multiplier.
        assert_eq!(
            inv_later.items[2].amount,
            inv_now.items[2].amount.scaled(1, 2)
        );
    }

    #[test]
    fn zero_usage_bills_zero() {
        let p = PriceSheet::default();
        assert_eq!(
            bill_effort(&InvocationUsage::default(), &p).total(),
            Money::ZERO
        );
        assert_eq!(
            bill_results(&InvocationUsage::default(), &p).total(),
            Money::ZERO
        );
    }
}
