//! Property tests for the §6 extension systems: invariants that must
//! hold for *any* workload shape, not just the hand-picked ones.

use fix::prelude::*;
use fix_billing::{bill_effort, bill_results, InvocationUsage, Money, PriceSheet};
use gen::{check, Rng};
use std::sync::Arc;

#[path = "support/gen.rs"]
mod gen;

fn limits() -> ResourceLimits {
    ResourceLimits::default_limits()
}

/// A runtime with a keyed transform codelet: out = f(in, salt), 64-byte
/// outputs so everything is evictable.
fn transform_runtime() -> (Runtime, Handle) {
    let rt = Runtime::builder().build();
    let f = rt.register_native(
        "transform",
        Arc::new(|ctx| {
            let data = ctx.arg_blob(0)?;
            let salt = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
            let mut out = vec![0u8; 64];
            for (i, b) in data.as_slice().iter().enumerate() {
                out[i % 64] = out[i % 64].wrapping_add(b.wrapping_mul(salt as u8 | 1));
            }
            // Make distinct salts distinguishable.
            out[63] ^= salt as u8;
            // Never the identity — an identity stage's output *is* its
            // input (content addressing), which would make it its own
            // recipe support and legitimately unevictable.
            out[62] ^= 0x5A;
            ctx.host.create_blob(out)
        }),
    );
    (rt, f)
}

/// Any chain of transforms survives eviction + rematerialization
/// with byte-identical results, whichever prefix is pinned.
#[test]
fn eviction_roundtrip_on_random_chains() {
    check("eviction_roundtrip_on_random_chains", 24, |rng| {
        let salts = rng.vec(1..6, Rng::next);
        let pin_results = rng.bool();
        let (rt, f) = transform_runtime();
        let seed = rt.put_blob(Blob::from_vec(vec![0xAB; 64]));
        let mut cur = seed;
        let mut outputs = Vec::new();
        for &salt in &salts {
            let t = rt
                .apply(limits(), f, &[cur, rt.put_blob(Blob::from_u64(salt))])
                .unwrap();
            cur = rt.eval(t).unwrap();
            outputs.push(cur);
        }
        let originals: Vec<Blob> = outputs.iter().map(|&h| rt.get_blob(h).unwrap()).collect();

        let pins: Vec<Handle> = if pin_results { vec![cur] } else { vec![] };
        let outcome = rt.evict_recomputable(&pins).unwrap();
        let expected_victims = salts.len() - usize::from(pin_results);
        assert_eq!(outcome.plan.victims.len(), expected_victims);

        // Every stage rematerializes to its original bytes.
        for (&h, original) in outputs.iter().zip(&originals) {
            rt.materialize(h).unwrap();
            assert_eq!(&rt.get_blob(h).unwrap(), original);
        }
    });
}

/// The eviction plan's depth bound is an upper bound on what
/// materialize actually does — also when an earlier pass evicted
/// part of the chain under pins that the last pass lifts.
#[test]
fn planned_depth_bounds_actual_cascade() {
    check("planned_depth_bounds_actual_cascade", 24, |rng| {
        let (chain_len, lift_pins) = (rng.range(1usize..6), rng.bool());
        let (rt, f) = transform_runtime();
        let mut cur = rt.put_blob(Blob::from_vec(vec![0x11; 64]));
        let mut outputs = Vec::new();
        for salt in 0..chain_len as u64 {
            let t = rt
                .apply(limits(), f, &[cur, rt.put_blob(Blob::from_u64(salt))])
                .unwrap();
            cur = rt.eval(t).unwrap();
            outputs.push(cur);
        }
        if lift_pins {
            // Pin every output but the one before last: in x → y → e → z
            // that pins [y, z], so only e goes, at depth 1 — until the
            // unpinned pass below evicts y under it.
            let mut pins = outputs.clone();
            if chain_len >= 2 {
                pins.remove(chain_len - 2);
            }
            rt.evict_recomputable(&pins).unwrap();
        }
        let outcome = rt.evict_recomputable(&[]).unwrap();
        let planned = outcome.plan.max_depth();
        let report = rt.materialize(cur).unwrap();
        assert!(
            report.max_depth <= planned,
            "materialized depth {} > planned {}",
            report.max_depth,
            planned
        );
        assert_eq!(report.objects_materialized, chain_len);
    });
}

/// Pay-for-results is invariant in wall time and L3 misses, and
/// monotone in every billed counter.
#[test]
fn results_billing_invariants() {
    check("results_billing_invariants", 24, |rng| {
        let mut draw = || rng.next() as u32;
        let (input, ram, instructions, l1, l2) = (draw(), draw(), draw(), draw(), draw());
        let (wall_a, wall_b, l3_a, l3_b) = (draw(), draw(), draw(), draw());
        let price = PriceSheet::default();
        let mk = |wall: u32, l3: u32| InvocationUsage {
            input_bytes: input as u64,
            ram_reserved_bytes: ram as u64,
            instructions: instructions as u64,
            l1_misses: l1 as u64,
            l2_misses: l2 as u64,
            l3_misses: l3 as u64,
            wall_us: wall as u64,
            deadline_slack_us: 0,
        };
        assert_eq!(
            bill_results(&mk(wall_a, l3_a), &price).total(),
            bill_results(&mk(wall_b, l3_b), &price).total()
        );
        // Monotonicity: doubling a billed counter never lowers the bill.
        let base = bill_results(&mk(0, 0), &price).total();
        let mut more = mk(0, 0);
        more.instructions = more.instructions.saturating_mul(2);
        more.l1_misses = more.l1_misses.saturating_mul(2);
        assert!(bill_results(&more, &price).total() >= base);
    });
}

/// Pay-for-effort is exactly linear in wall time.
#[test]
fn effort_billing_is_linear_in_wall_time() {
    check("effort_billing_is_linear_in_wall_time", 24, |rng| {
        let (ram_gib, wall_ms) = (rng.range(1u64..64), rng.range(1u64..100_000));
        let price = PriceSheet::default();
        let usage = InvocationUsage {
            ram_reserved_bytes: ram_gib << 30,
            wall_us: wall_ms * 1000,
            ..InvocationUsage::default()
        };
        let mut doubled = usage;
        doubled.wall_us *= 2;
        let one = bill_effort(&usage, &price).total();
        let two = bill_effort(&doubled, &price).total();
        assert_eq!(two, one + one);
        assert!(one > Money::ZERO);
    });
}
