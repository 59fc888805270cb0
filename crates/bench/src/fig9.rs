//! Fig. 9 + Table 2: B+-tree lookups at varying arity.
//!
//! Two complementary reproductions:
//!
//! * the **cost model** at the paper's full scale (6 M keys, arities
//!   2^24 → 2^6), using Table 2's data-access formulas plus the
//!   calibrated per-invocation overheads — this regenerates the figure's
//!   curves; and
//! * a **real execution** at reduced scale: actual B+ trees over Fix
//!   trees on the Fixpoint runtime, with measured wall-clock times and
//!   measured (not modeled) data-access counts.

use fix_baselines::CostModel;
use fix_workloads::bptree::{
    build, depth_for, fig9_time_us, lookup_fix, lookup_trusted, register_lookup, table2,
};
use fix_workloads::titles::generate_sorted_titles;
use fixpoint::Runtime;
use std::time::Instant;

/// One arity's modeled results (10 sequential queries, like the paper).
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// log2 of the arity.
    pub log2_arity: u32,
    /// Tree depth at 6 M keys.
    pub depth: u32,
    /// Fixpoint time for a 10-query set, µs.
    pub fix_us: u64,
    /// Ray (continuation-passing) time, µs.
    pub ray_cps_us: u64,
    /// Ray (blocking) time, µs.
    pub ray_blocking_us: u64,
}

/// One arity's real-execution results at reduced scale.
#[derive(Debug, Clone)]
pub struct RealRow {
    /// log2 of the arity.
    pub log2_arity: u32,
    /// Measured depth.
    pub depth: usize,
    /// Wall-clock for 10 Fix-level lookups, µs.
    pub fix_us: u128,
    /// Measured keys-blob bytes read per lookup (trusted traversal).
    pub key_bytes_per_lookup: u64,
    /// Fix-level invocations per lookup.
    pub invocations_per_lookup: u64,
}

/// The completed figure.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Paper-scale cost-model curves.
    pub model: Vec<ModelRow>,
    /// Reduced-scale real runs.
    pub real: Vec<RealRow>,
    /// Key count used for the model.
    pub model_keys: u64,
    /// Key count used for the real runs.
    pub real_keys: usize,
}

/// Paper-equivalent model parameters.
pub const KEY_SIZE: u64 = 22;
/// Tree-entry (handle) size in bytes.
pub const ENTRY_SIZE: u64 = 32;
/// Deserialization/scan bandwidth for loaded data (documented estimate).
pub const LOAD_BW: u64 = 100_000_000;

/// Runs the cost model at paper scale and real trees at `real_keys`.
pub fn run(real_keys: usize, real_arities: &[u32]) -> Fig9 {
    let cost = CostModel::default();
    let model_keys = 6_000_000u64;
    let queries = 10;

    let model = [24u32, 12, 10, 8, 6]
        .iter()
        .map(|&log_a| {
            let a = 1u64 << log_a;
            let d = depth_for(a as usize, model_keys as usize) as u64;
            let rows = table2(a.min(model_keys), d, KEY_SIZE, ENTRY_SIZE);
            ModelRow {
                log2_arity: log_a,
                depth: d as u32,
                fix_us: queries
                    * fig9_time_us(
                        rows[0].invocations,
                        rows[0].data_accessed,
                        cost.fixpoint_invocation_us,
                        LOAD_BW,
                    ),
                ray_cps_us: queries
                    * fig9_time_us(
                        rows[1].invocations,
                        rows[1].data_accessed,
                        cost.ray_invocation_us,
                        LOAD_BW,
                    ),
                ray_blocking_us: queries
                    * fig9_time_us(
                        rows[2].invocations,
                        rows[2].data_accessed,
                        cost.ray_invocation_us,
                        LOAD_BW,
                    ),
            }
        })
        .collect();

    let real = real_arities
        .iter()
        .map(|&log_a| real_run(real_keys, 1 << log_a, queries as usize))
        .collect();

    Fig9 {
        model,
        real,
        model_keys,
        real_keys,
    }
}

fn real_run(n_keys: usize, arity: usize, queries: usize) -> RealRow {
    use std::sync::atomic::Ordering;
    let rt = Runtime::builder().build();
    let titles = generate_sorted_titles(17, n_keys);
    let pairs: Vec<(String, Vec<u8>)> = titles
        .iter()
        .map(|t| (t.clone(), format!("v:{t}").into_bytes()))
        .collect();
    let tree = build(rt.store(), &pairs, arity);
    let proc_h = register_lookup(&rt);

    // Deterministic "random" query keys.
    let keys: Vec<&String> = (0..queries)
        .map(|i| &titles[(i * 7919 + 13) % titles.len()])
        .collect();

    // Measure data accessed via the trusted traversal.
    let mut key_bytes = 0u64;
    for k in &keys {
        let (_, stats) = lookup_trusted(rt.store(), &tree, k).expect("lookup");
        key_bytes += stats.key_bytes_read;
    }

    // Warm nothing: each key is a fresh Fix-level traversal.
    let before = rt.engine().stats.procedures_run.load(Ordering::Relaxed);
    let start = Instant::now();
    for k in &keys {
        let h = lookup_fix(&rt, proc_h, &tree, k).expect("fix lookup");
        std::hint::black_box(h);
    }
    let elapsed = start.elapsed().as_micros();
    let after = rt.engine().stats.procedures_run.load(Ordering::Relaxed);

    RealRow {
        log2_arity: arity.trailing_zeros(),
        depth: tree.depth,
        fix_us: elapsed,
        key_bytes_per_lookup: key_bytes / queries as u64,
        invocations_per_lookup: (after - before) / queries as u64,
    }
}

/// Renders Table 2 at the paper's reference shape (arity 256, 6 M keys).
pub fn table2_text() -> String {
    let mut out = String::new();
    out.push_str("Table 2 — per-lookup cost formulas (arity a, depth d)\n");
    out.push_str(&format!(
        "{:<30} {:>13} {:>15} {:>12}\n",
        "system", "invocations", "data accessed", "footprint"
    ));
    for log_a in [24u32, 12, 10, 6] {
        let a = 1u64 << log_a;
        let d = depth_for(a as usize, 6_000_000) as u64;
        out.push_str(&format!("-- arity 2^{log_a} (depth {d})\n"));
        for row in table2(a.min(6_000_000), d, KEY_SIZE, ENTRY_SIZE) {
            out.push_str(&format!(
                "{:<30} {:>13} {:>12.2} MB {:>9.2} MB\n",
                row.system,
                row.invocations,
                row.data_accessed as f64 / 1e6,
                row.memory_footprint as f64 / 1e6
            ));
        }
    }
    out
}

impl std::fmt::Display for Fig9 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 9 — B+-tree lookups (10 queries/set), {} keys, cost model",
            self.model_keys
        )?;
        writeln!(
            f,
            "{:>8} {:>6} {:>12} {:>14} {:>14} {:>10} {:>10}",
            "arity", "depth", "Fixpoint", "Ray (CPS)", "Ray (block)", "cps/fix", "blk/fix"
        )?;
        for r in &self.model {
            writeln!(
                f,
                "{:>7}  {:>6} {:>9.3} s {:>11.3} s {:>11.3} s {:>9.1}x {:>9.1}x",
                format!("2^{}", r.log2_arity),
                r.depth,
                r.fix_us as f64 / 1e6,
                r.ray_cps_us as f64 / 1e6,
                r.ray_blocking_us as f64 / 1e6,
                r.ray_cps_us as f64 / r.fix_us as f64,
                r.ray_blocking_us as f64 / r.fix_us as f64,
            )?;
        }
        writeln!(
            f,
            "\nreal Fixpoint runtime at reduced scale ({} keys):",
            self.real_keys
        )?;
        writeln!(
            f,
            "{:>8} {:>6} {:>14} {:>18} {:>12}",
            "arity", "depth", "10 lookups", "key bytes/lookup", "invocs"
        )?;
        for r in &self.real {
            writeln!(
                f,
                "{:>7}  {:>6} {:>11.2} ms {:>18} {:>12}",
                format!("2^{}", r.log2_arity),
                r.depth,
                r.fix_us as f64 / 1e3,
                r.key_bytes_per_lookup,
                r.invocations_per_lookup
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reproduces_paper_trends() {
        let fig = run(4096, &[12, 6, 3]);
        // Fix monotonically improves (or holds) as arity decreases 2^24→2^8.
        for w in fig.model.windows(2) {
            if w[1].log2_arity >= 8 {
                assert!(w[1].fix_us <= w[0].fix_us, "{:?}", fig.model);
            }
        }
        // Ray CPS degrades as arity shrinks below 2^12 (paper's finding).
        let cps_12 = fig.model.iter().find(|r| r.log2_arity == 12).unwrap();
        let cps_6 = fig.model.iter().find(|r| r.log2_arity == 6).unwrap();
        assert!(cps_6.ray_cps_us > cps_12.ray_cps_us);
        // At 2^6: blocking beats CPS, and both are ≫ Fix (paper: 22.3× and
        // 49.9×).
        assert!(cps_6.ray_blocking_us < cps_6.ray_cps_us);
        let blk_slowdown = cps_6.ray_blocking_us as f64 / cps_6.fix_us as f64;
        let cps_slowdown = cps_6.ray_cps_us as f64 / cps_6.fix_us as f64;
        assert!(
            (5.0..120.0).contains(&blk_slowdown),
            "blocking slowdown {blk_slowdown}"
        );
        assert!(cps_slowdown > blk_slowdown);
    }

    #[test]
    fn real_runs_match_structure() {
        let fig = run(4096, &[12, 4]);
        let flatish = &fig.real[0];
        let deep = &fig.real[1];
        assert_eq!(deep.invocations_per_lookup, deep.depth as u64);
        // Deeper tree: more invocations, less data per level.
        assert!(deep.invocations_per_lookup > flatish.invocations_per_lookup);
        assert!(deep.key_bytes_per_lookup < flatish.key_bytes_per_lookup);
    }

    #[test]
    fn table2_renders() {
        let text = table2_text();
        assert!(text.contains("Fixpoint"));
        assert!(text.contains("Ray (Blocking)"));
    }
}
