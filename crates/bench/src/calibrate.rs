//! `calibrate`: measures the real per-kind procedure paths and compares
//! them against the shared [`fix_core::calibration::SERVICE_COSTS`]
//! table.
//!
//! The calibration constants anchor every virtual clock in the repo —
//! the serving layer's service model and the cluster/baseline flat task
//! charge — but they were hand-set from the paper's Fig. 7a scale. This
//! module closes the ROADMAP's "derive the constants from *measured*
//! procedure runtimes" item the honest way: it does not overwrite the
//! table (that would make every deterministic table machine-dependent),
//! it *audits* it — timing the warm and cold paths of each request kind
//! on a real `fixpoint::Runtime` and printing measured-vs-table rows,
//! with a test pinning that the table stays within an order of
//! magnitude of measurement on the release path.
//!
//! Measurements use the same request factory the serving layer mints
//! through, so the timed path is exactly the served path: apply → eval
//! on content-addressed thunks, memoization and all.

use fix_core::api::Evaluator;
use fix_serve::{ArrivalProcess, RequestFactory, RequestKind, TenantSpec};
use fixpoint::Runtime;
use std::fmt;
use std::time::Instant;

/// One audited constant: the table's modeled value next to the
/// wall-clock measurement of the path it models.
pub struct CalibrationRow {
    /// Which path (and which table constants) the row audits.
    pub name: &'static str,
    /// The modeled cost from `SERVICE_COSTS`, in µs.
    pub modeled_us: f64,
    /// The measured median, in µs.
    pub measured_us: f64,
}

impl CalibrationRow {
    /// How far the table sits from measurement: `max(m/t, t/m)`, so 1.0
    /// is a perfect match and 10.0 is exactly one order of magnitude.
    pub fn ratio(&self) -> f64 {
        if self.modeled_us <= 0.0 || self.measured_us <= 0.0 {
            return f64::INFINITY;
        }
        (self.modeled_us / self.measured_us).max(self.measured_us / self.modeled_us)
    }
}

/// The full audit: one row per modeled path.
pub struct CalibrationReport {
    /// The audited rows.
    pub rows: Vec<CalibrationRow>,
}

impl fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "calibration audit: SERVICE_COSTS vs measured procedure paths \
             (fixpoint::Runtime, medians)"
        )?;
        writeln!(
            f,
            "{:<26} {:>12} {:>12} {:>8}",
            "path", "table µs", "measured µs", "ratio"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<26} {:>12.1} {:>12.1} {:>7.1}x",
                row.name,
                row.modeled_us,
                row.measured_us,
                row.ratio()
            )?;
        }
        Ok(())
    }
}

/// Median of a set of wall-clock samples, in µs.
fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Times one evaluation, in µs.
fn time_eval(rt: &Runtime, thunk: fix_core::handle::Handle) -> f64 {
    let start = Instant::now();
    rt.eval(thunk).expect("calibration thunk evaluates");
    start.elapsed().as_secs_f64() * 1e6
}

/// Runs the audit: `samples` cold (and warm) timings per kind.
///
/// Cold samples use distinct requests (every `Add`, needle, and user is
/// new to the runtime); warm samples repeat an already-memoized
/// request, which is the Fig. 7a warm-memoized path.
pub fn run(samples: usize) -> CalibrationReport {
    let samples = samples.max(3);
    let costs = fix_core::calibration::SERVICE_COSTS;
    let rt = Runtime::builder().build();
    const FIB_N: u64 = 8;
    let tenants = vec![TenantSpec {
        name: "calibrate".into(),
        weight: 1,
        arrivals: ArrivalProcess::Uniform { period_us: 1 },
        mix: vec![
            (RequestKind::Add, 1),
            (RequestKind::Fib { max_n: FIB_N + 1 }, 1),
            (
                RequestKind::Wordcount {
                    shard_bytes: 16 << 10,
                },
                1,
            ),
            (RequestKind::SebsHtml { users: u64::MAX }, 1),
        ],
        slo: fix_serve::SloClass::default(),
    }];
    let factory = RequestFactory::install(&rt, &tenants, 0xCA11B).expect("factory installs");
    let mut rows = Vec::new();
    let mut seq = 0u64;
    let mut mint = |kind: RequestKind| {
        seq += 1;
        factory.mint(&rt, 0, seq, kind).expect("mint succeeds")
    };

    // Cold native invocation: every Add argument pair is distinct.
    let cold_adds: Vec<f64> = (0..samples)
        .map(|_| time_eval(&rt, mint(RequestKind::Add)))
        .collect();
    rows.push(CalibrationRow {
        name: "native cold (add)",
        modeled_us: costs.native_cold_us as f64,
        measured_us: median_us(cold_adds),
    });

    // Warm repeat: one thunk, evaluated again and again — pure
    // relation-cache hits after the first.
    let warm_thunk = mint(RequestKind::Add);
    rt.eval(warm_thunk).expect("warm-up");
    let warm: Vec<f64> = (0..samples.max(9))
        .map(|_| time_eval(&rt, warm_thunk))
        .collect();
    rows.push(CalibrationRow {
        name: "warm memoized hit",
        modeled_us: costs.warm_hit_us as f64,
        measured_us: median_us(warm),
    });

    // The FixVM guest chain: fib(FIB_N) on a cold runtime per sample
    // (memoization makes repeats warm, so each sample gets a fresh
    // runtime and factory — the model is vm_start + n·vm_step).
    let fib: Vec<f64> = (0..samples)
        .map(|_| {
            let rt = Runtime::builder().build();
            let factory = RequestFactory::install(&rt, &tenants, 0xF1B).expect("factory installs");
            let thunk = factory
                .mint(&rt, 0, FIB_N, RequestKind::Fib { max_n: FIB_N + 1 })
                .expect("mint fib");
            time_eval(&rt, thunk)
        })
        .collect();
    rows.push(CalibrationRow {
        name: "vm guest (fib 8)",
        modeled_us: (costs.vm_start_us + costs.vm_step_us * FIB_N) as f64,
        measured_us: median_us(fib),
    });

    // Count-string over a 16 KiB shard, distinct needle per sample.
    let shard_bytes = 16u64 << 10;
    let wc: Vec<f64> = (0..samples)
        .map(|_| {
            time_eval(
                &rt,
                mint(RequestKind::Wordcount {
                    shard_bytes: shard_bytes as usize,
                }),
            )
        })
        .collect();
    rows.push(CalibrationRow {
        name: "wordcount (16 KiB shard)",
        modeled_us: (costs.wordcount_base_us + shard_bytes / costs.wordcount_bytes_per_us) as f64,
        measured_us: median_us(wc),
    });

    // The SeBS dynamic-html render, distinct user per sample.
    let html: Vec<f64> = (0..samples)
        .map(|_| time_eval(&rt, mint(RequestKind::SebsHtml { users: u64::MAX })))
        .collect();
    rows.push(CalibrationRow {
        name: "sebs dynamic-html cold",
        modeled_us: costs.sebs_html_cold_us as f64,
        measured_us: median_us(html),
    });

    CalibrationReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pin behind the ROADMAP item: the table must stay within an
    /// order of magnitude of what the real runtime measures, row by
    /// row. The honest 10× bound applies to release builds (CI runs
    /// this test in release, in a step of its own); debug builds
    /// run the unoptimized interpreter on shared, possibly contended
    /// runners, so the default `cargo test` pass only sanity-checks the
    /// rows instead of flaking tier 1 on machine load.
    #[test]
    fn table_is_within_an_order_of_magnitude_of_measurement() {
        let tolerance = if cfg!(debug_assertions) {
            1_000.0
        } else {
            10.0
        };
        let report = run(5);
        assert_eq!(report.rows.len(), 5);
        for row in &report.rows {
            assert!(
                row.ratio() <= tolerance,
                "{}: table {:.1} µs vs measured {:.1} µs is {:.1}x apart (> {tolerance}x)\n{report}",
                row.name,
                row.modeled_us,
                row.measured_us,
                row.ratio(),
            );
        }
    }
}
