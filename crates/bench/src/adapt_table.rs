//! `adapt_table`: the static-vs-adaptive serving comparison for the
//! `figures` binary.
//!
//! One seed, one hostile flash-crowd scenario, two control planes:
//!
//! * **static** — the PR-5 configuration: a fixed driver pool,
//!   capacity-only admission (expressed in the adaptive engine as
//!   [`ScalerConfig::fixed`] + `admission: None`, which the engine's
//!   tests pin byte-identical to plain [`fix_serve::serve`]);
//! * **adaptive** — the same tenants under `adaptive_serve`: provable-expiry
//!   admission pricing plus the hysteresis autoscaler.
//!
//! The comparison the table makes is the control plane's whole case:
//! the adaptive run achieves *strictly higher* deadline attainment at
//! *equal-or-lower* real work (the runtime's `procedures_run` counter).
//! The scenario is built so the work side is not luck: every request
//! kind cycles a bounded key space (`Fib{max_n}`, `SebsHtml{users}` —
//! never `Add`), the calm pre-spike phase covers every key in both
//! runs, and the SNF tenant is never shed in either run, so both
//! configurations evaluate exactly the same distinct-thunk set and the
//! adaptive one cannot win by quietly doing more (or less) real
//! computation.
//!
//! Deterministic by construction: both halves of the table come off the
//! virtual clock, and `procedures_run` counts memoized-distinct
//! evaluations of one fixed set — the rendered text is bit-identical
//! across runs and across inline vs. worker-pool runtimes.

use fix_core::api::Evaluator;
use fix_serve::{
    adaptive_serve, AdaptConfig, AdmissionPolicy, ArrivalProcess, ClosedLoopSpec, Micros,
    RequestKind, ScalerConfig, ServeReport, SloClass, SnfSpec, Tenant, TenantSpec,
};
use fixpoint::Runtime;

/// The hostile scenario both control planes face. `scale` stretches the
/// calm post-spike tail (1 → 60 ms, CI-quick; 5 → 300 ms — the longer
/// tail lets the full scale-down staircase play out); the spike window
/// itself is fixed so both scales fight the same crowd.
fn tenants() -> Vec<Tenant> {
    vec![
        // The flash crowd: warm-dominated interactive traffic (the 32
        // fib keys all go cold→warm during the calm 20 ms) that jumps
        // three decades above the base rate for 20 ms.
        Tenant::Open(
            TenantSpec::uniform_mix(
                "crowd",
                2,
                ArrivalProcess::FlashCrowd {
                    base_rps: 2_000.0,
                    spike_at_us: SPIKE_AT_US,
                    spike_len_us: SPIKE_LEN_US,
                    spike_rps: 3_500_000.0,
                },
                RequestKind::Fib { max_n: 32 },
            )
            .with_slo(SloClass::latency(3_000)),
        ),
        // A closed-loop client population: feedback traffic that
        // self-throttles while the crowd rages.
        Tenant::Closed(ClosedLoopSpec {
            name: "portal".into(),
            weight: 1,
            clients: 8,
            think_mean_us: 2_000.0,
            mix: vec![(RequestKind::SebsHtml { users: 4 }, 1)],
            slo: SloClass::latency(8_000),
        }),
        // An SNF streaming pipeline: no deadline, so neither control
        // plane may shed it — its chained folds are identical work in
        // both runs.
        Tenant::Snf(SnfSpec {
            name: "snf".into(),
            weight: 1,
            flows: 4,
            batch_period_us: 2_000,
            slo: SloClass::default(),
        }),
    ]
}

/// Spike window start (fixed across scales).
const SPIKE_AT_US: Micros = 20_000;
/// Spike window length (fixed across scales).
const SPIKE_LEN_US: Micros = 20_000;

/// The shared (tenant/queue/batch) half of both configurations.
fn base_config(scale: u32) -> AdaptConfig {
    AdaptConfig {
        seed: 2026,
        duration_us: 60_000 * scale.max(1) as Micros,
        batch: 8,
        queue_capacity: 16_384,
        batch_overhead_us: 1,
        inflight: 2,
        admission: None,
        scaler: ScalerConfig::fixed(STATIC_DRIVERS),
        tenants: tenants(),
    }
}

/// Drivers in the static pool (and the adaptive pool's floor).
const STATIC_DRIVERS: usize = 2;

/// The static baseline: `STATIC_DRIVERS` drivers forever, shed only at
/// queue capacity.
pub fn static_config(scale: u32) -> AdaptConfig {
    base_config(scale)
}

/// The adaptive control plane over the same scenario: admission pricing
/// on, pool scaling `STATIC_DRIVERS`..=6 with a 2 ms control loop.
pub fn adaptive_config(scale: u32) -> AdaptConfig {
    AdaptConfig {
        admission: Some(AdmissionPolicy::default()),
        scaler: ScalerConfig {
            min_drivers: STATIC_DRIVERS,
            max_drivers: 6,
            control_interval_us: 2_000,
            up_backlog_us: 400,
            down_backlog_us: 50,
            hold_ticks: 2,
        },
        ..base_config(scale)
    }
}

/// Both halves of the figure: each config run on its own fresh runtime,
/// with the real work that runtime performed.
pub struct AdaptFigure {
    /// The static baseline's (deterministic) report.
    pub static_report: ServeReport,
    /// The adaptive run's (deterministic) report.
    pub adaptive_report: ServeReport,
    /// Procedures the static run's runtime actually executed.
    pub static_procedures: u64,
    /// Procedures the adaptive run's runtime actually executed.
    pub adaptive_procedures: u64,
}

/// Runs both configurations on fresh inline runtimes.
pub fn run(scale: u32) -> AdaptFigure {
    run_with(scale, || Runtime::builder().build())
}

/// Runs both configurations on runtimes built by `make_rt` — the
/// conformance axis: any builder must render the identical figure.
pub fn run_with(scale: u32, make_rt: impl Fn() -> Runtime) -> AdaptFigure {
    let run_one = |cfg: &AdaptConfig| {
        let rt = make_rt();
        let report = adaptive_serve(&rt, cfg).expect("adapt figure run").serve;
        (report, rt.procedures_run())
    };
    let (static_report, static_procedures) = run_one(&static_config(scale));
    let (adaptive_report, adaptive_procedures) = run_one(&adaptive_config(scale));
    AdaptFigure {
        static_report,
        adaptive_report,
        static_procedures,
        adaptive_procedures,
    }
}

impl AdaptFigure {
    /// The one-line verdict under the tables.
    pub fn verdict(&self) -> String {
        format!(
            "attainment {:.3} -> {:.3}, procedures run {} -> {} ({})",
            self.static_report.attainment(),
            self.adaptive_report.attainment(),
            self.static_procedures,
            self.adaptive_procedures,
            if self.adaptive_procedures <= self.static_procedures {
                "no extra real work"
            } else {
                "MORE real work"
            },
        )
    }
}

impl std::fmt::Display for AdaptFigure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[static: {} drivers, capacity-only admission]",
            STATIC_DRIVERS
        )?;
        writeln!(f, "{}", self.static_report)?;
        writeln!(
            f,
            "[adaptive: {}..=6 drivers, provable-expiry admission]",
            STATIC_DRIVERS
        )?;
        writeln!(f, "{}", self.adaptive_report)?;
        write!(f, "{}", self.verdict())
    }
}

/// Renders the figure with its header.
pub fn table_text(scale: u32) -> String {
    format!(
        "Adapt — flash crowd vs. the control plane (seed 2026, spike \
         {}x for {} ms)\n{}",
        3_500_000 / 2_000,
        SPIKE_LEN_US / 1_000,
        run(scale)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_static_at_equal_or_lower_real_work() {
        let fig = run(1);
        // The headline claim: strictly higher deadline attainment…
        assert!(
            fig.adaptive_report.attainment() > fig.static_report.attainment(),
            "adaptive {:.3} must beat static {:.3}",
            fig.adaptive_report.attainment(),
            fig.static_report.attainment(),
        );
        // …at equal-or-lower real work.
        assert!(
            fig.adaptive_procedures <= fig.static_procedures,
            "adaptive ran {} procedures, static {}",
            fig.adaptive_procedures,
            fig.static_procedures,
        );
        // The static pool sheds the crowd the expensive way — requests
        // queue until their deadline lapses — while the adaptive
        // controller prices the provably-late out at the door and
        // serves everything it admits within deadline.
        assert!(fig.static_report.total_expired() > 0);
        assert!(fig.adaptive_report.total_rejected() > 0);
        assert_eq!(fig.adaptive_report.total_dropped(), 0);
        assert!(fig.adaptive_report.total_expired() < fig.static_report.total_expired());
        // The adaptive timeline scales up into the spike and back down
        // after it; the static timeline is empty.
        assert!(fig.adaptive_report.scaling.iter().any(|s| s.to > s.from));
        assert!(fig.adaptive_report.scaling.iter().any(|s| s.to < s.from));
        assert!(fig.static_report.scaling.is_empty());
        // The SNF pipeline was never shed by either control plane.
        for report in [&fig.static_report, &fig.adaptive_report] {
            let snf = &report.tenants[2];
            assert_eq!(snf.offered, snf.admitted, "snf must never shed");
            assert_eq!(snf.ok, snf.admitted, "snf folds must all complete");
        }
    }

    #[test]
    fn figure_is_bit_identical_across_runs_and_worker_pools() {
        let a = table_text(1);
        let b = table_text(1);
        assert_eq!(a, b, "same seed must print the same figure");
        let inline = run(1);
        let workers = run_with(1, || Runtime::builder().workers(4).build());
        assert_eq!(
            inline.to_string(),
            workers.to_string(),
            "a worker-pool runtime must render the identical figure"
        );
    }
}
