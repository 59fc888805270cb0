//! Calibration constants for systems we cannot run.
//!
//! The paper's baselines are real deployments (OpenWhisk on Kubernetes
//! with MinIO, Ray, Pheromone, Faasm). This reproduction cannot run those
//! stacks, so their *per-operation costs* are taken from the paper's own
//! measurements (Fig. 7a per-invocation overheads; Fig. 7b orchestration
//! per-step costs) and their *mechanisms* (who talks to whom, what moves
//! where, when resources are held) are implemented in
//! `fix_cluster::engine`. Absolute numbers are therefore paper-calibrated;
//! the shapes come from the mechanisms.

use fix_netsim::Time;

/// Per-system cost constants, in µs of virtual time.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `vfork`+`exec` of a Linux process (paper: 449 µs).
    pub linux_process_us: Time,
    /// Pheromone per-invocation overhead (paper Fig. 7a: 1.05 ms).
    pub pheromone_invocation_us: Time,
    /// Pheromone per-step orchestration cost inside a shipped workflow
    /// (derived from Fig. 7b: 17.6 ms / 500 steps ≈ 35 µs).
    pub pheromone_step_us: Time,
    /// Ray per-invocation overhead (paper Fig. 7a: 1.29 ms).
    pub ray_invocation_us: Time,
    /// Faasm per-invocation overhead (paper Fig. 7a: 10.6 ms).
    pub faasm_invocation_us: Time,
    /// OpenWhisk warm per-invocation overhead (paper Fig. 7a: 30.7 ms).
    pub openwhisk_invocation_us: Time,
    /// OpenWhisk/K8s container cold start (not measured in the paper;
    /// 500 ms is a conservative, documented assumption).
    pub openwhisk_cold_start_us: Time,
    /// Per-request overhead of a MinIO-style object store (documented
    /// assumption: 1 ms per GET/PUT).
    pub store_request_us: Time,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            linux_process_us: 449,
            pheromone_invocation_us: 1_050,
            pheromone_step_us: 35,
            ray_invocation_us: 1_290,
            faasm_invocation_us: 10_600,
            openwhisk_invocation_us: 30_700,
            openwhisk_cold_start_us: 500_000,
            store_request_us: 1_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_cluster::FixConfig;

    #[test]
    fn defaults_track_paper_fig7a() {
        let c = CostModel::default();
        // Fixpoint runs here; its overhead is the engine's own.
        let fix = FixConfig::default().invocation_overhead_us;
        // Relative factors the paper headlines (within rounding).
        assert!(c.ray_invocation_us / fix >= 500);
        assert!(c.openwhisk_invocation_us / fix >= 10_000);
        assert!(c.faasm_invocation_us > c.ray_invocation_us);
        assert!(c.pheromone_invocation_us < c.ray_invocation_us);
    }
}
