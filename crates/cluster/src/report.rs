//! Run reports: what an engine hands back after executing a job graph.

use fix_netsim::{CpuReport, Time};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The outcome of one simulated job execution.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// End-to-end duration (submission to last result), in µs.
    pub makespan_us: Time,
    /// CPU-state aggregation over the worker nodes (paper Fig. 8).
    pub cpu: CpuReport,
    /// Total bytes moved over the network.
    pub bytes_moved: u64,
    /// Number of task executions.
    pub tasks_run: u64,
}

impl RunReport {
    /// Makespan in seconds (for table printing).
    pub fn makespan_secs(&self) -> f64 {
        self.makespan_us as f64 / 1e6
    }

    /// Task throughput in tasks/second.
    pub fn throughput(&self) -> f64 {
        if self.makespan_us == 0 {
            return 0.0;
        }
        self.tasks_run as f64 * 1e6 / self.makespan_us as f64
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} s, {} tasks ({:.0} tasks/s), {:.1} MiB moved, CPU waiting {:.0}%",
            self.makespan_secs(),
            self.tasks_run,
            self.throughput(),
            self.bytes_moved as f64 / (1 << 20) as f64,
            self.cpu.waiting_percent()
        )
    }
}

/// Thread-safe accumulator of simulated [`RunReport`]s, in submission
/// order.
///
/// The telemetry behind [`crate::ClusterClient::reports`].
#[derive(Default)]
pub struct ReportLog(Mutex<Vec<RunReport>>);

impl ReportLog {
    /// Creates an empty log.
    pub fn new() -> ReportLog {
        ReportLog::default()
    }

    /// The reports, even if a thread panicked holding the lock: every
    /// change is one `Vec::push`, so the log is whole either way.
    fn reports(&self) -> MutexGuard<'_, Vec<RunReport>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one run's report.
    pub fn push(&self, report: RunReport) {
        self.reports().push(report);
    }

    /// Every report so far, in submission order.
    pub fn all(&self) -> Vec<RunReport> {
        self.reports().clone()
    }

    /// The most recent report, if any.
    pub fn last(&self) -> Option<RunReport> {
        self.reports().last().copied()
    }

    /// Total simulated wall-clock across all runs, in µs.
    pub fn total_makespan_us(&self) -> Time {
        self.reports().iter().map(|r| r.makespan_us).sum()
    }
}
