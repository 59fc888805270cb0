//! Node resources: cores and RAM, with CPU-state accounting.
//!
//! The paper measures "how much of these gains come from avoiding
//! starvation" with Linux CPU-state statistics (user / system /
//! idle+iowait+irq, §5.3). The simulator reproduces that methodology:
//! every claimed core is, at each instant, either *computing* (user or
//! system) or *waiting* (claimed but stalled on I/O — the signature of
//! "internal" I/O); unclaimed cores are idle. Totals per node come out
//! of [`NodeStats`].

use crate::sim::Time;

/// Identifies a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Hardware description of one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Number of CPU cores.
    pub cores: u32,
    /// Bytes of RAM.
    pub ram_bytes: u64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        // The paper's m5.8xlarge: 32 vCPUs, 128 GiB.
        NodeSpec {
            cores: 32,
            ram_bytes: 128 << 30,
        }
    }
}

/// What a claimed core is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Running user computation.
    User,
    /// Running platform work (orchestration, serialization, ...).
    System,
    /// Claimed but stalled (the "I/O + wait" bucket of Fig. 8).
    Waiting,
}

/// A live claim of cores (and optionally RAM) on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClaimId(pub(crate) u64);

#[derive(Debug)]
pub(crate) struct Claim {
    pub node: NodeId,
    pub cores: u32,
    pub ram: u64,
    pub state: CoreState,
    pub since: Time,
}

/// Accumulated per-node statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Core-microseconds spent in user computation.
    pub user_core_us: u64,
    /// Core-microseconds spent in system/platform work.
    pub system_core_us: u64,
    /// Core-microseconds claimed but waiting on I/O.
    pub waiting_core_us: u64,
    /// Bytes received over the network.
    pub bytes_in: u64,
    /// Bytes sent over the network.
    pub bytes_out: u64,
    /// Completed task executions.
    pub tasks_run: u64,
}

pub(crate) struct NodeState {
    pub spec: NodeSpec,
    pub cores_free: u32,
    pub ram_free: u64,
    pub stats: NodeStats,
    /// Time at which the node's egress NIC frees up.
    pub egress_free_at: Time,
    /// Time at which the node's ingress NIC frees up.
    pub ingress_free_at: Time,
}

impl NodeState {
    pub fn new(spec: NodeSpec) -> NodeState {
        NodeState {
            spec,
            cores_free: spec.cores,
            ram_free: spec.ram_bytes,
            stats: NodeStats::default(),
            egress_free_at: 0,
            ingress_free_at: 0,
        }
    }

    /// Accrues `cores × duration` into the bucket for `state`.
    pub fn accrue(&mut self, state: CoreState, cores: u32, duration: Time) {
        let amount = cores as u64 * duration;
        match state {
            CoreState::User => self.stats.user_core_us += amount,
            CoreState::System => self.stats.system_core_us += amount,
            CoreState::Waiting => self.stats.waiting_core_us += amount,
        }
    }
}

/// A cluster-wide CPU-state summary, in the shape of the paper's Fig. 8
/// tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuReport {
    /// Wall-clock duration of the run (virtual).
    pub elapsed: Time,
    /// Total core capacity (cores × elapsed).
    pub capacity_core_us: u64,
    /// User computation.
    pub user_core_us: u64,
    /// Platform work.
    pub system_core_us: u64,
    /// Claimed-but-waiting.
    pub waiting_core_us: u64,
}

impl CpuReport {
    /// The paper's "CPU waiting %": idle + iowait as a share of capacity.
    ///
    /// Cores that are not doing user/system work are either idle or
    /// claimed-and-waiting; both count as starvation.
    pub fn waiting_percent(&self) -> f64 {
        if self.capacity_core_us == 0 {
            return 0.0;
        }
        let busy = self.user_core_us + self.system_core_us;
        100.0 * (self.capacity_core_us.saturating_sub(busy)) as f64 / self.capacity_core_us as f64
    }
}
