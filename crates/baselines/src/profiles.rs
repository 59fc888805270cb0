//! Named baseline profiles, one per comparator system in the paper.

use crate::cost::CostModel;
use fix_cluster::{Binding, Placement, Profile};
use fix_netsim::NodeId;

/// OpenWhisk + MinIO + Kubernetes (paper §5.1).
///
/// Kubernetes places containers without data awareness; the function
/// claims its slice, *then* pulls inputs from MinIO and writes outputs
/// back; containers cold-start per (action, node).
pub fn openwhisk(store: &[NodeId], cost: &CostModel) -> Profile {
    Profile {
        name: "OpenWhisk + MinIO + K8s".into(),
        externalized_io: false,
        placement: Placement::Random,
        binding: Binding::Early,
        invocation_overhead_us: cost.openwhisk_invocation_us,
        dispatch_via: None,
        fetch_roundtrip_via: None,
        sequential_fetches: false,
        inputs_from_store: store.to_vec(),
        outputs_to_store: store.to_vec(),
        store_request_us: cost.store_request_us,
        cold_start_us: cost.openwhisk_cold_start_us,
        cold_start_bytes: 64 << 20, // Container image layers.
        dispatch_service_us: 0,
        seed: 42,
    }
}

/// Ray, blocking-style I/O (paper Listing 2).
///
/// The function is placed before its `ray.get`s reveal what it needs, so
/// placement is effectively blind; it blocks its worker slot during each
/// sequential get, and every get resolves through the driver.
pub fn ray_blocking(driver: NodeId, cost: &CostModel) -> Profile {
    Profile {
        name: "Ray (blocking)".into(),
        externalized_io: false,
        placement: Placement::Random,
        binding: Binding::Early,
        invocation_overhead_us: cost.ray_invocation_us,
        dispatch_via: Some(driver),
        fetch_roundtrip_via: Some(driver),
        sequential_fetches: true,
        inputs_from_store: Vec::new(),
        outputs_to_store: Vec::new(),
        store_request_us: 0,
        cold_start_us: 0,
        cold_start_bytes: 0,
        dispatch_service_us: cost.ray_invocation_us,
        seed: 42,
    }
}

/// Ray, continuation-passing-style I/O (paper Listing 3).
///
/// Dependencies are visible per invocation, so Ray places each new
/// invocation with locality and never blocks a worker — but every
/// invocation pays the driver round trip and Ray's per-call overhead.
pub fn ray_cps(driver: NodeId, cost: &CostModel) -> Profile {
    Profile {
        name: "Ray (continuation-passing)".into(),
        externalized_io: false,
        placement: Placement::Locality,
        binding: Binding::Late,
        invocation_overhead_us: cost.ray_invocation_us,
        dispatch_via: Some(driver),
        fetch_roundtrip_via: None,
        sequential_fetches: false,
        inputs_from_store: Vec::new(),
        outputs_to_store: Vec::new(),
        store_request_us: 0,
        cold_start_us: 0,
        cold_start_bytes: 0,
        dispatch_service_us: cost.ray_invocation_us,
        seed: 42,
    }
}

/// Ray + MinIO (paper §5.5): Linux executables launched via `Popen`,
/// reading inputs from and writing outputs to MinIO; executables are
/// loaded onto a node on first use.
pub fn ray_minio(driver: NodeId, store: &[NodeId], binary_bytes: u64, cost: &CostModel) -> Profile {
    Profile {
        name: "Ray + MinIO".into(),
        externalized_io: false,
        placement: Placement::Random,
        binding: Binding::Early,
        invocation_overhead_us: cost.ray_invocation_us + cost.linux_process_us,
        dispatch_via: Some(driver),
        fetch_roundtrip_via: None,
        sequential_fetches: false,
        inputs_from_store: store.to_vec(),
        outputs_to_store: store.to_vec(),
        store_request_us: cost.store_request_us,
        cold_start_us: cost.linux_process_us,
        cold_start_bytes: binary_bytes,
        dispatch_service_us: cost.ray_invocation_us,
        seed: 42,
    }
}

/// Pheromone (paper §5.1): workflow shipped once (no per-step driver
/// round trips), intermediate data collocated with consumers, but
/// dependencies on *external* (non-intermediate) data are inexpressible —
/// functions fetch them from bucket storage after starting.
pub fn pheromone(bucket_store: &[NodeId], cost: &CostModel) -> Profile {
    Profile {
        name: "Pheromone + MinIO".into(),
        externalized_io: false,
        placement: Placement::Locality,
        binding: Binding::Early,
        invocation_overhead_us: cost.pheromone_step_us,
        dispatch_via: None,
        fetch_roundtrip_via: None,
        sequential_fetches: false,
        inputs_from_store: bucket_store.to_vec(),
        outputs_to_store: Vec::new(),
        store_request_us: cost.store_request_us,
        cold_start_us: cost.pheromone_invocation_us,
        cold_start_bytes: 0,
        dispatch_service_us: 0,
        seed: 42,
    }
}

/// Faasm (paper §5.1): Wasm-based isolation like Fixpoint, but with a
/// general host interface instead of externalized I/O — functions fetch
/// their own state after starting, and the runtime path is heavier.
pub fn faasm(cost: &CostModel) -> Profile {
    Profile {
        name: "Faasm".into(),
        externalized_io: false,
        placement: Placement::Random,
        binding: Binding::Early,
        invocation_overhead_us: cost.faasm_invocation_us,
        dispatch_via: None,
        fetch_roundtrip_via: None,
        sequential_fetches: false,
        inputs_from_store: Vec::new(),
        outputs_to_store: Vec::new(),
        store_request_us: 0,
        cold_start_us: 0,
        cold_start_bytes: 0,
        dispatch_service_us: 0,
        seed: 42,
    }
}
