//! The metric and workload catalogue. `BENCHMARK.json` at the repository
//! root states the same names, units, directions and bounds for the
//! driver; `fixbench check` fails when the two disagree. [`GATES`] holds
//! the tighter per-(metric, workload) bounds of fixbench's own `compare`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: the share of the parent's median by which the metric
    /// may worsen. Per-layer metrics carry no bound (0).
    pub bound: f64,
    /// A count that two runs with one seed must reproduce bit for bit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload, from the timed pass
/// (spans off). One bound per metric has to hold on every workload, so
/// each is set by the noisiest one: on the reference box (2 shared
/// vCPUs whose speed drifts by minutes-long phases) the two-thread
/// workloads spread 16-20 % over ten runs on the time-derived metrics,
/// which takes the largest bound the manifest allows; resident memory
/// spreads under 5 %. README.md lists the spreads measured.
pub const END_TO_END: &[Def] = &[
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("cpu_us_per_req", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics from the traced pass: span self times, counts
/// read from public accessors, allocator counts, and the isolated rows.
/// A layer a workload never enters reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // Demoted from end-to-end (README "Demotions"): the tail could not
    // hold a bound on every workload, and a failure ratio reads 0.
    layer("lat_p99_us", "us", Lower),
    layer("fail_ratio", "ratio", Lower),
    // Span self times per operation, traced epochs.
    layer("core.mint_us", "us", Lower),
    layer("runtime.eval_us", "us", Lower),
    layer("runtime.submit_us", "us", Lower),
    layer("runtime.wait_us", "us", Lower),
    layer("workloads.proc_us", "us", Lower),
    layer("storage.read_us", "us", Lower),
    layer("durable.flush_wait_s", "s", Lower),
    layer("durable.open_s", "s", Lower),
    layer("serve.call_ms", "ms", Lower),
    layer("serve.exec_ms", "ms", Lower),
    layer("serve.plan_ms", "ms", Lower),
    layer("adapt.call_ms", "ms", Lower),
    layer("dispatch.call_ms", "ms", Lower),
    layer("serve.req_per_s", "1/s", Higher),
    layer("adapt.req_per_s", "1/s", Higher),
    layer("dispatch.req_per_s", "1/s", Higher),
    // Counts over the first (fixed-size, seed-determined) epoch.
    exact("runtime.procedures_run", "count", Lower),
    layer("runtime.work_steals", "count", Lower),
    exact("storage.objects", "count", Lower),
    exact("storage.bytes", "B", Lower),
    exact("storage.rel_hit_ratio", "ratio", Higher),
    layer("durable.appended_frames", "count", Lower),
    layer("durable.appended_bytes", "B", Lower),
    layer("durable.snapshots", "count", Lower),
    layer("durable.fsyncs", "count", Lower),
    exact("durable.faults", "count", Lower),
    exact("durable.replayed_nodes", "count", Lower),
    layer("durable.disk_bytes_per_user_byte", "ratio", Lower),
    exact("serve.completed", "count", Higher),
    exact("dispatch.hit_ratio", "ratio", Higher),
    layer("alloc.count_per_req", "count", Lower),
    layer("alloc.bytes_per_req", "B", Lower),
    layer("bench.span_overhead_ratio", "ratio", Lower),
    layer("bench.residual_ratio", "ratio", Lower),
    // Isolated rows: one layer's public functions, nothing else running.
    layer("hash.ns_per_byte_64", "ns", Lower),
    layer("hash.ns_per_byte_1k", "ns", Lower),
    layer("hash.ns_per_byte_16k", "ns", Lower),
    layer("core.apply_ns", "ns", Lower),
    layer("core.parcel_encode_ns_per_kib", "ns", Lower),
    layer("core.parcel_decode_ns_per_kib", "ns", Lower),
    layer("core.model_gap_add", "ratio", Lower),
    layer("core.model_gap_warm", "ratio", Lower),
    layer("core.model_gap_fib", "ratio", Lower),
    layer("core.model_gap_wordcount", "ratio", Lower),
    layer("core.model_gap_sebs", "ratio", Lower),
    layer("storage.put_ns", "ns", Lower),
    layer("storage.get_ns", "ns", Lower),
    layer("storage.rel_put_ns", "ns", Lower),
    layer("storage.rel_get_hit_ns", "ns", Lower),
    layer("storage.rel_get_miss_ns", "ns", Lower),
    layer("vm.invoke_us", "us", Lower),
    layer("vm.ns_per_instr", "ns", Lower),
    layer("vm.decode_us", "us", Lower),
    layer("runtime.inline_submit_complete_us", "us", Lower),
    layer("runtime.pooled_submit_complete_us", "us", Lower),
    layer("runtime.batch64_us_per_req", "us", Lower),
    layer("serve.queue_offer_ns", "ns", Lower),
    layer("serve.queue_dispatch_ns_per_req", "ns", Lower),
    layer("serve.loadgen_ns_per_arrival", "ns", Lower),
    layer("adapt.price_ns", "ns", Lower),
    layer("adapt.scaler_tick_ns", "ns", Lower),
    layer("dispatch.route_ns", "ns", Lower),
    layer("durable.append_us_always", "us", Lower),
    layer("durable.append_us_every64", "us", Lower),
    layer("durable.append_us_onsnapshot", "us", Lower),
    layer("durable.snapshot_ms_per_100k", "ms", Lower),
    layer("durable.open_ms_per_100k", "ms", Lower),
    layer("durable.fault_us", "us", Lower),
    layer("obs.emit_off_ns", "ns", Lower),
    layer("obs.emit_full_ns", "ns", Lower),
    layer("obs.full_overhead_ratio", "ratio", Lower),
    layer("cluster.sim_us_per_task", "us", Lower),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "native_cold",
        "distinct native add thunks on the inline runtime: scheduler, store writes and hashing do all the work (Fig. 7a)",
    ),
    (
        "memo_warm",
        "re-evaluates 65536 memoized thunks: hashing and relation reads only, the scheduler barely runs (pay-for-results floor)",
    ),
    (
        "vm_guest",
        "FixVM fib(12) made distinct by a per-request fuel salt: module decode and interpretation dominate",
    ),
    (
        "pooled_mapreduce",
        "63-task count-string jobs on one worker plus the caller: deque locks, stealing and parking are on the critical path",
    ),
    (
        "durable_log",
        "distinct 1 KiB results through DurableStore with EveryN(64) and snapshots, window ends after flush: the append side",
    ),
    (
        "durable_reopen",
        "DurableStore::open plus re-serving a flushed log with zero procedures run: index build, replay and fault-in",
    ),
    (
        "serve_tiers",
        "serve, adaptive_serve and dispatch on one seed per round: the three discrete-event serving kernels' own cost",
    ),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// `compare`'s bound per workload and metric, in [`END_TO_END`]'s
/// order. The manifest takes one bound per metric, set by the noisiest
/// workload; a ledger compared with a ledger can do better. Each bound
/// is max(2 x spread, 3 %) rounded up to a whole percent, where spread
/// is the largest interquartile distance, as a share of the median,
/// that five ten-run sets on ten seeds each showed (README.md,
/// "Baseline, bounds, noise", has the table). `setup_s` is 25 %
/// everywhere, as ISSUE 11 fixes it. `lat_p99_us` has no column: the
/// same rule gives it 21-60 %, past the 15 % ISSUE 11 demotes it at.
pub const GATES: &[(&str, [f64; 5])] = &[
    ("native_cold", [0.08, 0.09, 0.09, 0.03, 0.25]),
    ("memo_warm", [0.21, 0.21, 0.20, 0.04, 0.25]),
    ("vm_guest", [0.12, 0.10, 0.14, 0.04, 0.25]),
    ("pooled_mapreduce", [0.16, 0.18, 0.14, 0.04, 0.25]),
    ("durable_log", [0.21, 0.21, 0.24, 0.05, 0.25]),
    ("durable_reopen", [0.10, 0.05, 0.11, 0.09, 0.25]),
    ("serve_tiers", [0.17, 0.14, 0.17, 0.03, 0.25]),
];

/// `compare`'s bound for `metric` on `workload`, when the pair is gated.
pub fn gate(metric: &str, workload: &str) -> Option<f64> {
    let column = END_TO_END.iter().position(|d| d.name == metric)?;
    let (_, row) = GATES.iter().find(|(w, _)| *w == workload)?;
    Some(row[column])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(name: &str, extra: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(charset_ok(d.name, "_.-", 64), "name {}", d.name);
            assert!(charset_ok(d.unit, "_/%.-", 16), "unit {}", d.unit);
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(charset_ok(name, "_.-", 64), "workload {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound", d.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    #[test]
    fn every_end_to_end_pair_is_gated_no_looser_than_the_manifest() {
        assert_eq!(GATES.len(), WORKLOADS.len());
        for (workload, _) in WORKLOADS {
            for d in END_TO_END {
                let bound = gate(d.name, workload)
                    .unwrap_or_else(|| panic!("{} on {workload} is not gated", d.name));
                assert!(
                    bound >= 0.03 && bound <= d.bound,
                    "{} on {workload}",
                    d.name
                );
            }
            assert_eq!(gate("lat_p99_us", workload), None);
        }
        assert_eq!(gate("req_per_s", "no_such_workload"), None);
    }
}
