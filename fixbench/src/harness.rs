//! The epoch loop every workload runs in, and what it measures.
//!
//! A run is a sequence of *epochs*. Each epoch builds fresh state from
//! `(seed, epoch)` (timed as set-up), runs a fixed number of operations
//! in a closed loop on one client thread (the timed window), then checks
//! outputs and tears down outside the window. Epochs repeat until the
//! windows add up to `--seconds`; every reported timing is a median over
//! the quiet half of the epochs (see [`quiet_half`]), so disturbed epochs do
//! not move the result, and state never grows past one epoch's worth
//! (cold throughput on the reference box halves between 200k and 1M
//! resident requests).
//!
//! The traced pass runs the same epochs at a quarter of the size,
//! alternating spans off and on, so span overhead is measured inside one
//! process; counts flagged exact are read from epoch 0, whose size and
//! inputs depend on the seed alone.

use crate::stats::{median, percentile};
use crate::{alloc, spans};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of inputs.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for the sizes
    /// used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// How large this run's epochs are.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// The one recorded constant every workload size is multiplied by.
    pub scale: f64,
    /// Traced-pass epochs run a quarter of the operations.
    pub traced: bool,
}

impl Size {
    /// `base` operations at this size, at least `min`.
    pub fn ops(&self, base: u64, min: u64) -> u64 {
        let share = if self.traced { 0.25 } else { 1.0 };
        ((base as f64 * self.scale * share) as u64).max(min)
    }

    /// Like [`ops`](Self::ops) for state that is not divided in the
    /// traced pass (key-space and log sizes).
    pub fn state(&self, base: u64, min: u64) -> u64 {
        ((base as f64 * self.scale) as u64).max(min)
    }
}

/// Sums keyed by name: counts and layer-reported times an epoch gathers.
#[derive(Debug, Default, Clone)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Tally) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

/// What one epoch measured.
#[derive(Default)]
pub struct Epoch {
    /// Wall latency of each client-visible operation, ns.
    pub lat_ns: Vec<u64>,
    /// Requests completed inside the windows, when an operation carries
    /// several (left 0, it is the operation count).
    pub requests: u64,
    /// Outputs checked, and how many were errors or wrong.
    pub attempted: u64,
    pub failed: u64,
    pub tally: Tally,
    wall: Duration,
    cpu_s: f64,
}

impl Epoch {
    /// Runs `f` as (part of) the timed window: wall and process CPU time
    /// accumulate across calls.
    pub fn window<R>(&mut self, f: impl FnOnce(&mut Epoch) -> R) -> R {
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let r = f(self);
        self.wall += t.elapsed();
        self.cpu_s += cpu_seconds() - cpu0;
        r
    }

    /// Times one client-visible operation.
    #[inline]
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let root = spans::op(self.lat_ns.len() as u64, start);
        let r = f();
        let end = Instant::now();
        self.lat_ns.push((end - start).as_nanos() as u64);
        if let Some(root) = root {
            root.close_at(end);
        }
        r
    }

    /// Records a checked output.
    #[inline]
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One of the seven workloads.
pub trait Workload: Sized {
    /// Untimed (reported as `setup_s`): builds the runtime, registers
    /// procedures, generates this epoch's inputs from `rng`, and warms
    /// the code paths the window will take.
    fn setup(rng: &mut Rng, size: &Size) -> Self;
    /// The timed window: calls [`Epoch::window`] around the operations.
    fn run(&mut self, ep: &mut Epoch);
    /// Untimed: checks what the window could not, reads layer counters
    /// into the tally, and drops the state.
    fn finish(self, ep: &mut Epoch);
}

/// Arguments of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
}

/// The result line's content.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

struct EpochStats {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    requests: u64,
    ops: u64,
    lat_sum_ns: u64,
    p50_us: f64,
    p99_us: f64,
    /// The sorted latencies themselves, when the caller asked for them.
    lat_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    tally: Tally,
}

fn run_epoch<W: Workload>(
    seed: u64,
    index: u64,
    size: &Size,
    traced: bool,
    keep_latencies: bool,
) -> EpochStats {
    let mut rng = Rng::new(seed, index);
    let t = Instant::now();
    let mut w = W::setup(&mut rng, size);
    let setup_s = t.elapsed().as_secs_f64();

    let mut ep = Epoch::default();
    spans::set_on(traced);
    alloc::set_on(traced);
    w.run(&mut ep);
    alloc::set_on(false);
    spans::set_on(false);
    w.finish(&mut ep);

    assert!(!ep.lat_ns.is_empty(), "an epoch must time an operation");
    ep.lat_ns.sort_unstable();
    let ops = ep.lat_ns.len() as u64;
    EpochStats {
        setup_s,
        wall_s: ep.wall.as_secs_f64(),
        cpu_s: ep.cpu_s,
        requests: if ep.requests == 0 { ops } else { ep.requests },
        ops,
        lat_sum_ns: ep.lat_ns.iter().sum(),
        p50_us: percentile(&ep.lat_ns, 0.50) as f64 / 1e3,
        p99_us: percentile(&ep.lat_ns, 0.99) as f64 / 1e3,
        attempted: ep.attempted,
        failed: ep.failed,
        tally: ep.tally,
        lat_ns: if keep_latencies {
            ep.lat_ns
        } else {
            Vec::new()
        },
    }
}

fn col(epochs: &[EpochStats], f: impl Fn(&EpochStats) -> f64) -> Vec<f64> {
    epochs.iter().map(f).collect()
}

fn rate(e: &EpochStats) -> f64 {
    e.requests as f64 / e.wall_s
}

/// The half of `epochs` with the highest throughput. Interference on a
/// shared box only ever slows an epoch (per-epoch throughput is
/// one-sided: a plateau and a tail below it), so timings are taken over
/// these: a regression moves every epoch, the plateau included; a
/// neighbour's burst moves only the tail.
fn quiet_half(epochs: &[EpochStats]) -> Vec<&EpochStats> {
    let mut quiet: Vec<&EpochStats> = epochs.iter().collect();
    quiet.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    quiet.truncate(epochs.len().div_ceil(2));
    quiet
}

/// The timed pass: spans off, epochs until the windows fill `seconds`.
pub fn timed<W: Workload>(args: RunArgs) -> RunResult {
    let size = Size {
        scale: args.scale,
        traced: false,
    };
    let mut epochs = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds {
        let e = run_epoch::<W>(args.seed, epochs.len() as u64, &size, false, false);
        measured += e.wall_s;
        epochs.push(e);
    }
    eprintln!(
        "timed: {} epochs, {} operations, {} requests, {:.2} s in windows, p99 {:.3} us (median of epochs)",
        epochs.len(),
        epochs.iter().map(|e| e.ops).sum::<u64>(),
        epochs.iter().map(|e| e.requests).sum::<u64>(),
        measured,
        median(&col(&epochs, |e| e.p99_us)),
    );
    eprintln!(
        "requests/s by epoch: {:?}",
        col(&epochs, |e| rate(e).round())
    );

    let quiet = quiet_half(&epochs);
    let over_quiet =
        |f: &dyn Fn(&EpochStats) -> f64| quiet.iter().map(|e| f(e)).collect::<Vec<_>>();
    let mut values = BTreeMap::new();
    values.insert("req_per_s", median(&over_quiet(&rate)));
    values.insert("lat_p50_us", median(&over_quiet(&|e| e.p50_us)));
    values.insert(
        "cpu_us_per_req",
        over_quiet(&|e| e.cpu_s).iter().sum::<f64>() * 1e6
            / over_quiet(&|e| e.requests as f64).iter().sum::<f64>(),
    );
    values.insert("setup_s", median(&col(&epochs, |e| e.setup_s)));
    values.insert("peak_rss_mib", peak_rss_mib());
    RunResult {
        attempted: epochs.iter().map(|e| e.attempted).sum(),
        failed: epochs.iter().map(|e| e.failed).sum(),
        values,
    }
}

/// Share of `--seconds` the traced pass spends in the workload; the rest
/// goes to the isolated rows.
pub const TRACED_SHARE: f64 = 0.5;

/// The traced pass: quarter-size epochs, spans and allocation counting
/// on in every second one. Returns the workload's per-layer values (the
/// isolated rows are added by the caller).
pub fn traced<W: Workload>(args: RunArgs) -> RunResult {
    let size = Size {
        scale: args.scale,
        traced: true,
    };
    let budget = args.seconds * TRACED_SHARE;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut totals: BTreeMap<&'static str, spans::Total> = BTreeMap::new();
    let mut allocs = (0u64, 0u64);
    let started = Instant::now();
    let mut index = 0;
    while index < 2 || started.elapsed().as_secs_f64() < budget {
        let on = index % 2 == 1;
        let before = alloc::totals();
        let e = run_epoch::<W>(args.seed, index, &size, on, !on);
        if on {
            let after = alloc::totals();
            allocs.0 += after.0 - before.0;
            allocs.1 += after.1 - before.1;
            spans::merge(&mut totals, &spans::summarise(&spans::drain()));
            traced.push(e);
        } else {
            plain.push(e);
        }
        index += 1;
    }

    let sum = |es: &[EpochStats], f: fn(&EpochStats) -> u64| es.iter().map(f).sum::<u64>() as f64;
    let ops = sum(&traced, |e| e.ops);
    let requests = sum(&traced, |e| e.requests);
    let mut tally = Tally::default();
    for e in &traced {
        tally.merge(&e.tally);
    }
    let first = &plain[0].tally;
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let self_us = |name: &str| per(span(name).self_ns as f64 / 1e3, ops);
    let dur_us = |name: &str| per(span(name).dur_ns as f64 / 1e3, ops);
    let call_s = |name: &str| per(span(name).dur_ns as f64 / 1e9, span(name).count as f64);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    // The tail over the untraced operations of the quiet epochs, pooled:
    // the quarter-size epochs are too short to hold a p99 each.
    let mut pooled: Vec<u64> = quiet_half(&plain)
        .iter()
        .flat_map(|e| e.lat_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    v.insert("lat_p99_us", percentile(&pooled, 0.99) as f64 / 1e3);
    eprintln!(
        "lat_p99_us over {} untraced operations (quiet epochs)",
        pooled.len()
    );
    let attempted = sum(&plain, |e| e.attempted) + sum(&traced, |e| e.attempted);
    let failed = sum(&plain, |e| e.failed) + sum(&traced, |e| e.failed);
    v.insert("fail_ratio", per(failed, attempted));

    v.insert("core.mint_us", self_us("core.mint"));
    v.insert("runtime.eval_us", self_us("runtime.eval"));
    v.insert("runtime.submit_us", dur_us("runtime.submit"));
    v.insert("runtime.wait_us", dur_us("runtime.wait"));
    v.insert("workloads.proc_us", dur_us("workloads.proc"));
    v.insert("storage.read_us", self_us("storage.read"));
    v.insert("durable.flush_wait_s", call_s("durable.flush_wait"));
    v.insert("durable.open_s", call_s("durable.open"));
    for (call, completed, call_ms, req_per_s) in [
        (
            "serve.call",
            "serve.completed",
            "serve.call_ms",
            "serve.req_per_s",
        ),
        (
            "adapt.call",
            "adapt.completed",
            "adapt.call_ms",
            "adapt.req_per_s",
        ),
        (
            "dispatch.call",
            "dispatch.completed",
            "dispatch.call_ms",
            "dispatch.req_per_s",
        ),
    ] {
        v.insert(call_ms, call_s(call) * 1e3);
        v.insert(
            req_per_s,
            per(tally.get(completed), span(call).dur_ns as f64 / 1e9),
        );
    }
    let exec_ms = per(tally.get("serve.exec_s"), span("serve.call").count as f64) * 1e3;
    v.insert("serve.exec_ms", exec_ms);
    v.insert("serve.plan_ms", (v["serve.call_ms"] - exec_ms).max(0.0));

    for name in [
        "runtime.procedures_run",
        "runtime.work_steals",
        "storage.objects",
        "storage.bytes",
        "durable.appended_frames",
        "durable.appended_bytes",
        "durable.snapshots",
        "durable.fsyncs",
        "durable.faults",
        "durable.replayed_nodes",
        "serve.completed",
    ] {
        v.insert(name, first.get(name));
    }
    v.insert(
        "storage.rel_hit_ratio",
        per(
            first.get("storage.rel_hits"),
            first.get("storage.rel_hits") + first.get("storage.rel_misses"),
        ),
    );
    v.insert(
        "durable.disk_bytes_per_user_byte",
        per(
            first.get("durable.disk_bytes"),
            first.get("durable.user_bytes"),
        ),
    );
    v.insert(
        "dispatch.hit_ratio",
        per(
            first.get("dispatch.warm"),
            first.get("dispatch.warm") + first.get("dispatch.cold"),
        ),
    );
    v.insert("alloc.count_per_req", per(allocs.0 as f64, requests));
    v.insert("alloc.bytes_per_req", per(allocs.1 as f64, requests));
    let mean_us = |es: &[EpochStats]| per(sum(es, |e| e.lat_sum_ns) / 1e3, sum(es, |e| e.ops));
    v.insert(
        "bench.span_overhead_ratio",
        per(mean_us(&traced), mean_us(&plain)),
    );
    v.insert(
        "bench.residual_ratio",
        per(
            span(spans::OP).self_ns as f64,
            span(spans::OP).dur_ns as f64,
        ),
    );

    print_budget(&totals, ops);
    RunResult {
        attempted: attempted as u64,
        failed: failed as u64,
        values: v,
    }
}

/// The budget table: span self times stacked against the mean traced
/// operation latency, the remainder named as residual.
fn print_budget(totals: &BTreeMap<&'static str, spans::Total>, ops: f64) {
    let Some(root) = totals.get(spans::OP) else {
        return;
    };
    let mean_us = root.dur_ns as f64 / 1e3 / ops;
    eprintln!("budget (traced epochs, {ops} operations, mean latency {mean_us:.3} us)");
    eprintln!(
        "  {:<22} {:>12} {:>8} {:>10}",
        "span", "self us/op", "share", "spans/op"
    );
    for (name, t) in totals {
        let label = if *name == spans::OP {
            "(residual)"
        } else {
            name
        };
        let self_us = t.self_ns as f64 / 1e3 / ops;
        eprintln!(
            "  {:<22} {:>12.3} {:>7.1}% {:>10.2}",
            label,
            self_us,
            100.0 * self_us / mean_us,
            t.count as f64 / ops
        );
    }
}

/// Process CPU time (user + system, all threads, exited ones included)
/// from `/proc/self/stat`. USER_HZ is 100 on every Linux the repository
/// targets; the tick is 10 ms, so windows are summed before dividing.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("stat has utime and stime") as f64
    };
    (tick() + tick()) / USER_HZ
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().strip_suffix("kB"))
        .and_then(|l| l.trim().parse().ok())
        .expect("status has VmHWM in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 0).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 0).next(), Rng::new(7, 1).next());
        assert_ne!(Rng::new(7, 0).next(), Rng::new(8, 0).next());
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn sizes_scale_and_floor() {
        let full = Size {
            scale: 1.0,
            traced: false,
        };
        let quarter = Size {
            scale: 1.0,
            traced: true,
        };
        let tiny = Size {
            scale: 0.01,
            traced: true,
        };
        assert_eq!(full.ops(200_000, 1), 200_000);
        assert_eq!(quarter.ops(200_000, 1), 50_000);
        assert_eq!(quarter.state(65_536, 1), 65_536);
        assert_eq!(tiny.ops(1_000, 16), 16);
    }

    #[test]
    fn procfs_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }
}
