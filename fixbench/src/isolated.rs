//! Isolated rows: one layer's public functions timed with nothing else
//! running. Each row is the median of at least five batches (more while
//! its share of the budget lasts); minimum and maximum go to stderr.
//! They run after the traced workload in every `--trace 1` invocation,
//! so each traced run reports the whole per-layer catalogue.

use crate::harness::{Rng, Size, Tally};
use crate::metrics::PER_LAYER;
use crate::stats::{median, min_max};
use crate::workloads::native::register_add;
use crate::workloads::{durable as dwl, serve as swl};
use fix::adapt::{AdmissionPolicy, Autoscaler, PoolShape};
use fix::cluster::{run_fix, ClusterSetup, FixConfig};
use fix::core::calibration::SERVICE_COSTS;
use fix::dispatch::{Router, RoutingPolicy};
use fix::durable::{DurableOptions, DurableStore, FsyncPolicy};
use fix::netsim::{NetConfig, NodeSpec};
use fix::obs::{self, EventKind, TracingMode};
use fix::prelude::*;
use fix::serve::{
    ArrivalProcess, QueuedRequest, RequestFactory, RequestKind, SloClass, TenantQueues, TenantSpec,
};
use fix::storage::{Relation, RelationCache, Store};
use fix::vm::testing::TestHost;
use fix::vm::{assemble, Module, VmConfig};
use fix::workloads::guests::{ADD_FVM, FIB_FVM};
use fix::workloads::wordcount::{fig8b_graph, Fig8bParams};
use std::hint::black_box;
use std::time::Instant;

const MAX_BATCHES: usize = 200;
const LOOP_FVM: &str = include_str!("../guests/loop.fvm");

pub struct Rows {
    per_row_s: f64,
    /// The run's size: scales every iteration count, and below scale 1
    /// (`fixbench check`) a single batch per row is enough.
    size: Size,
    pub values: Vec<(&'static str, f64)>,
}

impl Rows {
    /// Measures `N` rows that share a batch: `batch` returns one value
    /// per name each time it runs.
    fn rows<const N: usize>(
        &mut self,
        names: [&'static str; N],
        size: u64,
        mut batch: impl FnMut(u64) -> [f64; N],
    ) {
        let size = self.size.state(size, 1);
        let started = Instant::now();
        let min_batches = if self.size.scale < 1.0 { 1 } else { 5 };
        let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
        while samples[0].len() < min_batches
            || (samples[0].len() < MAX_BATCHES
                && started.elapsed().as_secs_f64() < self.per_row_s * N as f64)
        {
            for (s, v) in samples.iter_mut().zip(batch(size)) {
                s.push(v);
            }
        }
        for (name, s) in names.into_iter().zip(samples) {
            let (lo, hi) = min_max(&s);
            let med = median(&s);
            eprintln!(
                "  {name:<36} {med:>14.3}  min {lo:>12.3}  max {hi:>12.3}  ({} batches)",
                s.len()
            );
            self.values.push((name, med));
        }
    }

    /// Measures one row; `batch` gets `size` scaled to this run.
    fn row(&mut self, name: &'static str, size: u64, mut batch: impl FnMut(u64) -> f64) {
        self.rows([name], size, |n| [batch(n)]);
    }
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn add_runtime(workers: usize) -> (Runtime, Handle) {
    let rt = Runtime::builder().workers(workers).build();
    let add = register_add(&rt);
    (rt, add)
}

fn mint_add(rt: &Runtime, add: Handle, a: u64) -> Handle {
    let args = [
        rt.put_blob(Blob::from_u64(a)),
        rt.put_blob(Blob::from_u64(12)),
    ];
    rt.apply(ResourceLimits::default_limits(), add, &args)
        .expect("apply")
}

fn queued(tenant: usize, seq: u64) -> QueuedRequest {
    QueuedRequest {
        arrival_us: seq,
        tenant,
        seq,
        kind: RequestKind::Add,
        thunk: Blob::from_u64(seq).handle(),
        service_us: 3,
        deadline_us: None,
    }
}

/// Runs every isolated row within roughly `budget_s` seconds.
pub fn run(budget_s: f64, seed: u64, scale: f64) -> Vec<(&'static str, f64)> {
    // The isolated rows are the catalogue's tail, from the first hash row.
    let rows = PER_LAYER
        .iter()
        .skip_while(|d| d.name != "hash.ns_per_byte_64")
        .count();
    let mut r = Rows {
        per_row_s: budget_s / rows as f64,
        size: Size {
            scale,
            traced: false,
        },
        values: Vec::new(),
    };
    let mut rng = Rng::new(seed, u64::MAX);
    eprintln!("isolated rows (median of batches)");
    hash_rows(&mut r);
    core_rows(&mut r, &mut rng);
    storage_rows(&mut r, &mut rng);
    vm_rows(&mut r);
    runtime_rows(&mut r, &mut rng);
    serving_rows(&mut r, &mut rng);
    durable_rows(&mut r, &mut rng);
    obs_rows(&mut r, &mut rng);
    r.row("cluster.sim_us_per_task", 123, |n_shards| {
        let graph = fig8b_graph(&Fig8bParams {
            n_shards: n_shards as usize,
            ..Fig8bParams::default()
        });
        let setup = ClusterSetup::workers_only(10, NodeSpec::default(), NetConfig::default());
        let t = Instant::now();
        let report = run_fix(&setup, &graph, &FixConfig::default());
        t.elapsed().as_secs_f64() * 1e6 / report.tasks_run.max(1) as f64
    });
    r.values
}

fn hash_rows(r: &mut Rows) {
    for (name, len, iters) in [
        ("hash.ns_per_byte_64", 64usize, 20_000u64),
        ("hash.ns_per_byte_1k", 1 << 10, 2_000),
        ("hash.ns_per_byte_16k", 16 << 10, 200),
    ] {
        let mut buf = vec![0xA5u8; len];
        r.row(name, iters, |n| {
            ns_per_iter(n, |i| {
                buf[0] = i as u8;
                black_box(fix::hash::hash(black_box(&buf)));
            }) / len as f64
        });
    }
}

fn core_rows(r: &mut Rows, rng: &mut Rng) {
    // Re-minting an existing thunk: tree build + hash + store dedup, the
    // memo_warm path.
    let (rt, add) = add_runtime(0);
    let base = rng.next() >> 1;
    let args: Vec<[Handle; 2]> = (0..1024)
        .map(|i| {
            [
                rt.put_blob(Blob::from_u64(base + i)),
                rt.put_blob(Blob::from_u64(12)),
            ]
        })
        .collect();
    let limits = ResourceLimits::default_limits();
    for a in &args {
        rt.apply(limits, add, a).expect("apply");
    }
    r.row("core.apply_ns", 10_000, |n| {
        ns_per_iter(n, |i| {
            black_box(
                rt.apply(limits, add, &args[i as usize % args.len()])
                    .expect("apply"),
            );
        })
    });

    // A parcel of sixteen 1 KiB blobs under one tree.
    let store = Store::new();
    let blobs: Vec<Handle> = (0..16)
        .map(|i| store.put_blob(Blob::from_vec(dwl::expand_bytes(base + i))))
        .collect();
    let root = store.put_tree(Tree::from_handles(blobs));
    let parcel = store.export(root).expect("export");
    let bytes = parcel.to_bytes();
    let kib = bytes.len() as f64 / 1024.0;
    r.row("core.parcel_encode_ns_per_kib", 500, |n| {
        ns_per_iter(n, |_| {
            black_box(black_box(&parcel).to_bytes());
        }) / kib
    });
    r.row("core.parcel_decode_ns_per_kib", 500, |n| {
        ns_per_iter(n, |_| {
            black_box(fix::core::Parcel::from_bytes(black_box(&bytes)).expect("decodes"));
        }) / kib
    });

    model_gap_rows(r, rng);
}

/// `SERVICE_COSTS` µs over measured µs, per request kind: `figures
/// calibrate` as tracked numbers (1.0 = the virtual clock is honest).
fn model_gap_rows(r: &mut Rows, rng: &mut Rng) {
    const FIB_N: u64 = 8;
    const SHARD: usize = 16 << 10;
    let tenants = |mix: Vec<(RequestKind, u32)>| {
        vec![TenantSpec {
            name: "gap".into(),
            weight: 1,
            arrivals: ArrivalProcess::Uniform { period_us: 1 },
            mix,
            slo: SloClass::default(),
        }]
    };
    let all = tenants(vec![
        (RequestKind::Add, 1),
        (RequestKind::Wordcount { shard_bytes: SHARD }, 1),
        (RequestKind::SebsHtml { users: u64::MAX }, 1),
    ]);
    let rt = Runtime::builder().build();
    let factory = RequestFactory::install(&rt, &all, rng.next()).expect("factory installs");
    let mut seq = 0u64;
    let eval_us = |rt: &Runtime, thunk: Handle| {
        let t = Instant::now();
        rt.eval(thunk).expect("request evaluates");
        t.elapsed().as_secs_f64() * 1e6
    };
    let c = SERVICE_COSTS;
    // Cold kinds: every sample is a request the runtime has not seen.
    for (name, kind, modeled, n) in [
        (
            "core.model_gap_add",
            RequestKind::Add,
            c.native_cold_us,
            2_000,
        ),
        (
            "core.model_gap_sebs",
            RequestKind::SebsHtml { users: u64::MAX },
            c.sebs_html_cold_us,
            500,
        ),
    ] {
        r.row(name, n, |n| {
            let total: f64 = (0..n)
                .map(|_| {
                    seq += 1;
                    eval_us(&rt, factory.mint(&rt, 0, seq, kind).expect("mint"))
                })
                .sum();
            modeled as f64 / (total / n as f64)
        });
    }
    // The factory cycles 64 needles, so a runtime has only 64 cold
    // count-string requests: each batch starts a fresh one.
    let kind = RequestKind::Wordcount { shard_bytes: SHARD };
    let install_seed = rng.next();
    r.row("core.model_gap_wordcount", 64, |n| {
        let rt = Runtime::builder().build();
        let factory = RequestFactory::install(&rt, &all, install_seed).expect("factory installs");
        let total: f64 = (0..n)
            .map(|seq| eval_us(&rt, factory.mint(&rt, 0, seq, kind).expect("mint")))
            .sum();
        let modeled = c.wordcount_base_us + SHARD as u64 / c.wordcount_bytes_per_us;
        modeled as f64 / (total / n as f64)
    });
    let warm = factory.mint(&rt, 0, 1, RequestKind::Add).expect("mint");
    r.row("core.model_gap_warm", 5_000, |n| {
        let total: f64 = (0..n).map(|_| eval_us(&rt, warm)).sum();
        c.warm_hit_us as f64 / (total / n as f64)
    });
    // fib memoizes its steps, so each sample needs a fresh runtime.
    let fib_only = tenants(vec![(RequestKind::Fib { max_n: FIB_N + 1 }, 1)]);
    let kind = RequestKind::Fib { max_n: FIB_N + 1 };
    r.row("core.model_gap_fib", 8, |n| {
        let total: f64 = (0..n)
            .map(|_| {
                let rt = Runtime::builder().build();
                let factory = RequestFactory::install(&rt, &fib_only, 1).expect("factory installs");
                eval_us(&rt, factory.mint(&rt, 0, FIB_N, kind).expect("mint"))
            })
            .sum();
        (c.vm_start_us + c.vm_step_us * FIB_N) as f64 / (total / n as f64)
    });
}

fn storage_rows(r: &mut Rows, rng: &mut Rng) {
    const N: u64 = 5_000;
    let n = r.size.state(N, 1);
    let base = rng.next() >> 1;
    // 64-byte payloads: past the 30-byte literal bound, so they are
    // really stored.
    let blob = |i: u64| {
        Blob::from_vec(
            (0..8)
                .flat_map(|w| (base + i * 8 + w).to_le_bytes())
                .collect(),
        )
    };
    let mut next = 0u64;
    r.row("storage.put_ns", N, |n| {
        let store = Store::new();
        let mut blobs = (next..next + n).map(blob).collect::<Vec<_>>().into_iter();
        next += n;
        ns_per_iter(n, |_| {
            black_box(store.put_blob(blobs.next().expect("one blob per iteration")));
        })
    });
    let store = Store::new();
    let handles: Vec<Handle> = (0..n).map(|i| store.put_blob(blob(i))).collect();
    r.row("storage.get_ns", N, |n| {
        ns_per_iter(n, |i| {
            black_box(store.get_blob(handles[i as usize]).expect("resident"));
        })
    });

    let key = |i: u64| Blob::from_vec(i.to_le_bytes().repeat(5)).handle();
    let present: Vec<Handle> = (0..n).map(|i| key(base + i)).collect();
    let absent: Vec<Handle> = (0..n).map(|i| key(base + n + i)).collect();
    r.row("storage.rel_put_ns", N, |n| {
        let cache = RelationCache::new();
        ns_per_iter(n, |i| {
            cache.put(Relation::Eval, present[i as usize], present[0])
        })
    });
    let cache = RelationCache::new();
    for &k in &present {
        cache.put(Relation::Eval, k, present[0]);
    }
    for (name, keys, hit) in [
        ("storage.rel_get_hit_ns", &present, true),
        ("storage.rel_get_miss_ns", &absent, false),
    ] {
        r.row(name, N, |n| {
            ns_per_iter(n, |i| {
                let got = black_box(cache.get(Relation::Eval, keys[i as usize]));
                assert_eq!(got.is_some(), hit);
            })
        });
    }
}

fn vm_rows(r: &mut Rows) {
    let add = assemble(ADD_FVM).expect("add guest assembles");
    let mut host = TestHost::default();
    let a = host.insert_blob(Blob::from_u64(30));
    let b = host.insert_blob(Blob::from_u64(12));
    // The guest reads entries 2 and 3; 0 and 1 stand in for limits and
    // the procedure.
    let input = host.insert_tree(Tree::from_handles(vec![a, a, a, b]));
    r.row("vm.invoke_us", 2_000, |n| {
        ns_per_iter(n, |_| {
            black_box(fix::vm::run(&add, &mut host, input, VmConfig::default()).expect("add runs"));
        }) / 1e3
    });

    // The loop's length is the guest's own constant, not scaled.
    let looper = assemble(LOOP_FVM).expect("loop guest assembles");
    r.row("vm.ns_per_instr", 1, |_| {
        let t = Instant::now();
        let out = fix::vm::run(&looper, &mut host, input, VmConfig::default()).expect("loop runs");
        t.elapsed().as_nanos() as f64 / out.fuel_used as f64
    });

    let fib_bytes = assemble(FIB_FVM).expect("fib guest assembles").to_bytes();
    r.row("vm.decode_us", 2_000, |n| {
        ns_per_iter(n, |_| {
            black_box(Module::from_bytes(black_box(&fib_bytes)).expect("decodes"));
        }) / 1e3
    });
}

fn runtime_rows(r: &mut Rows, rng: &mut Rng) {
    const BATCH: usize = 64;
    let mut next = rng.next() >> 1;
    // Requests are minted before the clock starts: these rows time
    // submit → complete only.
    let mut mint = |rt: &Runtime, add: Handle, n: u64| -> Vec<Handle> {
        next += n;
        (next - n..next).map(|a| mint_add(rt, add, a)).collect()
    };
    for (name, workers) in [
        ("runtime.inline_submit_complete_us", 0),
        ("runtime.pooled_submit_complete_us", 1),
    ] {
        let (rt, add) = add_runtime(workers);
        r.row(name, 2_048, |n| {
            let thunks = mint(&rt, add, n);
            ns_per_iter(n, |i| {
                black_box(rt.submit(thunks[i as usize]).wait().expect("completes"));
            }) / 1e3
        });
    }
    let (rt, add) = add_runtime(0);
    r.row("runtime.batch64_us_per_req", 32, |batches| {
        let thunks = mint(&rt, add, batches * BATCH as u64);
        let per_batch = ns_per_iter(batches, |i| {
            black_box(
                rt.submit_many(&thunks[i as usize * BATCH..][..BATCH])
                    .wait(),
            );
        });
        per_batch / BATCH as f64 / 1e3
    });
}

fn serving_rows(r: &mut Rows, rng: &mut Rng) {
    const N: u64 = 8_192;
    r.rows(
        ["serve.queue_offer_ns", "serve.queue_dispatch_ns_per_req"],
        N,
        |n| {
            let mut q = TenantQueues::weighted(vec![4, 2, 1], n as usize);
            let offer = ns_per_iter(n, |i| {
                black_box(q.offer(queued(i as usize % 3, i)));
            });
            let t = Instant::now();
            let mut served = 0;
            while !q.is_empty() {
                served += q.next_dispatch(32, 0).requests.len();
            }
            [offer, t.elapsed().as_nanos() as f64 / served as f64]
        },
    );
    let seed = rng.next();
    r.row("serve.loadgen_ns_per_arrival", 200_000, |horizon_us| {
        let t = Instant::now();
        let arrivals = ArrivalProcess::Poisson { rate_rps: 40_000.0 }.generate(seed, horizon_us);
        t.elapsed().as_nanos() as f64 / black_box(arrivals).len().max(1) as f64
    });

    // A standing backlog of 100 requests per tenant to price against.
    let mut q = TenantQueues::weighted(vec![4, 2, 1], 128);
    for i in 0..300 {
        q.offer(queued(i as usize % 3, i));
    }
    let policy = AdmissionPolicy::default();
    let pool = PoolShape {
        active_drivers: 2,
        batch: 8,
        batch_overhead_us: 1,
    };
    r.row("adapt.price_ns", N, |n| {
        ns_per_iter(n, |i| {
            black_box(policy.price(&q, i as usize % 3, i, Some(i + 20), pool));
        })
    });
    r.row("adapt.scaler_tick_ns", N, |n| {
        let mut scaler = Autoscaler::new(swl::adapt_config(seed).scaler);
        // Backlog swings across both thresholds, so ticks resize too.
        ns_per_iter(n, |i| {
            black_box(scaler.tick(i * 2_000, (i % 8) * 200, false));
        })
    });
    let mut router = Router::new(RoutingPolicy::Affinity, 16, seed);
    let (alive, depths) = ([true; 4], [3, 1, 4, 1]);
    r.row("dispatch.route_ns", N, |n| {
        ns_per_iter(n, |i| {
            black_box(router.route(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), &alive, &depths));
        })
    });
}

fn durable_rows(r: &mut Rows, rng: &mut Rng) {
    let mut next = rng.next() >> 1;
    let mut blobs = |n: u64| -> Vec<Blob> {
        next += n;
        (next - n..next)
            .map(|s| Blob::from_vec(dwl::expand_bytes(s)))
            .collect()
    };
    let open = |dir: &tempfile::TempDir, fsync| {
        DurableStore::open(
            dir.path(),
            DurableOptions {
                fsync,
                ..DurableOptions::default()
            },
        )
        .expect("durable store opens")
    };
    // Appending 1 KiB objects, then flushing, per object.
    for (name, fsync, size) in [
        ("durable.append_us_always", FsyncPolicy::Always, 500),
        ("durable.append_us_every64", FsyncPolicy::EveryN(64), 1_000),
        (
            "durable.append_us_onsnapshot",
            FsyncPolicy::OnSnapshot,
            1_000,
        ),
    ] {
        r.row(name, size, |n| {
            let (dir, batch) = (dwl::temp_dir(), blobs(n));
            let d = open(&dir, fsync);
            let t = Instant::now();
            for b in batch {
                d.store().put_blob(b);
            }
            d.flush().expect("flushes");
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        });
    }
    // One populated log: snapshot it, reopen it, fault every object in.
    r.rows(
        [
            "durable.snapshot_ms_per_100k",
            "durable.open_ms_per_100k",
            "durable.fault_us",
        ],
        4_000,
        |n| {
            let dir = dwl::temp_dir();
            let d = open(&dir, FsyncPolicy::OnSnapshot);
            let handles: Vec<Handle> = blobs(n)
                .into_iter()
                .map(|b| d.store().put_blob(b))
                .collect();
            d.flush().expect("flushes");
            let t = Instant::now();
            d.snapshot().expect("snapshots");
            let snapshot_s = t.elapsed().as_secs_f64();
            drop(d);
            let t = Instant::now();
            let d = open(&dir, FsyncPolicy::OnSnapshot);
            let open_s = t.elapsed().as_secs_f64();
            let fault_ns = ns_per_iter(n, |i| {
                black_box(d.store().get_blob(handles[i as usize]).expect("faults in"));
            });
            assert_eq!(d.stats().faults, n, "every read faulted");
            let per_100k = 100_000.0 / n as f64 * 1e3;
            [snapshot_s * per_100k, open_s * per_100k, fault_ns / 1e3]
        },
    );
}

fn obs_rows(r: &mut Rows, rng: &mut Rng) {
    obs::set_tracing_mode(TracingMode::Off);
    r.row("obs.emit_off_ns", 100_000, |n| {
        ns_per_iter(n, |i| obs::emit(EventKind::ServeAdmit, i, i, 0, 0))
    });
    r.row("obs.emit_full_ns", 20_000, |n| {
        obs::set_tracing_mode(TracingMode::Full);
        let ns = ns_per_iter(n, |i| obs::emit(EventKind::ServeAdmit, i, i, 0, 0));
        obs::set_tracing_mode(TracingMode::Off);
        obs::recorder().clear();
        ns
    });
    // One serve_tiers round with the recorder on over the same round
    // with it off.
    let seed = rng.next() >> 8;
    let round_s = |mode| {
        obs::set_tracing_mode(mode);
        let t = Instant::now();
        black_box(swl::round(seed, &mut Tally::default()).completed);
        let s = t.elapsed().as_secs_f64();
        obs::set_tracing_mode(TracingMode::Off);
        obs::recorder().clear();
        s
    };
    r.row("obs.full_overhead_ratio", 1, |_| {
        let off = round_s(TracingMode::Off);
        round_s(TracingMode::Full) / off
    });
}
