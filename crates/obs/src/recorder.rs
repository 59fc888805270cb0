//! The structured event recorder: per-thread ring buffers of compact
//! fixed-size records behind a single global toggle.
//!
//! Instrumentation sites call [`emit`]/[`emit_span`]. When tracing is
//! off (the default) those calls cost exactly **one relaxed atomic
//! load** of a static flag — no timestamp reads, no TLS access, no
//! allocation, no locks. When tracing is on, each thread appends into
//! its own bounded buffer: the only lock a recording thread ever takes
//! is its *own* buffer's uncontended mutex (a single CAS in the
//! parking-lot fast path); cross-thread contention exists only while
//! [`Recorder::drain`] collects the buffers.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-thread event capacity. A thread that records more events than
/// this between drains drops the excess (counted, never silently).
const PER_THREAD_CAP: usize = 1 << 20;

/// The global tracing toggle. A static (not a field of the lazily
/// initialised [`Recorder`]) so the disabled path never touches the
/// `OnceLock`: it is one relaxed load, full stop.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently enabled — one relaxed atomic load.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Whether the recorder captures events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracingMode {
    /// Nothing is recorded; instrumentation sites cost one relaxed load.
    Off,
    /// Every event is recorded.
    Full,
}

/// Sets the tracing mode. Events recorded so far stay buffered until
/// [`Recorder::drain`]; switching modes does not discard them.
pub fn set_tracing_mode(mode: TracingMode) {
    TRACING.store(mode == TracingMode::Full, Ordering::SeqCst);
}

/// Turns tracing on or off: [`set_tracing_mode`] with `Full`/`Off`.
pub fn set_tracing(on: bool) {
    set_tracing_mode(if on {
        TracingMode::Full
    } else {
        TracingMode::Off
    });
}

/// The layer an event kind belongs to (its Chrome-trace category and
/// summary-table grouping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The work-stealing scheduler (`fixpoint`).
    Scheduler,
    /// The multi-tenant serving layer (`fix-serve`).
    Serve,
    /// The multi-node dispatcher tier (`fix_serve::dispatch`).
    Dispatch,
    /// The adaptive control plane (`fix_serve::adapt`): admission rejections
    /// and driver-pool scaling decisions, all on the virtual clock.
    Control,
    /// The append-only persistence tier (`fix-durable`).
    Durable,
}

impl Layer {
    /// Stable lowercase name (Chrome-trace category).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Scheduler => "scheduler",
            Layer::Serve => "serve",
            Layer::Dispatch => "dispatch",
            Layer::Control => "control",
            Layer::Durable => "durable",
        }
    }
}

/// What happened. Field conventions per kind are documented on the
/// emitting layer; `a`/`b` are small operands (slot/tenant/depth/count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // Variant meanings are the emitting layers' docs.
pub enum EventKind {
    // Scheduler (wall-clock diagnostics; a = slot or batch position,
    // b = a count or flag, 0 when the kind has none).
    SchedSubmit,
    SchedEnqueue,
    SchedPop,
    SchedSteal,
    SchedExecute,
    SchedComplete,
    SchedCancel,
    SchedBatchFill,
    SchedPark,
    SchedUnpark,
    // Serving (virtual-clock lifecycle; a = tenant index).
    ServeAdmit,
    ServeShed,
    ServeDispatch,
    ServeExpire,
    ServeComplete,
    ServeQueueDepth,
    // Dispatcher tier (virtual-clock routing decisions; a = node index).
    Route,
    Spill,
    NodeKill,
    NodeRestart,
    // Adaptive control plane (virtual-clock decisions; CtrlReject:
    // a = tenant, b = priced wait µs; CtrlScale*: a = from, b = to).
    CtrlReject,
    CtrlScaleUp,
    CtrlScaleDown,
    // Durable store (wall latencies in `dur_ns`).
    DurAppend,
    DurFsync,
    DurSnapshot,
    DurRefault,
}

impl EventKind {
    /// The layer this kind belongs to.
    pub fn layer(self) -> Layer {
        use EventKind::*;
        match self {
            SchedSubmit | SchedEnqueue | SchedPop | SchedSteal | SchedExecute | SchedComplete
            | SchedCancel | SchedBatchFill | SchedPark | SchedUnpark => Layer::Scheduler,
            ServeAdmit | ServeShed | ServeDispatch | ServeExpire | ServeComplete
            | ServeQueueDepth => Layer::Serve,
            Route | Spill | NodeKill | NodeRestart => Layer::Dispatch,
            CtrlReject | CtrlScaleUp | CtrlScaleDown => Layer::Control,
            DurAppend | DurFsync | DurSnapshot | DurRefault => Layer::Durable,
        }
    }

    /// Stable snake-case name used in summary tables and Chrome traces.
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            SchedSubmit => "scheduler.submit",
            SchedEnqueue => "scheduler.enqueue",
            SchedPop => "scheduler.pop",
            SchedSteal => "scheduler.steal",
            SchedExecute => "scheduler.execute",
            SchedComplete => "scheduler.complete",
            SchedCancel => "scheduler.cancel",
            SchedBatchFill => "scheduler.batch_fill",
            SchedPark => "scheduler.park",
            SchedUnpark => "scheduler.unpark",
            ServeAdmit => "serve.admit",
            ServeShed => "serve.shed",
            ServeDispatch => "serve.dispatch",
            ServeExpire => "serve.expire",
            ServeComplete => "serve.complete",
            ServeQueueDepth => "serve.queue_depth",
            Route => "dispatch.route",
            Spill => "dispatch.spill",
            NodeKill => "dispatch.node_kill",
            NodeRestart => "dispatch.node_restart",
            CtrlReject => "control.reject",
            CtrlScaleUp => "control.scale_up",
            CtrlScaleDown => "control.scale_down",
            DurAppend => "durable.append",
            DurFsync => "durable.fsync",
            DurSnapshot => "durable.snapshot",
            DurRefault => "durable.refault",
        }
    }

    /// Whether this kind carries deterministic virtual-clock content:
    /// only such kinds enter [`TraceSummary`](crate::TraceSummary)
    /// tables. Serve-layer lifecycle events, dispatcher-tier routing
    /// decisions, and control-plane admission/scaling decisions are
    /// emitted by single-threaded virtual-time simulations, so for a
    /// fixed seed they are identical across runs, worker counts, and
    /// submitting backends; every other layer's counts depend on wall
    /// timing (steals, parks, fsync batching) and exports to the
    /// Chrome trace only.
    pub fn deterministic(self) -> bool {
        matches!(
            self.layer(),
            Layer::Serve | Layer::Dispatch | Layer::Control
        )
    }

    /// Every kind, in summary-table order.
    pub fn all() -> &'static [EventKind] {
        use EventKind::*;
        &[
            SchedSubmit,
            SchedEnqueue,
            SchedPop,
            SchedSteal,
            SchedExecute,
            SchedComplete,
            SchedCancel,
            SchedBatchFill,
            SchedPark,
            SchedUnpark,
            ServeAdmit,
            ServeShed,
            ServeDispatch,
            ServeExpire,
            ServeComplete,
            ServeQueueDepth,
            Route,
            Spill,
            NodeKill,
            NodeRestart,
            CtrlReject,
            CtrlScaleUp,
            CtrlScaleDown,
            DurAppend,
            DurFsync,
            DurSnapshot,
            DurRefault,
        ]
    }
}

/// One compact fixed-size trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp of the emitting layer, in µs (0 when the
    /// layer has no virtual clock). Deterministic for serve-layer kinds.
    pub virt_us: u64,
    /// Wall-clock nanoseconds since the recorder's epoch. Never appears
    /// in deterministic tables; feeds the Chrome trace export.
    pub wall_ns: u64,
    /// Wall-clock duration for span-like events (0 = instant).
    pub dur_ns: u64,
    /// Job/request identity: the first 8 bytes of the subject Handle
    /// (0 when there is no subject).
    pub id: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific small operand (slot, shard, or tenant index).
    pub a: u32,
    /// Kind-specific small operand (queue depth, latency µs, a flag…).
    pub b: u32,
}

/// One thread's buffer: the owner pushes under its own (uncontended)
/// mutex; only `drain` ever contends.
struct ThreadBuffer {
    tid: u64,
    events: Mutex<Vec<TraceEvent>>,
    /// Deterministic (serve-layer) events dropped at capacity — a
    /// nonzero value means summary determinism is lost, and the summary
    /// table says so.
    dropped_det: AtomicU64,
    /// Diagnostic events dropped at capacity.
    dropped_diag: AtomicU64,
}

/// The process-wide recorder: owns every thread's buffer and the wall
/// epoch. Obtain it with [`recorder`].
pub struct Recorder {
    epoch: Instant,
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
    next_tid: AtomicU64,
}

thread_local! {
    /// This thread's registered buffer (`None` until first record).
    static LOCAL: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder.
pub fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        buffers: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(0),
    })
}

impl Recorder {
    /// Wall-clock nanoseconds since this recorder's epoch.
    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn with_local<R>(&self, f: impl FnOnce(&ThreadBuffer) -> R) -> R {
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            let buf = slot.get_or_insert_with(|| {
                let buf = Arc::new(ThreadBuffer {
                    tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                    events: Mutex::new(Vec::new()),
                    dropped_det: AtomicU64::new(0),
                    dropped_diag: AtomicU64::new(0),
                });
                self.buffers.lock().push(buf.clone());
                buf
            });
            f(buf)
        })
    }

    /// Appends `ev` to the calling thread's buffer (dropping and
    /// counting if the per-thread ring is full). Callers normally go
    /// through [`emit`]/[`emit_span`], which check the toggle first.
    pub fn record(&self, ev: TraceEvent) {
        self.with_local(|buf| {
            let mut events = buf.events.lock();
            if events.len() < PER_THREAD_CAP {
                events.push(ev);
            } else if ev.kind.deterministic() {
                buf.dropped_det.fetch_add(1, Ordering::Relaxed);
            } else {
                buf.dropped_diag.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Takes every buffered event out of every thread's buffer,
    /// returning them grouped by recording thread (sorted by thread id,
    /// so the grouping itself is stable). Buffers of threads that have
    /// exited are removed once drained.
    pub fn drain(&self) -> Trace {
        let mut buffers = self.buffers.lock();
        let mut threads = Vec::new();
        let mut dropped_det = 0;
        let mut dropped_diag = 0;
        buffers.retain(|buf| {
            let events = std::mem::take(&mut *buf.events.lock());
            dropped_det += buf.dropped_det.swap(0, Ordering::Relaxed);
            dropped_diag += buf.dropped_diag.swap(0, Ordering::Relaxed);
            if !events.is_empty() {
                threads.push(ThreadTrace {
                    tid: buf.tid,
                    events,
                });
            }
            // Keep buffers whose thread is still alive (TLS holds an Arc).
            Arc::strong_count(buf) > 1
        });
        threads.sort_by_key(|t| t.tid);
        Trace {
            threads,
            dropped_deterministic: dropped_det,
            dropped_diagnostic: dropped_diag,
        }
    }

    /// Discards every buffered event and drop counter.
    pub fn clear(&self) {
        let _ = self.drain();
    }
}

/// Events recorded by one thread, in recording order.
pub struct ThreadTrace {
    /// Recorder-assigned thread id (stable for the thread's lifetime).
    pub tid: u64,
    /// The thread's events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Everything drained from the recorder: per-thread event sequences
/// plus drop accounting.
pub struct Trace {
    /// Per-thread event sequences, sorted by thread id.
    pub threads: Vec<ThreadTrace>,
    /// Deterministic (serve-layer) events lost to buffer capacity.
    pub dropped_deterministic: u64,
    /// Diagnostic events lost to buffer capacity.
    pub dropped_diagnostic: u64,
}

impl Trace {
    /// Total number of captured events.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Whether no events were captured.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Iterates over every event (thread-major order).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.threads.iter().flat_map(|t| t.events.iter())
    }

    /// The deterministic per-layer summary of this trace.
    pub fn summary(&self) -> crate::TraceSummary {
        crate::TraceSummary::of(self)
    }

    /// Renders this trace as Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(self)
    }
}

/// Records an instant event if tracing is enabled. The disabled path is
/// one relaxed atomic load.
#[inline]
pub fn emit(kind: EventKind, virt_us: u64, id: u64, a: u32, b: u32) {
    if !tracing_enabled() {
        return;
    }
    let r = recorder();
    let wall_ns = r.wall_ns();
    r.record(TraceEvent {
        virt_us,
        wall_ns,
        dur_ns: 0,
        id,
        kind,
        a,
        b,
    });
}

/// Records a span event (wall duration `dur_ns`, ending now) if tracing
/// is enabled. The disabled path is one relaxed atomic load.
#[inline]
pub fn emit_span(kind: EventKind, virt_us: u64, id: u64, a: u32, b: u32, dur_ns: u64) {
    if !tracing_enabled() {
        return;
    }
    let r = recorder();
    let wall_ns = r.wall_ns().saturating_sub(dur_ns);
    r.record(TraceEvent {
        virt_us,
        wall_ns,
        dur_ns,
        id,
        kind,
        a,
        b,
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use parking_lot::Mutex as TestMutex;

    /// Serialises every test that touches the global recorder/toggle
    /// (also used by the other modules' tests).
    pub(crate) static GLOBAL_TRACE_LOCK: TestMutex<()> = TestMutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = GLOBAL_TRACE_LOCK.lock();
        recorder().clear();
        set_tracing(false);
        emit(EventKind::ServeAdmit, 1, 2, 3, 4);
        assert!(recorder().drain().is_empty());
    }

    #[test]
    fn enabled_captures_and_drain_empties() {
        let _g = GLOBAL_TRACE_LOCK.lock();
        recorder().clear();
        set_tracing(true);
        emit(EventKind::ServeAdmit, 10, 42, 0, 1);
        emit_span(EventKind::DurFsync, 0, 0, 0, 0, 1_000);
        set_tracing(false);
        let t = recorder().drain();
        assert_eq!(t.len(), 2);
        let kinds: Vec<_> = t.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::ServeAdmit));
        assert!(kinds.contains(&EventKind::DurFsync));
        assert!(recorder().drain().is_empty());
    }

    #[test]
    fn threads_get_distinct_buffers() {
        let _g = GLOBAL_TRACE_LOCK.lock();
        recorder().clear();
        set_tracing(true);
        std::thread::scope(|s| {
            for i in 0..4u32 {
                s.spawn(move || emit(EventKind::SchedSubmit, 0, i as u64, i, 0));
            }
        });
        set_tracing(false);
        let t = recorder().drain();
        assert_eq!(t.len(), 4);
        assert_eq!(t.threads.len(), 4, "one buffer per recording thread");
        // Exited threads' buffers were pruned after the drain.
        let t2 = recorder().drain();
        assert!(t2.is_empty());
    }

    #[test]
    fn kind_names_and_layers_are_consistent() {
        for &k in EventKind::all() {
            assert!(k.name().starts_with(k.layer().name()), "{:?}", k);
            assert_eq!(
                k.deterministic(),
                matches!(k.layer(), Layer::Serve | Layer::Dispatch | Layer::Control)
            );
        }
        // `all()` really is all: names are unique.
        let mut names: Vec<_> = EventKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::all().len());
    }
}
