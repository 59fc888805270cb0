//! Benchmark-side spans: the traced pass wraps each call into a layer
//! in a span recorded from *these* files (in-program tracing is a later
//! change), keeps the records in memory, and summarises them per epoch.
//!
//! One client thread drives every workload in a closed loop, so "the
//! innermost span the client has open" is a single global: a span
//! opened on the client nests under it, and a span opened inside a
//! benchmark-owned native procedure — which may run on a pool worker —
//! is a leaf whose parent is whatever the client is blocked in.
//! Client spans land in a thread-local buffer (three or four per
//! operation: a lock each would show up as residual), leaves in a shared
//! one. When spans are off a site costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Root span of one client-visible operation; its self time is the
/// budget table's residual.
pub const OP: &str = "op";

const NO_PARENT: u32 = 0;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static CLIENT_TOP: AtomicU32 = AtomicU32::new(NO_PARENT);
static CURRENT_REQ: AtomicU32 = AtomicU32::new(0);
static LEAVES: Mutex<Vec<Record>> = Mutex::new(Vec::new());

thread_local! {
    static NESTED: RefCell<Vec<Record>> = const { RefCell::new(Vec::new()) };
}

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// One finished span: name, start, end, the span that caused it, and the
/// request it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    /// The operation the span belongs to; summaries aggregate over
    /// requests, so only a debugger or a future dump reads it.
    #[allow(dead_code)]
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Turns recording on or off (off between traced epochs and for the
/// whole timed pass).
pub fn set_on(on: bool) {
    base();
    ON.store(on, Relaxed);
}

/// An open span; records itself when dropped.
pub struct Span {
    name: &'static str,
    id: u32,
    parent: u32,
    nests: bool,
    start_ns: u64,
    /// Set by [`Span::close_at`]: the end was already read off the clock.
    end_ns: Option<u64>,
}

fn since_base(t: Instant) -> u64 {
    t.duration_since(base()).as_nanos() as u64
}

fn open(name: &'static str, nests: bool, start: Option<Instant>) -> Option<Span> {
    if !ON.load(Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    // Only the client thread writes CLIENT_TOP, so load-then-store is
    // as good as a swap and cheaper.
    let parent = CLIENT_TOP.load(Relaxed);
    if nests {
        CLIENT_TOP.store(id, Relaxed);
    }
    Some(Span {
        name,
        id,
        parent,
        nests,
        start_ns: since_base(start.unwrap_or_else(Instant::now)),
        end_ns: None,
    })
}

/// Opens the root span of operation `req` on the client thread. The
/// caller times the operation anyway and passes its start (and, through
/// [`Span::close_at`], its end): the clock is the dearest thing a span
/// does, and two fewer reads per operation is residual not spent.
pub fn op(req: u64, start: Instant) -> Option<Span> {
    if ON.load(Relaxed) {
        CURRENT_REQ.store(req as u32, Relaxed);
    }
    open(OP, true, Some(start))
}

/// Opens a span on the client thread, nested under the one it has open.
pub fn enter(name: &'static str) -> Option<Span> {
    open(name, true, None)
}

/// Closes `prev` and opens its sibling `name` on one clock reading, for
/// the back-to-back stages of an operation.
pub fn then(prev: Option<Span>, name: &'static str) -> Option<Span> {
    // `None` means spans are off: return before touching the clock.
    let prev = prev?;
    let now = Instant::now();
    prev.close_at(now);
    open(name, true, Some(now))
}

/// Opens a leaf span from inside a native procedure, on whichever
/// thread runs it.
pub fn leaf(name: &'static str) -> Option<Span> {
    open(name, false, None)
}

impl Span {
    /// Closes the span at an instant the caller already read.
    pub fn close_at(mut self, end: Instant) {
        self.end_ns = Some(since_base(end));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_ns = self.end_ns.unwrap_or_else(|| since_base(Instant::now()));
        if self.nests {
            CLIENT_TOP.store(self.parent, Relaxed);
        }
        let record = Record {
            name: self.name,
            id: self.id,
            parent: self.parent,
            req: CURRENT_REQ.load(Relaxed),
            start_ns: self.start_ns,
            end_ns,
        };
        if self.nests {
            NESTED.with_borrow_mut(|v| v.push(record));
        } else {
            // A poisoned lock only means another leaf's thread panicked
            // mid-push; the vector is still a valid vector.
            LEAVES
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(record);
        }
    }
}

/// Takes every span recorded so far; call it on the client thread.
pub fn drain() -> Vec<Record> {
    let mut records = NESTED.with_borrow_mut(std::mem::take);
    records.append(&mut LEAVES.lock().unwrap_or_else(|p| p.into_inner()));
    records
}

/// Per-name totals over a set of records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    /// Σ (end − start).
    pub dur_ns: u64,
    /// Σ (duration − the part covered by child spans), floored at zero
    /// per span: children on two threads can cover more than their
    /// parent's interval.
    pub self_ns: u64,
}

/// Totals by span name. A span's self time is its duration minus its
/// children's durations.
pub fn summarise(records: &[Record]) -> BTreeMap<&'static str, Total> {
    // Ids are handed out densely, so a vector indexed from the lowest
    // id replaces a map (a traced epoch holds millions of records).
    let lo = records.iter().map(|r| r.id).min().unwrap_or(0);
    let hi = records.iter().map(|r| r.id).max().unwrap_or(0);
    let mut child_ns = vec![0u64; (hi - lo) as usize + 1];
    for r in records {
        if (lo..=hi).contains(&r.parent) {
            child_ns[(r.parent - lo) as usize] += r.end_ns - r.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
    for r in records {
        let dur = r.end_ns - r.start_ns;
        let t = totals.entry(r.name).or_default();
        t.count += 1;
        t.dur_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[(r.id - lo) as usize]);
    }
    totals
}

/// Adds `more` into `into`, name by name.
pub fn merge(into: &mut BTreeMap<&'static str, Total>, more: &BTreeMap<&'static str, Total>) {
    for (name, t) in more {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.dur_ns += t.dur_ns;
        e.self_ns += t.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Record {
        Record {
            name,
            id,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let records = [
            rec(OP, 1, NO_PARENT, 0, 100),
            rec("core.mint", 2, 1, 5, 25),
            rec("runtime.eval", 3, 1, 25, 90),
            rec("workloads.proc", 4, 3, 40, 70),
        ];
        let t = summarise(&records);
        assert_eq!(t[OP].self_ns, 100 - 20 - 65);
        assert_eq!(t["core.mint"].self_ns, 20);
        assert_eq!(t["runtime.eval"].self_ns, 35);
        assert_eq!(t["workloads.proc"].self_ns, 30);
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn parallel_children_cannot_drive_self_time_negative() {
        let records = [
            rec("runtime.wait", 1, NO_PARENT, 0, 50),
            rec("workloads.proc", 2, 1, 0, 40),
            rec("workloads.proc", 3, 1, 5, 45),
        ];
        let t = summarise(&records);
        assert_eq!(t["runtime.wait"].self_ns, 0);
        assert_eq!(t["workloads.proc"].count, 2);
    }

    #[test]
    fn recording_nests_on_the_client_and_hangs_leaves_under_it() {
        // The only test that touches the global recorder.
        set_on(true);
        {
            let _op = op(7, Instant::now());
            let mint = enter("core.mint");
            let _eval = then(mint, "runtime.eval");
            std::thread::scope(|s| {
                s.spawn(|| drop(leaf("workloads.proc")));
            });
        }
        set_on(false);
        assert!(enter("runtime.eval").is_none(), "off means no span");
        assert!(then(None, "runtime.eval").is_none(), "off stays off");
        let records = drain();
        assert_eq!(records.len(), 4);
        let by = |n: &str| *records.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by("core.mint").parent, by(OP).id);
        assert_eq!(by("core.mint").end_ns, by("runtime.eval").start_ns);
        assert_eq!(by(OP).parent, NO_PARENT);
        assert_eq!(by("runtime.eval").parent, by(OP).id);
        assert_eq!(by("workloads.proc").parent, by("runtime.eval").id);
        assert!(records.iter().all(|r| r.req == 7 && r.end_ns >= r.start_ns));
        assert!(drain().is_empty());
    }
}
