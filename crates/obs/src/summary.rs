//! Deterministic trace summaries.
//!
//! A [`TraceSummary`] aggregates only the *deterministic* event kinds
//! (see [`EventKind::deterministic`]): serve-layer lifecycle records
//! whose timestamps come from the virtual clock. Aggregation is
//! order-insensitive (counts, min/max timestamps, histogram merges), so
//! the rendered tables are byte-identical across runs, worker counts,
//! and submitting backends for the same seed — the property
//! `figures trace` asserts and its golden file pins.

use crate::hist::LogHistogram;
use crate::recorder::{EventKind, Trace};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate row for one event kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct KindRow {
    count: u64,
    first_us: u64,
    last_us: u64,
}

/// Aggregate lifecycle row for one tenant (by tenant index).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TenantRow {
    admitted: u64,
    shed: u64,
    dispatched: u64,
    expired: u64,
    completed: u64,
    max_depth: u32,
}

/// The deterministic per-layer summary of a [`Trace`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    kinds: BTreeMap<EventKind, KindRow>,
    tenants: BTreeMap<u32, TenantRow>,
    /// Queue-wait samples carried by dispatch events (µs).
    wait: LogHistogram,
    /// End-to-end latency samples carried by completion events (µs).
    latency: LogHistogram,
    dropped: u64,
}

impl TraceSummary {
    /// Builds the summary of `trace`, ignoring every non-deterministic
    /// (wall-clock) event kind.
    pub fn of(trace: &Trace) -> TraceSummary {
        let mut s = TraceSummary {
            dropped: trace.dropped_deterministic,
            ..TraceSummary::default()
        };
        for ev in trace.iter().filter(|e| e.kind.deterministic()) {
            let row = s.kinds.entry(ev.kind).or_default();
            if row.count == 0 {
                row.first_us = ev.virt_us;
                row.last_us = ev.virt_us;
            } else {
                row.first_us = row.first_us.min(ev.virt_us);
                row.last_us = row.last_us.max(ev.virt_us);
            }
            row.count += 1;
            // Per-tenant lifecycle rows aggregate serve-layer kinds only:
            // dispatcher-tier events carry a *node* index in `a`, which
            // must not mint phantom tenant rows.
            match ev.kind {
                EventKind::ServeAdmit => s.tenants.entry(ev.a).or_default().admitted += 1,
                EventKind::ServeShed => s.tenants.entry(ev.a).or_default().shed += 1,
                EventKind::ServeDispatch => {
                    s.tenants.entry(ev.a).or_default().dispatched += 1;
                    s.wait.record(ev.b as u64);
                }
                EventKind::ServeExpire => s.tenants.entry(ev.a).or_default().expired += 1,
                EventKind::ServeComplete => {
                    s.tenants.entry(ev.a).or_default().completed += 1;
                    s.latency.record(ev.b as u64);
                }
                EventKind::ServeQueueDepth => {
                    let tenant = s.tenants.entry(ev.a).or_default();
                    tenant.max_depth = tenant.max_depth.max(ev.b);
                }
                _ => {}
            }
        }
        s
    }

    /// Total deterministic events aggregated.
    pub fn event_count(&self) -> u64 {
        self.kinds.values().map(|r| r.count).sum()
    }

    /// Deterministic events lost to recorder capacity. A nonzero value
    /// means the summary is no longer comparable across runs (and the
    /// rendered table says so).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace summary (virtual clock, deterministic)")?;
        if self.kinds.is_empty() {
            writeln!(f, "  no deterministic events captured")?;
            return Ok(());
        }
        writeln!(
            f,
            "  {:<20} {:>10} {:>12} {:>12}",
            "event", "count", "first(µs)", "last(µs)"
        )?;
        for (kind, row) in &self.kinds {
            writeln!(
                f,
                "  {:<20} {:>10} {:>12} {:>12}",
                kind.name(),
                row.count,
                row.first_us,
                row.last_us
            )?;
        }
        writeln!(
            f,
            "  {:<8} {:>9} {:>7} {:>11} {:>8} {:>10} {:>10}",
            "tenant", "admitted", "shed", "dispatched", "expired", "completed", "max_depth"
        )?;
        for (idx, t) in &self.tenants {
            writeln!(
                f,
                "  t{idx:<7} {:>9} {:>7} {:>11} {:>8} {:>10} {:>10}",
                t.admitted, t.shed, t.dispatched, t.expired, t.completed, t.max_depth
            )?;
        }
        writeln!(
            f,
            "  queue-wait µs  p50 {:>8}  p99 {:>8}  max {:>8}",
            self.wait.quantile(0.50),
            self.wait.quantile(0.99),
            self.wait.max()
        )?;
        writeln!(
            f,
            "  latency µs     p50 {:>8}  p99 {:>8}  max {:>8}",
            self.latency.quantile(0.50),
            self.latency.quantile(0.99),
            self.latency.max()
        )?;
        writeln!(f, "  dropped deterministic events: {}", self.dropped)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{emit, recorder, set_tracing, tests::GLOBAL_TRACE_LOCK};

    fn emit_stream(perm: &[usize]) {
        // One fixed event stream, emitted in the given order; the
        // summary must not care about ordering.
        let evs = [
            (EventKind::ServeAdmit, 10u64, 1u64, 0u32, 1u32),
            (EventKind::ServeAdmit, 20, 2, 0, 2),
            (EventKind::ServeDispatch, 30, 1, 0, 20),
            (EventKind::ServeQueueDepth, 30, 0, 0, 1),
            (EventKind::ServeComplete, 90, 1, 0, 80),
            (EventKind::ServeShed, 40, 3, 1, 4),
            // A diagnostic event that must not appear in the summary.
            (EventKind::SchedSteal, 0, 9, 2, 0),
        ];
        for &i in perm {
            let (k, virt, id, a, b) = evs[i];
            emit(k, virt, id, a, b);
        }
    }

    #[test]
    fn summary_is_order_insensitive_and_filters_diagnostics() {
        let _g = GLOBAL_TRACE_LOCK.lock();
        recorder().clear();
        set_tracing(true);
        emit_stream(&[0, 1, 2, 3, 4, 5, 6]);
        set_tracing(false);
        let a = recorder().drain().summary();

        set_tracing(true);
        emit_stream(&[6, 5, 4, 3, 2, 1, 0]);
        set_tracing(false);
        let b = recorder().drain().summary();

        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.event_count(), 6, "steal event excluded");
        let s = a.to_string();
        assert!(s.contains("serve.admit"));
        assert!(!s.contains("scheduler.steal"));
        assert!(s.contains("dropped deterministic events: 0"));
    }

    #[test]
    fn empty_summary_renders() {
        let t = Trace {
            threads: Vec::new(),
            dropped_deterministic: 0,
            dropped_diagnostic: 0,
        };
        assert!(t.summary().to_string().contains("no deterministic"));
    }
}
