//! cq-prof: opt-in per-thread timeline profiling on top of cq-obs.
//!
//! A timeline event is a closed interval on one thread — a span scope, a
//! worker's busy stretch inside a pool job, or the park wait between two
//! jobs — carrying a dense process-local thread id and monotonic
//! nanosecond timestamps relative to a per-process epoch. Events are
//! staged in per-thread buffers (the hot path is a thread-local
//! `Vec::push` — no lock, no syscall, no allocation once the buffer is
//! warm) and drained through the installed [`Sink`](crate::Sink) in
//! batches: at job boundaries on pool workers, at buffer-high-water, and
//! on [`flush`](crate::flush) for the calling thread.
//!
//! ## Gating and determinism
//!
//! Profiling is a second gate ON TOP of the sink gate:
//!
//! - `CQ_OBS` unset → every hook (including these) stays a
//!   branch-on-atomic-load no-op; no clock is read.
//! - sink installed, profiling off (the default) → the event stream is
//!   byte-identical to an unprofiled run, so golden traces, the
//!   `cq-trace diff` gates and the exact-event tests never see timeline
//!   records by accident.
//! - sink installed + `CQ_PROF=1` → timeline records flow as *extra*
//!   events. Profiling reads clocks and thread ids, never RNG state,
//!   chunk order or accumulation order, so losses and sampled bit
//!   sequences stay bitwise identical with profiling on or off (pinned
//!   by `tests/timeline_profile.rs`).
//!
//! Thread ids are assigned in first-use order and are only stable within
//! one process; they exist to separate lanes in a timeline view
//! (`cq-trace timeline`), not to name threads across runs.

use crate::{emit, Event};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Timeline category for span scopes (mirrors the span event stream).
pub const CAT_SPAN: &str = "span";

/// Timeline category for worker-pool intervals (busy/park lanes).
pub const CAT_POOL: &str = "pool";

/// Timeline name for a worker's busy stretch inside one pool job.
pub const POOL_BUSY: &str = "pool.busy";

/// Timeline name for a worker's park wait between two pool jobs.
pub const POOL_PARK: &str = "pool.park";

static PROF: AtomicBool = AtomicBool::new(false);

/// Bumped on every enable so buffers staged during a previous profiling
/// session can never drain into a sink installed later (test isolation:
/// pool workers outlive any single profiled scope).
static GENERATION: AtomicU64 = AtomicU64::new(0);

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Buffer high-water mark that forces a drain from `record` — bounds
/// per-thread memory while keeping drains rare relative to events.
const DRAIN_AT: usize = 256;

#[derive(Debug)]
struct Interval {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct ThreadBuf {
    generation: u64,
    events: Vec<Interval>,
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static BUF: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf { generation: 0, events: Vec::new() })
    };
}

/// Whether timeline profiling is active: a sink is installed AND the
/// profiling gate is on. This is the check every profiling hook pays.
#[inline]
pub fn enabled() -> bool {
    crate::enabled() && PROF.load(Ordering::Relaxed)
}

/// Turns the profiling gate on or off. Normally driven by `CQ_PROF`
/// through [`sink::init_from_env`](crate::sink::init_from_env); tests
/// toggle it directly (under the same serialisation they already use for
/// [`install`](crate::install)).
pub fn set_enabled(on: bool) {
    if on {
        GENERATION.fetch_add(1, Ordering::Relaxed);
    }
    PROF.store(on, Ordering::SeqCst);
}

/// Dense process-local id of the calling thread, assigned on first use.
pub fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Monotonic nanoseconds since the process profiling epoch (the first
/// call). All timeline timestamps share this origin so intervals from
/// different threads are directly comparable.
pub fn now_ns() -> u64 {
    ns_since_epoch(Instant::now())
}

/// `t` in the epoch-relative nanoseconds of [`now_ns`] (0 for an instant
/// before the epoch), so a caller that already read the clock can stamp
/// an interval from that same read.
pub fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// Stages one closed interval `[start_ns, end_ns)` for the calling
/// thread. A no-op unless [`enabled`]. The interval reaches the sink on
/// the next drain of this thread's buffer.
pub fn record(name: &'static str, cat: &'static str, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let full = BUF.with(|b| {
        let mut b = b.borrow_mut();
        if b.generation != generation {
            b.events.clear();
            b.generation = generation;
        }
        b.events.push(Interval {
            name,
            cat,
            start_ns,
            end_ns,
        });
        b.events.len() >= DRAIN_AT
    });
    if full {
        drain_thread();
    }
}

/// Drains the calling thread's staged intervals through the installed
/// sink as [`Event::Timeline`] records. Pool workers call this after
/// each job; [`flush`](crate::flush) calls it for the flushing thread.
/// A no-op unless [`enabled`].
pub fn drain_thread() {
    if !enabled() {
        return;
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let staged = BUF.with(|b| {
        let mut b = b.borrow_mut();
        if b.generation != generation {
            b.events.clear();
            b.generation = generation;
            return Vec::new();
        }
        std::mem::take(&mut b.events)
    });
    if staged.is_empty() {
        return;
    }
    let tid = thread_id();
    for iv in staged {
        emit(Event::Timeline {
            name: iv.name,
            cat: iv.cat,
            tid,
            start_ns: iv.start_ns,
            dur_ns: iv.end_ns.saturating_sub(iv.start_ns),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    #[test]
    fn disabled_gate_stages_nothing() {
        let _g = crate::test_lock();
        assert!(!enabled());
        record("x", CAT_SPAN, 0, 10);
        drain_thread(); // must not panic or emit
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        // Sink on, profiling gate still off: stream stays timeline-free.
        record("x", CAT_SPAN, 0, 10);
        crate::flush();
        crate::uninstall();
        crate::reset();
        assert!(sink
            .take()
            .iter()
            .all(|e| !matches!(e, Event::Timeline { .. })));
    }

    #[test]
    fn record_and_drain_round_trip() {
        let _g = crate::test_lock();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        set_enabled(true);
        record("a", CAT_SPAN, 5, 15);
        record(POOL_BUSY, CAT_POOL, 20, 30);
        drain_thread();
        set_enabled(false);
        crate::uninstall();
        crate::reset();
        let tl: Vec<Event> = sink
            .take()
            .into_iter()
            .filter(|e| matches!(e, Event::Timeline { .. }))
            .collect();
        let tid = thread_id();
        assert_eq!(
            tl,
            vec![
                Event::Timeline {
                    name: "a",
                    cat: CAT_SPAN,
                    tid,
                    start_ns: 5,
                    dur_ns: 10
                },
                Event::Timeline {
                    name: POOL_BUSY,
                    cat: CAT_POOL,
                    tid,
                    start_ns: 20,
                    dur_ns: 10
                },
            ]
        );
    }

    #[test]
    fn stale_generation_buffers_are_discarded() {
        let _g = crate::test_lock();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        set_enabled(true);
        record("stale", CAT_SPAN, 0, 1);
        // Simulate a new profiling session before the buffer drained.
        set_enabled(false);
        set_enabled(true);
        drain_thread();
        set_enabled(false);
        crate::uninstall();
        crate::reset();
        assert!(
            sink.take()
                .iter()
                .all(|e| !matches!(e, Event::Timeline { .. })),
            "stale interval must not leak into the new session"
        );
    }

    #[test]
    fn spans_emit_timeline_intervals_when_profiled() {
        let _g = crate::test_lock();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        set_enabled(true);
        {
            let _a = crate::span("outer");
            let _b = crate::span("inner");
        }
        crate::flush();
        set_enabled(false);
        crate::uninstall();
        crate::reset();
        let events = sink.take();
        let tl: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::Timeline { .. }))
            .collect();
        assert_eq!(tl.len(), 2, "one interval per span scope: {events:?}");
        match (tl[0], tl[1]) {
            (
                Event::Timeline {
                    name: "inner",
                    cat: "span",
                    dur_ns: inner,
                    start_ns: s_inner,
                    ..
                },
                Event::Timeline {
                    name: "outer",
                    cat: "span",
                    dur_ns: outer,
                    start_ns: s_outer,
                    ..
                },
            ) => {
                assert!(s_outer <= s_inner, "outer opened first");
                assert!(
                    s_inner + inner <= s_outer + outer,
                    "inner nests inside outer"
                );
            }
            other => panic!("unexpected timeline records: {other:?}"),
        }
        // The regular span stream is still present and unchanged in shape.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SpanEnd { name: "outer", .. })));
    }
}
