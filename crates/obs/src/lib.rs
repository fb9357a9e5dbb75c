//! # cq-obs
//!
//! Runtime observability for the contrastive-quant stack: scoped span
//! timers, monotonic counters, value histograms, step-level metrics and a
//! pluggable event [`Sink`] (no-op by default, in-memory for tests, JSONL
//! file writer for runs — see [`sink`]).
//!
//! ## Design
//!
//! All hooks are gated on one global [`AtomicBool`]: while no sink is
//! installed every hook ([`span`], [`Counter::add`], [`histogram`],
//! [`metric`], [`warn_with`]) is a **branch-on-atomic-load no-op** — no
//! allocation, no lock, no time read — so instrumented hot paths cost one
//! relaxed load when observability is off. This is the invariant the
//! overhead-guard tests pin down.
//!
//! While a sink *is* installed:
//!
//! - [`span`] emits [`Event::SpanStart`]/[`Event::SpanEnd`] with a
//!   per-thread nesting depth and a monotonic duration.
//! - [`Counter`]s accumulate into static atomics (readable any time via
//!   [`counter_totals`]); totals are emitted as [`Event::Counter`] records
//!   on [`flush`] rather than per increment, keeping the event stream
//!   proportional to flushes, not kernel calls.
//! - [`histogram`] and [`metric`] stream one event per observation.
//! - every event also feeds an internal aggregate from which
//!   [`summary_report`] builds the per-phase time breakdown and histogram
//!   tables printed by the bench binaries.
//!
//! Names are `&'static str` by construction so the enabled path allocates
//! only inside sinks that need it (e.g. JSONL formatting).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(cq_obs::sink::MemorySink::new());
//! cq_obs::install(sink.clone());
//! {
//!     let _outer = cq_obs::span("step");
//!     let _inner = cq_obs::span("forward");
//! }
//! cq_obs::metric("loss", 0, 4.5);
//! cq_obs::uninstall();
//! let events = sink.take();
//! assert_eq!(events.len(), 5); // 2 starts, 2 ends, 1 metric
//! ```

#![deny(missing_docs)]

pub mod alloc;
pub mod health;
pub mod json;
pub mod names;
pub mod prof;
pub mod sink;
pub mod summary;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub use summary::{summary_report, Report};

/// One observability event, as delivered to the installed [`Sink`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A scoped timer opened (`depth` is the per-thread nesting level).
    SpanStart {
        /// Static span name (e.g. `"train.step"`, a layer kind).
        name: &'static str,
        /// Nesting depth on the emitting thread (0 = top level).
        depth: u16,
    },
    /// A scoped timer closed.
    SpanEnd {
        /// Static span name, matching the corresponding start.
        name: &'static str,
        /// Nesting depth on the emitting thread (0 = top level).
        depth: u16,
        /// Monotonic elapsed time of the scope, in nanoseconds.
        nanos: u64,
    },
    /// A counter total, emitted by [`flush`] (not per increment).
    Counter {
        /// Static counter name (e.g. `"tensor.matmul.flops"`).
        name: &'static str,
        /// Total accumulated since the counter was last [`reset`].
        total: u64,
    },
    /// One histogram observation (e.g. a sampled bit-width).
    Histogram {
        /// Static histogram name (e.g. `"quant.bits"`).
        name: &'static str,
        /// Observed value.
        value: f64,
    },
    /// One step-attributed scalar metric (loss, grad norm, LR, ...).
    Metric {
        /// Static metric name (e.g. `"train.loss"`).
        name: &'static str,
        /// Training step the value belongs to.
        step: u64,
        /// The value.
        value: f64,
    },
    /// A rare diagnostic warning (e.g. rejected `CQ_THREADS` value).
    Warning {
        /// Human-readable message.
        message: String,
    },
    /// One profiling timeline interval on one thread (opt-in; emitted
    /// only while [`prof`] is enabled, so default traces never carry
    /// these — see the gating contract in the [`prof`] module docs).
    Timeline {
        /// Interval name (a span name, `"pool.busy"`, `"pool.park"`).
        name: &'static str,
        /// Lane category (`"span"` or `"pool"`).
        cat: &'static str,
        /// Dense process-local id of the thread the interval ran on.
        tid: u64,
        /// Start, nanoseconds since the process profiling epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A non-Ok verdict from the online health monitor (see [`health`]).
    Health {
        /// Detector that fired (`nan_sentinel`, `grad_anomaly`, ...).
        detector: &'static str,
        /// Severity of the verdict.
        verdict: health::Verdict,
        /// Step of the metric observation that triggered it.
        step: u64,
        /// The offending value.
        value: f64,
        /// Human-readable explanation.
        message: String,
    },
}

/// Receiver of [`Event`]s. Implementations must be cheap enough to sit on
/// instrumented paths and safe to call from multiple threads.
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn event(&self, ev: &Event);
    /// Flushes any buffered output (called by [`flush`]).
    fn flush(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);

thread_local! {
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A sink that panicked mid-event must not wedge observability for the
    // rest of the process; the data it protects stays consistent.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a sink is currently installed. This is the one load every
/// disabled hook pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the global event receiver and enables all hooks.
/// Replaces any previously installed sink.
pub fn install(sink: Arc<dyn Sink>) {
    *lock(&SINK) = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables all hooks and removes the installed sink, returning it so
/// callers can drain or flush it.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    ENABLED.store(false, Ordering::SeqCst);
    lock(&SINK).take()
}

/// Delivers an event to the installed sink (if any) and to the summary
/// aggregate. Instrumentation sites normally use the typed helpers
/// ([`span`], [`histogram`], [`metric`], [`warn_with`]) instead.
pub fn emit(ev: Event) {
    if !enabled() {
        return;
    }
    summary::aggregate(&ev);
    let sink = lock(&SINK).clone();
    if let Some(s) = sink {
        s.event(&ev);
    }
}

/// RAII scope timer returned by [`span`]. When observability is disabled
/// the guard is inert (no time read, no event).
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(&'static str, u16, Instant)>,
    /// Epoch-relative start, captured only while [`prof`] is enabled, so
    /// the closed scope can double as a timeline interval.
    prof_start_ns: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, depth, start)) = self.inner.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            if let Some(start_ns) = self.prof_start_ns.take() {
                // Reuse the already-measured duration: the timeline
                // interval matches the SpanEnd record exactly and costs
                // no extra clock read.
                prof::record(name, prof::CAT_SPAN, start_ns, start_ns + nanos);
            }
            emit(Event::SpanEnd { name, depth, nanos });
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
    }
}

/// Opens a scoped, nestable span timer; the scope closes (and its duration
/// is recorded) when the returned guard drops. A no-op when disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            inner: None,
            prof_start_ns: None,
        };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v.saturating_add(1));
        v
    });
    emit(Event::SpanStart { name, depth });
    // One clock read for both records: a second read could land after a
    // deschedule and end this interval before a child's.
    let start = Instant::now();
    SpanGuard {
        inner: Some((name, depth, start)),
        prof_start_ns: prof::enabled().then(|| prof::ns_since_epoch(start)),
    }
}

/// A named monotonic counter. Declare one `static` per instrumentation
/// site; [`Counter::add`] is wait-free after the first enabled increment
/// (which registers the counter in the global table).
///
/// # Example
///
/// ```
/// static FLOPS: cq_obs::Counter = cq_obs::Counter::new("example.flops");
/// FLOPS.add(128); // no-op: nothing installed in this doctest
/// ```
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

static REGISTRY: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

impl Counter {
    /// Creates a counter (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `delta` when observability is enabled; a branch-on-atomic-load
    /// no-op otherwise.
    #[inline]
    pub fn add(&'static self, delta: u64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&REGISTRY).push(self);
        }
    }

    /// Current accumulated total.
    pub fn total(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Snapshot of every counter that has ever incremented while enabled,
/// sorted by name for deterministic output.
pub fn counter_totals() -> Vec<(&'static str, u64)> {
    let mut v: Vec<(&'static str, u64)> = lock(&REGISTRY)
        .iter()
        .map(|c| (c.name, c.total()))
        .collect();
    v.sort_unstable_by_key(|&(n, _)| n);
    v
}

/// Records one histogram observation. A no-op when disabled.
#[inline]
pub fn histogram(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    emit(Event::Histogram { name, value });
}

/// Records one step-attributed metric value and feeds it to the health
/// monitor (see [`health`]). With no sink and health off, this is a
/// branch-on-two-atomic-loads no-op.
#[inline]
pub fn metric(name: &'static str, step: u64, value: f64) {
    if enabled() {
        emit(Event::Metric { name, step, value });
    }
    if health::enabled() {
        health::observe_metric(name, step, value);
    }
}

/// Emits a diagnostic warning event. Library crates route rare diagnostics
/// through this instead of `println!` (enforced by the cq-check lint). A
/// no-op when disabled; the message closure keeps the disabled path
/// allocation-free.
#[inline]
pub fn warn_with<F: FnOnce() -> String>(message: F) {
    if !enabled() {
        return;
    }
    emit(Event::Warning { message: message() });
}

/// Emits all counter totals as [`Event::Counter`] records and flushes the
/// sink. Call at natural boundaries (end of a run, end of a phase).
pub fn flush() {
    if !enabled() {
        return;
    }
    prof::drain_thread();
    for (name, total) in counter_totals() {
        emit(Event::Counter { name, total });
    }
    let sink = lock(&SINK).clone();
    if let Some(s) = sink {
        s.flush();
    }
}

/// Resets every counter and the summary aggregate (events already
/// delivered to sinks are unaffected). Tests use this for isolation.
pub fn reset() {
    for c in lock(&REGISTRY).iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    summary::reset_aggregate();
}

#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    // Serialises tests that install/uninstall the global sink.
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = test_lock();
        assert!(!enabled());
        static C: Counter = Counter::new("test.inert");
        C.add(5);
        assert_eq!(C.total(), 0);
        let _sp = span("never");
        drop(_sp);
        histogram("never", 1.0);
        metric("never", 0, 1.0);
        warn_with(|| panic!("message closure must not run when disabled"));
        flush();
    }

    #[test]
    fn span_nesting_depths_and_durations() {
        let _g = test_lock();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        {
            let _a = span("outer");
            let _b = span("inner");
        }
        uninstall();
        reset();
        let ev = sink.take();
        assert_eq!(
            ev[0],
            Event::SpanStart {
                name: "outer",
                depth: 0
            }
        );
        assert_eq!(
            ev[1],
            Event::SpanStart {
                name: "inner",
                depth: 1
            }
        );
        match (&ev[2], &ev[3]) {
            (
                Event::SpanEnd {
                    name: "inner",
                    depth: 1,
                    ..
                },
                Event::SpanEnd {
                    name: "outer",
                    depth: 0,
                    nanos,
                },
            ) => assert!(*nanos > 0),
            other => panic!("bad end order: {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate_and_flush_emits_totals() {
        let _g = test_lock();
        static C: Counter = Counter::new("test.flops");
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        reset();
        C.add(3);
        C.add(4);
        assert_eq!(C.total(), 7);
        assert!(counter_totals().contains(&("test.flops", 7)));
        flush();
        let ev = sink.take();
        assert!(ev.contains(&Event::Counter {
            name: "test.flops",
            total: 7
        }));
        uninstall();
        reset();
    }

    #[test]
    fn warn_and_metric_events_flow_to_sink() {
        let _g = test_lock();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        warn_with(|| "CQ_THREADS=0 rejected".to_string());
        metric("train.loss", 3, 1.25);
        histogram("quant.bits", 8.0);
        uninstall();
        reset();
        let ev = sink.take();
        assert_eq!(ev.len(), 3);
        assert!(matches!(&ev[0], Event::Warning { message } if message.contains("CQ_THREADS")));
        assert_eq!(
            ev[1],
            Event::Metric {
                name: "train.loss",
                step: 3,
                value: 1.25
            }
        );
        assert_eq!(
            ev[2],
            Event::Histogram {
                name: "quant.bits",
                value: 8.0
            }
        );
    }

    #[test]
    fn install_replaces_and_uninstall_returns_sink() {
        let _g = test_lock();
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        install(a.clone());
        install(b.clone());
        metric("m", 0, 1.0);
        let got = uninstall().expect("a sink was installed");
        reset();
        assert!(a.take().is_empty(), "replaced sink must see nothing");
        assert_eq!(b.take().len(), 1);
        drop(got);
        assert!(uninstall().is_none());
    }
}
