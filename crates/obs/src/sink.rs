//! Event sinks: in-memory (tests), JSONL file writer (runs), and the
//! `CQ_OBS` environment-variable selector.
//!
//! The JSONL line format is [`crate::json::Record`]'s (schema in
//! [`crate::json`]).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::Record;
use crate::{Event, Sink};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Records events in memory, in arrival order. For tests, and as the
/// aggregation-only sink behind `CQ_OBS=mem`. Optionally bounded: when a
/// capacity is set, the oldest events are evicted first and the eviction
/// count is tracked, so long runs cannot grow memory without limit.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<VecDeque<Event>>,
    capacity: Option<usize>,
    evicted: AtomicU64,
    evicted_timeline: AtomicU64,
}

impl MemorySink {
    /// Creates an unbounded sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sink that retains at most `capacity` events, evicting
    /// oldest-first. A capacity of 0 retains nothing (every event is
    /// counted as evicted).
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            events: Mutex::new(VecDeque::new()),
            capacity: Some(capacity),
            evicted: AtomicU64::new(0),
            evicted_timeline: AtomicU64::new(0),
        }
    }

    /// Returns all retained events, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *lock(&self.events)).into()
    }

    /// Clones the retained events without draining them.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.events).iter().cloned().collect()
    }

    /// Number of events retained right now.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of non-timeline events evicted to respect the capacity
    /// bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Number of [`Event::Timeline`] records evicted to respect the
    /// capacity bound. Tracked separately: a profiled run emits orders of
    /// magnitude more timeline events than anything else, and this
    /// counter shows when the cap is trimming the timeline rather than
    /// the primary telemetry.
    pub fn evicted_timeline(&self) -> u64 {
        self.evicted_timeline.load(Ordering::Relaxed)
    }

    fn count_eviction(&self, ev: &Event) {
        let ctr = match ev {
            Event::Timeline { .. } => &self.evicted_timeline,
            _ => &self.evicted,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }
}

impl Sink for MemorySink {
    fn event(&self, ev: &Event) {
        let mut events = lock(&self.events);
        if let Some(cap) = self.capacity {
            if cap == 0 {
                self.count_eviction(ev);
                return;
            }
            while events.len() >= cap {
                if let Some(old) = events.pop_front() {
                    self.count_eviction(&old);
                }
            }
        }
        events.push_back(ev.clone());
    }
}

/// Counts events without storing them. Used by overhead-guard tests to
/// assert that instrumented paths emit nothing while uninstalled.
#[derive(Debug, Default)]
pub struct CountingSink {
    count: std::sync::atomic::AtomicU64,
}

impl CountingSink {
    /// Creates a sink with a zero count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events seen.
    pub fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Sink for CountingSink {
    fn event(&self, _ev: &Event) {
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Streams events as JSON Lines to a buffered file, one
/// [`Record::to_jsonl`] line per event (schema in [`crate::json`]).
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn event(&self, ev: &Event) {
        if let Some(rec) = Record::from_event(ev) {
            let _ = writeln!(lock(&self.writer), "{}", rec.to_jsonl());
        }
    }

    fn flush(&self) {
        let _ = lock(&self.writer).flush();
    }
}

/// Installs a sink according to the `CQ_OBS` environment variable and
/// returns a human-readable description of what was installed.
///
/// - unset or empty → no sink (all hooks stay no-ops), returns `None`
/// - `jsonl` → [`JsonlSink`] writing to `CQ_OBS_PATH` (default
///   `cq-obs.jsonl`)
/// - `mem` → [`MemorySink`] (aggregation only; useful to enable the
///   summary report without a trace file). `CQ_OBS_MEM_CAP=<n>` bounds it
///   to the most recent `n` events (unbounded when unset/unparsable).
/// - anything else → no sink, returns `None`
///
/// When a sink was installed and `CQ_PROF` is set to `1`, `on` or
/// `timeline`, per-thread timeline profiling (see [`crate::prof`]) is
/// enabled on top of it; without a sink `CQ_PROF` has no effect.
pub fn init_from_env() -> Option<String> {
    let mode = std::env::var("CQ_OBS").ok()?;
    let installed = match mode.as_str() {
        "jsonl" => {
            let path = std::env::var("CQ_OBS_PATH").unwrap_or_else(|_| "cq-obs.jsonl".to_string());
            match JsonlSink::create(&path) {
                Ok(sink) => {
                    crate::install(Arc::new(sink));
                    Some(format!("jsonl trace -> {path}"))
                }
                Err(e) => {
                    // Cannot route through cq-obs (no sink could be made);
                    // stderr is the only channel left.
                    eprintln!("cq-obs: cannot create {path}: {e}");
                    None
                }
            }
        }
        "mem" => {
            let cap = std::env::var("CQ_OBS_MEM_CAP")
                .ok()
                .and_then(|v| v.parse::<usize>().ok());
            match cap {
                Some(cap) => {
                    crate::install(Arc::new(MemorySink::with_capacity(cap)));
                    Some(format!("in-memory sink (summary only, cap {cap} events)"))
                }
                None => {
                    crate::install(Arc::new(MemorySink::new()));
                    Some("in-memory sink (summary only)".to_string())
                }
            }
        }
        _ => None,
    }?;
    let prof_on = matches!(
        std::env::var("CQ_PROF").ok().as_deref(),
        Some("1" | "on" | "timeline")
    );
    if prof_on {
        crate::prof::set_enabled(true);
        Some(format!("{installed} + timeline profiling (CQ_PROF)"))
    } else {
        Some(installed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_schema_lines() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cq-obs-test-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("temp file");
        sink.event(&Event::SpanStart {
            name: "skipped",
            depth: 0,
        });
        sink.event(&Event::SpanEnd {
            name: "train.step",
            depth: 1,
            nanos: 42,
        });
        sink.event(&Event::Counter {
            name: "tensor.matmul.flops",
            total: 7,
        });
        sink.event(&Event::Histogram {
            name: "quant.bits",
            value: 8.0,
        });
        sink.event(&Event::Metric {
            name: "train.loss",
            step: 2,
            value: 0.5,
        });
        sink.event(&Event::Warning {
            message: "a \"quoted\"\nmessage".to_string(),
        });
        Sink::flush(&sink);
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "SpanStart must be skipped: {lines:?}");
        assert_eq!(
            lines[0],
            "{\"t\":\"span\",\"name\":\"train.step\",\"depth\":1,\"ns\":42}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":\"counter\",\"name\":\"tensor.matmul.flops\",\"total\":7}"
        );
        assert_eq!(lines[2], "{\"t\":\"hist\",\"name\":\"quant.bits\",\"v\":8}");
        assert_eq!(
            lines[3],
            "{\"t\":\"metric\",\"name\":\"train.loss\",\"step\":2,\"v\":0.5}"
        );
        assert_eq!(
            lines[4],
            "{\"t\":\"warn\",\"msg\":\"a \\\"quoted\\\"\\nmessage\"}"
        );
    }

    #[test]
    fn every_event_writes_its_record_line() {
        let _g = crate::test_lock();
        let path = std::env::temp_dir().join(format!("cq-obs-rec-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("temp file");
        let msg = "say \"hi\" \\ back\nthen\u{1}stop".to_string();
        let cases: Vec<(Event, Record)> = vec![
            (
                Event::SpanEnd {
                    name: "train.step",
                    depth: 1,
                    nanos: 42,
                },
                Record::Span {
                    name: "train.step".into(),
                    depth: 1,
                    ns: 42,
                },
            ),
            (
                Event::Counter {
                    name: "tensor.conv.flops",
                    total: (1 << 53) + 1,
                },
                Record::Counter {
                    name: "tensor.conv.flops".into(),
                    total: (1 << 53) + 1,
                },
            ),
            (
                Event::Histogram {
                    name: "quant.bits",
                    value: -0.0,
                },
                Record::Hist {
                    name: "quant.bits".into(),
                    value: -0.0,
                },
            ),
            (
                Event::Metric {
                    name: "train.loss",
                    step: 3,
                    value: f64::NAN,
                },
                Record::Metric {
                    name: "train.loss".into(),
                    step: 3,
                    value: f64::NAN,
                },
            ),
            (
                Event::Warning {
                    message: msg.clone(),
                },
                Record::Warn {
                    message: msg.clone(),
                },
            ),
            (
                Event::Timeline {
                    name: "pool.busy",
                    cat: "pool",
                    tid: 2,
                    start_ns: 7,
                    dur_ns: 9,
                },
                Record::Timeline {
                    name: "pool.busy".into(),
                    cat: "pool".into(),
                    tid: 2,
                    start_ns: 7,
                    dur_ns: 9,
                },
            ),
            (
                Event::Health {
                    detector: "nan_sentinel",
                    verdict: crate::health::Verdict::Critical,
                    step: 3,
                    value: f64::INFINITY,
                    message: msg.clone(),
                },
                Record::Health {
                    detector: "nan_sentinel".into(),
                    verdict: "critical".into(),
                    step: 3,
                    value: f64::INFINITY,
                    message: msg,
                },
            ),
        ];
        sink.event(&Event::SpanStart {
            name: "train.step",
            depth: 0,
        });
        for (ev, _) in &cases {
            sink.event(ev);
        }
        Sink::flush(&sink);
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), cases.len(), "SpanStart writes no line");
        for (line, (_, rec)) in lines.iter().zip(&cases) {
            assert_eq!(*line, rec.to_jsonl());
        }
        assert!(lines[2].ends_with(r#""v":-0}"#), "{}", lines[2]);
        assert!(
            lines[4].contains(r#""say \"hi\" \\ back\nthen\u0001stop""#),
            "{}",
            lines[4]
        );
    }

    #[test]
    fn memory_sink_capacity_evicts_oldest_first() {
        let s = MemorySink::with_capacity(3);
        for step in 0..5 {
            s.event(&Event::Metric {
                name: "m",
                step,
                value: step as f64,
            });
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let kept: Vec<u64> = s
            .snapshot()
            .iter()
            .map(|e| match e {
                Event::Metric { step, .. } => *step,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted first");

        let zero = MemorySink::with_capacity(0);
        zero.event(&Event::Histogram {
            name: "h",
            value: 1.0,
        });
        assert!(zero.is_empty());
        assert_eq!(zero.evicted(), 1);

        let unbounded = MemorySink::new();
        for step in 0..100 {
            unbounded.event(&Event::Metric {
                name: "m",
                step,
                value: 0.0,
            });
        }
        assert_eq!(unbounded.len(), 100);
        assert_eq!(unbounded.evicted(), 0);
    }

    #[test]
    fn jsonl_timeline_record_schema() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cq-obs-tl-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("temp file");
        sink.event(&Event::Timeline {
            name: "pool.busy",
            cat: "pool",
            tid: 2,
            start_ns: 1_048_576,
            dur_ns: 524_288,
        });
        Sink::flush(&sink);
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text.trim(),
            "{\"t\":\"tl\",\"name\":\"pool.busy\",\"cat\":\"pool\",\"tid\":2,\"ts\":1048576,\"dur\":524288}"
        );
    }

    #[test]
    fn memory_sink_counts_timeline_evictions_separately() {
        let tl = |i: u64| Event::Timeline {
            name: "pool.busy",
            cat: "pool",
            tid: 0,
            start_ns: i,
            dur_ns: 1,
        };
        let s = MemorySink::with_capacity(2);
        // Timeline events count toward the cap like everything else...
        s.event(&tl(0));
        s.event(&tl(1));
        s.event(&Event::Histogram {
            name: "h",
            value: 1.0,
        });
        s.event(&Event::Histogram {
            name: "h",
            value: 2.0,
        });
        assert_eq!(s.len(), 2);
        // ...but their evictions are tallied on their own counter.
        assert_eq!(s.evicted_timeline(), 2);
        assert_eq!(s.evicted(), 0);
        s.event(&tl(2));
        assert_eq!(s.evicted(), 1, "the evicted histogram");
        assert_eq!(s.evicted_timeline(), 2);

        let zero = MemorySink::with_capacity(0);
        zero.event(&tl(0));
        assert_eq!(zero.evicted_timeline(), 1);
        assert_eq!(zero.evicted(), 0);
    }

    #[test]
    fn jsonl_health_record_schema() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cq-obs-health-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("temp file");
        sink.event(&Event::Health {
            detector: "nan_sentinel",
            verdict: crate::health::Verdict::Critical,
            step: 3,
            value: f64::NAN,
            message: "loss is NaN at step 3".to_string(),
        });
        Sink::flush(&sink);
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text.trim(),
            "{\"t\":\"health\",\"detector\":\"nan_sentinel\",\"verdict\":\"critical\",\"step\":3,\"v\":null,\"msg\":\"loss is NaN at step 3\"}"
        );
    }

    #[test]
    fn counting_sink_counts() {
        let s = CountingSink::new();
        s.event(&Event::Histogram {
            name: "h",
            value: 1.0,
        });
        s.event(&Event::Histogram {
            name: "h",
            value: 2.0,
        });
        assert_eq!(s.count(), 2);
    }
}
