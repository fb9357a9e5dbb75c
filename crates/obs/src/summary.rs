//! In-process aggregation and the human-readable summary report.
//!
//! Every event emitted while a sink is installed also updates a global
//! `Aggregate` (span totals, histogram buckets, metric stats), so
//! bench binaries can print a per-phase time breakdown and a bit-width
//! histogram regardless of which sink is active. `BTreeMap`s keep the
//! rendered report deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

use crate::health::Verdict;
use crate::Event;

/// One aggregated health verdict, as kept for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthLine {
    /// Detector that fired.
    pub detector: &'static str,
    /// Severity.
    pub verdict: Verdict,
    /// Step of the triggering observation.
    pub step: u64,
    /// Explanation.
    pub message: String,
}

/// Accumulated span statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed scopes.
    pub calls: u64,
    /// Total time across all scopes, nanoseconds.
    pub total_ns: u64,
    /// Minimum nesting depth observed (0 = top level); used to indent the
    /// report roughly like the runtime call tree.
    pub min_depth: u16,
}

/// Accumulated statistics for one timeline lane (a `(category, name)`
/// pair such as `("pool", "pool.busy")` or `("span", "train.step")`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineStat {
    /// Number of intervals recorded.
    pub events: u64,
    /// Total interval time across all threads, nanoseconds.
    pub total_ns: u64,
    /// Distinct thread ids the lane was observed on.
    pub threads: BTreeSet<u64>,
}

/// Accumulated statistics for one metric name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricStat {
    /// Number of observations.
    pub count: u64,
    /// Most recent value.
    pub last: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Sum of observed values (for means).
    pub sum: f64,
}

#[derive(Debug, Default)]
pub(crate) struct Aggregate {
    spans: BTreeMap<&'static str, SpanStat>,
    // histogram name -> (rounded bucket -> count)
    hists: BTreeMap<&'static str, BTreeMap<i64, u64>>,
    metrics: BTreeMap<&'static str, MetricStat>,
    // (category, name) -> interval stats
    timeline: BTreeMap<(&'static str, &'static str), TimelineStat>,
    warnings: Vec<String>,
    health: Vec<HealthLine>,
    worst_health: Verdict,
}

static AGGREGATE: Mutex<Option<Aggregate>> = Mutex::new(None);

fn lock() -> MutexGuard<'static, Option<Aggregate>> {
    AGGREGATE.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn aggregate(ev: &Event) {
    let mut guard = lock();
    let agg = guard.get_or_insert_with(Aggregate::default);
    match ev {
        Event::SpanStart { .. } => {}
        Event::SpanEnd { name, depth, nanos } => {
            let st = agg.spans.entry(name).or_insert(SpanStat {
                calls: 0,
                total_ns: 0,
                min_depth: *depth,
            });
            st.calls += 1;
            st.total_ns += nanos;
            st.min_depth = st.min_depth.min(*depth);
        }
        Event::Counter { .. } => {} // counters live in their own registry
        Event::Histogram { name, value } => {
            let bucket = if value.is_finite() {
                value.round() as i64
            } else {
                i64::MIN
            };
            *agg.hists
                .entry(name)
                .or_default()
                .entry(bucket)
                .or_insert(0) += 1;
        }
        Event::Metric {
            name,
            step: _,
            value,
        } => {
            let st = agg.metrics.entry(name).or_insert(MetricStat {
                count: 0,
                last: *value,
                min: *value,
                max: *value,
                sum: 0.0,
            });
            st.count += 1;
            st.last = *value;
            st.min = st.min.min(*value);
            st.max = st.max.max(*value);
            st.sum += *value;
        }
        Event::Timeline {
            name,
            cat,
            tid,
            start_ns: _,
            dur_ns,
        } => {
            let st = agg.timeline.entry((cat, name)).or_default();
            st.events += 1;
            st.total_ns += dur_ns;
            st.threads.insert(*tid);
        }
        Event::Warning { message } => {
            // Bounded: warnings are rare by contract, but cap defensively.
            if agg.warnings.len() < 64 {
                agg.warnings.push(message.clone());
            }
        }
        Event::Health {
            detector,
            verdict,
            step,
            value: _,
            message,
        } => {
            agg.worst_health = agg.worst_health.max(*verdict);
            // The monitor already caps per-detector fire volume; this cap
            // just bounds the report against hand-emitted events.
            if agg.health.len() < 64 {
                agg.health.push(HealthLine {
                    detector,
                    verdict: *verdict,
                    step: *step,
                    message: message.clone(),
                });
            }
        }
    }
}

pub(crate) fn reset_aggregate() {
    *lock() = None;
}

/// Deterministic snapshot of everything aggregated so far, plus counter
/// totals, renderable via [`Report::render`].
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-span-name timing stats, sorted by name.
    pub spans: Vec<(&'static str, SpanStat)>,
    /// Per-histogram bucket counts (bucket = rounded value), sorted.
    pub histograms: Vec<(&'static str, Vec<(i64, u64)>)>,
    /// Per-metric stats, sorted by name.
    pub metrics: Vec<(&'static str, MetricStat)>,
    /// Per-timeline-lane stats (`(category, name)`), sorted. Non-empty
    /// only for profiled runs (see [`crate::prof`]).
    pub timeline: Vec<((&'static str, &'static str), TimelineStat)>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Collected warning messages, in arrival order.
    pub warnings: Vec<String>,
    /// Health verdicts, in firing order (capped).
    pub health: Vec<HealthLine>,
    /// Worst health verdict seen (including capped-away repeats).
    pub worst_health: Verdict,
}

/// Builds a [`Report`] from the current aggregate and counter registry.
pub fn summary_report() -> Report {
    let guard = lock();
    let mut report = Report {
        counters: crate::counter_totals(),
        ..Report::default()
    };
    if let Some(agg) = guard.as_ref() {
        report.spans = agg.spans.iter().map(|(k, v)| (*k, *v)).collect();
        report.histograms = agg
            .hists
            .iter()
            .map(|(k, m)| (*k, m.iter().map(|(b, c)| (*b, *c)).collect()))
            .collect();
        report.metrics = agg.metrics.iter().map(|(k, v)| (*k, *v)).collect();
        report.timeline = agg.timeline.iter().map(|(k, v)| (*k, v.clone())).collect();
        report.warnings = agg.warnings.clone();
        report.health = agg.health.clone();
        report.worst_health = agg.worst_health;
    }
    report
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_count(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        format!("{n}")
    }
}

impl Report {
    /// Whether nothing was recorded (render would be empty).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.histograms.is_empty()
            && self.metrics.is_empty()
            && self.timeline.is_empty()
            && self.counters.is_empty()
            && self.warnings.is_empty()
            && self.health.is_empty()
    }

    /// Renders the report as a plain-text block: per-phase time breakdown,
    /// histograms (with ASCII bars), metric stats and counter totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("== time breakdown ==\n");
            let top_total: u64 = self
                .spans
                .iter()
                .filter(|(_, s)| s.min_depth == 0)
                .map(|(_, s)| s.total_ns)
                .sum();
            for (name, s) in &self.spans {
                let indent = "  ".repeat(s.min_depth as usize);
                let pct = if top_total > 0 && s.min_depth == 0 {
                    format!(" ({:.1}%)", 100.0 * s.total_ns as f64 / top_total as f64)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  {indent}{name:<28} {:>8} calls  {:>10}{pct}\n",
                    fmt_count(s.calls),
                    fmt_ns(s.total_ns)
                ));
            }
        }
        for (name, buckets) in &self.histograms {
            out.push_str(&format!("== histogram: {name} ==\n"));
            let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
            let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
            for (bucket, count) in buckets {
                let bar_len = ((count * 40) / max) as usize;
                out.push_str(&format!(
                    "  {bucket:>6}  {count:>8}  {:<40} {:.1}%\n",
                    "#".repeat(bar_len),
                    100.0 * *count as f64 / total.max(1) as f64
                ));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("== metrics ==\n");
            for (name, m) in &self.metrics {
                let mean = if m.count > 0 {
                    m.sum / m.count as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {name:<28} n={:<6} last={:<12.5} mean={:<12.5} min={:<12.5} max={:.5}\n",
                    m.count, m.last, mean, m.min, m.max
                ));
            }
        }
        if !self.timeline.is_empty() {
            out.push_str("== timeline lanes ==\n");
            for ((cat, name), st) in &self.timeline {
                out.push_str(&format!(
                    "  {cat:<6} {name:<21} {:>8} events  {:>10}  {} thread{}\n",
                    fmt_count(st.events),
                    fmt_ns(st.total_ns),
                    st.threads.len(),
                    if st.threads.len() == 1 { "" } else { "s" }
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            for (name, total) in &self.counters {
                out.push_str(&format!(
                    "  {name:<28} {:>12} ({total})\n",
                    fmt_count(*total)
                ));
            }
        }
        if !self.warnings.is_empty() {
            out.push_str("== warnings ==\n");
            for w in &self.warnings {
                out.push_str(&format!("  {w}\n"));
            }
        }
        if !self.health.is_empty() {
            out.push_str(&format!("== health: {} ==\n", self.worst_health));
            for h in &self.health {
                out.push_str(&format!(
                    "  [{:<8}] {:<16} step {:<6} {}\n",
                    h.verdict, h.detector, h.step, h.message
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    #[test]
    fn report_aggregates_spans_histograms_metrics() {
        let _g = crate::test_lock();
        crate::install(Arc::new(MemorySink::new()));
        crate::reset();
        {
            let _a = crate::span("phase.outer");
            let _b = crate::span("phase.inner");
        }
        {
            let _a = crate::span("phase.outer");
        }
        crate::histogram("quant.bits", 4.0);
        crate::histogram("quant.bits", 8.0);
        crate::histogram("quant.bits", 8.0);
        crate::metric("train.loss", 0, 2.0);
        crate::metric("train.loss", 1, 1.0);
        crate::warn_with(|| "something odd".to_string());
        let report = summary_report();
        crate::uninstall();
        crate::reset();

        let spans: std::collections::BTreeMap<_, _> = report.spans.iter().cloned().collect();
        assert_eq!(spans["phase.outer"].calls, 2);
        assert_eq!(spans["phase.inner"].calls, 1);
        assert_eq!(spans["phase.inner"].min_depth, 1);
        assert!(spans["phase.outer"].total_ns >= spans["phase.inner"].total_ns);

        assert_eq!(report.histograms.len(), 1);
        let (name, buckets) = &report.histograms[0];
        assert_eq!(*name, "quant.bits");
        assert_eq!(buckets.as_slice(), &[(4, 1), (8, 2)]);

        let metrics: std::collections::BTreeMap<_, _> = report.metrics.iter().cloned().collect();
        let loss = metrics["train.loss"];
        assert_eq!(loss.count, 2);
        assert_eq!(loss.last, 1.0);
        assert_eq!(loss.min, 1.0);
        assert_eq!(loss.max, 2.0);
        assert_eq!(loss.sum, 3.0);

        assert_eq!(report.warnings, vec!["something odd".to_string()]);

        let text = report.render();
        assert!(text.contains("time breakdown"));
        assert!(text.contains("quant.bits"));
        assert!(text.contains("train.loss"));
        assert!(text.contains("something odd"));
    }

    #[test]
    fn empty_report_is_empty() {
        let _g = crate::test_lock();
        crate::reset();
        let report = summary_report();
        assert!(report.is_empty());
        assert_eq!(report.render(), "");
    }

    #[test]
    fn fmt_helpers_cover_ranges() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
        assert_eq!(fmt_count(42), "42");
        assert_eq!(fmt_count(12_000), "12.0k");
        assert_eq!(fmt_count(3_400_000), "3.40M");
        assert_eq!(fmt_count(2_000_000_000), "2.00G");
    }
}
