//! The three cq-trace analyses: `summarize`, `check`, and `diff`.

use std::collections::BTreeMap;

use cq_obs::health::{HealthEngine, Verdict};
use cq_obs::json::Record;

use crate::tree::{build_span_tree, render_span_tree};

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

/// Renders the full offline summary: span tree with self/total time,
/// counter totals with FLOP-rate reconciliation, histogram and metric
/// tables, warnings, and any recorded health verdicts.
pub fn summarize(records: &[Record]) -> String {
    let mut out = String::new();

    let roots = build_span_tree(records);
    if !roots.is_empty() {
        out.push_str("== span tree (total / self / calls / share) ==\n");
        out.push_str(&render_span_tree(&roots));
    }

    // Counters: last total wins (flush emits cumulative totals).
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    for rec in records {
        if let Record::Counter { name, total } = rec {
            counters.insert(name, *total);
        }
    }
    if !counters.is_empty() {
        out.push_str("== counters ==\n");
        for (name, total) in &counters {
            out.push_str(&format!(
                "  {name:<36} {:>12} ({total})\n",
                fmt_count(*total)
            ));
        }
        // FLOP reconciliation: every *.flops counter against wall time of
        // the span forest, so a kernel regression shows up as a rate drop
        // even when per-span timings are noisy.
        let wall_ns: u64 = roots.iter().map(|r| r.total_ns).sum();
        let flops: u64 = counters
            .iter()
            .filter(|(n, _)| n.ends_with(".flops"))
            .map(|(_, t)| *t)
            .sum();
        if flops > 0 && wall_ns > 0 {
            out.push_str(&format!(
                "  flop reconciliation: {} FLOPs over {:.3}s wall -> {:.3} GFLOP/s\n",
                fmt_count(flops),
                wall_ns as f64 / 1e9,
                flops as f64 / wall_ns as f64,
            ));
        }
    }

    let hists = hist_buckets(records);
    for (name, buckets) in &hists {
        let total: u64 = buckets.values().sum();
        out.push_str(&format!("== histogram: {name} ({total} obs) ==\n"));
        let max = buckets.values().copied().max().unwrap_or(1).max(1);
        for (bucket, count) in buckets {
            let bar = "#".repeat(((count * 30) / max) as usize);
            out.push_str(&format!(
                "  {bucket:>6}  {count:>8}  {bar:<30} {:.1}%\n",
                100.0 * *count as f64 / total.max(1) as f64
            ));
        }
    }

    let metrics = metric_series(records);
    if !metrics.is_empty() {
        out.push_str("== metrics ==\n");
        for (name, values) in &metrics {
            let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
            let nonfinite = values.len() - finite.len();
            let (min, max, sum) = finite
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY, 0.0), |(lo, hi, s), v| {
                    (lo.min(*v), hi.max(*v), s + v)
                });
            let mean = if finite.is_empty() {
                f64::NAN
            } else {
                sum / finite.len() as f64
            };
            out.push_str(&format!(
                "  {name:<28} n={:<6} last={:<12.5} mean={mean:<12.5} min={min:<12.5} max={max:.5}",
                values.len(),
                values.last().copied().unwrap_or(f64::NAN),
            ));
            if nonfinite > 0 {
                out.push_str(&format!("  ({nonfinite} non-finite)"));
            }
            out.push('\n');
        }
    }

    let warnings: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            Record::Warn { message } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    if !warnings.is_empty() {
        out.push_str("== warnings ==\n");
        for w in warnings {
            out.push_str(&format!("  {w}\n"));
        }
    }

    out.push_str(&render_recorded_health(records));
    out
}

fn hist_buckets(records: &[Record]) -> BTreeMap<&str, BTreeMap<i64, u64>> {
    let mut hists: BTreeMap<&str, BTreeMap<i64, u64>> = BTreeMap::new();
    for rec in records {
        if let Record::Hist { name, value } = rec {
            let bucket = if value.is_finite() {
                value.round() as i64
            } else {
                i64::MIN
            };
            *hists.entry(name).or_default().entry(bucket).or_insert(0) += 1;
        }
    }
    hists
}

fn metric_series(records: &[Record]) -> BTreeMap<&str, Vec<f64>> {
    let mut metrics: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rec in records {
        if let Record::Metric { name, value, .. } = rec {
            metrics.entry(name).or_default().push(*value);
        }
    }
    metrics
}

fn render_recorded_health(records: &[Record]) -> String {
    let mut out = String::new();
    let health: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r, Record::Health { .. }))
        .collect();
    if !health.is_empty() {
        out.push_str("== recorded health verdicts ==\n");
        for rec in health {
            if let Record::Health {
                detector,
                verdict,
                step,
                message,
                ..
            } = rec
            {
                out.push_str(&format!(
                    "  [{verdict:<8}] {detector:<16} step {step:<6} {message}\n"
                ));
            }
        }
    }
    out
}

/// Result of [`check`]: the rendered report and the worst verdict found.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Human-readable verdict report.
    pub report: String,
    /// Worst verdict across replayed rules and recorded online verdicts.
    pub worst: Verdict,
}

/// Re-runs the online health rules offline: every metric record is fed
/// through a fresh [`HealthEngine`] (default thresholds), and recorded
/// online verdicts are folded in, so `check` catches problems whether or
/// not the run had `CQ_OBS_HEALTH` enabled.
pub fn check(records: &[Record]) -> CheckResult {
    let mut engine = HealthEngine::default();
    for rec in records {
        if let Record::Metric { name, step, value } = rec {
            engine.observe(name, *step, *value);
        }
    }
    let mut worst = engine.worst();
    let mut report = String::new();
    if engine.log().is_empty() {
        report.push_str("offline replay: all health rules passed\n");
    } else {
        report.push_str("offline replay verdicts:\n");
        for ev in engine.log() {
            report.push_str(&format!(
                "  [{:<8}] {:<16} step {:<6} {}\n",
                ev.verdict, ev.detector, ev.step, ev.message
            ));
        }
    }
    for rec in records {
        if let Record::Health { verdict, .. } = rec {
            if let Some(v) = Verdict::parse(verdict) {
                worst = worst.max(v);
            }
        }
    }
    let recorded = render_recorded_health(records);
    if !recorded.is_empty() {
        report.push_str(&recorded);
    }
    report.push_str(&format!("worst verdict: {worst}\n"));
    CheckResult { report, worst }
}

/// Result of [`diff`]: rendered comparison plus the failing lines.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffResult {
    /// Human-readable comparison table.
    pub report: String,
    /// One line per regression beyond the threshold (empty = pass).
    pub regressions: Vec<String>,
}

/// The pool counters that describe the execution environment rather
/// than the workload: worker busy/park time and threads spawned
/// legitimately differ between runs at different `CQ_THREADS`, so
/// [`diff`] reports them without gating on them. The *workload* pool
/// counters — `pool.jobs` and `pool.chunks`, which the deterministic
/// runtime derives from problem sizes alone — are NOT in this list and
/// gate like any other workload counter: a drift there means the chunk
/// grid changed, which is exactly the determinism break the diff
/// exists to catch.
const SCHED_COUNTERS: [&str; 3] = ["pool.busy_ns", "pool.park_ns", "pool.workers_spawned"];

/// Counters that accumulate wall-clock time rather than workload: the
/// graph executor's elementwise-pass timing telemetry varies with
/// hardware and thread count, so [`diff`] reports it without gating.
/// The workload counters from the same subsystem (`graph.fused_chains`,
/// `fusion.pass_elided_bytes`) are deterministic and gate normally.
const TIMING_COUNTERS: [&str; 1] = ["graph.ew_exec_ns"];

/// Metrics measuring wall-clock throughput rather than numerical state:
/// like span times they vary with hardware and thread count, so the
/// metric-series gate reports but does not fail on them (span timing
/// regressions are caught by the span section with its noise floor).
const TIMING_METRIC_SUFFIX: &str = "_per_sec";

/// Metric series derived from wall-clock or process-environment
/// measurements rather than the deterministic numerical state:
/// `pool.utilization` (busy time over wall time), `pool.chunk_imbalance`
/// (claim spread, a function of worker scheduling), and the `mem.*`
/// series (peak RSS and allocator call deltas, which depend on the
/// allocator, thread count, and what else the process has done). All
/// report without gating.
const TIMING_METRICS: [&str; 2] = ["pool.utilization", "pool.chunk_imbalance"];

/// Prefix for the process-memory metric series (see [`TIMING_METRICS`]).
const MEM_METRIC_PREFIX: &str = "mem.";

/// Checkpoint lifecycle telemetry (`ckpt.*` spans and counters) only
/// exists in runs that save or restore a checkpoint. An uninterrupted
/// reference trace has none of it, so a kill-and-resume trace diffed
/// against the reference would show an infinite delta on `ckpt.load` /
/// `ckpt.saved` no matter how exact the resume was. [`diff`] reports
/// these but never gates on them; the actual resume guarantees — loss
/// series, bit-width histograms, workload counters — stay strictly
/// gated.
const CKPT_PREFIX: &str = "ckpt.";

/// Compares two traces for CI gating. Span times regress when trace B is
/// slower than trace A by more than `fail_over_pct` percent (spans whose
/// larger total is under `min_ns` are ignored as timing noise; speedups
/// never fail). Counters fail on a relative change beyond the threshold
/// in either direction — except the scheduling telemetry listed in
/// `SCHED_COUNTERS`, which is reported but never gated; `pool.jobs`
/// and `pool.chunks` are thread-count-invariant workload counters and
/// gate normally. Metric series (losses etc.) fail on length mismatch
/// or per-step relative drift beyond the threshold — with the
/// deterministic parallel runtime, same-seed runs must agree at any
/// thread count; throughput metrics (`*_per_sec`), the pool
/// utilization/imbalance series, and `mem.*` are timing/environment,
/// reported but not gated (see `TIMING_METRICS`). Histogram
/// distributions (e.g. sampled bit-widths) fail when the total-variation
/// distance between the bucket shares exceeds `fail_over_pct` percentage
/// points. Checkpoint lifecycle telemetry (`ckpt.*` spans and counters)
/// is reported but never gated in either section (see `CKPT_PREFIX`):
/// it only exists on the resumed side of a kill-and-resume comparison.
pub fn diff(a: &[Record], b: &[Record], fail_over_pct: f64, min_ns: u64) -> DiffResult {
    let mut report = String::new();
    let mut regressions = Vec::new();

    // --- span times, flattened per name ---
    let totals = |records: &[Record]| -> BTreeMap<String, u64> {
        let mut m: BTreeMap<String, u64> = BTreeMap::new();
        for rec in records {
            if let Record::Span { name, ns, .. } = rec {
                *m.entry(name.clone()).or_insert(0) += ns;
            }
        }
        m
    };
    let (ta, tb) = (totals(a), totals(b));
    let mut span_names: Vec<&String> = ta.keys().chain(tb.keys()).collect();
    span_names.sort_unstable();
    span_names.dedup();
    report.push_str(&format!(
        "== span time diff (fail over +{fail_over_pct}%, noise floor {:.1}ms) ==\n",
        min_ns as f64 / 1e6
    ));
    for name in span_names {
        let (va, vb) = (
            ta.get(name).copied().unwrap_or(0),
            tb.get(name).copied().unwrap_or(0),
        );
        if va.max(vb) < min_ns {
            continue;
        }
        let delta_pct = if va > 0 {
            100.0 * (vb as f64 - va as f64) / va as f64
        } else {
            f64::INFINITY
        };
        let lifecycle = name.starts_with(CKPT_PREFIX);
        let failed = !lifecycle && delta_pct > fail_over_pct;
        let mark = if failed {
            " REGRESSION"
        } else if lifecycle {
            " (lifecycle, not gated)"
        } else {
            ""
        };
        report.push_str(&format!(
            "  {name:<36} {:>10.3}ms -> {:>10.3}ms  {delta_pct:>+8.1}%{mark}\n",
            va as f64 / 1e6,
            vb as f64 / 1e6
        ));
        if failed {
            regressions.push(format!("span {name}: {delta_pct:+.1}% time"));
        }
    }

    // --- counters (deterministic: same seed should match closely) ---
    let counters = |records: &[Record]| -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for rec in records {
            if let Record::Counter { name, total } = rec {
                m.insert(name.clone(), *total);
            }
        }
        m
    };
    let (ca, cb) = (counters(a), counters(b));
    let mut counter_names: Vec<&String> = ca.keys().chain(cb.keys()).collect();
    counter_names.sort_unstable();
    counter_names.dedup();
    if !counter_names.is_empty() {
        report.push_str("== counter diff ==\n");
        for name in counter_names {
            let (va, vb) = (
                ca.get(name).copied().unwrap_or(0),
                cb.get(name).copied().unwrap_or(0),
            );
            let delta_pct = 100.0 * (vb as f64 - va as f64) / (va.max(1) as f64);
            let exempt_mark = if SCHED_COUNTERS.contains(&name.as_str()) {
                Some(" (sched, not gated)")
            } else if TIMING_COUNTERS.contains(&name.as_str()) {
                Some(" (timing, not gated)")
            } else if name.starts_with(CKPT_PREFIX) {
                Some(" (lifecycle, not gated)")
            } else {
                None
            };
            let failed = exempt_mark.is_none() && delta_pct.abs() > fail_over_pct;
            let mark = if failed {
                " REGRESSION"
            } else {
                exempt_mark.unwrap_or("")
            };
            report.push_str(&format!(
                "  {name:<36} {va:>14} -> {vb:>14}  {delta_pct:>+8.1}%{mark}\n"
            ));
            if failed {
                regressions.push(format!("counter {name}: {delta_pct:+.1}%"));
            }
        }
    }

    // --- metric series (losses etc.): deterministic runs must agree ---
    let (ma, mb) = (metric_series(a), metric_series(b));
    let mut metric_names: Vec<&str> = ma.keys().chain(mb.keys()).copied().collect();
    metric_names.sort_unstable();
    metric_names.dedup();
    if !metric_names.is_empty() {
        report.push_str("== metric series diff (max per-step drift) ==\n");
        let empty: Vec<f64> = Vec::new();
        for name in metric_names {
            let (sa, sb) = (
                ma.get(name).unwrap_or(&empty),
                mb.get(name).unwrap_or(&empty),
            );
            let timing = name.ends_with(TIMING_METRIC_SUFFIX)
                || TIMING_METRICS.contains(&name)
                || name.starts_with(MEM_METRIC_PREFIX);
            if sa.len() != sb.len() {
                // A missing step is structural, not timing noise: gate it
                // even for throughput metrics.
                report.push_str(&format!(
                    "  {name:<36} length {} -> {}  REGRESSION\n",
                    sa.len(),
                    sb.len()
                ));
                regressions.push(format!(
                    "metric {name}: series length {} vs {}",
                    sa.len(),
                    sb.len()
                ));
                continue;
            }
            let drift_pct = sa
                .iter()
                .zip(sb)
                .map(|(va, vb)| match (va.is_finite(), vb.is_finite()) {
                    (true, true) => 100.0 * (vb - va).abs() / va.abs().max(1e-12),
                    // Matching non-finite values (NaN == NaN here) drift 0;
                    // a finite/non-finite mismatch is an unconditional fail.
                    (false, false) => 0.0,
                    _ => f64::INFINITY,
                })
                .fold(0.0f64, f64::max);
            let failed = !timing && drift_pct > fail_over_pct;
            let mark = if failed {
                " REGRESSION"
            } else if timing {
                " (timing, not gated)"
            } else {
                ""
            };
            report.push_str(&format!(
                "  {name:<36} n={:<6} max drift {drift_pct:.4}%{mark}\n",
                sa.len()
            ));
            if failed {
                regressions.push(format!("metric {name}: {drift_pct:.4}% drift"));
            }
        }
    }

    // --- histogram distributions (bit-width shares) ---
    let (ha, hb) = (hist_buckets(a), hist_buckets(b));
    let mut hist_names: Vec<&str> = ha.keys().chain(hb.keys()).copied().collect();
    hist_names.sort_unstable();
    hist_names.dedup();
    if !hist_names.is_empty() {
        report.push_str("== histogram distribution diff (total variation) ==\n");
        let empty = BTreeMap::new();
        for name in hist_names {
            let (da, db) = (
                ha.get(name).unwrap_or(&empty),
                hb.get(name).unwrap_or(&empty),
            );
            let (na, nb) = (
                da.values().sum::<u64>().max(1) as f64,
                db.values().sum::<u64>().max(1) as f64,
            );
            let mut buckets: Vec<&i64> = da.keys().chain(db.keys()).collect();
            buckets.sort_unstable();
            buckets.dedup();
            let tv_pct: f64 = 50.0
                * buckets
                    .iter()
                    .map(|bkt| {
                        let pa = da.get(bkt).copied().unwrap_or(0) as f64 / na;
                        let pb = db.get(bkt).copied().unwrap_or(0) as f64 / nb;
                        (pa - pb).abs()
                    })
                    .sum::<f64>();
            let failed = tv_pct > fail_over_pct;
            let mark = if failed { " REGRESSION" } else { "" };
            report.push_str(&format!("  {name:<36} TV distance {tv_pct:.2}pp{mark}\n"));
            if failed {
                regressions.push(format!("histogram {name}: TV {tv_pct:.2}pp"));
            }
        }
    }

    if regressions.is_empty() {
        report.push_str("diff: no regressions\n");
    } else {
        report.push_str(&format!("diff: {} regression(s)\n", regressions.len()));
    }
    DiffResult {
        report,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::parse_trace;

    fn metric(name: &str, step: u64, v: f64) -> Record {
        Record::Metric {
            name: name.to_string(),
            step,
            value: v,
        }
    }

    #[test]
    fn summarize_covers_all_sections() {
        let text = concat!(
            "{\"t\":\"span\",\"name\":\"forward\",\"depth\":1,\"ns\":750000}\n",
            "{\"t\":\"span\",\"name\":\"step\",\"depth\":0,\"ns\":1000000}\n",
            "{\"t\":\"counter\",\"name\":\"tensor.matmul.flops\",\"total\":5000000}\n",
            "{\"t\":\"hist\",\"name\":\"quant.bits\",\"v\":4}\n",
            "{\"t\":\"hist\",\"name\":\"quant.bits\",\"v\":8}\n",
            "{\"t\":\"metric\",\"name\":\"train.loss\",\"step\":0,\"v\":2.5}\n",
            "{\"t\":\"metric\",\"name\":\"train.loss\",\"step\":1,\"v\":null}\n",
            "{\"t\":\"warn\",\"msg\":\"odd\"}\n",
            "{\"t\":\"health\",\"detector\":\"nan_sentinel\",\"verdict\":\"critical\",\"step\":1,\"v\":null,\"msg\":\"loss is NaN\"}\n",
        );
        let records = parse_trace(text).expect("valid");
        let out = summarize(&records);
        assert!(out.contains("span tree"), "{out}");
        assert!(out.contains("step"), "{out}");
        assert!(out.contains("flop reconciliation"), "{out}");
        assert!(out.contains("GFLOP/s"), "{out}");
        assert!(out.contains("quant.bits"), "{out}");
        assert!(out.contains("train.loss"), "{out}");
        assert!(out.contains("(1 non-finite)"), "{out}");
        assert!(out.contains("odd"), "{out}");
        assert!(out.contains("recorded health"), "{out}");
    }

    #[test]
    fn check_replays_rules_offline() {
        let healthy: Vec<Record> = (0..10)
            .map(|i| metric(cq_obs::names::TRAIN_LOSS, i, 2.0 - 0.1 * i as f64))
            .collect();
        let res = check(&healthy);
        assert_eq!(res.worst, Verdict::Ok);
        assert!(
            res.report.contains("all health rules passed"),
            "{}",
            res.report
        );

        let mut sick = healthy.clone();
        sick.push(metric(cq_obs::names::TRAIN_LOSS, 10, f64::NAN));
        let res = check(&sick);
        assert_eq!(res.worst, Verdict::Critical);
        assert!(res.report.contains("nan_sentinel"), "{}", res.report);
    }

    #[test]
    fn check_folds_in_recorded_verdicts() {
        let records = vec![Record::Health {
            detector: "collapse_probe".to_string(),
            verdict: "critical".to_string(),
            step: 5,
            value: 0.0,
            message: "collapsed".to_string(),
        }];
        let res = check(&records);
        assert_eq!(res.worst, Verdict::Critical);
    }

    fn span(name: &str, ns: u64) -> Record {
        Record::Span {
            name: name.to_string(),
            depth: 0,
            ns,
        }
    }

    fn counter(name: &str, total: u64) -> Record {
        Record::Counter {
            name: name.to_string(),
            total,
        }
    }

    fn hist(name: &str, v: f64) -> Record {
        Record::Hist {
            name: name.to_string(),
            value: v,
        }
    }

    #[test]
    fn diff_passes_identical_traces_and_flags_regressions() {
        let a = vec![
            span("step", 100_000_000),
            counter("flops", 1000),
            hist("quant.bits", 4.0),
            hist("quant.bits", 8.0),
        ];
        let same = diff(&a, &a, 30.0, 1_000_000);
        assert!(same.regressions.is_empty(), "{:?}", same.regressions);

        // 2x slower span, counter drift, skewed distribution.
        let b = vec![
            span("step", 200_000_000),
            counter("flops", 2000),
            hist("quant.bits", 4.0),
            hist("quant.bits", 4.0),
            hist("quant.bits", 4.0),
            hist("quant.bits", 4.0),
        ];
        let bad = diff(&a, &b, 30.0, 1_000_000);
        assert_eq!(bad.regressions.len(), 3, "{:?}", bad.regressions);
        assert!(bad.report.contains("REGRESSION"), "{}", bad.report);
    }

    #[test]
    fn diff_reports_but_never_gates_pool_counters() {
        // Scheduling telemetry varies wildly across thread counts; a 1-thread
        // vs 4-thread matrix diff must not fail on it. Workload counters with
        // the same relative drift still gate.
        let a = vec![
            counter("pool.busy_ns", 10),
            counter("pool.park_ns", 0),
            counter("pool.workers_spawned", 0),
        ];
        let b = vec![
            counter("pool.busy_ns", 10_000_000),
            counter("pool.park_ns", 5_000_000),
            counter("pool.workers_spawned", 4),
        ];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert!(res.regressions.is_empty(), "{:?}", res.regressions);
        assert!(res.report.contains("(sched, not gated)"), "{}", res.report);

        let a = vec![counter("tensor.matmul.flops", 10)];
        let b = vec![counter("tensor.matmul.flops", 10_000_000)];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert_eq!(res.regressions.len(), 1, "{:?}", res.regressions);
    }

    #[test]
    fn diff_gates_pool_workload_counters() {
        // pool.jobs / pool.chunks derive from problem sizes alone — the
        // chunk grid is thread-count-independent — so a drift there is a
        // determinism break, not scheduling noise. They must gate like
        // any workload counter.
        let a = vec![counter("pool.jobs", 100), counter("pool.chunks", 800)];
        let same = diff(&a, &a, 30.0, 1_000_000);
        assert!(same.regressions.is_empty(), "{:?}", same.regressions);

        let b = vec![counter("pool.jobs", 100), counter("pool.chunks", 1600)];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert_eq!(res.regressions.len(), 1, "{:?}", res.regressions);
        assert!(
            res.regressions[0].contains("pool.chunks"),
            "{:?}",
            res.regressions
        );
    }

    #[test]
    fn diff_reports_but_never_gates_pool_and_mem_metrics() {
        // Utilization, imbalance, and memory series are wall-clock /
        // environment measurements: hugely different across thread
        // counts and allocators, so value drift never gates. A missing
        // step (series length) still does — the emission schedule is
        // deterministic even when the values are not.
        let a = vec![
            metric("pool.utilization", 0, 0.0),
            metric("pool.chunk_imbalance", 0, 1.0),
            metric("mem.peak_rss_kb", 0, 50_000.0),
            metric("mem.alloc_count", 0, 1_000.0),
        ];
        let b = vec![
            metric("pool.utilization", 0, 0.9),
            metric("pool.chunk_imbalance", 0, 3.5),
            metric("mem.peak_rss_kb", 0, 120_000.0),
            metric("mem.alloc_count", 0, 9_000_000.0),
        ];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert!(res.regressions.is_empty(), "{:?}", res.regressions);
        assert!(res.report.contains("(timing, not gated)"), "{}", res.report);

        let res = diff(&a, &a[..2], 30.0, 1_000_000);
        assert_eq!(res.regressions.len(), 2, "{:?}", res.regressions);
    }

    #[test]
    fn diff_reports_but_never_gates_ckpt_lifecycle() {
        // A resumed run has ckpt.load / ckpt.save spans and ckpt.* counters
        // that the uninterrupted reference run lacks entirely (0 -> N, an
        // infinite span delta). The kill-and-resume CI gate diffs exactly
        // that shape, so ckpt.* must report without gating.
        let a: Vec<Record> = vec![span("train.step", 100_000_000)];
        let b = vec![
            span("train.step", 100_000_000),
            span("ckpt.load", 50_000_000),
            span("ckpt.save", 50_000_000),
            counter("ckpt.loaded", 1),
            counter("ckpt.saved", 1),
        ];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert!(res.regressions.is_empty(), "{:?}", res.regressions);
        assert!(
            res.report.contains("ckpt.load") && res.report.contains("(lifecycle, not gated)"),
            "{}",
            res.report
        );

        // A non-ckpt span appearing only in trace B still gates.
        let b = vec![span("train.step", 100_000_000), span("extra", 50_000_000)];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert_eq!(res.regressions.len(), 1, "{:?}", res.regressions);
    }

    #[test]
    fn diff_gates_metric_series_drift_and_length() {
        let a = vec![metric("train.loss", 0, 2.5), metric("train.loss", 1, 2.4)];
        let same = diff(&a, &a, 0.0001, 1_000_000);
        assert!(same.regressions.is_empty(), "{:?}", same.regressions);
        assert!(same.report.contains("metric series"), "{}", same.report);

        // Value drift beyond the threshold on any step fails.
        let b = vec![metric("train.loss", 0, 2.5), metric("train.loss", 1, 2.6)];
        let drift = diff(&a, &b, 0.0001, 1_000_000);
        assert_eq!(drift.regressions.len(), 1, "{:?}", drift.regressions);
        assert!(drift.report.contains("REGRESSION"), "{}", drift.report);

        // A missing step is a length mismatch, flagged unconditionally.
        let short = vec![metric("train.loss", 0, 2.5)];
        let res = diff(&a, &short, 50.0, 1_000_000);
        assert_eq!(res.regressions.len(), 1, "{:?}", res.regressions);
        assert!(res.report.contains("length"), "{}", res.report);
    }

    #[test]
    fn diff_reports_but_never_gates_throughput_metrics() {
        // images/sec is wall-clock: a 4-thread run is legitimately much
        // faster than a 1-thread run. Value drift must not gate, but a
        // missing step still must.
        let a = vec![metric("train.images_per_sec", 0, 100.0)];
        let b = vec![metric("train.images_per_sec", 0, 400.0)];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert!(res.regressions.is_empty(), "{:?}", res.regressions);
        assert!(res.report.contains("(timing, not gated)"), "{}", res.report);

        let res = diff(&a, &[], 30.0, 1_000_000);
        assert_eq!(res.regressions.len(), 1, "{:?}", res.regressions);
    }

    #[test]
    fn diff_reports_but_never_gates_executor_timing_counter() {
        // graph.ew_exec_ns accumulates wall-clock time inside the fused
        // executor: it differs across hardware and thread counts. The
        // workload counters from the same subsystem still gate.
        let a = vec![counter("graph.ew_exec_ns", 1_000)];
        let b = vec![counter("graph.ew_exec_ns", 900_000_000)];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert!(res.regressions.is_empty(), "{:?}", res.regressions);
        assert!(res.report.contains("(timing, not gated)"), "{}", res.report);

        let a = vec![counter("graph.fused_chains", 100)];
        let b = vec![counter("graph.fused_chains", 0)];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert_eq!(res.regressions.len(), 1, "{:?}", res.regressions);
    }

    #[test]
    fn diff_ignores_noise_floor_and_speedups() {
        // Tiny span doubled: below the floor, ignored.
        let a = vec![span("tiny", 1_000), span("big", 100_000_000)];
        let b = vec![span("tiny", 2_000), span("big", 60_000_000)];
        let res = diff(&a, &b, 30.0, 1_000_000);
        assert!(res.regressions.is_empty(), "{:?}", res.regressions);
        assert!(
            !res.report.contains("tiny"),
            "floored span listed: {}",
            res.report
        );
    }
}
