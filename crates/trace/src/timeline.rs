//! Timeline analyses over profiled traces: Chrome/Perfetto export and
//! the self-time profile report.
//!
//! Both consume the `Record::Timeline` intervals a `CQ_PROF=1` run
//! stages through cq-obs (see `cq_obs::prof`): closed `[start, start +
//! dur)` nanosecond intervals tagged with a category (`span` for scope
//! timings, `pool` for worker busy/park stretches) and a dense
//! process-local thread id.
//!
//! - [`export_chrome_trace`] renders the intervals as Chrome trace event
//!   format JSON (`"ph":"X"` complete events), loadable in
//!   `chrome://tracing` and <https://ui.perfetto.dev>.
//! - [`profile`] reconstructs per-thread span nesting to rank spans by
//!   *self* time (total minus time inside child spans — the number that
//!   says where optimisation effort goes), and attributes worker-pool
//!   utilization to each phase (top-level and depth-1 span names) by
//!   intersecting `pool.busy` intervals with the phase's wall intervals.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use cq_obs::json::{self, Record};

/// One timeline interval borrowed out of a record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval<'a> {
    name: &'a str,
    cat: &'a str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

fn intervals(records: &[Record]) -> Vec<Interval<'_>> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Timeline {
                name,
                cat,
                tid,
                start_ns,
                dur_ns,
            } => Some(Interval {
                name,
                cat,
                tid: *tid,
                start_ns: *start_ns,
                end_ns: start_ns.saturating_add(*dur_ns),
            }),
            _ => None,
        })
        .collect()
}

/// Renders the trace's timeline intervals as Chrome trace event format
/// JSON (the `chrome://tracing` / Perfetto "JSON trace" flavour): one
/// complete event (`"ph":"X"`) per interval with microsecond `ts`/`dur`
/// (fractional, so nanosecond precision survives), all under `pid` 1
/// with the recorded thread id as `tid`, plus `thread_name` metadata so
/// lanes are labelled. Errors when the trace carries no timeline
/// records (i.e. was recorded without `CQ_PROF`).
pub fn export_chrome_trace(records: &[Record]) -> Result<String, String> {
    let ivs = intervals(records);
    if ivs.is_empty() {
        return Err(
            "trace has no timeline records; record it with CQ_PROF=1 (and CQ_OBS set)".to_string(),
        );
    }
    let tids: BTreeSet<u64> = ivs.iter().map(|iv| iv.tid).collect();
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    // Lane labels first. Thread ids are assigned in first-use order by
    // the profiler; which OS thread got which id is run-dependent, so
    // the label only echoes the id.
    for (i, tid) in tids.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"thread {tid}\"}}}}",
            if i == 0 { "" } else { ",\n" }
        );
    }
    // ts/dur are microseconds in the trace event format; emit three
    // decimals to keep the nanosecond resolution.
    for iv in &ivs {
        let dur_ns = iv.end_ns - iv.start_ns;
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":{},\"ts\":{}.{:03},\"dur\":{}.{:03}}}",
            iv.tid,
            json::string(iv.name),
            json::string(iv.cat),
            iv.start_ns / 1000,
            iv.start_ns % 1000,
            dur_ns / 1000,
            dur_ns % 1000
        );
    }
    out.push_str("\n]}\n");
    Ok(out)
}

/// Per-span-name aggregate computed from the reconstructed nesting.
#[derive(Debug, Clone, Default, PartialEq)]
struct SpanProfile {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    threads: BTreeSet<u64>,
}

/// One phase (top-level or depth-1 span name) with pool attribution.
#[derive(Debug, Clone, Default, PartialEq)]
struct PhaseProfile {
    depth: usize,
    wall_ns: u64,
    busy_ns: u64,
    intervals: Vec<(u64, u64)>,
}

/// Result of [`profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// Human-readable report: self-time-ranked span table plus the
    /// per-phase pool utilization section.
    pub report: String,
    /// Overall pool utilization — busy nanoseconds across all workers
    /// divided by `span-forest wall time x executor lanes` — or `None`
    /// when the trace has no `pool.busy` intervals (single-threaded run
    /// or nothing dispatched).
    pub pool_utilization: Option<f64>,
}

/// Reconstructs per-thread span nesting from the timeline and renders
/// the profile report. Span intervals on one thread are properly nested
/// (they come from RAII scopes), so a stack pass over the start-sorted
/// intervals yields each span's parent; self time is total time minus
/// time spent in child spans. Errors when the trace has no timeline
/// records.
pub fn profile(records: &[Record]) -> Result<ProfileResult, String> {
    let ivs = intervals(records);
    if ivs.is_empty() {
        return Err(
            "trace has no timeline records; record it with CQ_PROF=1 (and CQ_OBS set)".to_string(),
        );
    }

    // Partition by thread, splitting span and pool lanes.
    let mut spans_by_tid: BTreeMap<u64, Vec<Interval>> = BTreeMap::new();
    let mut busy: Vec<(u64, u64)> = Vec::new();
    let mut pool_tids: BTreeSet<u64> = BTreeSet::new();
    for iv in &ivs {
        match iv.cat {
            "pool" => {
                pool_tids.insert(iv.tid);
                if iv.name == "pool.busy" {
                    busy.push((iv.start_ns, iv.end_ns));
                }
            }
            _ => spans_by_tid.entry(iv.tid).or_default().push(*iv),
        }
    }
    busy.sort_unstable();

    let mut by_name: BTreeMap<&str, SpanProfile> = BTreeMap::new();
    let mut phases: BTreeMap<&str, PhaseProfile> = BTreeMap::new();
    let mut forest_wall_ns: u64 = 0;
    for (tid, mut spans) in spans_by_tid {
        // Start-sorted, longest-first on ties, so a parent precedes the
        // children that share its start timestamp.
        spans.sort_unstable_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        // Stack entries: (interval, accumulated child time).
        let mut stack: Vec<(Interval, u64)> = Vec::new();
        for iv in spans {
            while let Some((top, child_ns)) = stack.last().copied() {
                if top.end_ns <= iv.start_ns {
                    close_span(&mut by_name, &mut phases, top, child_ns, stack.len() - 1);
                    if stack.len() == 1 {
                        forest_wall_ns += top.end_ns - top.start_ns;
                    }
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some((_, child_ns)) = stack.last_mut() {
                *child_ns += iv.end_ns - iv.start_ns;
            }
            stack.push((iv, 0));
        }
        while let Some((top, child_ns)) = stack.pop() {
            close_span(&mut by_name, &mut phases, top, child_ns, stack.len());
            if stack.is_empty() {
                forest_wall_ns += top.end_ns - top.start_ns;
            }
        }
        let _ = tid;
    }

    // Pool attribution per phase: intersect each phase's wall intervals
    // with the busy intervals of every worker lane.
    let width = pool_tids.len().max(1) as u64;
    let busy_pme = prefix_max_end(&busy);
    for phase in phases.values_mut() {
        phase.busy_ns = overlap_ns(&phase.intervals, &busy, &busy_pme);
    }
    let total_busy: u64 = busy.iter().map(|(s, e)| e - s).sum();
    let pool_utilization = if total_busy > 0 && forest_wall_ns > 0 {
        Some(((total_busy as f64) / (forest_wall_ns as f64 * width as f64)).min(1.0))
    } else {
        None
    };

    // --- render ---
    let mut report = String::new();
    let mut ranked: Vec<(&str, &SpanProfile)> = by_name.iter().map(|(k, v)| (*k, v)).collect();
    ranked.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    report.push_str("== spans by self time ==\n");
    report.push_str(&format!(
        "  {:<28} {:>8} {:>12} {:>12} {:>7} {:>8}\n",
        "span", "calls", "self", "total", "self%", "threads"
    ));
    let total_self: u64 = ranked.iter().map(|(_, p)| p.self_ns).sum();
    for (name, p) in &ranked {
        report.push_str(&format!(
            "  {:<28} {:>8} {:>12} {:>12} {:>6.1}% {:>8}\n",
            name,
            p.calls,
            fmt_ns(p.self_ns),
            fmt_ns(p.total_ns),
            100.0 * p.self_ns as f64 / total_self.max(1) as f64,
            p.threads.len(),
        ));
    }

    report.push_str("== pool utilization by phase ==\n");
    if busy.is_empty() {
        report.push_str("  no pool.busy intervals (single-threaded run or nothing dispatched)\n");
    } else {
        report.push_str(&format!(
            "  {} executor lane(s) with pool intervals\n",
            pool_tids.len()
        ));
        let mut phase_rows: Vec<(&str, &PhaseProfile)> =
            phases.iter().map(|(k, v)| (*k, v)).collect();
        phase_rows.sort_by(|a, b| a.1.depth.cmp(&b.1.depth).then(a.0.cmp(b.0)));
        for (name, ph) in phase_rows {
            let util = (ph.busy_ns as f64 / (ph.wall_ns.max(1) as f64 * width as f64)).min(1.0);
            report.push_str(&format!(
                "  {:<28} depth {}  wall {:>10}  busy {:>10}  utilization {:.3}\n",
                name,
                ph.depth,
                fmt_ns(ph.wall_ns),
                fmt_ns(ph.busy_ns),
                util
            ));
        }
        if let Some(util) = pool_utilization {
            report.push_str(&format!("  overall pool utilization: {util:.3}\n"));
        }
    }

    Ok(ProfileResult {
        report,
        pool_utilization,
    })
}

fn close_span<'a>(
    by_name: &mut BTreeMap<&'a str, SpanProfile>,
    phases: &mut BTreeMap<&'a str, PhaseProfile>,
    iv: Interval<'a>,
    child_ns: u64,
    depth: usize,
) {
    let dur = iv.end_ns - iv.start_ns;
    let p = by_name.entry(iv.name).or_default();
    p.calls += 1;
    p.total_ns += dur;
    p.self_ns += dur.saturating_sub(child_ns);
    p.threads.insert(iv.tid);
    // Phases: the root spans and their direct children — coarse enough
    // to read, fine enough to attribute the pool to a stage of the run.
    if depth <= 1 {
        let ph = phases.entry(iv.name).or_default();
        ph.depth = depth;
        ph.wall_ns += dur;
        ph.intervals.push((iv.start_ns, iv.end_ns));
    }
}

/// Total overlap between two interval sets, both closed-open `[s, e)`.
/// `b` must be start-sorted; `b_prefix_max_end[i]` must be the maximum
/// end over `b[..=i]` (monotone, so it admits a binary search even
/// though the ends themselves are not sorted — interleaved lanes put a
/// long interval before shorter ones). `a` need not be sorted.
fn overlap_ns(a: &[(u64, u64)], b: &[(u64, u64)], b_prefix_max_end: &[u64]) -> u64 {
    let mut total = 0u64;
    for &(s, e) in a {
        // Busy intervals never overlap within one lane but can across
        // lanes, so a plain sum of intersections is the right measure of
        // "worker-nanoseconds inside this phase". Everything before
        // `from` ends at or before `s`; everything from the first
        // `bs >= e` onward starts too late.
        let from = b_prefix_max_end.partition_point(|&me| me <= s);
        for &(bs, be) in &b[from..] {
            if bs >= e {
                break;
            }
            let (lo, hi) = (bs.max(s), be.min(e));
            if hi > lo {
                total += hi - lo;
            }
        }
    }
    total
}

/// Running maximum of interval ends, the search index [`overlap_ns`]
/// needs.
fn prefix_max_end(b: &[(u64, u64)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(b.len());
    let mut max = 0u64;
    for &(_, e) in b {
        max = max.max(e);
        out.push(max);
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::parse_trace;
    use cq_obs::json::{parse, Value};

    fn tl(name: &str, cat: &str, tid: u64, start: u64, dur: u64) -> Record {
        Record::Timeline {
            name: name.to_string(),
            cat: cat.to_string(),
            tid,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn export_requires_timeline_records() {
        let plain = vec![Record::Warn {
            message: "x".to_string(),
        }];
        assert!(export_chrome_trace(&plain).unwrap_err().contains("CQ_PROF"));
        assert!(profile(&plain).unwrap_err().contains("CQ_PROF"));
    }

    #[test]
    fn chrome_export_is_valid_json_with_threads_and_events() {
        let records = vec![
            tl("train.step", "span", 0, 1_000, 10_500),
            tl("pool.busy", "pool", 1, 2_000, 3_000),
            tl("pool.park", "pool", 1, 5_000, 1_000),
            tl("pool.busy", "pool", 2, 2_500, 2_500),
        ];
        let json = export_chrome_trace(&records).expect("export");
        // Round-trip through the crate's own JSON parser: valid document.
        let doc = parse(&json).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        // 3 thread_name metadata events + 4 complete events.
        assert_eq!(events.len(), 7, "{json}");
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 4);
        // ts/dur are microseconds with fractional ns: 1000ns -> 1.000us.
        let first = complete[0];
        assert_eq!(
            first.get("name").and_then(Value::as_str),
            Some("train.step")
        );
        assert_eq!(first.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(first.get("dur").and_then(Value::as_f64), Some(10.5));
        // Distinct worker lanes survive the export.
        let tids: BTreeSet<i64> = complete
            .iter()
            .filter_map(|e| e.get("tid").and_then(Value::as_f64))
            .map(|t| t as i64)
            .collect();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn jsonl_timeline_round_trips_into_export() {
        // The exact line shape the live JsonlSink writes must parse and
        // export (the satellite round-trip guarantee).
        let text = concat!(
            "{\"t\":\"tl\",\"name\":\"train.step\",\"cat\":\"span\",\"tid\":0,\"ts\":0,\"dur\":1000}\n",
            "{\"t\":\"tl\",\"name\":\"pool.busy\",\"cat\":\"pool\",\"tid\":1,\"ts\":100,\"dur\":200}\n",
        );
        let records = parse_trace(text).expect("jsonl parses");
        let json = export_chrome_trace(&records).expect("export");
        assert!(parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn profile_ranks_by_self_time_and_nests_correctly() {
        // One thread: outer [0, 100), inner [10, 40) -> outer self 70.
        // Second thread: another `inner` call [0, 50).
        let records = vec![
            tl("outer", "span", 0, 0, 100),
            tl("inner", "span", 0, 10, 30),
            tl("inner", "span", 3, 0, 50),
        ];
        let res = profile(&records).expect("profile");
        let inner_pos = res.report.find("inner").expect("inner listed");
        let outer_pos = res.report.find("outer").expect("outer listed");
        // inner self = 30 + 50 = 80 > outer self = 70: ranked first.
        assert!(inner_pos < outer_pos, "{}", res.report);
        assert!(res.report.contains("no pool.busy"), "{}", res.report);
        assert!(res.pool_utilization.is_none());
    }

    #[test]
    fn profile_attributes_pool_busy_to_phases() {
        // Phase [0, 1000) on the main thread; two workers busy for 400ns
        // each inside it -> utilization 800 / (1000 * 2 lanes) = 0.4.
        let records = vec![
            tl("train.step", "span", 0, 0, 1_000),
            tl("pool.busy", "pool", 1, 100, 400),
            tl("pool.busy", "pool", 2, 200, 400),
        ];
        let res = profile(&records).expect("profile");
        let util = res.pool_utilization.expect("pool ran");
        assert!((util - 0.4).abs() < 1e-9, "utilization {util}");
        assert!(util > 0.0 && util <= 1.0);
        assert!(
            res.report.contains("train.step") && res.report.contains("utilization 0.4"),
            "{}",
            res.report
        );
    }

    #[test]
    fn overlap_clips_to_interval_bounds() {
        // Busy interval extends past the phase on both sides: only the
        // intersection counts.
        let phase = [(100u64, 200u64)];
        let busy = [(0u64, 150u64), (180u64, 400u64)];
        assert_eq!(overlap_ns(&phase, &busy, &prefix_max_end(&busy)), 50 + 20);
        // Utilization can therefore never exceed lanes x wall.
        let records = vec![
            tl("step", "span", 0, 100, 100),
            tl("pool.busy", "pool", 1, 0, 400),
        ];
        let res = profile(&records).expect("profile");
        let util = res.pool_utilization.expect("pool ran");
        assert!(util <= 1.0, "clamped, got {util}");
    }

    #[test]
    fn overlap_handles_interleaved_lane_ends() {
        // Start-sorted busy intervals from interleaved lanes: a long
        // interval on one lane precedes short ones on another, so ends
        // are NOT monotone in start order. Intervals ending before the
        // phase starts must be skipped, not subtracted (u64 underflow).
        let phase = [(500u64, 600u64)];
        let busy = [(0u64, 1000u64), (10u64, 20u64), (550u64, 560u64)];
        assert_eq!(overlap_ns(&phase, &busy, &prefix_max_end(&busy)), 100 + 10);
        // End-to-end: the same shape through profile() must yield a
        // phase busy no larger than lanes x wall.
        let records = vec![
            tl("step", "span", 0, 500, 100),
            tl("pool.busy", "pool", 1, 0, 1000),
            tl("pool.busy", "pool", 2, 10, 10),
            tl("pool.busy", "pool", 2, 550, 10),
        ];
        let res = profile(&records).expect("profile");
        assert!(
            !res.report.contains("18446744"),
            "underflowed busy attribution leaked into the report:\n{}",
            res.report
        );
    }
}
