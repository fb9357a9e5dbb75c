//! # cq-trace
//!
//! Offline analyzer for cq-obs JSONL traces. Three analyses:
//!
//! - [`analyze::summarize`] — span tree with self/total time and a
//!   flame-style text rendering, counter totals with FLOP-rate
//!   reconciliation, histogram/metric tables, warnings, and recorded
//!   health verdicts.
//! - [`analyze::check`] — re-runs the `cq_obs::health` rules offline
//!   against the metric stream (works on traces from runs that never
//!   enabled the online monitor) and folds in recorded verdicts; the CLI
//!   exits nonzero on a Critical result.
//! - [`analyze::diff`] — CI regression gate between two traces: span
//!   times (with a noise floor; only slowdowns fail), counter totals,
//!   metric series and histogram distributions (total-variation distance
//!   on bucket shares, e.g. the sampled bit-width mix). Pool scheduling,
//!   executor timing and `ckpt.` lifecycle telemetry report without
//!   gating.
//! - [`record::merge`] — stitches the traces of consecutive process
//!   segments of one run (kill-and-resume) into a single trace that
//!   [`analyze::diff`] can gate against an uninterrupted reference.
//! - [`timeline::export_chrome_trace`] / [`timeline::profile`] — turn
//!   the per-thread timeline intervals of a `CQ_PROF=1` run into a
//!   `chrome://tracing` / Perfetto JSON file, or into a self-time-ranked
//!   span table with worker-pool utilization attributed per phase.
//!
//! Every JSON read or written here — trace lines and the Chrome trace
//! export — goes through `cq_obs::json`, the workspace's one JSON module
//! (no JSON dependency, per the repo's offline-only build constraint).

#![deny(missing_docs)]

pub mod analyze;
pub mod record;
pub mod timeline;
pub mod tree;

pub use analyze::{check, diff, summarize, CheckResult, DiffResult};
pub use record::{merge, parse_trace, render_trace, ParseError};
pub use timeline::{export_chrome_trace, profile, ProfileResult};
pub use tree::{build_span_tree, render_span_tree, SpanNode};

/// Reads and parses a trace file.
pub fn load_trace(path: &str) -> Result<Vec<cq_obs::json::Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}
