//! `cq-trace` — offline analyzer for cq-obs JSONL traces.
//!
//! ```text
//! cq-trace summarize <trace.jsonl>
//! cq-trace check <trace.jsonl>
//! cq-trace diff <a.jsonl> <b.jsonl> [--fail-over <pct>] [--min-ms <ms>]
//! cq-trace merge <out.jsonl> <seg1.jsonl> <seg2.jsonl> [...]
//! cq-trace timeline <trace.jsonl> [--out <trace.json>]
//! cq-trace profile <trace.jsonl> [--require-pool]
//! ```
//!
//! `diff` gates every series of two traces; pool scheduling, executor
//! timing and `ckpt.` lifecycle telemetry are reported but never gated.
//!
//! `merge` stitches the traces of consecutive process segments of one
//! run (kill-and-resume) into a single trace: counter totals are summed
//! per name (last flush per segment), everything else is concatenated.
//!
//! `timeline` exports the per-thread intervals of a `CQ_PROF=1` trace
//! as Chrome trace event JSON (load in `chrome://tracing` or
//! <https://ui.perfetto.dev>). `profile` prints the self-time-ranked
//! span table with per-phase pool utilization; `--require-pool` makes
//! it fail when no positive pool utilization can be derived (the CI
//! profile smoke gate).
//!
//! Exit codes: 0 = pass, 1 = Critical verdict (`check`), regression
//! (`diff`) or a failed `timeline`/`profile` report, 2 = usage or
//! I/O/parse error (a truncated or malformed trace is a parse error).

use std::process::ExitCode;

use cq_obs::health::Verdict;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cq-trace summarize <trace.jsonl>\n  cq-trace check <trace.jsonl>\n  cq-trace diff <a.jsonl> <b.jsonl> [--fail-over <pct>] [--min-ms <ms>]\n  cq-trace merge <out.jsonl> <seg1.jsonl> <seg2.jsonl> [...]\n  cq-trace timeline <trace.jsonl> [--out <trace.json>]\n  cq-trace profile <trace.jsonl> [--require-pool]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "summarize" => {
            let [_, path] = args.as_slice() else {
                return usage();
            };
            match cq_trace::load_trace(path) {
                Ok(records) => {
                    print!("{}", cq_trace::summarize(&records));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cq-trace: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "check" => {
            let [_, path] = args.as_slice() else {
                return usage();
            };
            match cq_trace::load_trace(path) {
                Ok(records) => {
                    let res = cq_trace::check(&records);
                    print!("{}", res.report);
                    if res.worst == Verdict::Critical {
                        eprintln!("cq-trace check: FAIL (critical verdict)");
                        ExitCode::FAILURE
                    } else {
                        println!("cq-trace check: PASS");
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("cq-trace: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "diff" => {
            if args.len() < 3 {
                return usage();
            }
            let (path_a, path_b) = (&args[1], &args[2]);
            let mut fail_over = 30.0f64;
            let mut min_ms = 10.0f64;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                match (flag.as_str(), rest.next()) {
                    ("--fail-over", Some(v)) => match v.parse::<f64>() {
                        Ok(v) => fail_over = v,
                        Err(_) => return usage(),
                    },
                    ("--min-ms", Some(v)) => match v.parse::<f64>() {
                        Ok(v) => min_ms = v,
                        Err(_) => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let (a, b) = match (cq_trace::load_trace(path_a), cq_trace::load_trace(path_b)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("cq-trace: {e}");
                    return ExitCode::from(2);
                }
            };
            let res = cq_trace::diff(&a, &b, fail_over, (min_ms * 1e6) as u64);
            print!("{}", res.report);
            if res.regressions.is_empty() {
                println!("cq-trace diff: PASS");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "cq-trace diff: FAIL ({} regressions)",
                    res.regressions.len()
                );
                ExitCode::FAILURE
            }
        }
        "merge" => {
            // out path + at least two segments to stitch.
            if args.len() < 4 {
                return usage();
            }
            let out_path = &args[1];
            let mut segments = Vec::new();
            for path in &args[2..] {
                match cq_trace::load_trace(path) {
                    Ok(records) => segments.push(records),
                    Err(e) => {
                        eprintln!("cq-trace: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            let merged = cq_trace::merge(&segments);
            let n = merged.len();
            match std::fs::write(out_path, cq_trace::render_trace(&merged)) {
                Ok(()) => {
                    println!(
                        "cq-trace merge: {} segment(s) -> {out_path} ({n} records)",
                        segments.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cq-trace: cannot write {out_path}: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "timeline" => {
            if args.len() < 2 {
                return usage();
            }
            let path = &args[1];
            let mut out_path: Option<&String> = None;
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                match (flag.as_str(), rest.next()) {
                    ("--out", Some(v)) => out_path = Some(v),
                    _ => return usage(),
                }
            }
            let records = match cq_trace::load_trace(path) {
                Ok(records) => records,
                Err(e) => {
                    eprintln!("cq-trace: {e}");
                    return ExitCode::from(2);
                }
            };
            match cq_trace::export_chrome_trace(&records) {
                Ok(json) => match out_path {
                    Some(out) => match std::fs::write(out, &json) {
                        Ok(()) => {
                            println!("cq-trace timeline: {path} -> {out} ({} bytes)", json.len());
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("cq-trace: cannot write {out}: {e}");
                            ExitCode::from(2)
                        }
                    },
                    None => {
                        print!("{json}");
                        ExitCode::SUCCESS
                    }
                },
                Err(e) => {
                    eprintln!("cq-trace timeline: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "profile" => {
            if args.len() < 2 {
                return usage();
            }
            let path = &args[1];
            let mut require_pool = false;
            for flag in &args[2..] {
                match flag.as_str() {
                    "--require-pool" => require_pool = true,
                    _ => return usage(),
                }
            }
            let records = match cq_trace::load_trace(path) {
                Ok(records) => records,
                Err(e) => {
                    eprintln!("cq-trace: {e}");
                    return ExitCode::from(2);
                }
            };
            match cq_trace::profile(&records) {
                Ok(res) => {
                    print!("{}", res.report);
                    let pool_ok = res
                        .pool_utilization
                        .is_some_and(|u| u.is_finite() && u > 0.0);
                    if require_pool && !pool_ok {
                        eprintln!(
                            "cq-trace profile: FAIL (no positive pool utilization; got {:?})",
                            res.pool_utilization
                        );
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("cq-trace profile: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
