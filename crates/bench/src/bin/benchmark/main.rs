//! End-to-end benchmark of the training step, plus a traced run that
//! breaks it down per layer. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <n>] [--trace 0|1]
//! ```
//!
//! One process runs one workload. `--trace 0` (the default) prints the
//! end-to-end metrics of a closed loop of ops on one thread; `--trace 1`
//! prints the per-layer metrics and writes the benchmark's spans to
//! `target/bench-trace/<workload>-seed<n>.jsonl` for `cq-trace profile` and
//! `cq-trace timeline`. Either way the last stdout line is a JSON object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, and the
//! exit status is non-zero when a correctness check fails.

mod e2e;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;
mod yardstick;

use std::path::PathBuf;

use workload::Workload;

/// Counts allocation calls for `mem.allocs_per_step`.
#[global_allocator]
static ALLOC: cq_obs::alloc::CountingAlloc = cq_obs::alloc::CountingAlloc::system();

/// Settings the benchmark owns: a sink, the profiler, the fusion mode or
/// the thread count inherited from the environment would change what an
/// untraced run measures.
const OWNED_ENV: [&str; 4] = ["CQ_OBS", "CQ_PROF", "CQ_FUSION", "CQ_THREADS"];

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut trace) = (DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    if let Some(var) = OWNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("benchmark: {var} is set; unset it, the benchmark controls this setting");
        std::process::exit(2);
    }
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("benchmark: {msg}");
        eprintln!("usage: benchmark --workload <name> --seed <n> [--seconds <n>] [--trace 0|1]");
        std::process::exit(2);
    });
    let w = args.workload;
    let result = if args.trace {
        let path = PathBuf::from(format!(
            "target/bench-trace/{}-seed{}.jsonl",
            w.name, args.seed
        ));
        layers::run(w, args.seed, args.seconds, &path)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            print!("{}", report.render());
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&[
            "--workload",
            "infer-r18-int8",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("infer-r18-int8", 7, 3.0, true)
        );
        let a = parse(&["--seed", "1", "--workload", "pretrain-r18-cqc"]).expect("valid");
        assert_eq!((a.seconds, a.trace), (DEFAULT_SECONDS, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "pretrain-r18-cqc"],
            &["--seed", "1"],
            &["--workload", "pretrain-r18-cqc", "--seed", "-1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let valid = ["--workload", "pretrain-r18-cqc", "--seed", "1"];
        for extra in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seconds"],
            &["--verbose", "1"],
        ] {
            let args: Vec<&str> = valid.iter().chain(extra).copied().collect();
            assert!(parse(&args).is_err(), "{args:?}");
        }
    }
}
