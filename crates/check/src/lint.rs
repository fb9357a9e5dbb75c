//! Source lints over the workspace's library crates, token-aware.
//!
//! Eight lints, each an [`Analysis`] over the lexed token stream (so a
//! pattern spelled inside a string literal, doc comment or block comment
//! can never trip them — the failure mode of the line-greps these
//! replaced):
//!
//! - **no-unwrap**: library code must not call `unwrap`/`expect` —
//!   errors are propagated as `Result`s.
//! - **no-println**: library code must not write diagnostics to stdout
//!   with `println!` — route them through `cq_obs` (events/metrics) or
//!   `eprintln!` so stdout stays reserved for a binary's actual output.
//!   `main.rs` and `src/bin/**` are exempt (stdout is theirs).
//! - **gradcheck-coverage**: every file defining a non-test
//!   `impl Layer for T` must also invoke the `check_layer` gradcheck
//!   family, so no layer's backward pass ships unverified. A
//!   machine-readable gradcheck log (`CQ_GRADCHECK_LOG` output,
//!   `gradcheck layer=<kind> …` lines) can vouch for types checked from
//!   another file.
//! - **obs-names**: `cq_obs::metric(…)` / `cq_obs::histogram(…)` call
//!   sites must name their series via a `cq_obs::names::*` constant, not
//!   an ad-hoc string literal — ad-hoc names silently fork a series
//!   (`"train.loss"` vs `"train_loss"`) and break the health monitor and
//!   `cq-trace diff`, which match on the canonical names.
//! - **no-raw-threads**: no `crossbeam::` (scoped thread) use outside
//!   `crates/tensor/src/par.rs` — ad-hoc thread fan-out re-introduces
//!   per-call spawn overhead and scheduling-dependent reduction orders,
//!   which is exactly what the persistent pool and its fixed chunk grid
//!   exist to prevent. This lint covers test code too, since results
//!   from raw scopes are not thread-count reproducible.
//! - **no-eager-forward**: cq-nn / cq-models forward paths must build
//!   and execute op graphs, not hand-rolled eager tensor-op chains —
//!   no in-place element mutation (`as_mut_slice` / `iter_mut`) inside
//!   a `forward` body, and no `fake_quant_into` call outside the graph
//!   executor, which owns activation fake-quantization (a fused chain
//!   stays bitwise-identical to its pass-per-group reference only because
//!   every chain runs through one kernel set).
//! - **one-train-loop**: `crates/core/src/engine.rs` owns the epoch
//!   loop and everything a checkpoint must capture. Outside it, cq-core
//!   library code must not iterate over `cfg.epochs` and must not seed a
//!   raw `StdRng` (trainer randomness goes through `CqRng`, whose state
//!   is serializable into checkpoints).
//! - **no-naive-hot-loop**: no unblocked multiply-accumulate loop nest
//!   (three or more nested `for`s around a `+=` whose right-hand side
//!   multiplies) outside `crates/tensor/src/gemm/` — that is O(n³)
//!   arithmetic written the slow way; route the product through the
//!   blocked `cq_tensor::gemm` kernels, which are bitwise-identical to
//!   the naive loops and several times faster. Data movement (`+=` with
//!   multiplies only inside index expressions, as in `col2im`) is not
//!   flagged.
//!
//! A justified site is excused with a `cq-allow(<lint>): <reason>`
//! comment on the same or preceding line (see [`crate::analysis`]).

use std::path::{Path, PathBuf};

use crate::analysis::{analyze_file, Analysis, Finding, Pat, SourceFile};

/// Pass name the source lints report under.
const PASS: &str = "lint";

/// The one file allowed to own thread-pool internals.
const PAR_RS: &str = "crates/tensor/src/par.rs";

/// The one file allowed to own the training epoch loop.
const ENGINE_RS: &str = "crates/core/src/engine.rs";

/// The crate whose library sources the one-train-loop lint covers.
const CORE_SRC: &str = "crates/core/src/";

/// Directory names never descended into by [`workspace_sources`]:
/// executables (`bin`), build output (`target`, however deeply nested)
/// and vendored third-party code (`vendor`).
const SKIP_DIRS: [&str; 3] = ["bin", "target", "vendor"];

/// Recursively collects `.rs` files under `dir`. Skips the
/// [`SKIP_DIRS`] directories and hidden entries at any depth, and never
/// follows symlinks (a link into `target/`, a sibling crate or a
/// directory cycle would otherwise smuggle files past the skip list or
/// hang the walk).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let Ok(meta) = std::fs::symlink_metadata(&path) else {
            continue;
        };
        if meta.is_symlink() {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if meta.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// All library sources of the workspace at `root`: `crates/*/src/**/*.rs`
/// minus `src/bin/**`, nested `target`/`vendor` directories, hidden
/// directories and anything behind a symlink.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return files;
    };
    let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    for d in dirs {
        if std::fs::symlink_metadata(&d).is_ok_and(|m| m.is_dir() && !m.is_symlink()) {
            rust_sources(&d.join("src"), &mut files);
        }
    }
    files
}

/// Runs `analyses` over every workspace source file at `root`, applying
/// inline suppressions and stale-suppression detection per file.
pub fn run_source_passes(root: &Path, analyses: &[&dyn Analysis]) -> Vec<Finding> {
    let mut out = Vec::new();
    for path in workspace_sources(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let file = SourceFile::parse(rel, &text);
        analyze_file(&file, analyses, &mut out);
    }
    out
}

/// no-unwrap: `.unwrap()` / `.expect(` in non-test library code.
pub struct NoUnwrap;

impl Analysis for NoUnwrap {
    fn lint(&self) -> &'static str {
        "no-unwrap"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        for i in 0..file.code.len() {
            let unwrap = file.matches(
                i,
                &[
                    Pat::Punct('.'),
                    Pat::Ident("unwrap"),
                    Pat::Punct('('),
                    Pat::Punct(')'),
                ],
            );
            let expect = file.matches(i, &[Pat::Punct('.'), Pat::Ident("expect"), Pat::Punct('(')]);
            if !unwrap && !expect {
                continue;
            }
            let line = file.code_tok(i).map_or(0, |t| t.line);
            if file.is_test_line(line) {
                continue;
            }
            out.push(Finding::error(
                PASS,
                self.lint(),
                file.rel.clone(),
                line,
                "unwrap/expect in library code; propagate the error or add \
                 `cq-allow(no-unwrap): <reason>`",
            ));
        }
    }
}

/// no-println: `println!` in non-test library code (`main.rs` exempt).
pub struct NoPrintln;

impl Analysis for NoPrintln {
    fn lint(&self) -> &'static str {
        "no-println"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        if file.rel.ends_with("main.rs") {
            return; // a binary's entry point owns stdout
        }
        for i in 0..file.code.len() {
            if !file.matches(
                i,
                &[Pat::Ident("println"), Pat::Punct('!'), Pat::Punct('(')],
            ) {
                continue;
            }
            let line = file.code_tok(i).map_or(0, |t| t.line);
            if file.is_test_line(line) {
                continue;
            }
            out.push(Finding::error(
                PASS,
                self.lint(),
                file.rel.clone(),
                line,
                "println! in library code; emit a cq_obs event or use eprintln!, \
                 or add `cq-allow(no-println): <reason>`",
            ));
        }
    }
}

/// obs-names: metric/histogram series must be named by `cq_obs::names::*`
/// constants, not ad-hoc string literals.
pub struct ObsNames;

impl Analysis for ObsNames {
    fn lint(&self) -> &'static str {
        "obs-names"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        for i in 0..file.code.len() {
            let hit = file.matches(
                i,
                &[
                    Pat::Ident("cq_obs"),
                    Pat::PathSep,
                    Pat::IdentIn(&["metric", "histogram"]),
                    Pat::Punct('('),
                    Pat::Str,
                ],
            );
            if !hit {
                continue;
            }
            let line = file.code_tok(i).map_or(0, |t| t.line);
            if file.is_test_line(line) {
                continue;
            }
            out.push(Finding::error(
                PASS,
                self.lint(),
                file.rel.clone(),
                line,
                "ad-hoc metric/histogram name literal; use a `cq_obs::names::*` \
                 constant so the series stays canonical, or add \
                 `cq-allow(obs-names): <reason>`",
            ));
        }
    }
}

/// no-raw-threads: `crossbeam::` anywhere (tests included) outside the
/// pool implementation.
pub struct NoRawThreads;

impl Analysis for NoRawThreads {
    fn lint(&self) -> &'static str {
        "no-raw-threads"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        if file.rel.ends_with(PAR_RS) {
            return;
        }
        for i in 0..file.code.len() {
            if !file.matches(i, &[Pat::Ident("crossbeam"), Pat::PathSep]) {
                continue;
            }
            let line = file.code_tok(i).map_or(0, |t| t.line);
            out.push(Finding::error(
                PASS,
                self.lint(),
                file.rel.clone(),
                line,
                format!(
                    "raw crossbeam:: use outside {PAR_RS}; route parallel work \
                     through cq_tensor::par (persistent pool, deterministic chunk \
                     grid), or add `cq-allow(no-raw-threads): <reason>`"
                ),
            ));
        }
    }
}

/// one-train-loop: no epoch iteration or raw `StdRng` seeding in cq-core
/// library code outside the engine.
pub struct OneTrainLoop;

impl Analysis for OneTrainLoop {
    fn lint(&self) -> &'static str {
        "one-train-loop"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        if !file.rel.contains(CORE_SRC) || file.rel.ends_with(ENGINE_RS) {
            return;
        }
        for i in 0..file.code.len() {
            let line = file.code_tok(i).map_or(0, |t| t.line);
            if file.is_test_line(line) {
                continue;
            }
            let epoch_loop = file.matches(i, &[Pat::Punct('.'), Pat::Ident("epochs")])
                && file.line_has_ident(line, "for");
            let raw_rng = file.matches(
                i,
                &[
                    Pat::Ident("StdRng"),
                    Pat::PathSep,
                    Pat::Ident("seed_from_u64"),
                ],
            );
            if !epoch_loop && !raw_rng {
                continue;
            }
            let message = if epoch_loop {
                format!(
                    "epoch loop outside {ENGINE_RS}; drive training through \
                     TrainLoop (one engine owns the schedule, telemetry and \
                     resume bookkeeping), or add `cq-allow(one-train-loop): <reason>`"
                )
            } else {
                "raw StdRng seeding in trainer code; use cq_tensor::CqRng so \
                 the state serializes into checkpoints (StdRng breaks bitwise \
                 resume), or add `cq-allow(one-train-loop): <reason>`"
                    .to_string()
            };
            out.push(Finding::error(
                PASS,
                self.lint(),
                file.rel.clone(),
                line,
                message,
            ));
        }
    }
}

/// Directory owning the blocked GEMM kernels — the one place a naive
/// multiply-accumulate loop nest is allowed (its `reference` module *is*
/// the oracle the blocked kernels are proven against).
const GEMM_DIR: &str = "crates/tensor/src/gemm/";

/// no-naive-hot-loop: an unblocked multiply-accumulate loop nest (`+=`
/// with a multiplying right-hand side under ≥ 3 nested `for`s) outside
/// `GEMM_DIR`.
pub struct NoNaiveHotLoop;

impl NoNaiveHotLoop {
    /// True when the code token at `i` begins a `for` *loop* (followed by
    /// an `in` before the body brace) rather than `impl Trait for Type`.
    fn is_for_loop(file: &SourceFile<'_>, i: usize) -> bool {
        if !file.ident_eq(i, "for") {
            return false;
        }
        for j in i + 1..(i + 24).min(file.code.len()) {
            if file.punct_eq(j, '{') {
                return false;
            }
            if file.ident_eq(j, "in") {
                return true;
            }
        }
        false
    }

    /// True when the `+=` whose `+` sits at code index `i` has a binary
    /// `*` outside any parentheses/brackets on its right-hand side —
    /// i.e. the statement computes a product, not just a strided copy
    /// whose multiplies all live in index expressions.
    fn rhs_multiplies(file: &SourceFile<'_>, i: usize) -> bool {
        let mut depth = 0usize;
        for j in i + 2..file.code.len() {
            if depth == 0 && file.punct_eq(j, ';') {
                return false;
            }
            if file.punct_eq(j, '(') || file.punct_eq(j, '[') {
                depth += 1;
            } else if file.punct_eq(j, ')') || file.punct_eq(j, ']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && file.punct_eq(j, '*') {
                // Binary `*` only: a multiply follows a value (ident,
                // number or closing delimiter); a deref follows an
                // operator.
                let binary = file.code_tok(j - 1).is_some_and(|t| {
                    matches!(
                        t.kind,
                        crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::Number
                    )
                }) || file.punct_eq(j - 1, ')')
                    || file.punct_eq(j - 1, ']');
                if binary {
                    return true;
                }
            }
        }
        false
    }
}

impl Analysis for NoNaiveHotLoop {
    fn lint(&self) -> &'static str {
        "no-naive-hot-loop"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        if file.rel.contains(GEMM_DIR) {
            return;
        }
        // One forward scan: brace depth plus the brace depths at which
        // `for` bodies opened tells how many loops enclose any token.
        let mut depth = 0usize;
        let mut for_stack: Vec<usize> = Vec::new();
        let mut pending_for = false;
        for i in 0..file.code.len() {
            if Self::is_for_loop(file, i) {
                pending_for = true;
            } else if file.punct_eq(i, '{') {
                depth += 1;
                if pending_for {
                    for_stack.push(depth);
                    pending_for = false;
                }
            } else if file.punct_eq(i, '}') {
                if for_stack.last() == Some(&depth) {
                    for_stack.pop();
                }
                depth = depth.saturating_sub(1);
            } else if file.punct_eq(i, '+')
                && file.punct_eq(i + 1, '=')
                && for_stack.len() >= 3
                && Self::rhs_multiplies(file, i)
            {
                let line = file.code_tok(i).map_or(0, |t| t.line);
                if file.is_test_line(line) {
                    continue;
                }
                out.push(Finding::error(
                    PASS,
                    self.lint(),
                    file.rel.clone(),
                    line,
                    format!(
                        "naive multiply-accumulate loop nest ({} nested `for`s); \
                         route the product through cq_tensor::gemm (blocked, \
                         bitwise-identical, several times faster), or add \
                         `cq-allow(no-naive-hot-loop): <reason>`",
                        for_stack.len()
                    ),
                ));
            }
        }
    }
}

/// The crates whose forward paths must route through the graph executor.
const GRAPH_CRATES: [&str; 2] = ["crates/nn/src/", "crates/models/src/"];

/// The graph executor itself — the one home of the fused kernel set.
const GRAPH_RS: &str = "crates/nn/src/graph.rs";

/// no-eager-forward: eager tensor-op chains in cq-nn / cq-models forward
/// paths outside the graph executor. Two shapes are flagged:
///
/// 1. a `fake_quant_into(` call anywhere in these crates outside
///    `GRAPH_RS` — activation fake-quant is a whole-tensor pass that
///    the executor places at fused-segment boundaries; a second call
///    site forks the bitwise contract;
/// 2. in-place element mutation (`.as_mut_slice(` / `.iter_mut(`)
///    inside a non-test `fn forward` / `fn forward_spatial` body — the
///    duplicated elementwise loops the graph executor replaced.
///
/// Backward passes, optimizers and leaf compute kernels (matmul, im2col,
/// pooling) are untouched: they mutate outside `forward` bodies.
pub struct NoEagerForward;

impl Analysis for NoEagerForward {
    fn lint(&self) -> &'static str {
        "no-eager-forward"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        if !GRAPH_CRATES.iter().any(|c| file.rel.contains(c)) || file.rel.ends_with(GRAPH_RS) {
            return;
        }
        // Brace-depth scan tracking whether we are inside a forward body
        // (closures nest deeper, so "inside" is depth > entry depth).
        let mut depth = 0usize;
        let mut forward_entry: Option<usize> = None;
        let mut pending_fn = false;
        let mut last_line = 0usize;
        for i in 0..file.code.len() {
            if file.matches(
                i,
                &[
                    Pat::Ident("fn"),
                    Pat::IdentIn(&["forward", "forward_spatial"]),
                ],
            ) {
                pending_fn = true;
            } else if file.punct_eq(i, '{') {
                depth += 1;
                if pending_fn {
                    forward_entry.get_or_insert(depth);
                    pending_fn = false;
                }
            } else if file.punct_eq(i, '}') {
                if forward_entry == Some(depth) {
                    forward_entry = None;
                }
                depth = depth.saturating_sub(1);
            }

            let quant_call = file.matches(i, &[Pat::Ident("fake_quant_into"), Pat::Punct('(')]);
            let eager_mut = forward_entry.is_some()
                && file.matches(
                    i,
                    &[
                        Pat::Punct('.'),
                        Pat::IdentIn(&["as_mut_slice", "iter_mut"]),
                        Pat::Punct('('),
                    ],
                );
            if !quant_call && !eager_mut {
                continue;
            }
            let line = file.code_tok(i).map_or(0, |t| t.line);
            if file.is_test_line(line) || line == last_line {
                continue; // one finding per offending line
            }
            last_line = line;
            let message = if quant_call {
                format!(
                    "fake_quant_into outside {GRAPH_RS}; activation fake-quant \
                     belongs to the graph executor's fused kernel set (one call \
                     site keeps fused == per-layer bitwise), or add \
                     `cq-allow(no-eager-forward): <reason>`"
                )
            } else {
                "eager element mutation in a forward path; record the op on the \
                 graph Recorder (or execute_single) so the fused executor owns \
                 the loop, or add `cq-allow(no-eager-forward): <reason>`"
                    .to_string()
            };
            out.push(Finding::error(
                PASS,
                self.lint(),
                file.rel.clone(),
                line,
                message,
            ));
        }
    }
}

/// gradcheck-coverage: every non-test `impl Layer for T` must be vouched
/// for by a `check_layer`-family call in the same file or a
/// `CQ_GRADCHECK_LOG` entry.
pub struct GradcheckCoverage {
    /// Layer kinds vouched for by the gradcheck log (empty when the env
    /// var is unset or the file is unreadable).
    logged: Vec<String>,
}

impl GradcheckCoverage {
    /// Loads the `CQ_GRADCHECK_LOG` vouch list once, at construction.
    pub fn from_env() -> Self {
        let logged = std::env::var("CQ_GRADCHECK_LOG")
            .ok()
            .and_then(|path| std::fs::read_to_string(path).ok())
            .map(|text| {
                text.lines()
                    .filter_map(|l| l.strip_prefix("gradcheck layer="))
                    .filter_map(|rest| rest.split_whitespace().next())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        GradcheckCoverage { logged }
    }
}

impl Analysis for GradcheckCoverage {
    fn lint(&self) -> &'static str {
        "gradcheck-coverage"
    }

    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        // A `check_layer` / `check_layer_with` call anywhere in the file
        // (its trailing test module included — that is where gradcheck
        // tests live) vouches for every impl in the file.
        let has_gradcheck =
            (0..file.code.len()).any(|i| file.code_text(i).starts_with("check_layer"));
        if has_gradcheck {
            return;
        }
        for i in 0..file.code.len() {
            let hit = file.matches(
                i,
                &[
                    Pat::Ident("impl"),
                    Pat::Ident("Layer"),
                    Pat::Ident("for"),
                    Pat::AnyIdent,
                ],
            );
            if !hit {
                continue;
            }
            let line = file.code_tok(i).map_or(0, |t| t.line);
            if file.is_test_line(line) {
                continue;
            }
            let name = file.code_text(i + 3).to_string();
            if self.logged.iter().any(|l| l == &name) {
                continue; // a gradcheck elsewhere logged this kind
            }
            out.push(Finding::error(
                PASS,
                self.lint(),
                file.rel.clone(),
                line,
                format!(
                    "`impl Layer for {name}` has no gradcheck coverage in this file \
                     (add a check_layer test or log it via CQ_GRADCHECK_LOG)"
                ),
            ));
        }
    }
}

/// The seven source lints plus gradcheck coverage, ready to run.
pub fn source_analyses() -> Vec<Box<dyn Analysis>> {
    vec![
        Box::new(NoUnwrap),
        Box::new(NoPrintln),
        Box::new(ObsNames),
        Box::new(NoRawThreads),
        Box::new(OneTrainLoop),
        Box::new(NoNaiveHotLoop),
        Box::new(NoEagerForward),
        Box::new(GradcheckCoverage::from_env()),
    ]
}

/// Runs every source analysis — the eight lints plus the determinism
/// auditor — over the workspace at `root` in a single pass per file.
///
/// The two families must share one [`analyze_file`] run: suppression
/// matching is per-file across *all* findings, so a `cq-allow(det-…)`
/// comment would be falsely reported stale by a lint-only scan.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let lints = source_analyses();
    let det = crate::determinism::determinism_analyses();
    let refs: Vec<&dyn Analysis> = lints.iter().chain(det.iter()).map(Box::as_ref).collect();
    run_source_passes(root, &refs)
}

/// The workspace root this binary was compiled in (two levels above the
/// crate manifest).
pub fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(rel: &str, src: &str, a: &dyn Analysis) -> Vec<Finding> {
        let file = SourceFile::parse(rel, src);
        let mut out = Vec::new();
        analyze_file(&file, &[a], &mut out);
        out
    }

    fn unsuppressed(findings: &[Finding], lint: &str) -> usize {
        findings
            .iter()
            .filter(|f| f.lint == lint && !f.suppressed)
            .count()
    }

    #[test]
    fn flags_unmarked_unwrap_and_expect() {
        let src = "fn f() {\n    let v = thing.unwrap();\n    let w = o.expect(\"msg\");\n}\n";
        let out = check_one("x.rs", src, &NoUnwrap);
        assert_eq!(unsuppressed(&out, "no-unwrap"), 2, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn unwrap_in_string_comment_and_tests_is_ignored() {
        let src = concat!(
            "fn f() {\n",
            "    // docs may mention .unwrap() freely\n",
            "    /* block: .expect(\"x\") */\n",
            "    let s = \"call .unwrap() here\";\n",
            "    let t = r#\"raw .expect(\"y\") \"#;\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod t {\n",
            "    fn g() { thing.unwrap(); }\n",
            "}\n"
        );
        let out = check_one("x.rs", src, &NoUnwrap);
        assert_eq!(unsuppressed(&out, "no-unwrap"), 0, "{out:?}");
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }\n";
        let out = check_one("x.rs", src, &NoUnwrap);
        assert_eq!(unsuppressed(&out, "no-unwrap"), 0, "{out:?}");
    }

    #[test]
    fn allow_marker_suppresses_unwrap() {
        let same = "fn f() {\n    v.unwrap(); // cq-allow(no-unwrap): fine here\n}\n";
        let prev = "fn f() {\n    // cq-allow(no-unwrap): fine here\n    v.unwrap();\n}\n";
        for src in [same, prev] {
            let out = check_one("x.rs", src, &NoUnwrap);
            assert_eq!(unsuppressed(&out, "no-unwrap"), 0, "{src}");
        }
    }

    #[test]
    fn flags_println_but_not_eprintln_or_strings() {
        let src = "fn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n    let s = \"println!(z)\";\n}\n";
        let out = check_one("x.rs", src, &NoPrintln);
        assert_eq!(unsuppressed(&out, "no-println"), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn println_exempt_in_main_rs() {
        let src = "fn main() { println!(\"report\"); }\n";
        let out = check_one("crates/bench/src/main.rs", src, &NoPrintln);
        assert_eq!(unsuppressed(&out, "no-println"), 0, "{out:?}");
    }

    #[test]
    fn obs_names_flags_literals_but_not_constants() {
        let src = concat!(
            "fn f() {\n",
            "    cq_obs::metric(\"train.loss\", 0, 1.0);\n",
            "    cq_obs::metric(cq_obs::names::TRAIN_LOSS, 0, 1.0);\n",
            "    cq_obs::histogram(\"quant.bits\", 4.0);\n",
            "    cq_obs::histogram(cq_obs::names::QUANT_BITS, 4.0);\n",
            "}\n"
        );
        let out = check_one("x.rs", src, &ObsNames);
        assert_eq!(unsuppressed(&out, "obs-names"), 2, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 4);
    }

    #[test]
    fn obs_names_catches_literal_after_line_break_and_comment() {
        // The token stream sees through both the line break and an
        // interleaved comment — cases the old line-local grep missed.
        let src = "fn f() {\n    cq_obs::metric( // series\n        \"ad.hoc\", 0, 1.0);\n}\n";
        let out = check_one("x.rs", src, &ObsNames);
        assert_eq!(unsuppressed(&out, "obs-names"), 1, "{out:?}");
    }

    #[test]
    fn no_raw_threads_flags_tests_too_and_exempts_par() {
        let src = "fn f() {\n    crossbeam::scope(|s| {});\n}\n#[cfg(test)]\nmod t {\n    fn g() { crossbeam::scope(|s| {}); }\n}\n";
        let out = check_one("crates/nn/src/conv.rs", src, &NoRawThreads);
        assert_eq!(unsuppressed(&out, "no-raw-threads"), 2, "{out:?}");
        let out = check_one("crates/tensor/src/par.rs", src, &NoRawThreads);
        assert_eq!(unsuppressed(&out, "no-raw-threads"), 0, "{out:?}");
        // A doc comment naming crossbeam:: is not a use.
        let out = check_one(
            "crates/nn/src/conv.rs",
            "// crossbeam::scope was removed in PR 4\nfn f() {}\n",
            &NoRawThreads,
        );
        assert_eq!(unsuppressed(&out, "no-raw-threads"), 0, "{out:?}");
    }

    #[test]
    fn one_train_loop_flags_epoch_loops_and_raw_rng_in_core() {
        let src = "fn f(cfg: &C) {\n    for e in 0..cfg.epochs {}\n    let r = StdRng::seed_from_u64(7);\n}\n";
        let out = check_one("crates/core/src/simclr.rs", src, &OneTrainLoop);
        assert_eq!(unsuppressed(&out, "one-train-loop"), 2, "{out:?}");
        assert!(out[1].message.contains("CqRng"));
        // engine.rs owns the loop; other crates may iterate epochs freely.
        for rel in ["crates/core/src/engine.rs", "crates/eval/src/probe.rs"] {
            let out = check_one(rel, src, &OneTrainLoop);
            assert_eq!(unsuppressed(&out, "one-train-loop"), 0, "{rel}: {out:?}");
        }
    }

    #[test]
    fn gradcheck_lint_finds_uncovered_impls() {
        let src = "impl Layer for Conv9 {\n}\n";
        let out = check_one("x.rs", src, &GradcheckCoverage { logged: vec![] });
        assert_eq!(unsuppressed(&out, "gradcheck-coverage"), 1, "{out:?}");
        assert!(out[0].message.contains("Conv9"));

        let covered = "impl Layer for Conv9 {\n}\n#[cfg(test)]\nmod t {\n    fn g() { check_layer_with(x); }\n}\n";
        let out = check_one("x.rs", covered, &GradcheckCoverage { logged: vec![] });
        assert_eq!(unsuppressed(&out, "gradcheck-coverage"), 0, "{out:?}");

        let logged = GradcheckCoverage {
            logged: vec!["Conv9".into()],
        };
        let out = check_one("x.rs", src, &logged);
        assert_eq!(unsuppressed(&out, "gradcheck-coverage"), 0, "{out:?}");
    }

    #[test]
    fn test_impls_are_ignored() {
        let src = "fn f() {}\n#[cfg(test)]\nmod t {\n    impl Layer for Fake {}\n}\n";
        let out = check_one("x.rs", src, &GradcheckCoverage { logged: vec![] });
        assert_eq!(unsuppressed(&out, "gradcheck-coverage"), 0, "{out:?}");
    }

    #[test]
    fn naive_hot_loop_flags_triple_nested_mac() {
        let src = concat!(
            "fn mm(a: &[f32], b: &[f32], out: &mut [f32], n: usize) {\n",
            "    for i in 0..n {\n",
            "        for kk in 0..n {\n",
            "            for j in 0..n {\n",
            "                out[i * n + j] += a[i * n + kk] * b[kk * n + j];\n",
            "            }\n",
            "        }\n",
            "    }\n",
            "}\n"
        );
        let out = check_one("crates/nn/src/x.rs", src, &NoNaiveHotLoop);
        assert_eq!(unsuppressed(&out, "no-naive-hot-loop"), 1, "{out:?}");
        assert_eq!(out[0].line, 5);
        // The gemm directory is the blessed home of the reference nest.
        let out = check_one("crates/tensor/src/gemm/reference.rs", src, &NoNaiveHotLoop);
        assert_eq!(unsuppressed(&out, "no-naive-hot-loop"), 0, "{out:?}");
    }

    #[test]
    fn naive_hot_loop_ignores_shallow_nests_and_data_movement() {
        // Two loops: an axpy, not a GEMM.
        let two = "fn f(n: usize) {\n    for i in 0..n {\n        for j in 0..n {\n            out[i] += a[j] * b[j];\n        }\n    }\n}\n";
        assert_eq!(
            unsuppressed(
                &check_one("x.rs", two, &NoNaiveHotLoop),
                "no-naive-hot-loop"
            ),
            0
        );
        // col2im-style scatter: multiplies only inside index brackets.
        let scatter = concat!(
            "fn g(n: usize) {\n",
            "    for c in 0..n {\n",
            "        for oy in 0..n {\n",
            "            for ox in 0..n {\n",
            "                out[iy * w + ix] += cols[c * n + oy * n + ox];\n",
            "            }\n",
            "        }\n",
            "    }\n",
            "}\n"
        );
        assert_eq!(
            unsuppressed(
                &check_one("x.rs", scatter, &NoNaiveHotLoop),
                "no-naive-hot-loop"
            ),
            0
        );
        // A deref on the RHS is not a multiply.
        let deref = "fn h(n: usize) {\n    for a in 0..n {\n        for b in 0..n {\n            for c in 0..n {\n                acc += *p;\n            }\n        }\n    }\n}\n";
        assert_eq!(
            unsuppressed(
                &check_one("x.rs", deref, &NoNaiveHotLoop),
                "no-naive-hot-loop"
            ),
            0
        );
        // `impl Trait for Type` braces are not loop bodies.
        let impl_for = concat!(
            "impl Trait for Conv {\n",
            "    fn f(&self, n: usize) {\n",
            "        for i in 0..n {\n",
            "            for j in 0..n {\n",
            "                acc += a[i] * b[j];\n",
            "            }\n",
            "        }\n",
            "    }\n",
            "}\n"
        );
        assert_eq!(
            unsuppressed(
                &check_one("x.rs", impl_for, &NoNaiveHotLoop),
                "no-naive-hot-loop"
            ),
            0
        );
    }

    #[test]
    fn naive_hot_loop_allow_marker_suppresses() {
        let src = concat!(
            "fn mm(n: usize) {\n",
            "    for i in 0..n {\n",
            "        for kk in 0..n {\n",
            "            // cq-allow(no-naive-hot-loop): tiny fixed-size stencil\n",
            "            for j in 0..n {\n",
            "                out[i] += a[kk] * b[j];\n",
            "            }\n",
            "        }\n",
            "    }\n",
            "}\n"
        );
        // The marker is on the line preceding the `for`, not the `+=` —
        // place it adjacent to the finding line instead.
        let adjacent = src.replace(
            "            // cq-allow(no-naive-hot-loop): tiny fixed-size stencil\n            for j in 0..n {\n",
            "            for j in 0..n {\n                // cq-allow(no-naive-hot-loop): tiny fixed-size stencil\n",
        );
        let out = check_one("x.rs", &adjacent, &NoNaiveHotLoop);
        assert_eq!(unsuppressed(&out, "no-naive-hot-loop"), 0, "{out:?}");
    }

    #[test]
    fn eager_forward_flags_element_mutation_in_forward_bodies() {
        let src = concat!(
            "impl Layer for Thing {\n",
            "    fn forward(&mut self, x: &Tensor) -> Result<Tensor> {\n",
            "        let mut y = x.clone();\n",
            "        for v in y.as_mut_slice().iter_mut() {\n",
            "            *v = v.max(0.0);\n",
            "        }\n",
            "        Ok(y)\n",
            "    }\n",
            "    fn backward(&self, dy: &Tensor) -> Result<Tensor> {\n",
            "        let mut dx = dy.clone();\n",
            "        for v in dx.as_mut_slice().iter_mut() {}\n", // backward may mutate
            "        Ok(dx)\n",
            "    }\n",
            "}\n"
        );
        let out = check_one("crates/nn/src/foo.rs", src, &NoEagerForward);
        assert_eq!(unsuppressed(&out, "no-eager-forward"), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        // Other crates and the executor itself are out of scope.
        for rel in ["crates/core/src/foo.rs", "crates/nn/src/graph.rs"] {
            let out = check_one(rel, src, &NoEagerForward);
            assert_eq!(unsuppressed(&out, "no-eager-forward"), 0, "{rel}: {out:?}");
        }
    }

    #[test]
    fn eager_forward_flags_fake_quant_anywhere_in_scope() {
        // fake_quant_into is flagged even outside a forward body: the
        // executor owns the only blessed call site.
        let src = "fn helper(buf: &mut [f32]) {\n    fake_quant_into(buf, p, m);\n}\n";
        let out = check_one("crates/models/src/foo.rs", src, &NoEagerForward);
        assert_eq!(unsuppressed(&out, "no-eager-forward"), 1, "{out:?}");
        assert!(out[0].message.contains("graph executor"), "{out:?}");
        // The import alone (no call parenthesis after the path) is fine.
        let import = "use cq_quant::fake_quant_into;\n";
        let out = check_one("crates/models/src/foo.rs", import, &NoEagerForward);
        assert_eq!(unsuppressed(&out, "no-eager-forward"), 0, "{out:?}");
    }

    #[test]
    fn eager_forward_allow_marker_and_closures_behave() {
        let allowed = concat!(
            "fn forward(x: &Tensor) -> Tensor {\n",
            "    // cq-allow(no-eager-forward): stats bookkeeping, not the data path\n",
            "    x.as_mut_slice();\n",
            "    x\n",
            "}\n"
        );
        let out = check_one("crates/nn/src/foo.rs", allowed, &NoEagerForward);
        assert_eq!(unsuppressed(&out, "no-eager-forward"), 0, "{out:?}");
        // Mutation inside a closure nested in forward is still forward-path.
        let closure = concat!(
            "fn forward(x: &Tensor) -> Tensor {\n",
            "    run(|| {\n",
            "        x.iter_mut();\n",
            "    });\n",
            "    x\n",
            "}\n",
            "fn other(y: &Tensor) {\n",
            "    y.iter_mut();\n", // not a forward body
            "}\n"
        );
        let out = check_one("crates/nn/src/foo.rs", closure, &NoEagerForward);
        assert_eq!(unsuppressed(&out, "no-eager-forward"), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn repo_sources_pass_all_source_lints() {
        let findings = lint_workspace(&default_root());
        let bad: Vec<_> = findings.iter().filter(|f| !f.suppressed).collect();
        assert!(bad.is_empty(), "violations:\n{bad:#?}");
        // The gate is live, not vacuous: the workspace carries real,
        // justified suppressions that these passes matched.
        assert!(findings.iter().any(|f| f.suppressed));
    }

    #[test]
    fn workspace_sources_skip_bin_target_vendor_and_symlinks() {
        use std::fs;
        let base = std::env::temp_dir().join(format!("cq-ws-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let src = base.join("crates/alpha/src");
        fs::create_dir_all(src.join("sub")).unwrap();
        fs::create_dir_all(src.join("bin")).unwrap();
        fs::create_dir_all(src.join("target/debug")).unwrap();
        fs::create_dir_all(src.join("vendor/dep")).unwrap();
        fs::create_dir_all(src.join(".hidden")).unwrap();
        for (p, body) in [
            ("lib.rs", "pub fn a() {}"),
            ("sub/mod.rs", "pub fn b() {}"),
            ("bin/tool.rs", "fn main() {}"),
            ("target/debug/gen.rs", "fn junk() {}"),
            ("vendor/dep/lib.rs", "fn dep() {}"),
            (".hidden/x.rs", "fn hidden() {}"),
        ] {
            fs::write(src.join(p), body).unwrap();
        }
        #[cfg(unix)]
        {
            // A directory cycle and a file link — neither may be walked.
            std::os::unix::fs::symlink(&base, src.join("loop")).unwrap();
            std::os::unix::fs::symlink(src.join("lib.rs"), src.join("linked.rs")).unwrap();
        }
        let files = workspace_sources(&base);
        let rels: Vec<String> = files
            .iter()
            .map(|f| f.strip_prefix(&base).unwrap().display().to_string())
            .collect();
        assert_eq!(
            rels,
            vec![
                "crates/alpha/src/lib.rs".to_string(),
                "crates/alpha/src/sub/mod.rs".to_string()
            ],
            "walked set must pin exactly the library sources"
        );
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn repo_workspace_sources_are_library_code_only() {
        let files = workspace_sources(&default_root());
        assert!(!files.is_empty());
        for f in &files {
            let has = |n: &str| f.components().any(|c| c.as_os_str() == n);
            assert!(!has("bin") && !has("target") && !has("vendor"), "{f:?}");
        }
        assert!(files.iter().any(|f| f.ends_with("crates/nn/src/layer.rs")));
    }
}
