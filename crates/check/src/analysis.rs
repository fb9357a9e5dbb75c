//! The pluggable analysis engine: findings, severities, the [`Analysis`]
//! trait, per-file token context, and the suppression/baseline system.
//!
//! Every pass in this crate — the migrated source lints, the determinism
//! auditor, the quantization-soundness dataflow — produces [`Finding`]s.
//! A finding is *suppressible* at its site with a
//! `// cq-allow(<lint>): <reason>` comment on the same or preceding
//! line (the legacy `cq-check: allow — <reason>` marker is still honored
//! as a wildcard), or centrally via a committed baseline file. Suppressed
//! findings are reported but do not fail the gate; a suppression that no
//! longer matches any finding is itself a warning (`stale-suppression`),
//! so allows cannot silently outlive the code they excused.
//!
//! Exit-code contract of the `cq-check` binary (stable, for CI):
//!
//! | code | meaning                                             |
//! |------|-----------------------------------------------------|
//! | 0    | no unsuppressed findings                            |
//! | 1    | at least one unsuppressed error-severity finding    |
//! | 2    | usage error (unknown flag, unreadable baseline)     |
//! | 3    | unsuppressed warnings only (no errors)              |
//!
//! `--deny-warnings` promotes exit 3 to exit 1.

use std::fmt;

use cq_obs::json;

use crate::lexer::{self, Token, TokenKind};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, exit code 3, does not fail a default CI gate
    /// unless `--deny-warnings` is set.
    Warning,
    /// Gate-failing: exit code 1 when unsuppressed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of any pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Pass that produced the finding (`configs`, `negative`, `lint`,
    /// `determinism`, `quant`).
    pub pass: &'static str,
    /// Specific rule id (`no-unwrap`, `det-hash-iter`, `acc-overflow`, …).
    pub lint: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Repo-relative file path, or a config label for plan-level passes.
    pub file: String,
    /// 1-based line, or 0 when the finding is not line-specific.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// Whether a suppression (inline allow or baseline entry) covers it.
    pub suppressed: bool,
}

impl Finding {
    /// Builds an unsuppressed error-severity finding.
    pub fn error(
        pass: &'static str,
        lint: &'static str,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            pass,
            lint,
            severity: Severity::Error,
            file: file.into(),
            line,
            message: message.into(),
            suppressed: false,
        }
    }

    /// Builds an unsuppressed warning-severity finding.
    pub fn warning(
        pass: &'static str,
        lint: &'static str,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            severity: Severity::Warning,
            ..Finding::error(pass, lint, file, line, message)
        }
    }

    /// `file:line`, or just `file` for whole-file/config findings.
    pub fn location(&self) -> String {
        if self.line == 0 {
            self.file.clone()
        } else {
            format!("{}:{}", self.file, self.line)
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {}: {} ({}{})",
            self.pass,
            self.lint,
            self.location(),
            self.message,
            self.severity,
            if self.suppressed { ", suppressed" } else { "" }
        )
    }
}

/// One inline suppression comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line the comment sits on. It covers findings on this line
    /// and the next (a marker on its own line excuses the line below).
    pub line: usize,
    /// Lint the allow names, or `None` for the legacy wildcard marker.
    pub lint: Option<String>,
    /// Justification text after the `:` (or `—` for legacy markers).
    pub reason: String,
}

/// A lexed source file plus everything analyses need: the token stream,
/// the test-module boundary, and parsed suppressions.
pub struct SourceFile<'s> {
    /// Repo-relative path (`crates/nn/src/conv.rs`).
    pub rel: String,
    /// Full source text.
    pub text: &'s str,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// 1-based line of the first `#[cfg(test)]`; lines at or after it are
    /// test code. `usize::MAX` when the file has no test module.
    pub test_boundary: usize,
    /// Inline suppressions parsed from comments.
    pub suppressions: Vec<Suppression>,
}

/// New-style suppression marker (`cq-allow(<lint>): <reason>`).
pub const ALLOW_PREFIX: &str = "cq-allow(";
/// Legacy wildcard marker, still honored: `cq-check: allow — <reason>`.
pub const LEGACY_MARKER: &str = "cq-check: allow";

impl<'s> SourceFile<'s> {
    /// Lexes `text` and prepares the analysis context.
    pub fn parse(rel: impl Into<String>, text: &'s str) -> Self {
        let tokens = lexer::lex(text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_code())
            .map(|(i, _)| i)
            .collect();
        let test_boundary = find_test_boundary(text, &tokens, &code);
        let suppressions = parse_suppressions(text, &tokens);
        SourceFile {
            rel: rel.into(),
            text,
            tokens,
            code,
            test_boundary,
            suppressions,
        }
    }

    /// The `i`-th code (non-comment) token, if any.
    pub fn code_tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&ti| &self.tokens[ti])
    }

    /// Text of the `i`-th code token.
    pub fn code_text(&self, i: usize) -> &str {
        self.code_tok(i).map_or("", |t| t.text(self.text))
    }

    /// Whether code token `i` is the identifier `name`.
    pub fn ident_eq(&self, i: usize, name: &str) -> bool {
        self.code_tok(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text(self.text) == name)
    }

    /// Whether code token `i` is the punctuation byte `ch`.
    pub fn punct_eq(&self, i: usize, ch: char) -> bool {
        self.code_tok(i).is_some_and(|t| {
            t.kind == TokenKind::Punct && self.text[t.start..t.end].chars().eq([ch])
        })
    }

    /// Whether the code tokens starting at `i` match `pat` exactly.
    pub fn matches(&self, i: usize, pat: &[Pat<'_>]) -> bool {
        let mut ci = i;
        for p in pat {
            let ok = match p {
                Pat::Ident(name) => self.ident_eq(ci, name),
                Pat::AnyIdent => self
                    .code_tok(ci)
                    .is_some_and(|t| t.kind == TokenKind::Ident),
                Pat::IdentIn(names) => names.iter().any(|n| self.ident_eq(ci, n)),
                Pat::Punct(ch) => self.punct_eq(ci, *ch),
                Pat::Str => self.code_tok(ci).is_some_and(|t| t.kind == TokenKind::Str),
                Pat::PathSep => {
                    let ok = self.punct_eq(ci, ':') && self.punct_eq(ci + 1, ':');
                    ci += 1; // consumed one extra token
                    ok
                }
            };
            if !ok {
                return false;
            }
            ci += 1;
        }
        true
    }

    /// Whether the 1-based `line` lies in the trailing test module.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= self.test_boundary
    }

    /// Whether any code token on `line` is the identifier `name` — used
    /// for line-local context checks (e.g. a `for` on the same line).
    pub fn line_has_ident(&self, line: usize, name: &str) -> bool {
        self.code.iter().any(|&ti| {
            let t = &self.tokens[ti];
            t.line == line && t.kind == TokenKind::Ident && t.text(self.text) == name
        })
    }
}

/// One element of a token pattern for [`SourceFile::matches`].
#[derive(Debug, Clone, Copy)]
pub enum Pat<'a> {
    /// An identifier with this exact text.
    Ident(&'a str),
    /// Any identifier.
    AnyIdent,
    /// An identifier matching any of these texts.
    IdentIn(&'a [&'a str]),
    /// A single punctuation byte.
    Punct(char),
    /// A string literal.
    Str,
    /// The `::` path separator (two `:` tokens).
    PathSep,
}

/// Finds the line of the first `#[cfg(test)]` attribute (token-aware, so
/// a doc comment mentioning the attribute does not end library scanning
/// early the way the old line-grep did).
fn find_test_boundary(text: &str, tokens: &[Token], code: &[usize]) -> usize {
    for (i, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        if t.kind == TokenKind::Punct && t.text(text) == "#" {
            let nxt = |k: usize| code.get(i + k).map(|&j| tokens[j].text(text));
            if nxt(1) == Some("[")
                && nxt(2) == Some("cfg")
                && nxt(3) == Some("(")
                && nxt(4) == Some("test")
            {
                return t.line;
            }
        }
    }
    usize::MAX
}

/// Parses every inline suppression out of the comment tokens.
///
/// A suppression must be the comment's *leading* content (after the
/// `//`/`/*` delimiters and whitespace) — prose or docs that merely
/// mention the marker syntax mid-sentence are not suppressions, so they
/// can never be reported stale.
fn parse_suppressions(text: &str, tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let body = t
            .text(text)
            .trim_start_matches(['/', '*', '!'])
            .trim_start();
        if body.starts_with(ALLOW_PREFIX) {
            // New style: `cq-allow(lint): reason`. A comment may chain
            // several (`cq-allow(a): x; cq-allow(b): y`).
            let mut from = 0;
            while let Some(p) = body[from..].find(ALLOW_PREFIX) {
                let at = from + p + ALLOW_PREFIX.len();
                let Some(close) = body[at..].find(')') else {
                    break;
                };
                let lint = body[at..at + close].trim().to_string();
                let rest = &body[at + close + 1..];
                let reason = rest
                    .strip_prefix(':')
                    .and_then(|r| r.split(';').next())
                    .map(str::trim)
                    .unwrap_or("")
                    .to_string();
                out.push(Suppression {
                    line: t.line,
                    lint: Some(lint),
                    reason,
                });
                from = at + close;
            }
        } else if let Some(rest) = body.strip_prefix(LEGACY_MARKER) {
            // Legacy style: `cq-check: allow — reason` (wildcard).
            let reason = rest
                .trim_start_matches([' ', '—', '-', ':'])
                .trim()
                .to_string();
            out.push(Suppression {
                line: t.line,
                lint: None,
                reason,
            });
        }
    }
    out
}

/// One analysis pass over a single file.
pub trait Analysis {
    /// The rule id this analysis reports under (`no-unwrap`, …).
    fn lint(&self) -> &'static str;
    /// Scans `file`, pushing raw (unsuppressed) findings.
    fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>);
}

/// Runs `analyses` over one parsed file, applies inline suppressions, and
/// appends meta-findings for stale or reason-less suppressions.
pub fn analyze_file(file: &SourceFile<'_>, analyses: &[&dyn Analysis], out: &mut Vec<Finding>) {
    let mut found = Vec::new();
    for a in analyses {
        a.check(file, &mut found);
    }
    let mut used = vec![false; file.suppressions.len()];
    for f in &mut found {
        if f.line == 0 {
            continue;
        }
        for (si, s) in file.suppressions.iter().enumerate() {
            let line_hits = s.line == f.line || s.line + 1 == f.line;
            let lint_hits = s.lint.as_deref().is_none_or(|l| l == f.lint);
            if line_hits && lint_hits {
                f.suppressed = true;
                used[si] = true;
            }
        }
    }
    for (s, used) in file.suppressions.iter().zip(&used) {
        if !used {
            let what = s
                .lint
                .as_deref()
                .map_or_else(|| "wildcard allow".into(), |l| format!("cq-allow({l})"));
            out.push(Finding::warning(
                "lint",
                "stale-suppression",
                file.rel.clone(),
                s.line,
                format!("{what} matches no finding on this or the next line; remove it"),
            ));
        } else if s.reason.is_empty() {
            out.push(Finding::warning(
                "lint",
                "suppression-without-reason",
                file.rel.clone(),
                s.line,
                "suppression carries no reason; write `cq-allow(<lint>): <why>`".to_string(),
            ));
        }
    }
    out.append(&mut found);
}

/// A committed set of known findings that are tolerated without inline
/// allows — the mechanism for landing a new strict pass without blocking
/// unrelated work. Entries match on `(lint, file, message)`, deliberately
/// *not* on line numbers, so unrelated edits above a finding do not churn
/// the baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: Vec<(String, String, String)>,
}

impl Baseline {
    /// Parses the baseline file format: one `lint<TAB>file<TAB>message`
    /// per line; `#` lines and blanks are ignored.
    pub fn parse(text: &str) -> Baseline {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut it = l.splitn(3, '\t');
                match (it.next(), it.next(), it.next()) {
                    (Some(lint), Some(file), Some(msg)) => {
                        Some((lint.to_string(), file.to_string(), msg.to_string()))
                    }
                    _ => None,
                }
            })
            .collect();
        Baseline { entries }
    }

    /// Renders the unsuppressed findings of a run as baseline file text.
    pub fn render(findings: &[Finding]) -> String {
        let mut s = String::from(
            "# cq-check baseline v1 — tolerated findings (lint<TAB>file<TAB>message).\n\
             # Regenerate with `cq-check --write-baseline <path>`; shrink it over time.\n",
        );
        let mut lines: Vec<String> = findings
            .iter()
            .filter(|f| !f.suppressed)
            .map(|f| format!("{}\t{}\t{}", f.lint, f.file, f.message))
            .collect();
        lines.sort();
        lines.dedup();
        for l in lines {
            s.push_str(&l);
            s.push('\n');
        }
        s
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks findings matching a baseline entry as suppressed; returns a
    /// `stale-baseline` warning for every entry that matched nothing (the
    /// finding was fixed — the entry must be removed so it cannot mask a
    /// future regression).
    pub fn apply(&self, findings: &mut [Finding]) -> Vec<Finding> {
        let mut used = vec![false; self.entries.len()];
        for f in findings.iter_mut() {
            if f.suppressed {
                continue;
            }
            for (ei, (lint, file, msg)) in self.entries.iter().enumerate() {
                if f.lint == lint && &f.file == file && &f.message == msg {
                    f.suppressed = true;
                    used[ei] = true;
                }
            }
        }
        self.entries
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|((lint, file, msg), _)| {
                Finding::warning(
                    "lint",
                    "stale-baseline",
                    file.clone(),
                    0,
                    format!("baseline entry for {lint} no longer matches: {msg}"),
                )
            })
            .collect()
    }
}

/// Serializes findings as a JSON array, strings escaped by
/// `cq_obs::json::string`. Schema per element: `{"pass","lint",
/// "severity","file","line","message","suppressed"}`.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"pass\":{},\"lint\":{},\"severity\":{},\"file\":{},\"line\":{},\
             \"message\":{},\"suppressed\":{}}}",
            json::string(f.pass),
            json::string(f.lint),
            json::string(&f.severity.to_string()),
            json::string(&f.file),
            f.line,
            json::string(&f.message),
            f.suppressed
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlagIdent(&'static str, &'static str);
    impl Analysis for FlagIdent {
        fn lint(&self) -> &'static str {
            self.1
        }
        fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
            for i in 0..file.code.len() {
                if file.ident_eq(i, self.0) {
                    let line = file.code_tok(i).unwrap().line;
                    out.push(Finding::error(
                        "lint",
                        self.1,
                        file.rel.clone(),
                        line,
                        format!("found {}", self.0),
                    ));
                }
            }
        }
    }

    fn run(src: &str, analyses: &[&dyn Analysis]) -> Vec<Finding> {
        let file = SourceFile::parse("x.rs", src);
        let mut out = Vec::new();
        analyze_file(&file, analyses, &mut out);
        out
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let same = "fn f() { bad(); } // cq-allow(flag): justified\n";
        let next = "// cq-allow(flag): justified\nfn f() { bad(); }\n";
        for src in [same, next] {
            let out = run(src, &[&FlagIdent("bad", "flag")]);
            let flagged: Vec<_> = out.iter().filter(|f| f.lint == "flag").collect();
            assert_eq!(flagged.len(), 1, "{src}");
            assert!(flagged[0].suppressed, "{src}");
            assert!(!out.iter().any(|f| f.lint == "stale-suppression"), "{src}");
        }
    }

    #[test]
    fn allow_for_other_lint_does_not_suppress() {
        let src = "fn f() { bad(); } // cq-allow(other): wrong rule\n";
        let out = run(src, &[&FlagIdent("bad", "flag")]);
        let flagged = out.iter().find(|f| f.lint == "flag").unwrap();
        assert!(!flagged.suppressed);
        // ... and the unmatched allow is reported stale.
        assert!(out.iter().any(|f| f.lint == "stale-suppression"));
    }

    #[test]
    fn legacy_marker_is_wildcard() {
        let src = "fn f() { bad(); } // cq-check: allow — grandfathered\n";
        let out = run(src, &[&FlagIdent("bad", "flag")]);
        assert!(out.iter().find(|f| f.lint == "flag").unwrap().suppressed);
    }

    #[test]
    fn stale_suppression_is_warned() {
        let src = "// cq-allow(flag): site was removed\nfn f() { fine(); }\n";
        let out = run(src, &[&FlagIdent("bad", "flag")]);
        let stale = out.iter().find(|f| f.lint == "stale-suppression").unwrap();
        assert_eq!(stale.severity, Severity::Warning);
        assert_eq!(stale.line, 1);
    }

    #[test]
    fn reasonless_suppression_is_warned() {
        let src = "fn f() { bad(); } // cq-allow(flag)\n";
        let out = run(src, &[&FlagIdent("bad", "flag")]);
        assert!(out.iter().find(|f| f.lint == "flag").unwrap().suppressed);
        assert!(out.iter().any(|f| f.lint == "suppression-without-reason"));
    }

    #[test]
    fn one_allow_covers_multiple_findings_on_its_lines() {
        let src = "// cq-allow(flag): both below\nbad(); bad();\n";
        let out = run(src, &[&FlagIdent("bad", "flag")]);
        assert!(out
            .iter()
            .filter(|f| f.lint == "flag")
            .all(|f| f.suppressed));
    }

    #[test]
    fn test_boundary_is_token_aware() {
        // A doc comment mentioning the attribute must not end the file.
        let src = "/// not `#[cfg(test)]` yet\nfn f() {}\n#[cfg(test)]\nmod t {}\n";
        let file = SourceFile::parse("x.rs", src);
        assert_eq!(file.test_boundary, 3);
        assert!(file.is_test_line(3));
        assert!(!file.is_test_line(2));
    }

    #[test]
    fn pattern_matching_spans_lines_and_skips_comments() {
        let src = "cq_obs::metric( // explains\n    \"literal\", 1)\n";
        let file = SourceFile::parse("x.rs", src);
        let hit = (0..file.code.len()).any(|i| {
            file.matches(
                i,
                &[
                    Pat::Ident("cq_obs"),
                    Pat::PathSep,
                    Pat::Ident("metric"),
                    Pat::Punct('('),
                    Pat::Str,
                ],
            )
        });
        assert!(hit);
    }

    #[test]
    fn baseline_round_trip_add_and_remove() {
        let mut findings = vec![
            Finding::error("lint", "flag", "a.rs", 3, "found bad"),
            Finding::error("lint", "flag", "b.rs", 9, "found worse"),
        ];
        // Write a baseline from the current findings...
        let text = Baseline::render(&findings);
        let bl = Baseline::parse(&text);
        assert_eq!(bl.len(), 2);
        // ...re-applying it suppresses both, with nothing stale.
        let stale = bl.apply(&mut findings);
        assert!(findings.iter().all(|f| f.suppressed));
        assert!(stale.is_empty());

        // One finding gets fixed: its entry is reported stale.
        let mut only_first = vec![Finding::error("lint", "flag", "a.rs", 3, "found bad")];
        let stale = bl.apply(&mut only_first);
        assert!(only_first[0].suppressed);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].lint, "stale-baseline");
        assert!(stale[0].message.contains("found worse"));
    }

    #[test]
    fn baseline_matches_ignore_line_numbers() {
        let original = vec![Finding::error("lint", "flag", "a.rs", 3, "found bad")];
        let bl = Baseline::parse(&Baseline::render(&original));
        // Same finding, shifted 40 lines by unrelated edits above it.
        let mut moved = vec![Finding::error("lint", "flag", "a.rs", 43, "found bad")];
        let stale = bl.apply(&mut moved);
        assert!(moved[0].suppressed);
        assert!(stale.is_empty());
    }

    #[test]
    fn json_output_escapes_and_reports_fields() {
        let f = Finding::warning("lint", "flag", "a \"b\".rs", 7, "line1\nline2");
        let j = findings_to_json(&[f]);
        assert!(j.contains("\"a \\\"b\\\".rs\""));
        assert!(j.contains("\\nline2"));
        assert!(j.contains("\"severity\":\"warning\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("\"suppressed\":false"));
        assert!(j.starts_with('[') && j.ends_with(']'));
    }
}
