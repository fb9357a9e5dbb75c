//! Hostile-input tests for the JSON loaders: `cq_obs::json::parse` and
//! `parse_trace` on truncated, mutated, spliced and over-nested copies
//! of a sample trace and of a sample result line of the `benchmark`
//! binary. Every call must return (an `Err`, or `Ok` for a document that
//! is still valid) and never panic.

use cq_obs::json;
use cq_trace::parse_trace;
use proptest::prelude::*;

/// Every record kind, with escapes, a surrogate pair, non-ASCII text and
/// an integer beyond 2^53.
const TRACE: &str = concat!(
    r#"{"t":"span","name":"train.step","depth":0,"ns":1234567}"#,
    "\n",
    r#"{"t":"counter","name":"tensor.matmul.flops","total":9007199254740993}"#,
    "\n",
    r#"{"t":"hist","name":"quant.bits","v":8}"#,
    "\n",
    r#"{"t":"metric","name":"train.loss","step":3,"v":-4.125e-3}"#,
    "\n",
    r#"{"t":"metric","name":"train.loss","step":4,"v":null}"#,
    "\n",
    r#"{"t":"warn","msg":"caf\u00e9 \ud83d\ude00 \"q\" \\ é😀\n"}"#,
    "\n",
    r#"{"t":"health","detector":"nan_sentinel","verdict":"critical","step":3,"v":null,"msg":"loss is NaN"}"#,
    "\n",
    r#"{"t":"tl","name":"pool.busy","cat":"pool","tid":2,"ts":1048576,"dur":524288}"#,
    "\n",
);

/// The last stdout line of a `benchmark` run: nested metric objects,
/// exponents in both cases, a negative value and an integer beyond 2^53.
const BENCH_LINE: &str = concat!(
    r#"{"correct":true,"attempted":19,"failed":0,"metrics":{"#,
    r#""img_per_s":{"value":605.25,"unit":"img/s"},"#,
    r#""op_s_p50":{"value":2.115e-1,"unit":"s"},"#,
    r#""setup_s":{"value":1.5E+0,"unit":"s"},"#,
    r#""tensor.flops_counted_per_step":{"value":9007199254740993,"unit":"FLOP"},"#,
    r#""core.unattributed_s":{"value":-1.61e-2,"unit":"s"}}}"#,
    "\n",
);

/// Characters that steer a JSON parser, plus multi-byte ones.
const ALPHABET: [char; 24] = [
    '{', '}', '[', ']', '"', '\\', ',', ':', ' ', '\n', '\t', '\u{1}', '0', '1', '-', '+', '.',
    'e', 'n', 'u', 'd', 'é', '😀', '\u{ffff}',
];

const DOCS: [&str; 2] = [TRACE, BENCH_LINE];

/// Runs every loader on `text`; a panic fails the test.
fn load_all(text: &str) {
    let _ = json::parse(text);
    let _ = parse_trace(text);
}

/// The prefix of `doc` holding its first `n % (chars + 1)` characters.
fn prefix(doc: &str, n: usize) -> &str {
    let n = n % (doc.chars().count() + 1);
    &doc[..doc.char_indices().nth(n).map_or(doc.len(), |(i, _)| i)]
}

#[test]
fn samples_are_valid() {
    let records = parse_trace(TRACE).expect("sample trace");
    assert_eq!(records.len(), 8);
    let line = json::parse(BENCH_LINE).expect("sample bench line");
    assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
    assert_eq!(line.u64_field("attempted"), Ok(19));
    let metric = |name: &str| line.get("metrics").and_then(|m| m.get(name));
    let flops = metric("tensor.flops_counted_per_step").expect("flops metric");
    assert_eq!(flops.u64_field("value"), Ok(9_007_199_254_740_993));
    let setup = metric("setup_s").expect("setup metric");
    assert_eq!(setup.f64_field("value"), Ok(1.5));
}

#[test]
fn truncation_at_every_char_boundary() {
    for (i, _) in BENCH_LINE.char_indices() {
        let cut = &BENCH_LINE[..i];
        load_all(cut);
        // Only the prefix that drops trailing whitespace is still valid.
        let whole = cut.trim_end() == BENCH_LINE.trim_end();
        assert_eq!(json::parse(cut).is_ok(), whole, "prefix of {i} bytes");
    }
    for (i, _) in TRACE.char_indices() {
        let cut = &TRACE[..i];
        load_all(cut);
        // A prefix is a valid trace exactly when it ends on a whole line.
        let whole_lines = cut.is_empty() || cut.ends_with('\n') || cut.ends_with('}');
        assert_eq!(parse_trace(cut).is_ok(), whole_lines, "{cut:?}");
    }
}

#[test]
fn nesting_100k_deep_errs() {
    let deep = |open: &str| open.repeat(100_000);
    for text in [
        deep("["),
        deep(r#"{"a":"#),
        format!(r#"{{"metrics":{}"#, deep("[")),
        format!(r#"{{"t":"warn","msg":"m","x":{}"#, deep("[")),
    ] {
        let err = json::parse(&text).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
        assert!(parse_trace(&text).is_err_and(|e| e.message.contains("nesting")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_char_replacements(
        doc in 0usize..2,
        at in collection::vec(0usize..1_000_000, 1..8),
        with in collection::vec(0usize..ALPHABET.len(), 8),
    ) {
        let mut chars: Vec<char> = DOCS[doc].chars().collect();
        let len = chars.len();
        for (&a, &w) in at.iter().zip(&with) {
            chars[a % len] = ALPHABET[w];
        }
        load_all(&chars.into_iter().collect::<String>());
    }

    #[test]
    fn splices_of_two_documents(
        a in 0usize..2,
        b in 0usize..2,
        cut_a in 0usize..1_000_000,
        cut_b in 0usize..1_000_000,
    ) {
        let head = prefix(DOCS[a], cut_a);
        let tail = &DOCS[b][prefix(DOCS[b], cut_b).len()..];
        load_all(&format!("{head}{tail}"));
    }
}
