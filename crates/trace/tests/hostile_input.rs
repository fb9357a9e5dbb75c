//! Hostile-input tests for the JSON loaders: `cq_obs::json::parse`,
//! `parse_trace` and `parse_bench` on truncated, mutated, spliced and
//! over-nested copies of a sample trace and of the committed
//! `BENCH_10.json`. Every call must return (an `Err`, or `Ok` for a
//! document that is still valid) and never panic.

use cq_obs::json;
use cq_trace::{parse_bench, parse_trace};
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

/// Characters that steer a JSON parser, plus multi-byte ones.
const ALPHABET: [char; 24] = [
    '{', '}', '[', ']', '"', '\\', ',', ':', ' ', '\n', '\t', '\u{1}', '0', '1', '-', '+', '.',
    'e', 'n', 'u', 'd', 'é', '😀', '\u{ffff}',
];

fn bench10() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    std::fs::read_to_string(path).expect("committed BENCH_10.json")
}

fn docs() -> [String; 2] {
    [TRACE.to_string(), bench10()]
}

/// Runs every loader on `text`; a panic fails the test.
fn load_all(text: &str) {
    let _ = json::parse(text);
    let _ = parse_trace(text);
    let _ = parse_bench(text);
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
    parse_bench(&bench10()).expect("BENCH_10.json");
}

#[test]
fn truncation_at_every_char_boundary() {
    let bench = bench10();
    for (i, _) in bench.char_indices() {
        let cut = &bench[..i];
        load_all(cut);
        // Only the prefix that drops trailing whitespace is still valid.
        let whole = cut.trim_end() == bench.trim_end();
        assert_eq!(json::parse(cut).is_ok(), whole, "prefix of {i} bytes");
        assert_eq!(parse_bench(cut).is_ok(), whole, "prefix of {i} bytes");
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
        format!(r#"{{"schema":{}"#, deep("[")),
        format!(r#"{{"t":"warn","msg":"m","x":{}"#, deep("[")),
    ] {
        let err = json::parse(&text).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
        assert!(parse_trace(&text).is_err_and(|e| e.message.contains("nesting")));
        assert!(parse_bench(&text).is_err_and(|e| e.contains("nesting")));
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
        let mut chars: Vec<char> = docs()[doc].chars().collect();
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
        let docs = docs();
        let head = prefix(&docs[a], cut_a);
        let tail = &docs[b][prefix(&docs[b], cut_b).len()..];
        load_all(&format!("{head}{tail}"));
    }
}
