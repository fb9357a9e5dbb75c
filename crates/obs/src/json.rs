//! The workspace's one JSON module: a strict parser, a string escaper, a
//! number writer, and the JSONL trace schema that
//! [`JsonlSink`](crate::sink::JsonlSink) writes and cq-trace reads back.
//!
//! ## Reading
//!
//! [`parse`] reads one complete RFC 8259 document by recursive descent.
//! Arrays and objects nest at most 128 deep, so a hostile document errs
//! instead of overflowing the stack. The grammar is strict: no leading
//! zeros, `+` signs or non-finite numbers, no raw control characters in
//! strings, `\u` escapes of exactly four hex digits with surrogates only
//! in valid pairs, and no duplicate object keys. A non-negative integer
//! literal that fits a `u64` is kept exactly ([`Value::Int`]); every
//! other number is an `f64`.
//!
//! ## Writing
//!
//! [`string`] quotes and escapes a string; [`number`] writes a finite
//! `f64` as the shortest decimal that reads back to the same bits (`-0`
//! keeps its sign) and a non-finite one as `null`.
//!
//! ## JSONL trace schema
//!
//! One [`Record`] per line, discriminated by `"t"`:
//!
//! ```text
//! {"t":"span","name":"train.step","depth":0,"ns":1234567}
//! {"t":"counter","name":"tensor.matmul.flops","total":98304}
//! {"t":"hist","name":"quant.bits","v":8}
//! {"t":"metric","name":"train.loss","step":3,"v":4.125}
//! {"t":"warn","msg":"CQ_THREADS=0 rejected; using 1"}
//! {"t":"health","detector":"nan_sentinel","verdict":"critical","step":3,"v":null,"msg":"loss is NaN at step 3"}
//! {"t":"tl","name":"pool.busy","cat":"pool","tid":2,"ts":1048576,"dur":524288}
//! ```
//!
//! `tl` records (per-thread timeline intervals, `ts`/`dur` in
//! nanoseconds since the process profiling epoch) appear only when
//! profiling is enabled (`CQ_PROF=1`) — see [`crate::prof`]. A `v` of
//! `null` reads back as NaN. Integer fields must be integer literals in
//! `0..=u64::MAX`. Keys a record does not know are ignored.
//!
//! `SpanStart` events are not written — the `span` record carries the
//! name, depth and duration, which halves trace volume without losing
//! information (ordering within a thread is reconstructible from depth).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::Event;

/// Deepest array/object nesting [`parse`] accepts. The benchmark's result
/// line nests three deep; the bound keeps the recursive descent's stack
/// use small on hostile input.
const MAX_NESTING: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal (no fraction or exponent) that fits
    /// a `u64`, read exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; its keys are unique, their order is not kept.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number (an integer beyond
    /// 2^53 rounds to nearest).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The exact integer, if this is an integer literal in
    /// `0..=u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Field `key` of this object as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", Value::as_str)
    }

    /// Field `key` of this object as a number.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a number", Value::as_f64)
    }

    /// Field `key` of this object as an exact integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key, "an integer in 0..=u64::MAX", Value::as_u64)
    }

    fn field<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        read: fn(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("field `{key}` is missing or not {kind}"))
    }
}

/// A JSON syntax error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (surrounding whitespace allowed,
/// trailing garbage rejected).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return p.err("trailing garbage after document");
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte; always on a char boundary.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn consume(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return self.err(format!("nesting deeper than {MAX_NESTING}"));
                }
                self.depth += 1;
                self.pos += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    /// After an array item or object member: `,` continues (`false`),
    /// `close` ends the container (`true`).
    fn separator(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            self.err(format!("expected `,` or `{}`", close as char))
        }
    }

    /// The rest of an array whose `[` was read.
    fn array(&mut self) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.separator(b']')? {
                return Ok(Value::Arr(items));
            }
        }
    }

    /// The rest of an object whose `{` was read.
    fn object(&mut self) -> Result<Value, JsonError> {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(JsonError {
                    offset: at,
                    message: format!("duplicate key {}", string(&key)),
                });
            }
            self.skip_ws();
            self.consume(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            if self.separator(b'}')? {
                return Ok(Value::Obj(map));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return self.err("expected a digit");
        }
        let integer = !negative && !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.eat(b'.') && self.digits() == 0 {
            return self.err("expected a digit after `.`");
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return self.err("expected an exponent digit");
            }
        }
        let lit = &self.text[start..self.pos];
        if integer {
            if let Ok(n) = lit.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        match lit.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Num(v)),
            _ => Err(JsonError {
                offset: start,
                message: format!("number `{lit}` is out of range"),
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; it ends on an ASCII byte, so on a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.err("control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character of an escape whose `\` was read.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode();
            }
            _ => return self.err("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The character of a `\u` escape whose `\u` was read. A high
    /// surrogate must be followed by an escaped low one.
    fn unicode(&mut self) -> Result<char, JsonError> {
        let start = self.pos - 2;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| JsonError {
            offset: start,
            message: "unpaired surrogate in \\u escape".to_string(),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let Some(d) = self.peek().and_then(|b| (b as char).to_digit(16)) else {
                return self.err("expected four hex digits after \\u");
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped.
pub fn string(s: &str) -> impl fmt::Display + '_ {
    Quoted(s)
}

struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// `v` as a JSON number: the shortest decimal that reads back to the
/// same bits (`-0` keeps its sign, no exponent), or `null` when `v` is
/// not finite.
pub fn number(v: f64) -> impl fmt::Display {
    Number(v)
}

struct Number(f64);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// One JSONL trace line (schema in the module docs). The sink writes
/// `Record<&str>` borrowed from an [`Event`]; cq-trace reads and
/// rewrites `Record<String>`.
#[derive(Debug, Clone, PartialEq)]
pub enum Record<S = String> {
    /// A closed span scope (`{"t":"span",...}`).
    Span {
        /// Span name.
        name: S,
        /// Nesting depth on the emitting thread.
        depth: u16,
        /// Elapsed nanoseconds.
        ns: u64,
    },
    /// A counter total (`{"t":"counter",...}`).
    Counter {
        /// Counter name.
        name: S,
        /// Accumulated total at flush time.
        total: u64,
    },
    /// One histogram observation (`{"t":"hist",...}`).
    Hist {
        /// Histogram name.
        name: S,
        /// Observed value (`null` in the file reads as NaN).
        value: f64,
    },
    /// One step metric (`{"t":"metric",...}`).
    Metric {
        /// Metric name.
        name: S,
        /// Training step.
        step: u64,
        /// Value (`null` in the file reads as NaN).
        value: f64,
    },
    /// A diagnostic warning (`{"t":"warn",...}`).
    Warn {
        /// Message text.
        message: S,
    },
    /// One per-thread profiling timeline interval (`{"t":"tl",...}`).
    /// Present only in traces recorded with `CQ_PROF` enabled.
    Timeline {
        /// Interval name (a span name, `pool.busy`, `pool.park`).
        name: S,
        /// Lane category (`span` or `pool`).
        cat: S,
        /// Dense process-local thread id.
        tid: u64,
        /// Start, nanoseconds since the process profiling epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// An online health verdict (`{"t":"health",...}`).
    Health {
        /// Detector name.
        detector: S,
        /// Verdict spelling (`ok`/`warn`/`critical`).
        verdict: S,
        /// Step of the triggering observation.
        step: u64,
        /// Offending value (`null` reads as NaN).
        value: f64,
        /// Explanation.
        message: S,
    },
}

impl<'a> Record<&'a str> {
    /// The line `ev` writes, borrowing its names; `None` for
    /// [`Event::SpanStart`], whose information the span record carries.
    pub fn from_event(ev: &'a Event) -> Option<Self> {
        Some(match *ev {
            Event::SpanStart { .. } => return None,
            Event::SpanEnd { name, depth, nanos } => Record::Span {
                name,
                depth,
                ns: nanos,
            },
            Event::Counter { name, total } => Record::Counter { name, total },
            Event::Histogram { name, value } => Record::Hist { name, value },
            Event::Metric { name, step, value } => Record::Metric { name, step, value },
            Event::Warning { ref message } => Record::Warn { message },
            Event::Timeline {
                name,
                cat,
                tid,
                start_ns,
                dur_ns,
            } => Record::Timeline {
                name,
                cat,
                tid,
                start_ns,
                dur_ns,
            },
            Event::Health {
                detector,
                verdict,
                step,
                value,
                ref message,
            } => Record::Health {
                detector,
                verdict: verdict.as_str(),
                step,
                value,
                message,
            },
        })
    }
}

impl<S: AsRef<str>> Record<S> {
    /// The record as one JSONL line, without the newline. This is the
    /// only writer of trace lines: the live sink and cq-trace's `merge`
    /// both call it.
    pub fn to_jsonl(&self) -> String {
        fn q<S: AsRef<str>>(s: &S) -> Quoted<'_> {
            Quoted(s.as_ref())
        }
        match self {
            Record::Span { name, depth, ns } => {
                format!(
                    r#"{{"t":"span","name":{},"depth":{depth},"ns":{ns}}}"#,
                    q(name)
                )
            }
            Record::Counter { name, total } => {
                format!(r#"{{"t":"counter","name":{},"total":{total}}}"#, q(name))
            }
            Record::Hist { name, value } => {
                format!(
                    r#"{{"t":"hist","name":{},"v":{}}}"#,
                    q(name),
                    number(*value)
                )
            }
            Record::Metric { name, step, value } => format!(
                r#"{{"t":"metric","name":{},"step":{step},"v":{}}}"#,
                q(name),
                number(*value)
            ),
            Record::Warn { message } => format!(r#"{{"t":"warn","msg":{}}}"#, q(message)),
            Record::Timeline {
                name,
                cat,
                tid,
                start_ns,
                dur_ns,
            } => format!(
                r#"{{"t":"tl","name":{},"cat":{},"tid":{tid},"ts":{start_ns},"dur":{dur_ns}}}"#,
                q(name),
                q(cat)
            ),
            Record::Health {
                detector,
                verdict,
                step,
                value,
                message,
            } => format!(
                r#"{{"t":"health","detector":{},"verdict":{},"step":{step},"v":{},"msg":{}}}"#,
                q(detector),
                q(verdict),
                number(*value),
                q(message)
            ),
        }
    }
}

impl Record {
    /// Parses one trace line.
    pub fn parse(line: &str) -> Result<Record, String> {
        let doc = parse(line).map_err(|e| e.to_string())?;
        let s = |key: &str| doc.str_field(key).map(str::to_string);
        let u = |key: &str| doc.u64_field(key);
        let v = |key: &str| match doc.get(key) {
            Some(Value::Null) => Ok(f64::NAN),
            _ => doc.f64_field(key),
        };
        Ok(match doc.str_field("t")? {
            "span" => Record::Span {
                name: s("name")?,
                depth: u("depth")?
                    .try_into()
                    .map_err(|_| "field `depth` is out of range".to_string())?,
                ns: u("ns")?,
            },
            "counter" => Record::Counter {
                name: s("name")?,
                total: u("total")?,
            },
            "hist" => Record::Hist {
                name: s("name")?,
                value: v("v")?,
            },
            "metric" => Record::Metric {
                name: s("name")?,
                step: u("step")?,
                value: v("v")?,
            },
            "warn" => Record::Warn { message: s("msg")? },
            "tl" => Record::Timeline {
                name: s("name")?,
                cat: s("cat")?,
                tid: u("tid")?,
                start_ns: u("ts")?,
                dur_ns: u("dur")?,
            },
            "health" => Record::Health {
                detector: s("detector")?,
                verdict: s("verdict")?,
                step: u("step")?,
                value: v("v")?,
                message: s("msg")?,
            },
            other => return Err(format!("unknown record type {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_line(total: &str) -> String {
        format!(r#"{{"t":"counter","name":"c","total":{total}}}"#)
    }

    #[test]
    fn parses_nesting_escapes_and_numbers() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\n\"yA\/"], "b": {"c": null, "d": true}}"#)
            .expect("parse");
        let a = v.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(
            a,
            [
                Value::Int(1),
                Value::Num(-25.0),
                Value::Str("x\n\"yA/".into())
            ]
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Null));
        assert_eq!(
            v.get("b").and_then(|b| b.get("d")),
            Some(&Value::Bool(true))
        );
        assert_eq!(parse(" -0 "), Ok(Value::Num(-0.0)));
        assert_eq!(parse("0.5e-1").map(|v| v.as_f64()), Ok(Some(0.05)));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            r#"{"a": }"#,
            "[1, 2,]",
            r#"{"a": 1,}"#,
            "{} trailing",
            r#"{"a": 1e999}"#,
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "tru",
            "nul",
            "\"tab\there\"",
            r#""\x""#,
            r#""unterminated"#,
            "[1 2]",
            r#"{"a" 1}"#,
            r#"{1: 2}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn integer_fields_read_exactly_and_reject_other_numbers() {
        let big = (1u64 << 53) + 1;
        let rec = Record::Counter {
            name: "c".to_string(),
            total: big,
        };
        assert_eq!(Record::parse(&rec.to_jsonl()), Ok(rec));
        assert_eq!(
            Record::parse(&counter_line("18446744073709551615")),
            Ok(Record::Counter {
                name: "c".to_string(),
                total: u64::MAX
            })
        );
        for bad in ["1e300", "1.5e3", "1.0", "-1", "-0", "18446744073709551616"] {
            let err = Record::parse(&counter_line(bad)).expect_err(bad);
            assert!(err.contains("`total`"), "{bad}: {err}");
        }
        // The value itself still parses; only the integer read refuses it.
        assert_eq!(parse("1.5e3"), Ok(Value::Num(1500.0)));
        assert_eq!(parse("18446744073709551616").map(|v| v.as_u64()), Ok(None));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Value::Str("😀".into())));
        assert_eq!(parse(r#""caf\u00e9""#), Ok(Value::Str("café".into())));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83d x""#,
            r#""\ud83dA""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u041""#, r#""\u 041""#, r#""\u04G1""#] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
        assert_eq!(parse(r#""\u0041""#), Ok(Value::Str("A".into())));
    }

    #[test]
    fn leading_zeros_are_rejected() {
        for bad in ["01", "-01", "00", "[01]", r#"{"a":01}"#, "0x1"] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
        assert_eq!(parse("0"), Ok(Value::Int(0)));
        assert_eq!(parse("0.01"), Ok(Value::Num(0.01)));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse(r#"{"a": 1, "b": {"a": 2}, "a": 3}"#).expect_err("duplicate");
        assert!(err.message.contains("duplicate key \"a\""), "{err}");
        assert_eq!(err.offset, 24);
        assert!(Record::parse(r#"{"t":"warn","msg":"x","msg":"y"}"#).is_err());
    }

    #[test]
    fn unknown_keys_of_any_type_are_ignored() {
        let line = r#"{"t":"warn","extra":[1,{"x":null}],"flag":true,"o":{},"msg":"m","n":-1.5}"#;
        assert_eq!(
            Record::parse(line),
            Ok(Record::Warn {
                message: "m".to_string()
            })
        );
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        assert!(parse("\"a\u{1}b\"").is_err());
        assert!(parse("\"a\nb\"").is_err());
        assert_eq!(parse(r#""a\u0001b""#), Ok(Value::Str("a\u{1}b".into())));
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        let values = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            f64::MIN,
            ((1u64 << 53) + 1) as f64,
            1e300,
            0.1,
            -4.125,
        ];
        for v in values {
            let text = number(v).to_string();
            let back = parse(&text).ok().and_then(|x| x.as_f64());
            assert_eq!(back.map(f64::to_bits), Some(v.to_bits()), "{v:e} -> {text}");
        }
        assert_eq!(number(-0.0).to_string(), "-0");
        assert_eq!(number(8.0).to_string(), "8");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(v).to_string(), "null");
            let rec = Record::Hist {
                name: "h".to_string(),
                value: v,
            };
            assert!(
                rec.to_jsonl().ends_with(r#""v":null}"#),
                "{}",
                rec.to_jsonl()
            );
            match Record::parse(&rec.to_jsonl()) {
                Ok(Record::Hist { value, .. }) => assert!(value.is_nan()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn strings_round_trip_through_the_escaper() {
        let s = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}é😀\u{7f}";
        let text = string(s).to_string();
        assert_eq!(text, "\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fé😀\u{7f}\"");
        assert_eq!(parse(&text), Ok(Value::Str(s.to_string())));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Hostile depth errs instead of overflowing the stack.
        let err = parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_NESTING);
        let deep_objects = r#"{"a":"#.repeat(100_000);
        assert!(parse(&deep_objects).is_err_and(|e| e.message.contains("nesting")));

        // A document nested exactly to the bound still parses; one more
        // level does not.
        let arrays = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&arrays(MAX_NESTING)).is_ok());
        assert!(parse(&arrays(MAX_NESTING + 1)).is_err());
        let objects = |depth: usize| format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        assert!(parse(&objects(MAX_NESTING)).is_ok());
        assert!(parse(&objects(MAX_NESTING + 1)).is_err());
    }
}
