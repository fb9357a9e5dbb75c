//! Whole JSONL traces: parse, render back and merge. One line is a
//! [`Record`], whose schema, reader and writer live in `cq_obs::json`.

use std::collections::BTreeMap;
use std::fmt;

use cq_obs::json::Record;

/// A parse failure, with enough context to locate the bad line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number (0 when unknown).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Renders a trace back to `.jsonl` text (one record per line, trailing
/// newline included when non-empty).
pub fn render_trace(records: &[Record]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_jsonl());
        out.push('\n');
    }
    out
}

/// Merges traces from consecutive process segments of one logical run —
/// e.g. a training run killed after saving a checkpoint plus its resumed
/// continuation — into a single trace comparable against an
/// uninterrupted reference with [`crate::diff`].
///
/// Counters need care: the sink emits them as *running process totals at
/// flush time*, so within one file the last total per name wins, and
/// each process segment restarts from zero. The merge takes each file's
/// last total per counter name, sums across files, and appends one
/// combined counter record per name (sorted) after all non-counter
/// records, which are concatenated in file order.
pub fn merge(traces: &[Vec<Record>]) -> Vec<Record> {
    let mut out = Vec::new();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for trace in traces {
        let mut last: BTreeMap<&str, u64> = BTreeMap::new();
        for rec in trace {
            match rec {
                Record::Counter { name, total } => {
                    last.insert(name, *total);
                }
                other => out.push(other.clone()),
            }
        }
        for (name, total) in last {
            *totals.entry(name.to_string()).or_insert(0) += total;
        }
    }
    for (name, total) in totals {
        out.push(Record::Counter { name, total });
    }
    out
}

/// Parses a whole trace (text of a `.jsonl` file), skipping blank lines.
pub fn parse_trace(text: &str) -> Result<Vec<Record>, ParseError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Record::parse(line) {
            Ok(r) => records.push(r),
            Err(message) => {
                return Err(ParseError {
                    line: idx + 1,
                    message,
                })
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_schema_record() {
        let text = concat!(
            "{\"t\":\"span\",\"name\":\"train.step\",\"depth\":1,\"ns\":42}\n",
            "\n",
            "{\"t\":\"counter\",\"name\":\"tensor.matmul.flops\",\"total\":98304}\n",
            "{\"t\":\"hist\",\"name\":\"quant.bits\",\"v\":8}\n",
            "{\"t\":\"metric\",\"name\":\"train.loss\",\"step\":3,\"v\":4.125}\n",
            "{\"t\":\"metric\",\"name\":\"train.loss\",\"step\":4,\"v\":null}\n",
            "{\"t\":\"warn\",\"msg\":\"a \\\"quoted\\\"\\nmessage\"}\n",
            "{\"t\":\"health\",\"detector\":\"nan_sentinel\",\"verdict\":\"critical\",\"step\":3,\"v\":null,\"msg\":\"loss is NaN\"}\n",
            "{\"t\":\"tl\",\"name\":\"pool.busy\",\"cat\":\"pool\",\"tid\":2,\"ts\":1048576,\"dur\":524288}\n",
        );
        let records = parse_trace(text).expect("valid trace");
        assert_eq!(records.len(), 8);
        assert_eq!(
            records[0],
            Record::Span {
                name: "train.step".to_string(),
                depth: 1,
                ns: 42
            }
        );
        assert_eq!(
            records[1],
            Record::Counter {
                name: "tensor.matmul.flops".to_string(),
                total: 98304
            }
        );
        match &records[4] {
            Record::Metric { step, value, .. } => {
                assert_eq!(*step, 4);
                assert!(value.is_nan(), "null parses as NaN");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &records[5] {
            Record::Warn { message } => assert_eq!(message, "a \"quoted\"\nmessage"),
            other => panic!("unexpected {other:?}"),
        }
        match &records[6] {
            Record::Health {
                detector, verdict, ..
            } => {
                assert_eq!(detector, "nan_sentinel");
                assert_eq!(verdict, "critical");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            records[7],
            Record::Timeline {
                name: "pool.busy".to_string(),
                cat: "pool".to_string(),
                tid: 2,
                start_ns: 1_048_576,
                dur_ns: 524_288,
            }
        );
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = parse_trace("{\"t\":\"span\",\"name\":\"x\",\"depth\":0,\"ns\":1}\nnot json\n")
            .expect_err("second line is bad");
        assert_eq!(err.line, 2);

        assert!(Record::parse("{\"t\":\"mystery\"}").is_err());
        assert!(
            Record::parse("{\"t\":\"span\",\"name\":\"x\"}").is_err(),
            "missing fields"
        );
        assert!(
            Record::parse("{\"t\":\"span\",\"name\":\"x\",\"depth\":0,\"ns\":1} extra").is_err()
        );
        assert!(Record::parse("[1,2]").is_err(), "arrays unsupported");
    }

    #[test]
    fn unicode_escapes_decode() {
        match Record::parse("{\"t\":\"warn\",\"msg\":\"caf\\u00e9\"}") {
            Ok(Record::Warn { message }) => assert_eq!(message, "café"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serialization_round_trips() {
        let records = vec![
            Record::Span {
                name: "train.step".to_string(),
                depth: 1,
                ns: 42,
            },
            Record::Counter {
                name: "ckpt.loaded".to_string(),
                total: 1,
            },
            Record::Hist {
                name: "quant.bits".to_string(),
                value: 8.0,
            },
            Record::Metric {
                name: "train.loss".to_string(),
                step: 3,
                value: 4.125,
            },
            Record::Warn {
                message: "a \"quoted\"\nmessage\twith\u{1}control".to_string(),
            },
            Record::Health {
                detector: "nan_sentinel".to_string(),
                verdict: "critical".to_string(),
                step: 3,
                value: 0.5,
                message: "loss is NaN".to_string(),
            },
            Record::Timeline {
                name: "train.step".to_string(),
                cat: "span".to_string(),
                tid: 0,
                start_ns: 10,
                dur_ns: 90,
            },
        ];
        let text = render_trace(&records);
        let back = parse_trace(&text).expect("rendered trace parses");
        assert_eq!(records, back);

        // Non-finite values collapse to null and parse back as NaN.
        let nan = Record::Metric {
            name: "train.loss".to_string(),
            step: 0,
            value: f64::NAN,
        };
        assert!(nan.to_jsonl().contains("\"v\":null"), "{}", nan.to_jsonl());
        match Record::parse(&nan.to_jsonl()) {
            Ok(Record::Metric { value, .. }) => assert!(value.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_sums_last_counter_totals_and_concatenates_the_rest() {
        // Segment 1 flushes twice (e.g. stop-after-save then process
        // exit): only the last running total per counter counts.
        let seg1 = vec![
            Record::Span {
                name: "train.step".to_string(),
                depth: 0,
                ns: 10,
            },
            Record::Counter {
                name: "tensor.matmul.flops".to_string(),
                total: 100,
            },
            Record::Counter {
                name: "tensor.matmul.flops".to_string(),
                total: 250,
            },
            Record::Counter {
                name: "ckpt.saved".to_string(),
                total: 1,
            },
        ];
        // Segment 2 (resumed process) restarts its totals from zero.
        let seg2 = vec![
            Record::Metric {
                name: "train.loss".to_string(),
                step: 3,
                value: 2.5,
            },
            Record::Counter {
                name: "tensor.matmul.flops".to_string(),
                total: 300,
            },
            Record::Counter {
                name: "ckpt.loaded".to_string(),
                total: 1,
            },
        ];
        let merged = merge(&[seg1, seg2]);
        let counters: Vec<(&str, u64)> = merged
            .iter()
            .filter_map(|r| match r {
                Record::Counter { name, total } => Some((name.as_str(), *total)),
                _ => None,
            })
            .collect();
        assert_eq!(
            counters,
            vec![
                ("ckpt.loaded", 1),
                ("ckpt.saved", 1),
                ("tensor.matmul.flops", 550),
            ]
        );
        // Non-counter records are concatenated in file order, before the
        // combined counters.
        assert!(matches!(&merged[0], Record::Span { name, .. } if name == "train.step"));
        assert!(matches!(&merged[1], Record::Metric { name, .. } if name == "train.loss"));
    }
}
