//! The benchmark's own spans: kept in memory around each call into a
//! layer, written at exit as the `{"t":"tl",...}` JSONL timeline records
//! that `cq-trace timeline` and `cq-trace profile` read.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Records nested spans on the calling thread. A span's parent is the
/// span open when it started, which is all `cq-trace profile` needs to
/// compute self times.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::close`] before its parent.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let i = self.open.pop().expect("close() matches an open()");
        let span = &mut self.spans[i];
        span.dur_ns = end_ns - span.start_ns;
        span.dur_ns as f64 * 1e-9
    }

    /// Runs `f` inside a span, returning its result and duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.open(name);
        let r = f();
        (r, self.close())
    }

    /// The closed spans as JSONL timeline records, thread id 0.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"t\":\"tl\",\"name\":\"{}\",\"cat\":\"span\",\"tid\":0,\"ts\":{},\"dur\":{}}}",
                s.name, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_serialize_inside_their_parent() {
        let mut t = Tracer::new();
        t.open("bench.step");
        let ((), inner) = t.time("bench.models.fwd", || {});
        let outer = t.close();
        assert!(outer >= inner);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0]
            .starts_with("{\"t\":\"tl\",\"name\":\"bench.step\",\"cat\":\"span\",\"tid\":0,"));
        assert!(lines[1].contains("\"name\":\"bench.models.fwd\""));
    }
}
