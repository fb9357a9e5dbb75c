//! Metric names and units, and the printed result: one line per metric
//! and check, then the JSON result object as the last line of stdout.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("img_per_s", "img/s"),
    ("op_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as named in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("data.batch_s", "s"),
    ("models.fwd_s", "s"),
    ("models.bwd_s", "s"),
    ("models.fwd_gflops", "GFLOP/s"),
    ("models.bwd_gflops", "GFLOP/s"),
    ("quant.overhead_s", "s"),
    ("quant.elems_per_step", "count"),
    ("core.ntxent_s", "s"),
    ("core.unattributed_s", "s"),
    ("nn.sgd_s", "s"),
    ("nn.grads_s", "s"),
    ("graph.fused_chains_per_step", "count"),
    ("graph.elided_bytes_per_step", "B"),
    ("tensor.gemm_calls_per_step", "count"),
    ("tensor.gemm_small_share", "ratio"),
    ("tensor.im2col_elems_per_step", "count"),
    ("tensor.flops_counted_per_step", "FLOP"),
    ("graph.flops_predicted_per_step", "FLOP"),
    ("tensor.flop_coverage", "ratio"),
    ("tensor.pool_jobs_per_step", "count"),
    ("tensor.par_speedup_2t", "ratio"),
    ("tensor.pool_util_2t", "ratio"),
    ("mem.allocs_per_step", "count"),
    ("infer.convert_s", "s"),
    ("infer.batch_s", "s"),
    ("infer.i8_gemm_calls_per_batch", "count"),
    ("infer.speedup_vs_f32", "ratio"),
    ("eval.batch_s", "s"),
    ("eval.knn_s", "s"),
    ("trace.overhead", "ratio"),
];

/// A run's outcome. Metrics are filled by name from one of the two
/// lists above; printing fails loudly if one was left out.
pub struct Report {
    spec: &'static [(&'static str, &'static str)],
    values: Vec<Option<(f64, usize)>>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
}

impl Report {
    pub fn new(spec: &'static [(&'static str, &'static str)]) -> Report {
        Report {
            spec,
            values: vec![None; spec.len()],
            checks: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records metric `name`, measured over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let i = self
            .spec
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's list"));
        self.values[i] = Some((value, samples));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// An informational line printed with the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
            && self.values.iter().flatten().all(|(v, _)| v.is_finite())
    }

    /// The human-readable lines followed by the JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "check {what}: {}", if *ok { "ok" } else { "FAIL" });
        }
        let mut json = String::new();
        for (&(name, unit), value) in self.spec.iter().zip(&self.values) {
            let (v, n) = value.unwrap_or_else(|| panic!("metric {name} was never set"));
            let _ = writeln!(out, "metric {name} = {v} {unit} (n={n})");
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            let sep = if json.is_empty() { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(spec: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        spec.iter().map(|&(n, _)| n).collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_use_the_allowed_characters() {
        for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in &crate::workload::WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
        }
        let mut all = names(&END_TO_END);
        all.extend(names(&PER_LAYER));
        all.extend(crate::workload::WORKLOADS.iter().map(|w| w.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "names are used once");
    }

    /// `(section, name, unit)` for every named entry of BENCHMARK.json,
    /// which keeps one entry per line.
    fn benchmark_json_entries() -> Vec<(String, String, Option<String>)> {
        let text = include_str!("../../../../../BENCHMARK.json");
        let quoted = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            for key in ["workloads", "end_to_end", "per_layer"] {
                if line.contains(&format!("\"{key}\"")) {
                    section = key.to_string();
                }
            }
            if let Some(name) = quoted(line, "name") {
                out.push((section.clone(), name, quoted(line, "unit")));
            }
        }
        out
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let entries = benchmark_json_entries();
        let listed = |section: &str| -> Vec<(String, Option<String>)> {
            entries
                .iter()
                .filter(|(s, _, _)| s == section)
                .map(|(_, n, u)| (n.clone(), u.clone()))
                .collect()
        };
        let emitted = |spec: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            spec.iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(listed("end_to_end"), emitted(&END_TO_END));
        assert_eq!(listed("per_layer"), emitted(&PER_LAYER));
        let workloads: Vec<_> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), None))
            .collect();
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn render_ends_with_the_json_result() {
        let mut r = Report::new(&END_TO_END);
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64, 3);
        }
        r.attempted = 3;
        r.check("losses finite", true);
        let out = r.render();
        let last = out.lines().last().expect("output");
        assert!(last.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(last.contains("\"img_per_s\":{\"value\":1.5,\"unit\":\"img/s\"}"));
        assert!(last.ends_with("\"peak_rss_mb\":{\"value\":4.5,\"unit\":\"MB\"}}}"));
        assert!(out.contains("metric setup_s = 3.5 s (n=3)"));
        r.check("parity", false);
        assert!(!r.correct());
    }
}
