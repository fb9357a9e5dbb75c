//! Span-tree reconstruction from the flat JSONL record stream.
//!
//! The JSONL sink writes only `SpanEnd` records, in post-order (children
//! close before their parents), each carrying its per-thread nesting
//! depth. That is enough to rebuild the call tree with a depth-indexed
//! stack: a span ending at depth `d` adopts every node accumulated at
//! depth `d+1` since the previous depth-`d` span closed.
//!
//! Traces from multi-threaded runs interleave depths from different
//! threads; reconstruction still terminates and loses no time, but
//! parent/child attribution is only exact for single-threaded traces
//! (CI's `CQ_THREADS=1` pilot leg; numerical results are identical at
//! any thread count, so a single-threaded trace is representative).

use cq_obs::json::Record;

/// One node of the reconstructed (and name-merged) span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Number of merged scopes.
    pub calls: u64,
    /// Total nanoseconds across merged scopes.
    pub total_ns: u64,
    /// Child spans, merged by name, in first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time not attributed to any child (`total - sum(children)`).
    pub fn self_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(child_ns)
    }
}

/// Rebuilds the span forest from a record stream and merges sibling
/// nodes that share a name (summing calls and time).
pub fn build_span_tree(records: &[Record]) -> Vec<SpanNode> {
    let mut pending: Vec<Vec<SpanNode>> = Vec::new();
    for rec in records {
        let Record::Span { name, depth, ns } = rec else {
            continue;
        };
        let d = *depth as usize;
        if pending.len() <= d + 1 {
            pending.resize_with(d + 2, Vec::new);
        }
        // Adopt everything deeper than this span. Well-formed traces only
        // have nodes at d+1 here; deeper leftovers (truncated or
        // interleaved traces) are folded in rather than dropped.
        let mut children = Vec::new();
        for level in pending.iter_mut().skip(d + 1) {
            children.append(level);
        }
        pending[d].push(SpanNode {
            name: name.clone(),
            calls: 1,
            total_ns: *ns,
            children,
        });
    }
    // Roots are depth 0; orphans at deeper levels (truncated trace with
    // no enclosing end record) surface as extra roots.
    let mut roots = Vec::new();
    for level in &mut pending {
        roots.append(level);
    }
    merge_by_name(roots)
}

fn merge_by_name(nodes: Vec<SpanNode>) -> Vec<SpanNode> {
    let mut merged: Vec<SpanNode> = Vec::new();
    for node in nodes {
        if let Some(existing) = merged.iter_mut().find(|m| m.name == node.name) {
            existing.calls += node.calls;
            existing.total_ns += node.total_ns;
            existing.children.extend(node.children);
        } else {
            merged.push(node);
        }
    }
    for m in &mut merged {
        m.children = merge_by_name(std::mem::take(&mut m.children));
    }
    merged
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the forest as an indented, flame-style text block: one line
/// per node with total/self time, call count, share of the forest total,
/// and a proportional bar.
pub fn render_span_tree(roots: &[SpanNode]) -> String {
    let forest_total: u64 = roots.iter().map(|r| r.total_ns).sum();
    let mut out = String::new();
    for root in roots {
        render_node(root, 0, forest_total.max(1), &mut out);
    }
    out
}

fn render_node(node: &SpanNode, indent: usize, forest_total: u64, out: &mut String) {
    let pct = 100.0 * node.total_ns as f64 / forest_total as f64;
    let bar_len = ((node.total_ns as u128 * 24) / forest_total as u128) as usize;
    let label = format!("{}{}", "  ".repeat(indent), node.name);
    out.push_str(&format!(
        "  {label:<36} {:>9} total  {:>9} self  {:>7} calls {pct:>6.1}% {}\n",
        fmt_ns(node.total_ns),
        fmt_ns(node.self_ns()),
        node.calls,
        "#".repeat(bar_len),
    ));
    for child in &node.children {
        render_node(child, indent + 1, forest_total, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, depth: u16, ns: u64) -> Record {
        Record::Span {
            name: name.to_string(),
            depth,
            ns,
        }
    }

    #[test]
    fn rebuilds_and_merges_nested_spans() {
        // Two steps, each with forward+backward children, post-order.
        let records = vec![
            span("forward", 1, 30),
            span("backward", 1, 50),
            span("step", 0, 100),
            span("forward", 1, 35),
            span("backward", 1, 45),
            span("step", 0, 100),
        ];
        let roots = build_span_tree(&records);
        assert_eq!(roots.len(), 1);
        let step = &roots[0];
        assert_eq!(step.name, "step");
        assert_eq!(step.calls, 2);
        assert_eq!(step.total_ns, 200);
        assert_eq!(step.self_ns(), 200 - 30 - 50 - 35 - 45);
        assert_eq!(step.children.len(), 2);
        assert_eq!(step.children[0].name, "forward");
        assert_eq!(step.children[0].calls, 2);
        assert_eq!(step.children[0].total_ns, 65);
        assert_eq!(step.children[1].name, "backward");
        assert_eq!(step.children[1].total_ns, 95);
    }

    #[test]
    fn orphaned_deep_spans_survive_truncation() {
        // Trace cut off before the enclosing depth-0 span closed.
        let records = vec![span("inner", 1, 10), span("inner", 1, 12)];
        let roots = build_span_tree(&records);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].calls, 2);
        assert_eq!(roots[0].total_ns, 22);
    }

    #[test]
    fn render_contains_names_and_percentages() {
        let records = vec![span("forward", 1, 75), span("step", 0, 100)];
        let text = render_span_tree(&build_span_tree(&records));
        assert!(text.contains("step"), "{text}");
        assert!(text.contains("forward"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        // Self time of step excludes the child.
        assert!(text.contains("25ns self"), "{text}");
    }
}
