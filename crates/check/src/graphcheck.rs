//! Graph pass: lowers every built-in encoder configuration to the
//! [`cq_nn::graph::Graph`] IR and proves the two views of the model —
//! the symbolic [`cq_nn::spec::Plan`] and the executable op graph — are
//! one source of truth.
//!
//! Since ISSUE 10 the `Plan` shape/FLOP interpreter *is* the graph
//! lowering (`Plan::infer` delegates per layer), so this pass checks the
//! invariants the shared lowering must uphold for every table/figure
//! config: the graph validates structurally (topological inputs,
//! contiguous strides, elementwise shape preservation), its output shape
//! and total FLOPs agree with the plan's answers, per-layer FLOP
//! attribution covers the whole graph, and the statically predicted
//! fusable elementwise chains are present — the same chains the runtime
//! executor fuses.

use cq_bench::{Protocol, Regime, Scale};
use cq_models::plan::{encoder_plan, NOMINAL_INPUT};
use cq_models::Arch;
use cq_nn::graph::{Graph, NodeOp};

use crate::analysis::Finding;

/// Summary of one successfully graph-checked encoder configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphReport {
    /// Human-readable label (`scale/regime/arch/head`).
    pub label: String,
    /// Total nodes in the lowered graph.
    pub nodes: usize,
    /// Forward FLOPs at the nominal `[2, 3, 32, 32]` input.
    pub flops: u64,
    /// Statically predicted fusable elementwise chains (length >= 2).
    pub fused_chains: usize,
    /// Longest predicted chain, in nodes.
    pub max_chain_len: usize,
    /// Fake-quantization nodes in the graph.
    pub quantize_nodes: usize,
}

/// Lowers all built-in encoder configurations (the same 2 scales × 2
/// regimes × 6 architectures × 2 heads grid as the config pass) through
/// [`Graph::lower`] and cross-checks each graph against its plan.
///
/// Returns the per-config reports plus any findings; an empty finding
/// list means plan and graph agree everywhere.
pub fn graph_soundness_builtin() -> (Vec<GraphReport>, Vec<Finding>) {
    let mut reports = Vec::new();
    let mut violations = Vec::new();
    let mut fail = |label: &str, msg: String| {
        violations.push(Finding::error(
            "graph",
            "graph-plan-divergence",
            label,
            0,
            msg,
        ));
    };

    for (scale, sname) in [(Scale::Quick, "quick"), (Scale::Paper, "paper")] {
        for (regime, rname) in [
            (Regime::CifarLike, "cifarlike"),
            (Regime::ImagenetLike, "imagenetlike"),
        ] {
            let proto = Protocol::new(regime, scale);
            for arch in Arch::all() {
                for (cfg, head) in [
                    (proto.encoder_cfg(arch), "simclr"),
                    (proto.byol_encoder_cfg(arch), "byol"),
                ] {
                    let label = format!("{sname}/{rname}/{arch:?}/{head}");
                    let (plan, _, out) = match encoder_plan(&cfg) {
                        Ok(p) => p,
                        Err(e) => {
                            fail(&label, format!("encoder_plan: {e}"));
                            continue;
                        }
                    };
                    let graph = match Graph::lower(&plan, &NOMINAL_INPUT) {
                        Ok(g) => g,
                        Err(e) => {
                            fail(&label, format!("Graph::lower: {e}"));
                            continue;
                        }
                    };
                    if let Err(e) = graph.validate() {
                        fail(&label, format!("graph invariant violated: {e}"));
                        continue;
                    }
                    // The graph must answer exactly what the plan answers.
                    match (plan.infer(&NOMINAL_INPUT), plan.flops(&NOMINAL_INPUT)) {
                        (Ok(shape), Ok(flops)) => {
                            if graph.output_shape() != shape.as_slice() {
                                fail(
                                    &label,
                                    format!(
                                        "graph output {:?} != plan output {shape:?}",
                                        graph.output_shape()
                                    ),
                                );
                            }
                            if graph.flops() != flops {
                                fail(
                                    &label,
                                    format!("graph FLOPs {} != plan FLOPs {flops}", graph.flops()),
                                );
                            }
                            if shape != [NOMINAL_INPUT[0], out] {
                                fail(&label, format!("plan output {shape:?} != [N, {out}]"));
                            }
                        }
                        (Err(e), _) | (_, Err(e)) => {
                            fail(&label, format!("plan disagrees with its own graph: {e}"));
                        }
                    }
                    // Per-layer attribution must cover the whole graph:
                    // every node belongs to a top-level layer, and the
                    // layer sums reproduce the total.
                    let per_layer: u64 = (0..plan.layers().len())
                        .map(|li| graph.layer_flops(li))
                        .sum();
                    if per_layer != graph.flops() {
                        fail(
                            &label,
                            format!(
                                "per-layer FLOP attribution {per_layer} != graph total {}",
                                graph.flops()
                            ),
                        );
                    }
                    let chains = graph.fused_chains();
                    let quantize_nodes = graph
                        .nodes()
                        .iter()
                        .filter(|n| n.op == NodeOp::Quantize)
                        .count();
                    // Every built-in encoder has BN -> activation -> quant
                    // stretches; a lowering that predicts no fusable chain
                    // means the chain detector (or the lowering) rotted.
                    if chains.is_empty() {
                        fail(&label, "no fusable elementwise chain predicted".into());
                    }
                    reports.push(GraphReport {
                        label,
                        nodes: graph.nodes().len(),
                        flops: graph.flops(),
                        fused_chains: chains.len(),
                        max_chain_len: chains.iter().map(Vec::len).max().unwrap_or(0),
                        quantize_nodes,
                    });
                }
            }
        }
    }
    (reports, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_config_lowers_to_a_sound_graph() {
        let (reports, violations) = graph_soundness_builtin();
        assert!(violations.is_empty(), "violations: {violations:?}");
        // Same grid as the config pass: 2 scales × 2 regimes × 6 archs × 2 heads.
        assert_eq!(reports.len(), 48);
        for r in &reports {
            assert!(r.nodes > 0 && r.flops > 0, "{}: empty graph", r.label);
            assert!(r.fused_chains > 0, "{}: no fusable chains", r.label);
            assert!(r.max_chain_len >= 2, "{}: degenerate chains", r.label);
            assert!(r.quantize_nodes > 0, "{}: no quantize nodes", r.label);
        }
    }
}
