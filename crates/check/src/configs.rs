//! Config pass: symbolic validation of every built-in table/figure
//! configuration, plus negative checks proving broken configs are
//! rejected with layer-attributed errors.

use cq_bench::{Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_models::plan::{encoder_plan, mlp_head_plan, NOMINAL_INPUT};
use cq_models::{Arch, HeadConfig};
use cq_quant::PrecisionSet;

use crate::analysis::Finding;

/// Summary of one successfully validated encoder configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigReport {
    /// Human-readable label (`scale/regime/arch/head`).
    pub label: String,
    /// Backbone feature dimension.
    pub feat_dim: usize,
    /// Projector output dimension.
    pub out_dim: usize,
    /// Total scalar parameters.
    pub params: usize,
    /// Forward FLOPs at the nominal `[2, 3, 32, 32]` input.
    pub flops: u64,
}

fn scales() -> [(Scale, &'static str); 2] {
    [(Scale::Quick, "quick"), (Scale::Paper, "paper")]
}

fn regimes() -> [(Regime, &'static str); 2] {
    [
        (Regime::CifarLike, "cifarlike"),
        (Regime::ImagenetLike, "imagenetlike"),
    ]
}

/// The precision set every table uses for quantization-augmented
/// pipelines (the paper's widest sampled range).
fn table_pset() -> Option<PrecisionSet> {
    PrecisionSet::range(4, 16).ok()
}

/// Validates every built-in experiment configuration symbolically:
/// encoder plans (SimCLR and BYOL heads) for all scales × regimes ×
/// architectures, pre-training configs for every pipeline, and the
/// detection-transfer head.
///
/// Returns the per-config reports plus any findings; an empty finding
/// list means the whole experiment grid is statically sound.
pub fn validate_builtin() -> (Vec<ConfigReport>, Vec<Finding>) {
    let mut reports = Vec::new();
    let mut violations = Vec::new();
    let mut fail = |label: &str, msg: String| {
        violations.push(Finding::error("configs", "config-invalid", label, 0, msg));
    };

    for (scale, sname) in scales() {
        for (regime, rname) in regimes() {
            let proto = Protocol::new(regime, scale);
            for arch in Arch::all() {
                for (cfg, head) in [
                    (proto.encoder_cfg(arch), "simclr"),
                    (proto.byol_encoder_cfg(arch), "byol"),
                ] {
                    let label = format!("{sname}/{rname}/{arch:?}/{head}");
                    match encoder_plan(&cfg) {
                        Err(e) => fail(&label, e.to_string()),
                        Ok((plan, feat, out)) => {
                            match (plan.infer(&NOMINAL_INPUT), plan.flops(&NOMINAL_INPUT)) {
                                (Ok(shape), Ok(flops)) => {
                                    if shape != [NOMINAL_INPUT[0], out] {
                                        fail(
                                            &label,
                                            format!("plan output {shape:?} != [N, {out}]"),
                                        );
                                    }
                                    reports.push(ConfigReport {
                                        label,
                                        feat_dim: feat,
                                        out_dim: out,
                                        params: plan.param_count(),
                                        flops,
                                    });
                                }
                                (Err(e), _) | (_, Err(e)) => fail(&label, e.to_string()),
                            }
                        }
                    }
                }
            }

            // Pre-training configs for every pipeline the tables run.
            for pipeline in Pipeline::all().into_iter().chain(Pipeline::extensions()) {
                let pset = if pipeline.needs_precisions() {
                    table_pset()
                } else {
                    None
                };
                let cfg = proto.pretrain_cfg(pipeline, pset);
                let label = format!("{sname}/{rname}/pretrain/{pipeline}");
                if let Err(e) = cfg.validate() {
                    fail(&label, e);
                }
            }

            // Detection transfer (Table 3): head over each backbone's
            // feature channels at the default class count.
            let classes = cq_detect::DetectionConfig::default().num_classes;
            for arch in Arch::all() {
                let label = format!("{sname}/{rname}/{arch:?}/detect-head");
                match encoder_plan(&proto.encoder_cfg(arch)) {
                    Err(e) => fail(&label, e.to_string()),
                    Ok((_, feat, _)) => {
                        let r = cq_detect::head_plan(feat, classes)
                            .and_then(|p| p.infer(&[2, feat, 4, 4]));
                        match r {
                            Ok(shape) => {
                                if shape != [2, 5 + classes, 4, 4] {
                                    fail(&label, format!("head output {shape:?} unexpected"));
                                }
                            }
                            Err(e) => fail(&label, e.to_string()),
                        }
                    }
                }
            }
        }
    }
    (reports, violations)
}

/// Negative checks: each deliberately broken configuration must be
/// *rejected*, with the error attributed to the offending layer. A
/// passing validator that silently accepts these has rotted.
pub fn negative_checks() -> Vec<Finding> {
    let mut violations = Vec::new();
    let mut expect_reject = |label: &str, outcome: Result<String, String>| match outcome {
        Ok(accepted) => violations.push(Finding::error(
            "negative",
            "broken-config-accepted",
            label,
            0,
            format!("broken config was accepted: {accepted}"),
        )),
        Err(msg) => {
            if msg.is_empty() {
                violations.push(Finding::error(
                    "negative",
                    "rejection-unattributed",
                    label,
                    0,
                    "rejected, but without the expected attribution",
                ));
            }
        }
    };

    // Projector input dim off by one: the error must name `proj.fc1` and
    // the expected feature count.
    let proto = Protocol::new(Regime::CifarLike, Scale::Quick);
    let arch = Arch::ResNet18;
    let off_by_one = (|| -> Result<String, String> {
        let (_, feat, _) = encoder_plan(&proto.encoder_cfg(arch)).map_err(|e| e.to_string())?;
        // Rebuild the encoder plan with a head expecting feat+1 inputs.
        let (mut broken, _) = cq_models::plan::backbone_plan(arch, proto.width_for(arch))
            .map_err(|e| e.to_string())?;
        broken.append(mlp_head_plan(&HeadConfig::simclr(feat + 1, 64, 32), "proj"));
        match broken.infer(&NOMINAL_INPUT) {
            Ok(shape) => Ok(format!("inferred {shape:?}")),
            Err(e) => {
                let msg = e.to_string();
                if msg.contains("proj.fc1") && msg.contains(&format!("{}", feat + 1)) {
                    Err(msg)
                } else {
                    Err(String::new()) // rejected but unattributed
                }
            }
        }
    })();
    expect_reject("projector-input-off-by-one", off_by_one);

    // 1-bit quantizer: outside the paper's sampled range, rejected at
    // precision-set construction.
    expect_reject(
        "one-bit-precision-set",
        match PrecisionSet::from_bits(&[1, 8]) {
            Ok(_) => Ok("PrecisionSet accepted 1-bit".into()),
            Err(e) => Err(e.to_string()),
        },
    );

    // CQ-C without a precision set.
    let cfg = proto.pretrain_cfg(Pipeline::CqC, None);
    expect_reject(
        "cqc-without-precisions",
        match cfg.validate() {
            Ok(()) => Ok("PretrainConfig accepted CQ-C without precisions".into()),
            Err(e) => Err(e),
        },
    );

    // Batch size 1 cannot form NT-Xent negatives.
    let mut cfg = proto.pretrain_cfg(Pipeline::Baseline, None);
    cfg.batch_size = 1;
    expect_reject(
        "batch-size-one",
        match cfg.validate() {
            Ok(()) => Ok("PretrainConfig accepted batch_size 1".into()),
            Err(e) => Err(e),
        },
    );

    // Zero-channel detection head.
    expect_reject(
        "zero-channel-detect-head",
        match cq_detect::head_plan(0, 5) {
            Ok(_) => Ok("head_plan accepted 0 channels".into()),
            Err(e) => Err(e.to_string()),
        },
    );

    // Zero-width backbone.
    expect_reject(
        "zero-width-backbone",
        match cq_models::plan::backbone_plan(Arch::ResNet18, 0) {
            Ok(_) => Ok("backbone_plan accepted width 0".into()),
            Err(e) => Err(e.to_string()),
        },
    );

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_config_is_statically_sound() {
        let (reports, violations) = validate_builtin();
        assert!(violations.is_empty(), "violations: {violations:?}");
        // 2 scales × 2 regimes × 6 archs × 2 heads
        assert_eq!(reports.len(), 48);
        for r in &reports {
            assert!(r.params > 0, "{}: zero params", r.label);
            assert!(r.flops > 0, "{}: zero flops", r.label);
            assert!(r.feat_dim > 0 && r.out_dim > 0);
        }
    }

    #[test]
    fn all_broken_configs_are_rejected_with_attribution() {
        let violations = negative_checks();
        assert!(violations.is_empty(), "violations: {violations:?}");
    }
}
