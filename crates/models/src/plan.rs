//! The [`Plan`] of every backbone and head this crate provides — the only
//! definition of each network.
//!
//! [`Plan::build`] instantiates a plan (weights are registered under the
//! plan's layer names and drawn in plan order), while [`Plan::infer`],
//! [`Plan::param_count`] and [`Plan::flops`] describe the same network
//! without allocating a tensor. [`crate::Encoder::new`] validates its
//! configuration against [`encoder_plans`] before any weight is
//! initialised, and the `cq-check` binary runs the same pass over every
//! built-in experiment configuration.

use cq_nn::spec::{LayerKind, Plan, SpecError};
use cq_tensor::Conv2dSpec;

use crate::{Arch, EncoderConfig};

/// Nominal input shape used when validating encoder configurations
/// (CIFAR-sized, batch 2 so BatchNorm statistics are well defined).
pub const NOMINAL_INPUT: [usize; 4] = [2, 3, 32, 32];

/// Plan of a ResNet basic block: `conv3×3 → BN → ReLU → conv3×3 → BN`,
/// added to an identity skip (or a strided `conv1×1 → BN` projection when
/// the shape changes), then the output ReLU.
fn basic_block_plan(name: &str, in_ch: usize, out_ch: usize, stride: usize) -> LayerKind {
    let mut main = Plan::new();
    main.push(
        format!("{name}.conv1"),
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            spec: Conv2dSpec::new(3, stride, 1),
            bias: false,
        },
    );
    main.push(
        format!("{name}.bn1"),
        LayerKind::BatchNorm2d { channels: out_ch },
    );
    main.push(format!("{name}.relu1"), LayerKind::Relu);
    main.push(
        format!("{name}.conv2"),
        LayerKind::Conv2d {
            in_ch: out_ch,
            out_ch,
            spec: Conv2dSpec::new(3, 1, 1),
            bias: false,
        },
    );
    main.push(
        format!("{name}.bn2"),
        LayerKind::BatchNorm2d { channels: out_ch },
    );
    let skip = (stride != 1 || in_ch != out_ch).then(|| {
        let mut s = Plan::new();
        s.push(
            format!("{name}.down.conv"),
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                spec: Conv2dSpec::new(1, stride, 0),
                bias: false,
            },
        );
        s.push(
            format!("{name}.down.bn"),
            LayerKind::BatchNorm2d { channels: out_ch },
        );
        s
    });
    let mut block = Plan::new();
    block.push(format!("{name}.res"), LayerKind::Residual { main, skip });
    block.push(format!("{name}.relu_out"), LayerKind::Relu);
    LayerKind::Block(block)
}

/// Plan of a MobileNetV2 inverted residual block: `expand 1×1 conv (t×)
/// → BN → ReLU6 → depthwise 3×3 → BN → ReLU6 → project 1×1 conv → BN`,
/// with an identity residual when the stride is 1 and the channel count
/// is unchanged. The expansion stage is omitted when `t == 1` (the first
/// block), as in the reference network.
fn inverted_residual_plan(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    t: usize,
    stride: usize,
) -> LayerKind {
    let hidden = in_ch * t;
    let mut main = Plan::new();
    if t != 1 {
        main.push(
            format!("{name}.expand.conv"),
            LayerKind::Conv2d {
                in_ch,
                out_ch: hidden,
                spec: Conv2dSpec::new(1, 1, 0),
                bias: false,
            },
        );
        main.push(
            format!("{name}.expand.bn"),
            LayerKind::BatchNorm2d { channels: hidden },
        );
        main.push(format!("{name}.expand.relu6"), LayerKind::Relu6);
    }
    main.push(
        format!("{name}.dw"),
        LayerKind::DepthwiseConv2d {
            channels: hidden,
            spec: Conv2dSpec::new(3, stride, 1),
        },
    );
    main.push(
        format!("{name}.dw.bn"),
        LayerKind::BatchNorm2d { channels: hidden },
    );
    main.push(format!("{name}.dw.relu6"), LayerKind::Relu6);
    main.push(
        format!("{name}.project.conv"),
        LayerKind::Conv2d {
            in_ch: hidden,
            out_ch,
            spec: Conv2dSpec::new(1, 1, 0),
            bias: false,
        },
    );
    main.push(
        format!("{name}.project.bn"),
        LayerKind::BatchNorm2d { channels: out_ch },
    );
    if stride == 1 && in_ch == out_ch {
        LayerKind::Residual { main, skip: None }
    } else {
        LayerKind::Block(main)
    }
}

/// Rejects a zero width, or one whose widest layer (`max_mult × width`
/// channels) overflows `usize`.
fn check_width(width: usize, max_mult: usize) -> Result<(), SpecError> {
    if width == 0 {
        return Err(SpecError::config("backbone", "width must be positive"));
    }
    if width.checked_mul(max_mult).is_none() {
        return Err(SpecError::config(
            "backbone",
            format!("width {width} overflows the channel count"),
        ));
    }
    Ok(())
}

/// Plan of a ResNet backbone `[N, 3, H, W] -> [N, feat_dim]`, returning
/// `(plan, feat_dim)`.
///
/// `width` is the first-stage channel count (the paper's full-scale
/// models correspond to width 64 / 16; the scaled protocol uses 4–16).
///
/// # Errors
///
/// Returns a config-attributed [`SpecError`] for a zero or overflowing
/// width, or [`Arch::MobileNetV2`] (use [`mobilenet_v2_plan`]).
pub fn resnet_plan(arch: Arch, width: usize) -> Result<(Plan, usize), SpecError> {
    check_width(width, 8)?;
    let (stage_blocks, stage_mults): (Vec<usize>, Vec<usize>) = match arch {
        Arch::ResNet18 => (vec![2, 2, 2, 2], vec![1, 2, 4, 8]),
        Arch::ResNet34 => (vec![3, 4, 6, 3], vec![1, 2, 4, 8]),
        Arch::ResNet74 => (vec![12, 12, 12], vec![1, 2, 4]),
        Arch::ResNet110 => (vec![18, 18, 18], vec![1, 2, 4]),
        Arch::ResNet152 => (vec![25, 25, 25], vec![1, 2, 4]),
        Arch::MobileNetV2 => {
            return Err(SpecError::config(
                "backbone",
                "use mobilenet_v2_plan for MobileNetV2",
            ));
        }
    };
    let mut plan = Plan::new();
    plan.push(
        "stem.conv",
        LayerKind::Conv2d {
            in_ch: 3,
            out_ch: width,
            spec: Conv2dSpec::new(3, 1, 1),
            bias: false,
        },
    );
    plan.push("stem.bn", LayerKind::BatchNorm2d { channels: width });
    plan.push("stem.relu", LayerKind::Relu);
    let mut in_ch = width;
    for (si, (&n_blocks, &mult)) in stage_blocks.iter().zip(&stage_mults).enumerate() {
        let out_ch = width * mult;
        for bi in 0..n_blocks {
            let stride = if si > 0 && bi == 0 { 2 } else { 1 };
            let name = format!("s{si}.b{bi}");
            plan.push(&name, basic_block_plan(&name, in_ch, out_ch, stride));
            in_ch = out_ch;
        }
    }
    plan.push("gap", LayerKind::GlobalAvgPool);
    Ok((plan, in_ch))
}

/// Plan of a width-scaled MobileNetV2 backbone
/// `[N, 3, H, W] -> [N, feat_dim]`, returning `(plan, feat_dim)`.
///
/// Stage table (scaled-down version of the reference network, preserving
/// the expansion-factor pattern): stem 3×3 conv, then inverted residuals
/// `(t, c, n, s)` = (1, w, 1, 1), (6, 2w, 2, 2), (6, 4w, 2, 2), followed by
/// a 1×1 conv to `8w` features and global average pooling.
///
/// # Errors
///
/// Returns a config-attributed [`SpecError`] for a zero or overflowing
/// width.
pub fn mobilenet_v2_plan(width: usize) -> Result<(Plan, usize), SpecError> {
    // The widest layer is the 6× expansion of the 4w stage.
    check_width(width, 24)?;
    let mut plan = Plan::new();
    plan.push(
        "stem.conv",
        LayerKind::Conv2d {
            in_ch: 3,
            out_ch: width,
            spec: Conv2dSpec::new(3, 1, 1),
            bias: false,
        },
    );
    plan.push("stem.bn", LayerKind::BatchNorm2d { channels: width });
    plan.push("stem.relu6", LayerKind::Relu6);
    let stages: [(usize, usize, usize, usize); 3] =
        [(1, width, 1, 1), (6, 2 * width, 2, 2), (6, 4 * width, 2, 2)];
    let mut in_ch = width;
    for (si, &(t, c, n, s)) in stages.iter().enumerate() {
        for bi in 0..n {
            let stride = if bi == 0 { s } else { 1 };
            let name = format!("ir{si}.{bi}");
            plan.push(&name, inverted_residual_plan(&name, in_ch, c, t, stride));
            in_ch = c;
        }
    }
    let feat = 8 * width;
    plan.push(
        "head.conv",
        LayerKind::Conv2d {
            in_ch,
            out_ch: feat,
            spec: Conv2dSpec::new(1, 1, 0),
            bias: false,
        },
    );
    plan.push("head.bn", LayerKind::BatchNorm2d { channels: feat });
    plan.push("head.relu6", LayerKind::Relu6);
    plan.push("gap", LayerKind::GlobalAvgPool);
    Ok((plan, feat))
}

/// Plan of any backbone architecture, returning `(plan, feat_dim)`.
///
/// # Errors
///
/// Returns a config-attributed [`SpecError`] for a zero or overflowing
/// width.
pub fn backbone_plan(arch: Arch, width: usize) -> Result<(Plan, usize), SpecError> {
    match arch {
        Arch::MobileNetV2 => mobilenet_v2_plan(width),
        _ => resnet_plan(arch, width),
    }
}

/// Configuration of an MLP head.
///
/// SimCLR (§3.4: "adding a projection head after the encoder") uses a
/// 2-layer MLP; BYOL additionally uses a prediction head on the online
/// network. Both are the same shape: `Linear → [BN] → ReLU → Linear`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadConfig {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Insert BatchNorm1d after the first linear (BYOL-style head).
    pub batch_norm: bool,
}

impl HeadConfig {
    /// SimCLR-style head (no batch norm).
    pub fn simclr(in_dim: usize, hidden: usize, out_dim: usize) -> Self {
        HeadConfig {
            in_dim,
            hidden,
            out_dim,
            batch_norm: false,
        }
    }

    /// BYOL-style head (batch norm after the first linear).
    pub fn byol(in_dim: usize, hidden: usize, out_dim: usize) -> Self {
        HeadConfig {
            batch_norm: true,
            ..HeadConfig::simclr(in_dim, hidden, out_dim)
        }
    }
}

/// Plan of the `Linear → [BN] → ReLU → Linear` head `cfg` describes, with
/// its layers named `{name}.fc1`, `{name}.bn`, `{name}.relu`, `{name}.fc2`.
pub fn mlp_head_plan(cfg: &HeadConfig, name: &str) -> Plan {
    let mut plan = Plan::new();
    plan.push(
        format!("{name}.fc1"),
        LayerKind::Linear {
            in_features: cfg.in_dim,
            out_features: cfg.hidden,
            bias: !cfg.batch_norm,
        },
    );
    if cfg.batch_norm {
        plan.push(
            format!("{name}.bn"),
            LayerKind::BatchNorm1d {
                features: cfg.hidden,
            },
        );
    }
    plan.push(format!("{name}.relu"), LayerKind::Relu);
    plan.push(
        format!("{name}.fc2"),
        LayerKind::Linear {
            in_features: cfg.hidden,
            out_features: cfg.out_dim,
            bias: true,
        },
    );
    plan
}

/// The plans of an [`crate::Encoder`]'s two halves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncoderPlans {
    /// Backbone, `[N, 3, H, W] -> [N, feat_dim]`.
    pub backbone: Plan,
    /// Projection head, `[N, feat_dim] -> [N, proj_dim]`; `None` = no
    /// projector.
    pub projector: Option<Plan>,
    /// Backbone feature dimension.
    pub feat_dim: usize,
    /// Projection output dimension (`feat_dim` without a projector).
    pub proj_dim: usize,
}

impl EncoderPlans {
    /// The backbone followed by the projector, as one plan.
    pub fn joined(&self) -> Plan {
        let mut plan = self.backbone.clone();
        if let Some(p) = &self.projector {
            plan.append(p.clone());
        }
        plan
    }
}

/// Plans of an encoder configuration's backbone and projector (a
/// SimCLR-style head, or a BYOL-style one when `cfg.proj_bn`).
///
/// # Errors
///
/// Returns a config-attributed [`SpecError`] for invalid widths or
/// projector dimensions.
pub fn encoder_plans(cfg: &EncoderConfig) -> Result<EncoderPlans, SpecError> {
    let (backbone, feat_dim) = backbone_plan(cfg.arch, cfg.width)?;
    let (projector, proj_dim) = match cfg.proj {
        Some((hidden, out)) => {
            if hidden == 0 || out == 0 {
                return Err(SpecError::config(
                    "proj",
                    format!("projector dims must be positive, got ({hidden}, {out})"),
                ));
            }
            let hc = HeadConfig {
                batch_norm: cfg.proj_bn,
                ..HeadConfig::simclr(feat_dim, hidden, out)
            };
            (Some(mlp_head_plan(&hc, "proj")), out)
        }
        None => (None, feat_dim),
    };
    Ok(EncoderPlans {
        backbone,
        projector,
        feat_dim,
        proj_dim,
    })
}

/// Plan of a full [`crate::Encoder`] (backbone + optional projector),
/// returning `(plan, feat_dim, proj_dim)`.
///
/// # Errors
///
/// Returns a layer- or config-attributed [`SpecError`] for invalid widths
/// or projector dimensions.
pub fn encoder_plan(cfg: &EncoderConfig) -> Result<(Plan, usize, usize), SpecError> {
    let plans = encoder_plans(cfg)?;
    Ok((plans.joined(), plans.feat_dim, plans.proj_dim))
}

/// Statically validates an encoder configuration: builds its plans and
/// interprets them on [`NOMINAL_INPUT`].
///
/// # Errors
///
/// Returns the first layer-attributed [`SpecError`] — this is what makes
/// [`crate::Encoder::new`] reject invalid configurations before touching
/// any weights.
pub fn validate_encoder(cfg: &EncoderConfig) -> Result<EncoderPlans, SpecError> {
    let plans = encoder_plans(cfg)?;
    plans.joined().infer(&NOMINAL_INPUT)?;
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;
    use cq_nn::{ForwardCtx, Layer, ParamSet, Sequential};
    use cq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(plan: &Plan, seed: u64) -> (Sequential, ParamSet) {
        let mut ps = ParamSet::new();
        let net = plan.build(&mut ps, &mut StdRng::seed_from_u64(seed));
        (net, ps)
    }

    /// A one-layer plan holding a single block.
    fn block(kind: LayerKind) -> Plan {
        let mut p = Plan::new();
        p.push("b", kind);
        p
    }

    /// Built networks agree with their plans on parameter count, output
    /// shape and feature dim — for every architecture the paper
    /// evaluates.
    #[test]
    fn plans_match_real_networks_for_every_arch() {
        for arch in Arch::all() {
            let (plan, feat) = backbone_plan(arch, 2).unwrap();
            let (mut net, ps) = build(&plan, 0);
            assert_eq!(plan.param_count(), ps.num_scalars(), "{arch}: param count");
            let x = Tensor::zeros(&[2, 3, 16, 16]);
            let (y, _) = net.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
            assert_eq!(y.dims(), &[2, feat], "{arch}: feature dim");
            assert_eq!(
                plan.infer(&[2, 3, 16, 16]).unwrap(),
                y.dims(),
                "{arch}: shape"
            );
            assert!(plan.flops(&[2, 3, 16, 16]).unwrap() > 0, "{arch}: flops");
        }
    }

    #[test]
    fn encoder_plan_matches_encoder_for_every_arch() {
        for arch in Arch::all() {
            let cfg = EncoderConfig::new(arch, 2).with_proj(8, 4);
            let mut enc = Encoder::new(&cfg, 1).unwrap();
            let (plan, feat, proj) = encoder_plan(&cfg).unwrap();
            assert_eq!(feat, enc.feat_dim(), "{arch}: feat dim");
            assert_eq!(proj, enc.proj_dim(), "{arch}: proj dim");
            assert_eq!(plan.param_count(), enc.num_params(), "{arch}: params");
            let x = Tensor::zeros(&[2, 3, 16, 16]);
            let out = enc.forward(&x, &ForwardCtx::eval()).unwrap();
            assert_eq!(
                plan.infer(&[2, 3, 16, 16]).unwrap(),
                out.projection.dims(),
                "{arch}"
            );
        }
    }

    #[test]
    fn byol_encoder_plan_counts_bn_head() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 2).with_byol_proj(8, 4);
        let enc = Encoder::new(&cfg, 1).unwrap();
        let (plan, _, _) = encoder_plan(&cfg).unwrap();
        assert_eq!(plan.param_count(), enc.num_params());
    }

    #[test]
    fn basic_block_identity_and_projection_shapes() {
        let x = Tensor::ones(&[2, 4, 6, 6]);
        for (out_ch, stride, out, bns) in [(4, 1, [2, 4, 6, 6], 2), (8, 2, [2, 8, 3, 3], 3)] {
            let (mut blk, ps) = build(&block(basic_block_plan("b", 4, out_ch, stride)), 0);
            assert_eq!(blk.len(), 1, "the block is one residual layer");
            let (y, _) = blk.forward(&ps, &x, &ForwardCtx::train()).unwrap();
            assert_eq!(y.dims(), &out);
            assert_eq!(blk.state_tensors().len(), 2 * bns, "(mean, var) per BN");
        }
    }

    #[test]
    fn basic_block_gradcheck_identity() {
        let (blk, ps) = build(&block(basic_block_plan("b", 3, 3, 1)), 2);
        cq_nn::gradcheck::check_layer_soft(blk, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn basic_block_gradcheck_projection() {
        let (blk, ps) = build(&block(basic_block_plan("b", 3, 4, 2)), 3);
        cq_nn::gradcheck::check_layer_soft(blk, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn cifar_resnet_depth_counts() {
        // ResNet-74 = 6*12+2: stem conv + 36 blocks*2 convs + fc (not here)
        let (plan, dim) = resnet_plan(Arch::ResNet74, 4).unwrap();
        assert_eq!(dim, 16);
        let (_, ps) = build(&plan, 5);
        // weight params: stem conv + stem bn(2) + blocks
        // 36 blocks, each 2 convs + 2 bns(2 each) = 6 params, plus 2
        // projection blocks with 1x1 conv + bn = +3 each.
        let expected = 1 + 2 + 36 * 6 + 2 * 3;
        assert_eq!(ps.len(), expected);
    }

    #[test]
    fn resnet_backward_runs_and_produces_finite_grads() {
        let (plan, dim) = resnet_plan(Arch::ResNet18, 2).unwrap();
        let (mut net, ps) = build(&plan, 6);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (_y, cache) = net.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        let mut gs = ps.zero_grads();
        let dx = net
            .backward(&ps, &cache, &Tensor::ones(&[2, dim]), &mut gs)
            .unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert!(gs.is_finite());
        assert!(gs.global_norm() > 0.0);
    }

    #[test]
    fn resnet_plan_rejects_mobilenet() {
        let err = resnet_plan(Arch::MobileNetV2, 4).unwrap_err();
        assert!(err.to_string().contains("mobilenet_v2_plan"));
    }

    #[test]
    fn inverted_residual_shapes() {
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let plan = block(inverted_residual_plan("ir", 4, 4, 6, 1));
        assert!(matches!(plan.layers()[0].kind, LayerKind::Residual { .. }));
        let (mut ir, ps) = build(&plan, 0);
        let (y, _) = ir.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 4, 6, 6]);

        let plan = block(inverted_residual_plan("ir2", 4, 8, 6, 2));
        assert!(matches!(plan.layers()[0].kind, LayerKind::Block(_)));
        let (mut ir2, ps) = build(&plan, 1);
        let (y2, _) = ir2.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y2.dims(), &[2, 8, 3, 3]);
    }

    #[test]
    fn t1_block_has_no_expand_stage() {
        let (_, ps) = build(&block(inverted_residual_plan("ir", 4, 4, 1, 1)), 1);
        // dw weight + 2 bn(gamma,beta) + project + bn = 1 + 2 + 1 + 2
        assert_eq!(ps.len(), 6);
        assert!(ps.iter().all(|(_, name, _)| !name.contains("expand")));
    }

    #[test]
    fn inverted_residual_gradcheck() {
        let (ir, ps) = build(&block(inverted_residual_plan("ir", 3, 3, 2, 1)), 2);
        cq_nn::gradcheck::check_layer_soft(ir, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn inverted_residual_gradcheck_strided_no_res() {
        let (ir, ps) = build(&block(inverted_residual_plan("ir", 3, 4, 2, 2)), 3);
        cq_nn::gradcheck::check_layer_soft(ir, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn mobilenet_backward_finite() {
        let (plan, dim) = mobilenet_v2_plan(2).unwrap();
        let (mut net, ps) = build(&plan, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (_, cache) = net.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        let mut gs = ps.zero_grads();
        net.backward(&ps, &cache, &Tensor::ones(&[2, dim]), &mut gs)
            .unwrap();
        assert!(gs.is_finite());
        assert!(gs.global_norm() > 0.0);
    }

    #[test]
    fn heads_shapes_and_state() {
        for (hc, bn_state) in [
            (HeadConfig::simclr(8, 16, 4), 0),
            (HeadConfig::byol(8, 16, 4), 2),
        ] {
            let (mut head, ps) = build(&mlp_head_plan(&hc, "proj"), 0);
            assert_eq!(head.state_tensors().len(), bn_state, "{hc:?}");
            let (z, _) = head
                .forward(&ps, &Tensor::ones(&[3, 8]), &ForwardCtx::eval())
                .unwrap();
            assert_eq!(z.dims(), &[3, 4]);
        }
    }

    #[test]
    fn head_gradcheck() {
        let (head, ps) = build(&mlp_head_plan(&HeadConfig::simclr(5, 7, 3), "proj"), 2);
        cq_nn::gradcheck::check_layer(head, ps, &[4, 5], &ForwardCtx::train(), 5e-2);
    }

    #[test]
    fn zero_width_rejected_before_any_allocation() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 0);
        let err = validate_encoder(&cfg).unwrap_err();
        assert!(err.to_string().contains("width"));
        assert!(Encoder::new(&cfg, 0).is_err());
    }

    #[test]
    fn overflowing_width_rejected() {
        for arch in Arch::all() {
            let err = backbone_plan(arch, usize::MAX / 4).unwrap_err();
            assert!(err.to_string().contains("overflows"), "{arch}: {err}");
        }
    }

    #[test]
    fn zero_projector_dims_rejected() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 2).with_proj(0, 4);
        let err = validate_encoder(&cfg).unwrap_err();
        assert_eq!(err.layer, "proj");
        assert!(Encoder::new(&cfg, 0).is_err());
    }

    #[test]
    fn off_by_one_projector_input_is_layer_attributed() {
        // A hand-built head whose input dim misses the backbone features
        // by one — the canonical wiring mistake cq-check exists to catch.
        let (mut plan, feat) = backbone_plan(Arch::ResNet18, 2).unwrap();
        plan.append(mlp_head_plan(&HeadConfig::simclr(feat + 1, 8, 4), "proj"));
        let err = plan.infer(&NOMINAL_INPUT).unwrap_err();
        assert_eq!(err.layer, "proj.fc1");
        assert!(err
            .to_string()
            .contains(&format!("expected {} input features", feat + 1)));
    }
}
