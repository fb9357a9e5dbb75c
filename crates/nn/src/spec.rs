//! Static shape, parameter and FLOP analysis over layer stacks.
//!
//! A [`Plan`] describes a network by its layers' configuration instead of
//! their weights, and is the only definition of each network: the model
//! crates write every backbone and head as a plan (see `cq-models`), and
//! [`Plan::build`] instantiates it as a [`crate::Sequential`]. Interpreting
//! a plan infers every intermediate shape, parameter count and FLOP cost
//! *without allocating a single tensor*, and rejects invalid stacks
//! (channel mismatches, conv geometry that would underflow, projector
//! dimensions that do not line up) with a layer-attributed [`SpecError`].
//!
//! Callers run [`Plan::infer`] on a nominal input before building, so a
//! bad configuration fails before any weight is allocated, with a message
//! naming the exact layer; the `cq-check` binary runs the same pass over
//! every built-in experiment configuration as a CI gate.
//!
//! # Example
//!
//! ```
//! use cq_nn::spec::{LayerKind, Plan};
//! use cq_tensor::Conv2dSpec;
//!
//! let mut plan = Plan::new();
//! plan.push("stem.conv", LayerKind::Conv2d {
//!     in_ch: 3, out_ch: 8, spec: Conv2dSpec::new(3, 1, 1), bias: false });
//! plan.push("stem.bn", LayerKind::BatchNorm2d { channels: 8 });
//! plan.push("gap", LayerKind::GlobalAvgPool);
//! assert_eq!(plan.infer(&[2, 3, 16, 16])?, vec![2, 8]);
//! assert_eq!(plan.param_count(), 3 * 8 * 9 + 2 * 8);
//! # Ok::<(), cq_nn::spec::SpecError>(())
//! ```

use std::fmt;

use cq_tensor::Conv2dSpec;

/// What went wrong at a specific layer of a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// The input tensor rank is wrong.
    Rank {
        /// Rank the layer requires.
        expected: usize,
        /// Rank the incoming shape has.
        got: usize,
    },
    /// The channel axis does not match the layer's configuration.
    Channels {
        /// Channel count the layer was built for.
        expected: usize,
        /// Channel count of the incoming shape.
        got: usize,
    },
    /// The feature axis does not match the layer's configuration.
    Features {
        /// Feature count the layer was built for.
        expected: usize,
        /// Feature count of the incoming shape.
        got: usize,
    },
    /// Convolution/pooling geometry is invalid for the incoming spatial
    /// size (stride 0, kernel larger than the padded input, …).
    Geometry(String),
    /// The residual main and skip branches produce different shapes.
    BranchMismatch {
        /// Output shape of the main branch.
        main: Vec<usize>,
        /// Output shape of the skip branch.
        skip: Vec<usize>,
    },
    /// A configuration-level invariant was violated (zero width, empty
    /// plan where one is required, quantizer bits out of range, …).
    Config(String),
}

/// A layer-attributed static-analysis error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Name of the layer at which inference failed.
    pub layer: String,
    /// The failure itself.
    pub kind: SpecErrorKind,
}

impl SpecError {
    /// Builds a configuration-level error attributed to `layer`.
    pub fn config(layer: impl Into<String>, msg: impl Into<String>) -> Self {
        SpecError {
            layer: layer.into(),
            kind: SpecErrorKind::Config(msg.into()),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer `{}`: ", self.layer)?;
        match &self.kind {
            SpecErrorKind::Rank { expected, got } => {
                write!(f, "expected rank-{expected} input, got rank {got}")
            }
            SpecErrorKind::Channels { expected, got } => {
                write!(f, "expected {expected} input channels, got {got}")
            }
            SpecErrorKind::Features { expected, got } => {
                write!(f, "expected {expected} input features, got {got}")
            }
            SpecErrorKind::Geometry(msg) => write!(f, "invalid geometry: {msg}"),
            SpecErrorKind::BranchMismatch { main, skip } => {
                write!(
                    f,
                    "residual branches disagree: main {main:?} vs skip {skip:?}"
                )
            }
            SpecErrorKind::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Symbolic description of one layer; [`Plan::build`] maps each kind to
/// the concrete layer type of this crate named in its docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerKind {
    /// Dense convolution (`crate::Conv2d`).
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel/stride/padding.
        spec: Conv2dSpec,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Depthwise convolution (`crate::DepthwiseConv2d`).
    DepthwiseConv2d {
        /// Channel count (input == output).
        channels: usize,
        /// Kernel/stride/padding.
        spec: Conv2dSpec,
    },
    /// `crate::BatchNorm2d` over `[N, C, H, W]`.
    BatchNorm2d {
        /// Channel count.
        channels: usize,
    },
    /// `crate::BatchNorm1d` over `[N, F]`.
    BatchNorm1d {
        /// Feature count.
        features: usize,
    },
    /// Fully connected layer (`crate::Linear`).
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Shape-preserving activation (`crate::Relu`).
    Relu,
    /// Shape-preserving activation (`crate::Relu6`).
    Relu6,
    /// Max pooling (`crate::MaxPool2dLayer`).
    MaxPool2d {
        /// Kernel/stride/padding.
        spec: Conv2dSpec,
    },
    /// Average pooling (`crate::AvgPool2dLayer`).
    AvgPool2d {
        /// Kernel/stride/padding.
        spec: Conv2dSpec,
    },
    /// Global average pooling `[N, C, H, W] -> [N, C]`.
    GlobalAvgPool,
    /// Two-branch residual join, built as one residual layer:
    /// `out = main(x) + skip(x)`, identity skip when `skip` is `None`.
    /// As the first layer of a [`LayerKind::Block`], the rest of the
    /// block runs in the same layer after the add (a ResNet block's
    /// output ReLU).
    Residual {
        /// The main branch.
        main: Plan,
        /// The projection skip; `None` = identity.
        skip: Option<Plan>,
    },
    /// A named sub-plan (a composite block), built as one layer.
    Block(Plan),
}

/// A named [`LayerKind`] inside a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Layer name (matches the parameter-set naming of the real network).
    pub name: String,
    /// Symbolic layer description.
    pub kind: LayerKind,
}

/// Per-layer result of interpreting a plan — see [`Plan::trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Inferred output shape.
    pub out_shape: Vec<usize>,
    /// Scalar parameters owned by this layer (including sub-plans).
    pub params: usize,
    /// Forward FLOPs for this layer at the traced input size.
    pub flops: u64,
}

/// A symbolic network: an ordered list of [`LayerSpec`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    layers: Vec<LayerSpec>,
}

impl Plan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Appends a named layer.
    pub fn push(&mut self, name: impl Into<String>, kind: LayerKind) -> &mut Self {
        self.layers.push(LayerSpec {
            name: name.into(),
            kind,
        });
        self
    }

    /// Number of (top-level) layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the plan has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Appends every layer of `other`, in order.
    pub fn append(&mut self, other: Plan) -> &mut Self {
        self.layers.extend(other.layers);
        self
    }

    /// Infers the output shape for `input`, checking every layer.
    ///
    /// # Errors
    ///
    /// Returns the first layer-attributed [`SpecError`].
    pub fn infer(&self, input: &[usize]) -> Result<Vec<usize>, SpecError> {
        let mut cur = input.to_vec();
        for layer in &self.layers {
            cur = infer_layer(layer, &cur)?.0;
        }
        Ok(cur)
    }

    /// Total scalar parameter count of the plan (saturating at
    /// `usize::MAX`; see [`Plan::checked_param_count`]).
    pub fn param_count(&self) -> usize {
        self.checked_param_count().unwrap_or(usize::MAX)
    }

    /// Total scalar parameter count, or `None` if it overflows `usize` —
    /// the check to run on a plan built from untrusted dimensions.
    pub fn checked_param_count(&self) -> Option<usize> {
        self.layers
            .iter()
            .try_fold(0usize, |n, l| n.checked_add(param_count_layer(l)?))
    }

    /// Total forward FLOPs at the given input size (multiply and add
    /// counted separately, the usual convention).
    ///
    /// # Errors
    ///
    /// Returns the first layer-attributed [`SpecError`].
    pub fn flops(&self, input: &[usize]) -> Result<u64, SpecError> {
        Ok(self.trace(input)?.iter().map(|r| r.flops).sum())
    }

    /// Interprets the plan, returning a per-layer report (shape, params,
    /// FLOPs).
    ///
    /// # Errors
    ///
    /// Returns the first layer-attributed [`SpecError`].
    pub fn trace(&self, input: &[usize]) -> Result<Vec<LayerReport>, SpecError> {
        let mut cur = input.to_vec();
        let mut out = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (shape, flops) = infer_layer(layer, &cur)?;
            out.push(LayerReport {
                name: layer.name.clone(),
                out_shape: shape.clone(),
                params: param_count_layer(layer).unwrap_or(usize::MAX),
                flops,
            });
            cur = shape;
        }
        Ok(out)
    }

    /// Renders a human-readable per-layer summary table.
    ///
    /// # Errors
    ///
    /// Returns the first layer-attributed [`SpecError`].
    pub fn summarize(&self, input: &[usize]) -> Result<String, SpecError> {
        let reports = self.trace(input)?;
        let mut s = format!(
            "{:<28} {:>18} {:>12} {:>14}\n",
            "layer", "output", "params", "flops"
        );
        for r in &reports {
            s.push_str(&format!(
                "{:<28} {:>18} {:>12} {:>14}\n",
                r.name,
                format!("{:?}", r.out_shape),
                r.params,
                r.flops
            ));
        }
        let total_p: usize = reports.iter().map(|r| r.params).sum();
        let total_f: u64 = reports.iter().map(|r| r.flops).sum();
        s.push_str(&format!(
            "{:<28} {:>18} {:>12} {:>14}\n",
            "total", "", total_p, total_f
        ));
        Ok(s)
    }
}

/// Infers `(output shape, flops)` for one layer by lowering it into a
/// scratch op-graph — `crate::graph` is the single source of truth for
/// shape checks and FLOP formulas (see `Graph::lower`).
fn infer_layer(layer: &LayerSpec, dims: &[usize]) -> Result<(Vec<usize>, u64), SpecError> {
    crate::graph::infer_layer_via_graph(layer, dims)
}

fn param_count_layer(layer: &LayerSpec) -> Option<usize> {
    // Weight count plus an optional `out`-sized bias.
    let dense = |out: usize, fan_in: Option<usize>, bias: bool| {
        out.checked_mul(fan_in?)?
            .checked_add(if bias { out } else { 0 })
    };
    match &layer.kind {
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            spec,
            bias,
        } => {
            let (kh, kw) = spec.kernel;
            dense(*out_ch, in_ch.checked_mul(kh)?.checked_mul(kw), *bias)
        }
        LayerKind::DepthwiseConv2d { channels, spec } => {
            let (kh, kw) = spec.kernel;
            dense(*channels, kh.checked_mul(kw), false)
        }
        LayerKind::BatchNorm2d { channels } => channels.checked_mul(2),
        LayerKind::BatchNorm1d { features } => features.checked_mul(2),
        LayerKind::Linear {
            in_features,
            out_features,
            bias,
        } => dense(*out_features, Some(*in_features), *bias),
        LayerKind::Relu
        | LayerKind::Relu6
        | LayerKind::MaxPool2d { .. }
        | LayerKind::AvgPool2d { .. }
        | LayerKind::GlobalAvgPool => Some(0),
        LayerKind::Residual { main, skip } => main
            .checked_param_count()?
            .checked_add(skip.as_ref().map_or(Some(0), Plan::checked_param_count)?),
        LayerKind::Block(p) => p.checked_param_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, i: usize, o: usize, k: usize, s: usize, p: usize) -> LayerSpec {
        LayerSpec {
            name: name.into(),
            kind: LayerKind::Conv2d {
                in_ch: i,
                out_ch: o,
                spec: Conv2dSpec::new(k, s, p),
                bias: false,
            },
        }
    }

    #[test]
    fn conv_chain_infers_shapes_and_counts() {
        let mut p = Plan::new();
        p.push("c1", conv("c1", 3, 8, 3, 1, 1).kind);
        p.push("bn", LayerKind::BatchNorm2d { channels: 8 });
        p.push("relu", LayerKind::Relu);
        p.push("c2", conv("c2", 8, 16, 3, 2, 1).kind);
        p.push("gap", LayerKind::GlobalAvgPool);
        assert_eq!(p.infer(&[4, 3, 16, 16]).unwrap(), vec![4, 16]);
        assert_eq!(p.param_count(), 3 * 8 * 9 + 16 + 8 * 16 * 9);
        let tr = p.trace(&[4, 3, 16, 16]).unwrap();
        assert_eq!(tr[3].out_shape, vec![4, 16, 8, 8]);
        // conv flops: 2 * out_elems * in_ch * k*k
        assert_eq!(tr[0].flops, 2 * 4 * 8 * 16 * 16 * 3 * 9);
        assert!(p.summarize(&[4, 3, 16, 16]).unwrap().contains("total"));
    }

    #[test]
    fn channel_mismatch_names_the_layer() {
        let mut p = Plan::new();
        p.push("stem", conv("stem", 3, 8, 3, 1, 1).kind);
        p.push("broken", conv("broken", 16, 8, 3, 1, 1).kind);
        let err = p.infer(&[1, 3, 8, 8]).unwrap_err();
        assert_eq!(err.layer, "broken");
        assert_eq!(
            err.kind,
            SpecErrorKind::Channels {
                expected: 16,
                got: 8
            }
        );
        assert!(err.to_string().contains("`broken`"));
    }

    #[test]
    fn geometry_error_names_the_layer() {
        let mut p = Plan::new();
        p.push("huge", conv("huge", 3, 8, 7, 1, 0).kind);
        let err = p.infer(&[1, 3, 4, 4]).unwrap_err();
        assert_eq!(err.layer, "huge");
        assert!(matches!(err.kind, SpecErrorKind::Geometry(_)));
    }

    #[test]
    fn rank_and_feature_mismatches() {
        let mut p = Plan::new();
        p.push(
            "fc",
            LayerKind::Linear {
                in_features: 8,
                out_features: 4,
                bias: true,
            },
        );
        let err = p.infer(&[1, 8, 2, 2]).unwrap_err();
        assert_eq!(
            err.kind,
            SpecErrorKind::Rank {
                expected: 2,
                got: 4
            }
        );
        let err = p.infer(&[1, 9]).unwrap_err();
        assert_eq!(
            err.kind,
            SpecErrorKind::Features {
                expected: 8,
                got: 9
            }
        );
        assert_eq!(p.infer(&[5, 8]).unwrap(), vec![5, 4]);
        assert_eq!(p.param_count(), 8 * 4 + 4);
    }

    #[test]
    fn residual_branch_agreement_is_checked() {
        let mut main = Plan::new();
        main.push("m.conv", conv("m.conv", 4, 8, 3, 2, 1).kind);
        let mut skip = Plan::new();
        skip.push("s.conv", conv("s.conv", 4, 8, 1, 2, 0).kind);
        let mut p = Plan::new();
        p.push(
            "block",
            LayerKind::Residual {
                main: main.clone(),
                skip: Some(skip),
            },
        );
        assert_eq!(p.infer(&[2, 4, 8, 8]).unwrap(), vec![2, 8, 4, 4]);

        // identity skip cannot match a strided main branch
        let mut bad = Plan::new();
        bad.push("block", LayerKind::Residual { main, skip: None });
        let err = bad.infer(&[2, 4, 8, 8]).unwrap_err();
        assert_eq!(err.layer, "block");
        assert!(matches!(err.kind, SpecErrorKind::BranchMismatch { .. }));
    }

    #[test]
    fn depthwise_and_pool_layers() {
        let mut p = Plan::new();
        p.push(
            "dw",
            LayerKind::DepthwiseConv2d {
                channels: 6,
                spec: Conv2dSpec::new(3, 1, 1),
            },
        );
        p.push(
            "mp",
            LayerKind::MaxPool2d {
                spec: Conv2dSpec::new(2, 2, 0),
            },
        );
        p.push(
            "ap",
            LayerKind::AvgPool2d {
                spec: Conv2dSpec::new(2, 2, 0),
            },
        );
        assert_eq!(p.infer(&[1, 6, 8, 8]).unwrap(), vec![1, 6, 2, 2]);
        assert_eq!(p.param_count(), 6 * 9);
        let err = p.infer(&[1, 5, 8, 8]).unwrap_err();
        assert_eq!(err.layer, "dw");
    }

    #[test]
    fn overflowing_param_count_is_detected() {
        let mut p = Plan::new();
        p.push(
            "fc",
            LayerKind::Linear {
                in_features: 1 << 40,
                out_features: 1 << 40,
                bias: true,
            },
        );
        assert_eq!(p.checked_param_count(), None);
        assert_eq!(p.param_count(), usize::MAX);
    }

    #[test]
    fn empty_plan_is_identity() {
        let p = Plan::new();
        assert!(p.is_empty());
        assert_eq!(p.infer(&[7, 3]).unwrap(), vec![7, 3]);
        assert_eq!(p.param_count(), 0);
        assert_eq!(p.flops(&[7, 3]).unwrap(), 0);
    }

    #[test]
    fn spec_error_display_is_layer_attributed() {
        let e = SpecError::config(
            "proj.fc1",
            "input dim 33 does not match encoder features 32",
        );
        let s = e.to_string();
        assert!(s.contains("proj.fc1") && s.contains("33"));
    }
}
