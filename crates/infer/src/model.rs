//! Plan-driven conversion of a trained [`Encoder`] into an integer
//! program, and the executor that runs it.
//!
//! Conversion walks the symbolic [`Plan`] of the encoder's architecture
//! (the same plan `cq-models` builds alongside every real network, so
//! layer names match the parameter set exactly), consuming batch-norm
//! running statistics positionally in plan order — which a
//! `cq-models` invariant guarantees equals `Encoder::state_tensors()`
//! order. Every batch norm that directly follows a conv / depthwise /
//! linear layer is folded into that layer's *per-channel rescale*
//! (gain `gamma/sqrt(var+eps)`, shift absorbing bias/mean/beta) rather
//! than its weights: weight-space folding would requantize on a grid
//! quantization-aware training never saw, and the per-layer discrepancy
//! compounds over deep stacks. The rare unfoldable position falls back
//! to an explicit per-channel scale/shift op.
//!
//! Execution quantizes each MAC layer's input tensor to i8 on the fly
//! (the same zero-anchored per-tensor grid the fake-quant training path
//! uses — for post-ReLU inputs the re-derived grid is identical, so
//! those MACs are integer-exact realizations of the f32 fake-quant
//! computation), runs the multiply-accumulate entirely in i8×i8→i32
//! through [`cq_tensor::gemm::int8`], then applies one final f32
//! rescale per output element:
//!
//! ```text
//! y[o,j] = sa·sw·gain[o]·(dot[o,j] + za·wsum[o] + zw·asum[j] + K·za·zw) + shift[o]
//! ```
//!
//! with the zero-point corrections evaluated in i64 (`wsum` precomputed
//! per row, `asum` summed per input column at run time). Convolution
//! padding uses the stored i8 code `-za` (true code 0), so padded taps
//! cancel exactly inside the correction. Everything between MACs
//! (activations, pooling, residual adds) runs in f32.
//!
//! At conversion time every MAC layer is checked against the shared
//! accumulator-headroom proof ([`cq_quant::intmath::acc_fits_i32`], the
//! same bound `cq-check quantflow` certifies): a layer whose tap count
//! could overflow i32 at 8 bits is rejected with
//! [`InferError::Headroom`], never silently converted.

use std::collections::HashMap;

use cq_core::TrainState;
use cq_models::plan::{backbone_plan, mlp_head_plan};
use cq_models::{Encoder, EncoderConfig, HeadConfig};
use cq_nn::spec::{LayerKind, Plan};
use cq_quant::intmath::{acc_fits_i32, INT_INFER_MAX_BITS};
use cq_tensor::gemm::int8::{par_gemm_i8, IntKind};
use cq_tensor::par::parallel_chunks_mut;
use cq_tensor::{
    avg_pool2d, conv2d_i8, depthwise_conv2d_i8, global_avg_pool, max_pool2d, Conv2dSpec, ConvShape,
    Requant, Tensor,
};

use crate::quantize::{quantize_activations, quantize_weights};
use crate::InferError;

/// A quantized multiply-accumulate layer: i8 weight codes plus the
/// per-output-channel metadata for the final rescale.
#[derive(Debug, Clone)]
struct IntMac {
    /// Layer name (diagnostics only).
    name: String,
    /// Output channels / features.
    rows: usize,
    /// Reduction length (taps).
    cols: usize,
    /// Stored i8 weight codes, `[rows, cols]`.
    codes: Vec<i8>,
    /// Per-tensor weight grid step.
    wstep: f32,
    /// Weight zero point (true code = stored + `wzp`).
    wzp: i32,
    /// Per-row stored-code sum (zero-point correction factor).
    wsum: Vec<i32>,
    /// Per-row rescale gain (folded batch-norm `gamma/sqrt(var+eps)`,
    /// 1.0 when no batch norm follows).
    gain: Vec<f32>,
    /// Per-row f32 shift applied after the rescale (bias with batch-norm
    /// mean/beta folded in).
    shift: Vec<f32>,
}

impl IntMac {
    /// Rescales an i32 accumulator block `[rows, cota]` into `out`, with
    /// the activation's stored-code sum `asum` laid out like `acc`
    /// (depthwise convolution: each output element has its own tap
    /// window); the zero-point corrections run in i64:
    /// `out[o,j] = astep·wstep·gain[o]·(acc[o,j] + za·wsum[o] + wzp·asum[o,j] + K·za·wzp) + shift[o]`.
    fn rescale_elems(&self, acc: &[i32], asum: &[i32], astep: f32, azp: i32, out: &mut [f32]) {
        debug_assert_eq!(acc.len(), out.len());
        debug_assert_eq!(asum.len(), out.len());
        let cota = acc.len() / self.rows.max(1);
        let za = azp as i64;
        let zw = self.wzp as i64;
        let kzz = self.cols as i64 * za * zw;
        for o in 0..self.rows {
            let m = astep * self.wstep * self.gain[o];
            let row_corr = za * self.wsum[o] as i64 + kzz;
            let b = self.shift[o];
            let r = o * cota..(o + 1) * cota;
            for ((dst, &a), &s) in out[r.clone()].iter_mut().zip(&acc[r.clone()]).zip(&asum[r]) {
                *dst = m * (a as i64 + row_corr + zw * s as i64) as f32 + b;
            }
        }
    }
}

/// One operation of the integer program.
#[derive(Debug, Clone)]
enum IntOp {
    /// Dense convolution: one implicit i8 GEMM over the batch
    /// ([`conv2d_i8`]), requantized from the register tile.
    Conv {
        /// Conv geometry.
        spec: Conv2dSpec,
        /// Input channels.
        in_ch: usize,
        /// Quantized weights `[out_ch, in_ch·kh·kw]`.
        mac: IntMac,
    },
    /// Depthwise convolution (`rows == channels`, `cols == kh·kw`).
    Depthwise {
        /// Conv geometry.
        spec: Conv2dSpec,
        /// Quantized per-channel kernels.
        mac: IntMac,
    },
    /// Fully connected layer via i8 GEMM (Nt layout).
    Linear {
        /// Quantized weights `[out_features, in_features]`.
        mac: IntMac,
    },
    /// Unfolded batch norm fallback: `y = scale[c]·x + shift[c]`.
    BatchNorm {
        /// Per-channel multiplier `gamma/sqrt(var+eps)`.
        scale: Vec<f32>,
        /// Per-channel offset `beta - mean·scale`.
        shift: Vec<f32>,
    },
    /// `max(x, 0)`.
    Relu,
    /// `min(max(x, 0), 6)`.
    Relu6,
    /// Max pooling (f32).
    MaxPool(Conv2dSpec),
    /// Average pooling (f32).
    AvgPool(Conv2dSpec),
    /// Global average pooling; collapses spatial extent to features.
    GlobalAvgPool,
    /// Residual block: `main(x) + skip(x)` (identity skip when `None`).
    Residual {
        /// Main branch program.
        main: Vec<IntOp>,
        /// Projection shortcut program, or identity.
        skip: Option<Vec<IntOp>>,
    },
}

/// Pre-quantization MAC layer: f32 weights awaiting requantization, plus
/// the per-row rescale gain/shift a following batch norm folds into.
struct RawMac {
    name: String,
    rows: usize,
    cols: usize,
    w: Vec<f32>,
    gain: Vec<f32>,
    bias: Vec<f32>,
}

/// Pre-quantization op stream (f32 weights, batch norms already folded).
enum RawOp {
    Conv {
        spec: Conv2dSpec,
        in_ch: usize,
        mac: RawMac,
    },
    Depthwise {
        spec: Conv2dSpec,
        mac: RawMac,
    },
    Linear {
        mac: RawMac,
    },
    BatchNorm {
        scale: Vec<f32>,
        shift: Vec<f32>,
    },
    Relu,
    Relu6,
    MaxPool(Conv2dSpec),
    AvgPool(Conv2dSpec),
    GlobalAvgPool,
    Residual {
        main: Vec<RawOp>,
        skip: Option<Vec<RawOp>>,
    },
}

impl RawOp {
    /// The pending MAC to fold a following batch norm into, if this op
    /// is a MAC with matching channel count.
    fn foldable_mac(&mut self, channels: usize) -> Option<&mut RawMac> {
        let mac = match self {
            RawOp::Conv { mac, .. } | RawOp::Depthwise { mac, .. } | RawOp::Linear { mac } => mac,
            _ => return None,
        };
        (mac.rows == channels).then_some(mac)
    }
}

/// Walks a plan against a parameter set and state-tensor stream.
struct Converter<'a> {
    params: HashMap<&'a str, &'a Tensor>,
    state: Vec<&'a Tensor>,
    state_pos: usize,
}

impl<'a> Converter<'a> {
    fn param(&self, name: &str, len: usize) -> Result<&'a Tensor, InferError> {
        let t = self
            .params
            .get(name)
            .copied()
            .ok_or_else(|| InferError::MissingParam(name.to_string()))?;
        if t.len() != len {
            return Err(InferError::Shape {
                name: name.to_string(),
                expected: vec![len],
                got: t.dims().to_vec(),
            });
        }
        Ok(t)
    }

    /// Consumes the next `(running_mean, running_var)` pair from the
    /// state stream, validating channel count.
    fn next_state_pair(
        &mut self,
        name: &str,
        channels: usize,
    ) -> Result<(&'a [f32], &'a [f32]), InferError> {
        if self.state_pos + 2 > self.state.len() {
            return Err(InferError::StateExhausted(name.to_string()));
        }
        let mean = self.state[self.state_pos];
        let var = self.state[self.state_pos + 1];
        self.state_pos += 2;
        if mean.len() != channels || var.len() != channels {
            return Err(InferError::Shape {
                name: format!("{name} running stats"),
                expected: vec![channels],
                got: mean.dims().to_vec(),
            });
        }
        Ok((mean.as_slice(), var.as_slice()))
    }

    fn convert_plan(&mut self, plan: &Plan) -> Result<Vec<RawOp>, InferError> {
        let mut ops = Vec::new();
        for layer in plan.layers() {
            self.convert_layer(&layer.name, &layer.kind, &mut ops)?;
        }
        Ok(ops)
    }

    fn convert_layer(
        &mut self,
        name: &str,
        kind: &LayerKind,
        ops: &mut Vec<RawOp>,
    ) -> Result<(), InferError> {
        match kind {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                spec,
                bias,
            } => {
                let cols = in_ch * spec.kernel.0 * spec.kernel.1;
                let w = self.param(&format!("{name}.weight"), out_ch * cols)?;
                let b = if *bias {
                    self.param(&format!("{name}.bias"), *out_ch)?
                        .as_slice()
                        .to_vec()
                } else {
                    vec![0.0; *out_ch]
                };
                ops.push(RawOp::Conv {
                    spec: *spec,
                    in_ch: *in_ch,
                    mac: RawMac {
                        name: name.to_string(),
                        rows: *out_ch,
                        cols,
                        w: w.as_slice().to_vec(),
                        gain: vec![1.0; *out_ch],
                        bias: b,
                    },
                });
            }
            LayerKind::DepthwiseConv2d { channels, spec } => {
                let cols = spec.kernel.0 * spec.kernel.1;
                let w = self.param(&format!("{name}.weight"), channels * cols)?;
                ops.push(RawOp::Depthwise {
                    spec: *spec,
                    mac: RawMac {
                        name: name.to_string(),
                        rows: *channels,
                        cols,
                        w: w.as_slice().to_vec(),
                        gain: vec![1.0; *channels],
                        bias: vec![0.0; *channels],
                    },
                });
            }
            LayerKind::Linear {
                in_features,
                out_features,
                bias,
            } => {
                let w = self.param(&format!("{name}.weight"), out_features * in_features)?;
                let b = if *bias {
                    self.param(&format!("{name}.bias"), *out_features)?
                        .as_slice()
                        .to_vec()
                } else {
                    vec![0.0; *out_features]
                };
                ops.push(RawOp::Linear {
                    mac: RawMac {
                        name: name.to_string(),
                        rows: *out_features,
                        cols: *in_features,
                        w: w.as_slice().to_vec(),
                        gain: vec![1.0; *out_features],
                        bias: b,
                    },
                });
            }
            LayerKind::BatchNorm2d { channels } | LayerKind::BatchNorm1d { features: channels } => {
                let c = *channels;
                let gamma = self.param(&format!("{name}.gamma"), c)?.as_slice().to_vec();
                let beta = self.param(&format!("{name}.beta"), c)?.as_slice().to_vec();
                let (mean, var) = self.next_state_pair(name, c)?;
                match ops.last_mut().and_then(|op| op.foldable_mac(c)) {
                    Some(mac) => {
                        // Fold into the rescale, not the weights: the
                        // quantization grid must stay the one training saw.
                        for o in 0..mac.rows {
                            let g = gamma[o] / (var[o] + crate::quantize::BN_EPS).sqrt();
                            mac.bias[o] = beta[o] + g * (mac.bias[o] - mean[o]);
                            mac.gain[o] *= g;
                        }
                    }
                    None => {
                        let scale: Vec<f32> = gamma
                            .iter()
                            .zip(var)
                            .map(|(&g, &v)| g / (v + crate::quantize::BN_EPS).sqrt())
                            .collect();
                        let shift: Vec<f32> = beta
                            .iter()
                            .zip(mean)
                            .zip(&scale)
                            .map(|((&b, &m), &s)| b - m * s)
                            .collect();
                        ops.push(RawOp::BatchNorm { scale, shift });
                    }
                }
            }
            LayerKind::Relu => ops.push(RawOp::Relu),
            LayerKind::Relu6 => ops.push(RawOp::Relu6),
            LayerKind::MaxPool2d { spec } => ops.push(RawOp::MaxPool(*spec)),
            LayerKind::AvgPool2d { spec } => ops.push(RawOp::AvgPool(*spec)),
            LayerKind::GlobalAvgPool => ops.push(RawOp::GlobalAvgPool),
            LayerKind::Residual { main, skip } => {
                let main_ops = self.convert_plan(main)?;
                let skip_ops = match skip {
                    Some(p) => Some(self.convert_plan(p)?),
                    None => None,
                };
                ops.push(RawOp::Residual {
                    main: main_ops,
                    skip: skip_ops,
                });
            }
            LayerKind::Block(inner) => {
                ops.extend(self.convert_plan(inner)?);
            }
        }
        Ok(())
    }
}

/// Requantizes a folded MAC to i8, enforcing the accumulator headroom
/// proof (`taps + 1` for the bias tap, matching the quantflow bound).
fn finalize_mac(mac: RawMac) -> Result<IntMac, InferError> {
    let taps = mac.cols as u64 + 1;
    let fits = acc_fits_i32(taps, INT_INFER_MAX_BITS).map_err(InferError::Quant)?;
    if !fits {
        return Err(InferError::Headroom {
            layer: mac.name,
            taps,
        });
    }
    let q = quantize_weights(&mac.w, mac.rows, mac.cols);
    Ok(IntMac {
        name: mac.name,
        rows: mac.rows,
        cols: mac.cols,
        codes: q.codes,
        wstep: q.step,
        wzp: q.zp,
        wsum: q.wsum,
        gain: mac.gain,
        shift: mac.bias,
    })
}

fn finalize_ops(raw: Vec<RawOp>) -> Result<Vec<IntOp>, InferError> {
    raw.into_iter()
        .map(|op| {
            Ok(match op {
                RawOp::Conv { spec, in_ch, mac } => IntOp::Conv {
                    spec,
                    in_ch,
                    mac: finalize_mac(mac)?,
                },
                RawOp::Depthwise { spec, mac } => IntOp::Depthwise {
                    spec,
                    mac: finalize_mac(mac)?,
                },
                RawOp::Linear { mac } => IntOp::Linear {
                    mac: finalize_mac(mac)?,
                },
                RawOp::BatchNorm { scale, shift } => IntOp::BatchNorm { scale, shift },
                RawOp::Relu => IntOp::Relu,
                RawOp::Relu6 => IntOp::Relu6,
                RawOp::MaxPool(s) => IntOp::MaxPool(s),
                RawOp::AvgPool(s) => IntOp::AvgPool(s),
                RawOp::GlobalAvgPool => IntOp::GlobalAvgPool,
                RawOp::Residual { main, skip } => IntOp::Residual {
                    main: finalize_ops(main)?,
                    skip: skip.map(finalize_ops).transpose()?,
                },
            })
        })
        .collect()
}

/// Intermediate activation flowing through the integer program.
#[derive(Debug, Clone)]
enum Act {
    /// `[n, c, h, w]` spatial tensor.
    Spatial {
        data: Vec<f32>,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    },
    /// `[n, f]` feature matrix.
    Flat { data: Vec<f32>, n: usize, f: usize },
}

impl Act {
    fn data(&self) -> &[f32] {
        match self {
            Act::Spatial { data, .. } | Act::Flat { data, .. } => data,
        }
    }

    fn data_mut(&mut self) -> &mut [f32] {
        match self {
            Act::Spatial { data, .. } | Act::Flat { data, .. } => data,
        }
    }

    fn to_tensor(&self) -> Result<Tensor, InferError> {
        match self {
            Act::Spatial { data, n, c, h, w } => {
                Tensor::from_vec(data.clone(), &[*n, *c, *h, *w]).map_err(InferError::Tensor)
            }
            Act::Flat { data, n, f } => {
                Tensor::from_vec(data.clone(), &[*n, *f]).map_err(InferError::Tensor)
            }
        }
    }
}

/// Result of one [`IntEncoder::forward`] pass.
#[derive(Debug, Clone)]
pub struct IntOutput {
    /// Backbone features, `[n, feat_dim]`.
    pub features: Tensor,
    /// Projection-head output, `[n, proj_dim]` (equals `features` when
    /// the encoder has no projector).
    pub projection: Tensor,
}

/// A trained encoder converted to an i8 integer inference program.
pub struct IntEncoder {
    backbone: Vec<IntOp>,
    head: Vec<IntOp>,
    feat_dim: usize,
    proj_dim: usize,
}

impl IntEncoder {
    /// Converts a trained [`Encoder`] (weights + batch-norm running
    /// statistics) into an integer program.
    ///
    /// # Errors
    ///
    /// Fails if the encoder's plan cannot be built, a parameter is
    /// missing or mis-shaped, or any MAC layer's tap count fails the
    /// i32 accumulator headroom proof.
    pub fn from_encoder(enc: &Encoder) -> Result<IntEncoder, InferError> {
        let cfg = enc.config();
        let (bplan, feat_dim) = backbone_plan(cfg.arch, cfg.width).map_err(InferError::Spec)?;
        let head_plan = cfg.proj.map(|(hidden, out)| {
            let hc = if cfg.proj_bn {
                HeadConfig::byol(feat_dim, hidden, out)
            } else {
                HeadConfig::simclr(feat_dim, hidden, out)
            };
            mlp_head_plan(&hc, "proj")
        });
        let proj_dim = cfg.proj.map_or(feat_dim, |(_, out)| out);

        let state = enc.state_tensors();
        let mut conv = Converter {
            params: enc.params().iter().map(|(_, name, t)| (name, t)).collect(),
            state,
            state_pos: 0,
        };
        let backbone = finalize_ops(conv.convert_plan(&bplan)?)?;
        let head = match &head_plan {
            Some(p) => finalize_ops(conv.convert_plan(p)?)?,
            None => Vec::new(),
        };
        if conv.state_pos != conv.state.len() {
            return Err(InferError::StateExhausted(format!(
                "{} state tensors unconsumed after plan walk",
                conv.state.len() - conv.state_pos
            )));
        }
        Ok(IntEncoder {
            backbone,
            head,
            feat_dim,
            proj_dim,
        })
    }

    /// Rebuilds the encoder a checkpoint describes and converts it.
    ///
    /// Copies parameters by name and batch-norm state positionally (the
    /// encoder's state tensors are the prefix of the method's state
    /// list), then delegates to [`IntEncoder::from_encoder`].
    ///
    /// # Errors
    ///
    /// Fails if the checkpoint's parameter set does not cover the
    /// architecture `cfg` describes, shapes mismatch, or conversion
    /// itself fails.
    pub fn from_train_state(
        st: &TrainState,
        cfg: &EncoderConfig,
    ) -> Result<IntEncoder, InferError> {
        IntEncoder::from_encoder(&encoder_from_train_state(st, cfg)?)
    }

    /// Backbone feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// Projection output dimension.
    pub fn proj_dim(&self) -> usize {
        self.proj_dim
    }

    /// Number of quantized MAC layers in the program.
    pub fn num_macs(&self) -> usize {
        fn count(ops: &[IntOp]) -> usize {
            ops.iter()
                .map(|op| match op {
                    IntOp::Conv { .. } | IntOp::Depthwise { .. } | IntOp::Linear { .. } => 1,
                    IntOp::Residual { main, skip } => {
                        count(main) + skip.as_deref().map_or(0, count)
                    }
                    _ => 0,
                })
                .sum()
        }
        count(&self.backbone) + count(&self.head)
    }

    /// Runs the integer program on a `[n, 3, h, w]` batch.
    ///
    /// # Errors
    ///
    /// Fails on a mis-shaped input or invalid conv/pool geometry for the
    /// given spatial size.
    pub fn forward(&self, x: &Tensor) -> Result<IntOutput, InferError> {
        let feats = self.run_backbone(x, conv2d_i8)?;
        let features = feats.to_tensor()?;
        let projection = if self.head.is_empty() {
            features.clone()
        } else {
            run_ops(&self.head, feats, conv2d_i8)?.to_tensor()?
        };
        Ok(IntOutput {
            features,
            projection,
        })
    }

    /// Runs only the backbone, returning `[n, feat_dim]` features.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IntEncoder::forward`].
    pub fn features(&self, x: &Tensor) -> Result<Tensor, InferError> {
        self.run_backbone(x, conv2d_i8)?.to_tensor()
    }

    fn run_backbone(&self, x: &Tensor, conv: ConvI8) -> Result<Act, InferError> {
        let dims = x.dims();
        if dims.len() != 4 {
            return Err(InferError::Input(format!(
                "expected [n, c, h, w] input, got {dims:?}"
            )));
        }
        let act = Act::Spatial {
            data: x.as_slice().to_vec(),
            n: dims[0],
            c: dims[1],
            h: dims[2],
            w: dims[3],
        };
        run_ops(&self.backbone, act, conv)
    }
}

/// Rebuilds the f32 [`Encoder`] a checkpoint describes: parameters are
/// copied by name, batch-norm running statistics positionally (the
/// encoder's state tensors are the prefix of the method's state list).
///
/// This is the f32 twin of [`IntEncoder::from_train_state`] — callers
/// comparing the integer path against the fake-quant reference on the
/// same checkpoint (e.g. `pilot --infer`) need both.
///
/// # Errors
///
/// Fails if the checkpoint's parameter set does not cover the
/// architecture `cfg` describes or shapes mismatch.
pub fn encoder_from_train_state(
    st: &TrainState,
    cfg: &EncoderConfig,
) -> Result<Encoder, InferError> {
    let mut enc = Encoder::new(cfg, 0).map_err(InferError::Nn)?;
    let src: HashMap<&str, &Tensor> = st.params.iter().map(|(_, n, t)| (n, t)).collect();
    let ids: Vec<_> = enc
        .params()
        .iter()
        .map(|(id, name, t)| (id, name.to_string(), t.dims().to_vec()))
        .collect();
    for (id, name, dims) in ids {
        let t = src
            .get(name.as_str())
            .copied()
            .ok_or_else(|| InferError::MissingParam(name.clone()))?;
        if t.dims() != dims.as_slice() {
            return Err(InferError::Shape {
                name,
                expected: dims,
                got: t.dims().to_vec(),
            });
        }
        enc.params_mut()
            .get_mut(id)
            .as_mut_slice()
            .copy_from_slice(t.as_slice());
    }
    let n_state = enc.state_tensors().len();
    if st.state.len() < n_state {
        return Err(InferError::StateExhausted(format!(
            "checkpoint has {} state tensors, encoder needs {n_state}",
            st.state.len()
        )));
    }
    for (dst, s) in enc.state_tensors_mut().into_iter().zip(&st.state) {
        if dst.dims() != s.dims() {
            return Err(InferError::Shape {
                name: "state tensor".to_string(),
                expected: dst.dims().to_vec(),
                got: s.dims().to_vec(),
            });
        }
        dst.as_mut_slice().copy_from_slice(s.as_slice());
    }
    Ok(enc)
}

/// A dense i8 convolution kernel: [`conv2d_i8`], or in tests its
/// per-sample oracle.
type ConvI8 = fn(&[i8], &[i8], &ConvShape, &Requant, &mut [f32]);

/// Executes an op stream over an activation, running dense convolutions
/// through `conv`.
fn run_ops(ops: &[IntOp], mut act: Act, conv: ConvI8) -> Result<Act, InferError> {
    for op in ops {
        act = run_op(op, act, conv)?;
    }
    Ok(act)
}

fn run_op(op: &IntOp, act: Act, conv: ConvI8) -> Result<Act, InferError> {
    match op {
        IntOp::Conv { spec, in_ch, mac } => {
            let Act::Spatial { data, n, c, h, w } = act else {
                return Err(InferError::Input("conv applied to flat activation".into()));
            };
            if c != *in_ch {
                return Err(InferError::Input(format!(
                    "conv {} expects {in_ch} channels, got {c}",
                    mac.name
                )));
            }
            let shape = ConvShape::new(n, c, h, w, mac.rows, *spec).map_err(InferError::Tensor)?;
            let q = quantize_activations(&data);
            let scale: Vec<f32> = mac.gain.iter().map(|&g| q.step * mac.wstep * g).collect();
            let rq = Requant {
                za: q.zp,
                zw: mac.wzp,
                wsum: &mac.wsum,
                scale: &scale,
                shift: &mac.shift,
            };
            let mut out = vec![0.0f32; n * mac.rows * shape.positions()];
            conv(&q.codes, &mac.codes, &shape, &rq, &mut out);
            Ok(Act::Spatial {
                data: out,
                n,
                c: mac.rows,
                h: shape.oh,
                w: shape.ow,
            })
        }
        IntOp::Depthwise { spec, mac } => {
            let Act::Spatial { data, n, c, h, w } = act else {
                return Err(InferError::Input(
                    "depthwise conv applied to flat activation".into(),
                ));
            };
            if c != mac.rows {
                return Err(InferError::Input(format!(
                    "depthwise {} expects {} channels, got {c}",
                    mac.name, mac.rows
                )));
            }
            let (oh, ow) = spec.out_hw(h, w).map_err(InferError::Tensor)?;
            let q = quantize_activations(&data);
            let pad = (-q.zp) as i8;
            let cota = oh * ow;
            let mut out = vec![0.0f32; n * c * cota];
            parallel_chunks_mut(&mut out, c * cota, |i, chunk| {
                let sample = &q.codes[i * c * h * w..(i + 1) * c * h * w];
                // The per-window stored-code sums (`asum`), pad bytes
                // included, come from the same pass as the MAC.
                let mut acc = vec![0i32; c * cota];
                let mut asum = vec![0i32; c * cota];
                depthwise_conv2d_i8(sample, &mac.codes, c, h, w, spec, pad, &mut acc, &mut asum);
                mac.rescale_elems(&acc, &asum, q.step, q.zp, chunk);
            });
            Ok(Act::Spatial {
                data: out,
                n,
                c,
                h: oh,
                w: ow,
            })
        }
        IntOp::Linear { mac } => {
            let Act::Flat { data, n, f } = act else {
                return Err(InferError::Input(
                    "linear applied to spatial activation".into(),
                ));
            };
            if f != mac.cols {
                return Err(InferError::Input(format!(
                    "linear {} expects {} features, got {f}",
                    mac.name, mac.cols
                )));
            }
            let q = quantize_activations(&data);
            let mut acc = vec![0i32; n * mac.rows];
            par_gemm_i8(
                IntKind::Nt,
                &q.codes,
                &mac.codes,
                n,
                mac.rows,
                mac.cols,
                &mut acc,
            );
            // Rescale transposed relative to IntMac::rescale: rows here
            // are samples, columns are output features; each sample has
            // one stored-code sum.
            let za = q.zp as i64;
            let zw = mac.wzp as i64;
            let kzz = mac.cols as i64 * za * zw;
            let mut out = vec![0.0f32; n * mac.rows];
            for i in 0..n {
                let asum: i64 = q.codes[i * mac.cols..(i + 1) * mac.cols]
                    .iter()
                    .map(|&v| v as i64)
                    .sum();
                for o in 0..mac.rows {
                    let a = acc[i * mac.rows + o] as i64;
                    let t = a + za * mac.wsum[o] as i64 + zw * asum + kzz;
                    out[i * mac.rows + o] =
                        q.step * mac.wstep * mac.gain[o] * t as f32 + mac.shift[o];
                }
            }
            Ok(Act::Flat {
                data: out,
                n,
                f: mac.rows,
            })
        }
        IntOp::BatchNorm { scale, shift } => {
            let mut act = act;
            match &mut act {
                Act::Spatial { data, c, h, w, .. } => {
                    let (c, hw) = (*c, *h * *w);
                    if c != scale.len() {
                        return Err(InferError::Input(format!(
                            "batch norm expects {} channels, got {c}",
                            scale.len()
                        )));
                    }
                    for (s, chunk) in data.chunks_mut(hw).enumerate() {
                        let ch = s % c;
                        for v in chunk.iter_mut() {
                            *v = scale[ch] * *v + shift[ch];
                        }
                    }
                }
                Act::Flat { data, f, .. } => {
                    if *f != scale.len() {
                        return Err(InferError::Input(format!(
                            "batch norm expects {} features, got {f}",
                            scale.len()
                        )));
                    }
                    for row in data.chunks_mut(*f) {
                        for (v, (&s, &sh)) in row.iter_mut().zip(scale.iter().zip(shift)) {
                            *v = s * *v + sh;
                        }
                    }
                }
            }
            Ok(act)
        }
        IntOp::Relu => {
            let mut act = act;
            for v in act.data_mut() {
                *v = v.max(0.0);
            }
            snap_to_grid(act.data_mut());
            Ok(act)
        }
        IntOp::Relu6 => {
            let mut act = act;
            for v in act.data_mut() {
                *v = v.clamp(0.0, 6.0);
            }
            snap_to_grid(act.data_mut());
            Ok(act)
        }
        IntOp::MaxPool(spec) => {
            let t = act.to_tensor()?;
            let (y, _) = max_pool2d(&t, spec).map_err(InferError::Tensor)?;
            spatial_from_tensor(y)
        }
        IntOp::AvgPool(spec) => {
            let t = act.to_tensor()?;
            let y = avg_pool2d(&t, spec).map_err(InferError::Tensor)?;
            spatial_from_tensor(y)
        }
        IntOp::GlobalAvgPool => {
            let t = act.to_tensor()?;
            let y = global_avg_pool(&t).map_err(InferError::Tensor)?;
            let dims = y.dims().to_vec();
            Ok(Act::Flat {
                data: y.into_vec(),
                n: dims[0],
                f: dims[1],
            })
        }
        IntOp::Residual { main, skip } => {
            let saved = act.clone();
            let main_out = run_ops(main, act, conv)?;
            let skip_out = match skip {
                Some(ops) => run_ops(ops, saved, conv)?,
                None => saved,
            };
            let mut out = main_out;
            if out.data().len() != skip_out.data().len() {
                return Err(InferError::Input(format!(
                    "residual branch size mismatch: {} vs {}",
                    out.data().len(),
                    skip_out.data().len()
                )));
            }
            for (a, &b) in out.data_mut().iter_mut().zip(skip_out.data()) {
                *a += b;
            }
            Ok(out)
        }
    }
}

/// Projects an activation onto the 8-bit grid at the same point the
/// training path does (post-activation quantization in `cq_nn::act`),
/// using the very same fake quantizer. This is where a deployment
/// runtime would requantize to i8 codes; keeping the projection here —
/// not only at the next MAC's input — matters because *every* consumer
/// of the activation must see grid values: the identity skip of a
/// residual block and the final pooled features read it too, and
/// skipping the projection there lets sub-step errors accumulate per
/// block instead of being absorbed by the grid.
fn snap_to_grid(data: &mut [f32]) {
    cq_quant::fake_quant_into(
        data,
        cq_quant::Precision::Bits(INT_INFER_MAX_BITS),
        cq_quant::QuantMode::Round,
    );
}

fn spatial_from_tensor(t: Tensor) -> Result<Act, InferError> {
    let dims = t.dims().to_vec();
    if dims.len() != 4 {
        return Err(InferError::Input(format!(
            "expected spatial tensor, got {dims:?}"
        )));
    }
    Ok(Act::Spatial {
        data: t.into_vec(),
        n: dims[0],
        c: dims[1],
        h: dims[2],
        w: dims[3],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::fold_batch_norm;
    use cq_models::Arch;
    use cq_nn::{BatchNorm2d, ForwardCtx, Layer, ParamSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Randomizes batch-norm running statistics so folding is non-trivial
    /// (a fresh encoder has mean 0 / var 1, which would make BN ≈ identity).
    fn randomize_state(enc: &mut Encoder, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, t) in enc.state_tensors_mut().into_iter().enumerate() {
            let mean_like = i % 2 == 0;
            for v in t.as_mut_slice() {
                *v = if mean_like {
                    rng.gen_range(-0.2..0.2f32)
                } else {
                    rng.gen_range(0.6..1.4f32)
                };
            }
        }
    }

    /// Relative max-abs error of `got` against `want`.
    fn rel_err(got: &Tensor, want: &Tensor) -> f32 {
        let denom = want
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1e-6);
        got.as_slice()
            .iter()
            .zip(want.as_slice())
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
            / denom
    }

    fn check_parity(cfg: EncoderConfig, seed: u64, tol: f32) {
        let mut enc = Encoder::new(&cfg, seed).unwrap();
        randomize_state(&mut enc, seed ^ 0x5eed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let f32_out = enc.forward(&x, &ForwardCtx::eval()).unwrap();

        let int = IntEncoder::from_encoder(&enc).unwrap();
        assert_eq!(int.feat_dim(), enc.feat_dim());
        assert_eq!(int.proj_dim(), enc.proj_dim());
        assert!(int.num_macs() > 0);
        let int_out = int.forward(&x).unwrap();

        assert_eq!(int_out.features.dims(), f32_out.features.dims());
        assert_eq!(int_out.projection.dims(), f32_out.projection.dims());
        let fe = rel_err(&int_out.features, &f32_out.features);
        let pe = rel_err(&int_out.projection, &f32_out.projection);
        assert!(fe < tol, "feature rel err {fe} >= {tol} for {cfg:?}");
        assert!(pe < tol, "projection rel err {pe} >= {tol} for {cfg:?}");
    }

    #[test]
    fn int_path_tracks_fake_quant_path_tightly() {
        // The integer program realizes the 8-bit fake-quant forward in
        // integer arithmetic. The only inexact sites are MACs whose input
        // the training path leaves unquantized (the image stem, the
        // pooled head input) — everything ReLU-fed is grid-exact — so the
        // two paths must agree far tighter than generic 8-bit error.
        let cfg = EncoderConfig::new(Arch::ResNet18, 8).with_proj(16, 8);
        let mut enc = Encoder::new(&cfg, 41).unwrap();
        randomize_state(&mut enc, 42);
        let mut rng = StdRng::seed_from_u64(43);
        let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let fake8 = ForwardCtx::eval()
            .with_quant(cq_quant::QuantConfig::uniform(cq_quant::Precision::Bits(8)));
        let want = enc.features(&x, &fake8).unwrap();
        let int = IntEncoder::from_encoder(&enc).unwrap();
        let got = int.features(&x).unwrap();
        let e = rel_err(&got, &want);
        assert!(e < 0.02, "int vs fake-quant rel err {e} >= 0.02");
    }

    #[test]
    fn int_features_track_f32_resnet() {
        check_parity(
            EncoderConfig::new(Arch::ResNet18, 8).with_proj(16, 8),
            11,
            0.1,
        );
    }

    #[test]
    fn int_features_track_f32_mobilenet_byol_head() {
        check_parity(
            EncoderConfig::new(Arch::MobileNetV2, 8).with_byol_proj(16, 8),
            13,
            0.1,
        );
    }

    #[test]
    fn backbone_only_projection_equals_features() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 8);
        let enc = Encoder::new(&cfg, 3).unwrap();
        let int = IntEncoder::from_encoder(&enc).unwrap();
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let out = int.forward(&x).unwrap();
        assert_eq!(out.features.as_slice(), out.projection.as_slice());
    }

    #[test]
    fn headroom_rejects_oversized_mac() {
        // 33025 taps (cols + bias) is the largest count the shared proof
        // admits at 8 bits; one more column must be refused.
        let ok = RawMac {
            name: "fits".into(),
            rows: 1,
            cols: 33024,
            w: vec![0.0; 33024],
            gain: vec![1.0],
            bias: vec![0.0],
        };
        assert!(finalize_mac(ok).is_ok());
        let too_big = RawMac {
            name: "overflows".into(),
            rows: 1,
            cols: 33025,
            w: vec![0.0; 33025],
            gain: vec![1.0],
            bias: vec![0.0],
        };
        match finalize_mac(too_big) {
            Err(InferError::Headroom { layer, taps }) => {
                assert_eq!(layer, "overflows");
                assert_eq!(taps, 33026);
            }
            other => panic!("expected headroom rejection, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn bn_fold_matches_real_batchnorm_eval() {
        // Folding into an identity linear layer must reproduce the real
        // BatchNorm2d eval output exactly — this pins BN_EPS against the
        // cq-nn default.
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 3);
        let ids: Vec<_> = ps
            .iter()
            .map(|(id, name, _)| (id, name.to_string()))
            .collect();
        let mut rng = StdRng::seed_from_u64(99);
        for (id, name) in &ids {
            for v in ps.get_mut(*id).as_mut_slice() {
                *v = if name.ends_with(".gamma") {
                    rng.gen_range(0.5..1.5f32)
                } else {
                    rng.gen_range(-0.5..0.5f32)
                };
            }
        }
        let mut stats = Vec::new();
        for (i, t) in bn.state_tensors_mut().into_iter().enumerate() {
            for v in t.as_mut_slice() {
                *v = if i == 0 {
                    rng.gen_range(-0.5..0.5f32)
                } else {
                    rng.gen_range(0.4..2.0f32)
                };
            }
            stats.push(t.as_slice().to_vec());
        }

        let gamma = ps
            .iter()
            .find(|(_, n, _)| *n == "bn.gamma")
            .map(|(_, _, t)| t.as_slice().to_vec())
            .unwrap();
        let beta = ps
            .iter()
            .find(|(_, n, _)| *n == "bn.beta")
            .map(|(_, _, t)| t.as_slice().to_vec())
            .unwrap();

        // Identity "linear" per channel: w = I3, bias = 0, then fold.
        let mut w = vec![0.0f32; 9];
        for c in 0..3 {
            w[c * 3 + c] = 1.0;
        }
        let mut bias = vec![0.0f32; 3];
        fold_batch_norm(&mut w, &mut bias, 3, 3, &gamma, &beta, &stats[0], &stats[1]);

        let x = Tensor::randn(&[2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let (want, _) = bn.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        let hw = 16;
        for (idx, (&xv, &wv)) in x.as_slice().iter().zip(want.as_slice()).enumerate() {
            let c = (idx / hw) % 3;
            let got = w[c * 3 + c] * xv + bias[c];
            assert!(
                (got - wv).abs() < 1e-5,
                "channel {c}: folded {got} vs batchnorm {wv}"
            );
        }
    }

    #[test]
    fn from_train_state_matches_from_encoder() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 8).with_proj(16, 8);
        let mut enc = Encoder::new(&cfg, 21).unwrap();
        randomize_state(&mut enc, 22);
        let st = TrainState {
            version: TrainState::VERSION,
            method_tag: 0,
            pipeline_tag: 0,
            seed: 21,
            batch_size: 4,
            steps_taken: 0,
            epochs_done: 0,
            engine_rng: [1, 2, 3, 4],
            loader_rng: [5, 6, 7, 8],
            history: Default::default(),
            params: enc.params().clone(),
            state: enc.state_tensors().into_iter().cloned().collect(),
            velocity: Vec::new(),
            target: None,
        };
        let from_ckpt = IntEncoder::from_train_state(&st, &cfg).unwrap();
        let direct = IntEncoder::from_encoder(&enc).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let a = from_ckpt.forward(&x).unwrap();
        let b = direct.forward(&x).unwrap();
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        assert_eq!(a.projection.as_slice(), b.projection.as_slice());
    }

    #[test]
    fn from_train_state_rejects_mismatched_checkpoint() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 8);
        let enc = Encoder::new(&cfg, 5).unwrap();
        let st = TrainState {
            version: TrainState::VERSION,
            method_tag: 0,
            pipeline_tag: 0,
            seed: 5,
            batch_size: 4,
            steps_taken: 0,
            epochs_done: 0,
            engine_rng: [1, 2, 3, 4],
            loader_rng: [5, 6, 7, 8],
            history: Default::default(),
            params: ParamSet::new(),
            state: enc.state_tensors().into_iter().cloned().collect(),
            velocity: Vec::new(),
            target: None,
        };
        assert!(matches!(
            IntEncoder::from_train_state(&st, &cfg),
            Err(InferError::MissingParam(_))
        ));
    }

    #[test]
    fn features_match_the_per_sample_oracle_lowering_bitwise() {
        // The implicit i8 conv must reproduce the per-sample lowering
        // (im2col + scalar GEMM + i64 rescale per image) bit for bit:
        // integer accumulation is exact and the rescale is per element.
        let cfgs = [
            (EncoderConfig::new(Arch::ResNet18, 8), 51),
            (EncoderConfig::new(Arch::MobileNetV2, 8), 53),
        ];
        for (cfg, seed) in cfgs {
            let mut enc = Encoder::new(&cfg, seed).unwrap();
            randomize_state(&mut enc, seed + 1);
            let int = IntEncoder::from_encoder(&enc).unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 2);
            let x = Tensor::randn(&[3, 3, 16, 16], 0.0, 1.0, &mut rng);
            let got = int.features(&x).unwrap();
            let oracle = cq_tensor::gemm::reference::conv2d_i8_per_sample;
            let want = int.run_backbone(&x, oracle).unwrap().to_tensor().unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{:?}", cfg.arch);
        }
    }

    #[test]
    fn forward_is_thread_count_invariant() {
        // Integer accumulation plus a fixed-order f32 rescale must give
        // bitwise-identical outputs at any worker count.
        let cfg = EncoderConfig::new(Arch::ResNet18, 8).with_proj(16, 8);
        let mut enc = Encoder::new(&cfg, 31).unwrap();
        randomize_state(&mut enc, 32);
        let int = IntEncoder::from_encoder(&enc).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let x = Tensor::randn(&[3, 3, 16, 16], 0.0, 1.0, &mut rng);
        let base = cq_tensor::par::with_thread_limit(1, || int.forward(&x).unwrap());
        for threads in [2, 5, 8] {
            let got = cq_tensor::par::with_thread_limit(threads, || int.forward(&x).unwrap());
            assert_eq!(
                base.features.as_slice(),
                got.features.as_slice(),
                "features diverge at {threads} threads"
            );
            assert_eq!(
                base.projection.as_slice(),
                got.projection.as_slice(),
                "projection diverges at {threads} threads"
            );
        }
    }
}
