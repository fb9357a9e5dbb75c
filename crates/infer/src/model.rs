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
//! Execution runs every MAC in integer arithmetic on the same
//! zero-anchored per-tensor grid the fake-quant training path uses (for
//! post-ReLU inputs the grid is identical, so those MACs are integer-exact
//! realizations of the f32 fake-quant computation): i8×i8→i32 through
//! [`cq_tensor::gemm::int8`], then one final f32 rescale per output
//! element:
//!
//! ```text
//! y[o,j] = sa·sw·gain[o]·(dot[o,j] + za·wsum[o] + zw·asum[j] + K·za·zw) + shift[o]
//! ```
//!
//! with the zero-point corrections evaluated in i64 (`wsum` precomputed
//! per row, `asum` summed per input column at run time). Convolution
//! padding uses the stored i8 code `-za` (true code 0), so padded taps
//! cancel exactly inside the correction. The dense kernels multiply four
//! channels per instruction step (`vpdpbusd` where the host has AVX-512
//! VNNI) on activation codes shifted to u8 (`code + 128`), and take the
//! shift back out per row (`128·Σw`) in wrapping i32; the dot, and hence
//! every output bit, is the one the i8×i8 product gives.
//!
//! Between dense convs an activation makes one pass. A Relu/Relu6 after
//! a dense conv, and a residual add (plus the Relu after it) at the end
//! of a block's main branch, run in that conv's tile store
//! ([`cq_tensor::Epilogue`]), which also returns the range of what it
//! stored. The snap (`snap.rs`) then projects the values onto the
//! 8-bit grid, as training does, and writes them in the forms the next
//! ops read: u8 channel quads for a dense conv ([`cq_tensor::ActQuads`],
//! padded for the widest conv that reads them, so a projection skip
//! shares its block's buffer), f32 values for an identity skip,
//! depthwise and linear layers, pooling and the output, or both. Only
//! activations no clamp produced (the image at the stem) are scanned and
//! coded separately. Depthwise and linear layers still quantize their f32
//! inputs to i8 codes themselves, and pooling runs in f32.
//!
//! At conversion time every MAC layer is checked against the shared
//! accumulator-headroom proof ([`cq_quant::intmath::acc_fits_i32`], the
//! same bound `cq-check quantflow` certifies): a layer whose tap count
//! could overflow i32 at 8 bits is rejected with
//! [`InferError::Headroom`], never silently converted.

use std::borrow::Cow;
use std::collections::HashMap;

use cq_core::TrainState;
use cq_models::plan::encoder_plans;
use cq_models::{Encoder, EncoderConfig};
use cq_nn::spec::{LayerKind, Plan};
use cq_quant::intmath::{acc_fits_i32, INT_INFER_MAX_BITS};
use cq_quant::RangeScan;
use cq_tensor::gemm::int8::par_gemm_i8;
use cq_tensor::par::parallel_chunks_mut;
use cq_tensor::recycle;
use cq_tensor::{
    avg_pool2d, conv2d_i8, depthwise_conv2d_i8, global_avg_pool, max_pool2d, Clamp, Conv2dSpec,
    ConvShape, Epilogue, Requant, Tensor,
};

use crate::quantize::{quantize_activations, quantize_weights};
use crate::snap::{clamp_scan, code, snap_to_grid, snap_to_quads, Coded};
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

/// The shape of an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `[n, c, h, w]`.
    Spatial {
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    },
    /// `[n, f]`.
    Flat { n: usize, f: usize },
}

impl Shape {
    fn dims(self) -> Vec<usize> {
        match self {
            Shape::Spatial { n, c, h, w } => vec![n, c, h, w],
            Shape::Flat { n, f } => vec![n, f],
        }
    }
}

/// An activation flowing through the integer program, in the forms the
/// ops after it read: its f32 values, its codes as the u8 channel quads
/// of the next dense conv, or both.
#[derive(Debug, Clone)]
struct Act {
    shape: Shape,
    vals: Option<Vec<f32>>,
    coded: Option<Coded>,
}

impl Drop for Act {
    fn drop(&mut self) {
        if let Some(v) = self.vals.take() {
            recycle::give(v);
        }
    }
}

impl Act {
    /// An activation held as f32 values.
    fn values(shape: Shape, vals: Vec<f32>) -> Act {
        Act {
            shape,
            vals: Some(vals),
            coded: None,
        }
    }

    fn vals(&self) -> Result<&[f32], InferError> {
        self.vals
            .as_deref()
            .ok_or_else(|| InferError::Input("activation was written only as int8 codes".into()))
    }

    fn spatial(&self, what: &str) -> Result<[usize; 4], InferError> {
        match self.shape {
            Shape::Spatial { n, c, h, w } => Ok([n, c, h, w]),
            Shape::Flat { .. } => Err(InferError::Input(format!(
                "{what} applied to flat activation"
            ))),
        }
    }

    fn to_tensor(&self) -> Result<Tensor, InferError> {
        Tensor::from_vec(recycle::take_copy(self.vals()?), &self.shape.dims())
            .map_err(InferError::Tensor)
    }

    /// The f32 values, taken out of an owned activation or copied from a
    /// borrowed one.
    fn into_vals(act: Cow<'_, Act>) -> Result<(Shape, Vec<f32>), InferError> {
        match act {
            Cow::Owned(mut a) => {
                a.vals()?;
                Ok((a.shape, a.vals.take().unwrap_or_default()))
            }
            Cow::Borrowed(a) => Ok((a.shape, recycle::take_copy(a.vals()?))),
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
        let plans = encoder_plans(&enc.config()).map_err(InferError::Spec)?;

        let state = enc.state_tensors();
        let mut conv = Converter {
            params: enc.params().iter().map(|(_, name, t)| (name, t)).collect(),
            state,
            state_pos: 0,
        };
        let backbone = finalize_ops(conv.convert_plan(&plans.backbone)?)?;
        let head = match &plans.projector {
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
            feat_dim: plans.feat_dim,
            proj_dim: plans.proj_dim,
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
        let feats = self.run_backbone(x)?;
        let features = feats.to_tensor()?;
        let projection = if self.head.is_empty() {
            features.clone()
        } else {
            run_ops(&self.head, Cow::Owned(feats), None)?.to_tensor()?
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
        self.run_backbone(x)?.to_tensor()
    }

    fn run_backbone(&self, x: &Tensor) -> Result<Act, InferError> {
        let input = input_act(x)?;
        run_ops(&self.backbone, Cow::Owned(input), None)
    }
}

/// A `[n, c, h, w]` batch as the program's input.
fn input_act(x: &Tensor) -> Result<Act, InferError> {
    let &[n, c, h, w] = x.dims() else {
        return Err(InferError::Input(format!(
            "expected [n, c, h, w] input, got {:?}",
            x.dims()
        )));
    };
    let shape = Shape::Spatial { n, c, h, w };
    Ok(Act::values(shape, recycle::take_copy(x.as_slice())))
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

// Passes over f32 activations besides the dense convs' tile stores, by
// kind. Shape-only, so totals are identical at any thread count.
/// Range scans of an activation to quantize it (`quantize_activations`,
/// or the coding of values no clamp produced into quads).
static QUANTIZE_PASSES: cq_obs::Counter = cq_obs::Counter::new("infer.quantize_passes");
/// Clamp-and-scan passes of a Relu/Relu6 that no tile store ran.
static RELU_SCANS: cq_obs::Counter = cq_obs::Counter::new("infer.relu_scans");
/// Residual adds that no tile store ran.
static RESIDUAL_ADDS: cq_obs::Counter = cq_obs::Counter::new("infer.residual_adds");

thread_local! {
    /// The int8 depthwise's accumulators and per-window stored-code
    /// sums, one pair per thread, reused across images, layers and
    /// batches.
    static DW_SCRATCH: std::cell::RefCell<(Vec<i32>, Vec<i32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Which forms of an activation the op after it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Need {
    /// f32 values: an identity skip, depthwise and linear layers,
    /// pooling, the program's output.
    vals: bool,
    /// u8 channel quads padded this much: the dense convs that read it.
    quads: Option<usize>,
}

impl Need {
    const VALS: Need = Need {
        vals: true,
        quads: None,
    };

    /// What `next`, the op an activation flows into, reads of it: a
    /// residual block's main branch and skip both read the block input.
    fn of(next: Option<&IntOp>) -> Need {
        match next {
            Some(IntOp::Conv { spec, .. }) => Need {
                vals: false,
                quads: Some(spec.padding.0.max(spec.padding.1)),
            },
            Some(IntOp::Residual { main, skip }) => {
                let skip = skip
                    .as_deref()
                    .map_or(Need::VALS, |ops| Need::of(ops.first()));
                let main = Need::of(main.first());
                Need {
                    vals: main.vals || skip.vals,
                    quads: main.quads.max(skip.quads),
                }
            }
            _ => Need::VALS,
        }
    }
}

/// How an op finishes its output.
#[derive(Clone, Copy)]
struct Finish<'a> {
    /// The Relu/Relu6 after a dense conv or a residual block, run in the
    /// conv's tile store.
    clamp: Clamp,
    /// The skip output a residual main branch's last conv adds in its
    /// tile store (before the clamp).
    skip: Option<&'a Act>,
    /// What the op after it reads.
    need: Need,
}

/// The activation a Relu/Relu6 op applies.
fn clamp_of(op: Option<&IntOp>) -> Clamp {
    match op {
        Some(IntOp::Relu) => Clamp::Relu,
        Some(IntOp::Relu6) => Clamp::Relu6,
        _ => Clamp::None,
    }
}

/// Executes an op stream over an activation. A borrowed input is copied
/// only if an op transforms it in place; ops that read it into a fresh
/// output (convolutions, linear layers, pooling) take it by reference. A
/// Relu/Relu6 right after a dense conv or a residual block runs in that
/// op's tile store, and every op's output is written in the forms the op
/// after it reads. `tail` finishes the last op, a dense conv that ends a
/// residual main branch.
fn run_ops(
    ops: &[IntOp],
    mut act: Cow<'_, Act>,
    tail: Option<Finish<'_>>,
) -> Result<Act, InferError> {
    let mut i = 0;
    while i < ops.len() {
        let op = &ops[i];
        let clamp = match op {
            IntOp::Conv { .. } | IntOp::Residual { .. } => clamp_of(ops.get(i + 1)),
            _ => Clamp::None,
        };
        i += if clamp == Clamp::None { 1 } else { 2 };
        let fin = match tail {
            Some(fin) if i == ops.len() => fin,
            _ => Finish {
                clamp,
                skip: None,
                need: Need::of(ops.get(i)),
            },
        };
        act = Cow::Owned(run_op(op, act, fin)?);
    }
    Ok(act.into_owned())
}

fn run_op(op: &IntOp, act: Cow<'_, Act>, fin: Finish<'_>) -> Result<Act, InferError> {
    match op {
        IntOp::Conv { spec, in_ch, mac } => {
            let [n, c, h, w] = act.spatial("conv")?;
            if c != *in_ch {
                return Err(InferError::Input(format!(
                    "conv {} expects {in_ch} channels, got {c}",
                    mac.name
                )));
            }
            let s = ConvShape::new(n, c, h, w, mac.rows, *spec).map_err(InferError::Tensor)?;
            let shape = Shape::Spatial {
                n,
                c: mac.rows,
                h: s.oh,
                w: s.ow,
            };
            let add = match fin.skip {
                Some(skip) if skip.shape != shape => {
                    return Err(InferError::Input(format!(
                        "residual branch shape mismatch: {:?} vs {:?}",
                        shape.dims(),
                        skip.shape.dims()
                    )));
                }
                Some(skip) => Some(skip.vals()?),
                None => None,
            };
            let pad = spec.padding.0.max(spec.padding.1);
            // The input, and the quads it owns, go back to the recycler
            // before the snap takes a buffer for the output's quads.
            let (out, range) = {
                let act = act;
                let fresh;
                let input = match act.coded {
                    Some(ref coded) if coded.quads.geom().pad >= pad => coded,
                    _ => {
                        // Values no clamp produced (the image at the stem):
                        // scan, then code.
                        QUANTIZE_PASSES.add(1);
                        let (_, mut vals) = Act::into_vals(act)?;
                        let scan = RangeScan::scan(&vals);
                        fresh = code(&mut vals, [n, c, h, w], pad, scan);
                        recycle::give(vals);
                        &fresh
                    }
                };
                let scale: Vec<f32> = mac
                    .gain
                    .iter()
                    .map(|&g| input.step * mac.wstep * g)
                    .collect();
                let rq = Requant {
                    za: input.quads.za(),
                    zw: mac.wzp,
                    wsum: &mac.wsum,
                    scale: &scale,
                    shift: &mac.shift,
                };
                let mut out = recycle::take_written(n * mac.rows * s.positions());
                let ep = Epilogue {
                    add,
                    clamp: fin.clamp,
                };
                let range = conv2d_i8(&input.quads, &mac.codes, &s, &rq, ep, &mut out);
                (out, range)
            };
            finish(out, shape, range.into(), fin.clamp != Clamp::None, fin.need)
        }
        IntOp::Depthwise { spec, mac } => {
            let [n, c, h, w] = act.spatial("depthwise conv")?;
            if c != mac.rows {
                return Err(InferError::Input(format!(
                    "depthwise {} expects {} channels, got {c}",
                    mac.name, mac.rows
                )));
            }
            let (oh, ow) = spec.out_hw(h, w).map_err(InferError::Tensor)?;
            QUANTIZE_PASSES.add(1);
            let q = quantize_activations(act.vals()?);
            let pad = (-q.zp) as i8;
            let (ilen, olen) = (c * h * w, c * oh * ow);
            let mut out = recycle::take_written(n * olen);
            if olen > 0 {
                parallel_chunks_mut(&mut out, olen, |i, y| {
                    let sample = &q.codes[i * ilen..(i + 1) * ilen];
                    DW_SCRATCH.with_borrow_mut(|(acc, asum)| {
                        // The kernel overwrites every element, so the
                        // scratch is only resized, never cleared.
                        acc.resize(olen, 0);
                        asum.resize(olen, 0);
                        // The per-window stored-code sums (`asum`), pad
                        // bytes included, come from the same pass as the
                        // MAC.
                        depthwise_conv2d_i8(sample, &mac.codes, c, h, w, spec, pad, acc, asum);
                        mac.rescale_elems(acc, asum, q.step, q.zp, y);
                    });
                });
            }
            let shape = Shape::Spatial { n, c, h: oh, w: ow };
            Ok(Act::values(shape, out))
        }
        IntOp::Linear { mac } => {
            let Shape::Flat { n, f } = act.shape else {
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
            QUANTIZE_PASSES.add(1);
            let q = quantize_activations(act.vals()?);
            let mut acc = vec![0i32; n * mac.rows];
            par_gemm_i8(&q.codes, &mac.codes, n, mac.rows, mac.cols, &mut acc);
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
            Ok(Act::values(Shape::Flat { n, f: mac.rows }, out))
        }
        IntOp::BatchNorm { scale, shift } => {
            let (shape, mut vals) = Act::into_vals(act)?;
            let (c, plane) = match shape {
                Shape::Spatial { c, h, w, .. } => (c, h * w),
                Shape::Flat { f, .. } => (f, 1),
            };
            if c != scale.len() {
                return Err(InferError::Input(format!(
                    "batch norm expects {} channels, got {c}",
                    scale.len()
                )));
            }
            for (s, chunk) in vals.chunks_mut(plane.max(1)).enumerate() {
                let ch = s % c;
                for v in chunk.iter_mut() {
                    *v = scale[ch] * *v + shift[ch];
                }
            }
            Ok(Act::values(shape, vals))
        }
        IntOp::Relu | IntOp::Relu6 => {
            let clamp = clamp_of(Some(op));
            let (shape, mut vals) = Act::into_vals(act)?;
            RELU_SCANS.add(1);
            let scan = clamp_scan(&mut vals, clamp);
            finish(vals, shape, scan, true, fin.need)
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
            let (n, f) = (y.dims()[0], y.dims()[1]);
            Ok(Act::values(Shape::Flat { n, f }, y.into_vec()))
        }
        IntOp::Residual { main, skip } => {
            let mut act = act;
            // The skip runs first: its output, or the block input itself,
            // is what the main branch's last conv adds in its tile store.
            let skip_out = match skip {
                Some(ops) => Some(run_ops(ops, Cow::Borrowed(&*act), None)?),
                None => None,
            };
            // A main branch that opens with a dense conv owns the input's
            // quads, which are then freed after that conv; an identity
            // skip keeps reading the values.
            let quads = match &mut act {
                Cow::Owned(a) if matches!(main.first(), Some(IntOp::Conv { .. })) => {
                    a.coded.take().map(|coded| Act {
                        shape: a.shape,
                        vals: None,
                        coded: Some(coded),
                    })
                }
                _ => None,
            };
            let main_in = quads.map_or(Cow::Borrowed(&*act), Cow::Owned);
            let skip = skip_out.as_ref().unwrap_or(&*act);
            if let Some(IntOp::Conv { .. }) = main.last() {
                let tail = Finish {
                    skip: Some(skip),
                    ..fin
                };
                return run_ops(main, main_in, Some(tail));
            }
            let out = run_ops(main, main_in, None)?;
            let (shape, mut vals) = Act::into_vals(Cow::Owned(out))?;
            if shape != skip.shape {
                return Err(InferError::Input(format!(
                    "residual branch shape mismatch: {:?} vs {:?}",
                    shape.dims(),
                    skip.shape.dims()
                )));
            }
            RESIDUAL_ADDS.add(1);
            for (a, &b) in vals.iter_mut().zip(skip.vals()?) {
                *a += b;
            }
            if fin.clamp == Clamp::None {
                return Ok(Act::values(shape, vals));
            }
            RELU_SCANS.add(1);
            let scan = clamp_scan(&mut vals, fin.clamp);
            finish(vals, shape, scan, true, fin.need)
        }
    }
}

/// An op's f32 output `vals` with range `scan`, made into what the op
/// after it reads: projected onto the 8-bit grid when a clamp produced it
/// (`snapped`), kept as f32 values when `need.vals`, and coded as quads
/// when `need.quads`, all in one pass over the values.
fn finish(
    mut vals: Vec<f32>,
    shape: Shape,
    scan: RangeScan,
    snapped: bool,
    need: Need,
) -> Result<Act, InferError> {
    let Some(pad) = need.quads else {
        if snapped {
            snap_to_grid(&mut vals, scan);
        }
        return Ok(Act::values(shape, vals));
    };
    let Shape::Spatial { n, c, h, w } = shape else {
        return Err(InferError::Input("conv applied to flat activation".into()));
    };
    let dims = [n, c, h, w];
    let coded = if snapped {
        snap_to_quads(&mut vals, dims, scan, pad, need.vals)
    } else {
        code(&mut vals, dims, pad, scan)
    };
    let vals = if need.vals {
        Some(vals)
    } else {
        recycle::give(vals);
        None
    };
    Ok(Act {
        shape,
        vals,
        coded: Some(coded),
    })
}

fn spatial_from_tensor(t: Tensor) -> Result<Act, InferError> {
    let &[n, c, h, w] = t.dims() else {
        return Err(InferError::Input(format!(
            "expected spatial tensor, got {:?}",
            t.dims()
        )));
    };
    Ok(Act::values(Shape::Spatial { n, c, h, w }, t.into_vec()))
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

    /// The integer program as the per-sample lowering runs it, one op at a
    /// time on f32 values: each dense conv quantizes its input with
    /// `quantize_activations` and runs
    /// `reference::conv2d_i8_per_sample` (im2col + scalar GEMM + i64
    /// rescale per image), each Relu/Relu6 clamps, scans and snaps in
    /// place, and each residual block adds its two branches.
    fn run_reference(ops: &[IntOp], mut act: Act) -> Result<Act, InferError> {
        for op in ops {
            act = match op {
                IntOp::Conv { spec, in_ch, mac } => {
                    let [n, c, h, w] = act.spatial("conv")?;
                    assert_eq!(c, *in_ch);
                    let s = ConvShape::new(n, c, h, w, mac.rows, *spec).unwrap();
                    let q = quantize_activations(act.vals()?);
                    let scale: Vec<f32> =
                        mac.gain.iter().map(|&g| q.step * mac.wstep * g).collect();
                    let rq = Requant {
                        za: q.zp,
                        zw: mac.wzp,
                        wsum: &mac.wsum,
                        scale: &scale,
                        shift: &mac.shift,
                    };
                    let mut out = vec![0.0; n * mac.rows * s.positions()];
                    cq_tensor::gemm::reference::conv2d_i8_per_sample(
                        &q.codes, &mac.codes, &s, &rq, &mut out,
                    );
                    let shape = Shape::Spatial {
                        n,
                        c: mac.rows,
                        h: s.oh,
                        w: s.ow,
                    };
                    Act::values(shape, out)
                }
                IntOp::Relu | IntOp::Relu6 => {
                    let clamp = clamp_of(Some(op));
                    let (shape, mut vals) = Act::into_vals(Cow::Owned(act))?;
                    let scan = crate::snap::tests::map_scan(&mut vals, clamp);
                    snap_to_grid(&mut vals, scan);
                    Act::values(shape, vals)
                }
                IntOp::Residual { main, skip } => {
                    let main_out = run_reference(main, act.clone())?;
                    let skip_out = match skip {
                        Some(ops) => run_reference(ops, act)?,
                        None => act,
                    };
                    assert_eq!(main_out.shape, skip_out.shape);
                    let (shape, mut vals) = Act::into_vals(Cow::Owned(main_out))?;
                    for (a, &b) in vals.iter_mut().zip(skip_out.vals()?) {
                        *a += b;
                    }
                    Act::values(shape, vals)
                }
                // Depthwise and linear layers, batch norms and pooling
                // read and write f32 values on either path.
                other => {
                    let fin = Finish {
                        clamp: Clamp::None,
                        skip: None,
                        need: Need::VALS,
                    };
                    run_op(other, Cow::Owned(act), fin)?
                }
            };
        }
        Ok(act)
    }

    #[test]
    fn features_match_the_per_sample_oracle_lowering_bitwise() {
        // The fused program (quads written by the snaps, ReLUs and
        // residual adds in the tile stores) must reproduce the per-sample
        // lowering of the unfused ops bit for bit: integer accumulation
        // is exact, the rescale is per element, and every fused pass
        // computes the same f32 operations on the same values.
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
            let want = run_reference(&int.backbone, input_act(&x).unwrap())
                .unwrap()
                .to_tensor()
                .unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{:?}", cfg.arch);
        }
    }

    /// A 1×1 conv `in_ch → out_ch` with seeded weights.
    fn pointwise(in_ch: usize, out_ch: usize, stride: (usize, usize), seed: u64) -> IntOp {
        let mut rng = StdRng::seed_from_u64(seed);
        let mac = finalize_mac(RawMac {
            name: format!("pw{seed}"),
            rows: out_ch,
            cols: in_ch,
            w: (0..in_ch * out_ch)
                .map(|_| rng.gen_range(-1.0..1.0f32))
                .collect(),
            gain: vec![1.0; out_ch],
            bias: vec![0.0; out_ch],
        })
        .unwrap();
        let spec = Conv2dSpec {
            kernel: (1, 1),
            stride,
            padding: (0, 0),
        };
        IntOp::Conv { spec, in_ch, mac }
    }

    #[test]
    fn residual_branches_must_agree_in_shape_not_only_in_size() {
        let run = |ops: &[IntOp], dims: &[usize]| {
            let mut rng = StdRng::seed_from_u64(7);
            let x = Tensor::randn(dims, 0.0, 1.0, &mut rng);
            run_ops(ops, Cow::Owned(input_act(&x).unwrap()), None)
        };
        let mismatch = |r: Result<Act, InferError>| match r {
            Err(InferError::Input(msg)) => assert!(msg.contains("shape mismatch"), "{msg}"),
            other => panic!(
                "expected a shape mismatch, got {:?}",
                other.map(|a| a.shape)
            ),
        };
        // [1, 8, 4, 2] from the main branch's conv against a [1, 4, 4, 4]
        // projection: 64 elements each.
        let conv_tail = IntOp::Residual {
            main: vec![pointwise(4, 8, (1, 2), 1)],
            skip: Some(vec![pointwise(4, 4, (1, 1), 2)]),
        };
        mismatch(run(&[conv_tail, IntOp::Relu], &[1, 4, 4, 4]));
        // A flat [1, 4] main branch against the identity skip [1, 4, 1, 1].
        let flat_main = IntOp::Residual {
            main: vec![pointwise(4, 4, (1, 1), 3), IntOp::GlobalAvgPool],
            skip: None,
        };
        mismatch(run(&[flat_main], &[1, 4, 1, 1]));
        // Equal shapes still add.
        let ok = IntOp::Residual {
            main: vec![pointwise(4, 4, (1, 1), 4)],
            skip: None,
        };
        let out = run(&[ok, IntOp::Relu], &[2, 4, 3, 3]).unwrap();
        assert_eq!(out.shape.dims(), vec![2, 4, 3, 3]);
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
