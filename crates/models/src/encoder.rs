//! The [`Encoder`]: a backbone plus optional projection head over one
//! parameter set — the unit Contrastive Quant trains.

use std::io::{Read, Write};

use cq_nn::{Cache, ForwardCtx, GradSet, Layer, NnError, ParamSet, Sequential};
use cq_tensor::{read_tensor, write_tensor, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::plan::{encoder_plan, validate_encoder};
use crate::Arch;

/// A rank-4 batch in the lane layout the backbone runs in; any other
/// tensor as it is, for the first layer to reject.
fn lanes(x: &Tensor) -> Result<Tensor, NnError> {
    Ok(if x.rank() == 4 {
        x.to_lanes()?
    } else {
        x.clone()
    })
}

/// Build-time description of an [`Encoder`]; kept by the encoder so BYOL
/// targets and checkpoints can reconstruct the same architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Backbone architecture.
    pub arch: Arch,
    /// Backbone base width.
    pub width: usize,
    /// Projection head `(hidden, out)` dimensions; `None` = no projector
    /// (projection output equals the features).
    pub proj: Option<(usize, usize)>,
    /// Use a BYOL-style (batch-normed) projection head.
    pub proj_bn: bool,
}

impl EncoderConfig {
    /// Backbone-only configuration.
    pub fn new(arch: Arch, width: usize) -> Self {
        EncoderConfig {
            arch,
            width,
            proj: None,
            proj_bn: false,
        }
    }

    /// Adds a SimCLR-style projection head.
    pub fn with_proj(mut self, hidden: usize, out: usize) -> Self {
        self.proj = Some((hidden, out));
        self
    }

    /// Adds a BYOL-style (batch-normed) projection head.
    pub fn with_byol_proj(mut self, hidden: usize, out: usize) -> Self {
        self.proj = Some((hidden, out));
        self.proj_bn = true;
        self
    }
}

/// Trace of one [`Encoder::forward`]; several traces of the same encoder
/// can be alive at once (the multi-quantization branches of Contrastive
/// Quant).
pub struct EncoderTrace {
    backbone: Cache,
    proj: Option<Cache>,
}

impl std::fmt::Debug for EncoderTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EncoderTrace(proj={})", self.proj.is_some())
    }
}

/// Output of one encoder forward pass.
#[derive(Debug)]
pub struct EncoderOutput {
    /// Backbone features `h` (`[N, feat_dim]`) — what linear evaluation
    /// and fine-tuning consume.
    pub features: Tensor,
    /// Projected representation `z` (`[N, proj_dim]`) — what the
    /// contrastive losses consume. Equals `features` when no projector is
    /// configured.
    pub projection: Tensor,
    /// Backward trace.
    pub trace: EncoderTrace,
}

/// A backbone + optional projection head over a single [`ParamSet`].
pub struct Encoder {
    cfg: EncoderConfig,
    params: ParamSet,
    backbone: Sequential,
    projector: Option<Sequential>,
    feat_dim: usize,
    proj_dim: usize,
}

impl std::fmt::Debug for Encoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Encoder({} w{}, feat={}, proj={})",
            self.cfg.arch, self.cfg.width, self.feat_dim, self.proj_dim
        )
    }
}

impl Encoder {
    /// Builds an encoder from `cfg`, initialising all weights from `seed`.
    ///
    /// The configuration is first validated symbolically (see
    /// [`crate::plan::validate_encoder`]); an invalid stack is rejected
    /// with a layer-attributed error before any weight is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Param`] describing the offending layer when the
    /// configuration is invalid (zero width, bad projector dimensions).
    pub fn new(cfg: &EncoderConfig, seed: u64) -> Result<Self, NnError> {
        let plans = validate_encoder(cfg)
            .map_err(|e| NnError::Param(format!("invalid encoder config: {e}")))?;
        // cq-allow(det-rng-ctor): one-shot weight-init stream derived from the caller's seed, consumed before training
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let backbone = plans.backbone.build(&mut params, &mut rng);
        let projector = plans.projector.map(|p| p.build(&mut params, &mut rng));
        Ok(Encoder {
            cfg: *cfg,
            params,
            backbone,
            projector,
            feat_dim: plans.feat_dim,
            proj_dim: plans.proj_dim,
        })
    }

    /// The configuration this encoder was built from.
    pub fn config(&self) -> EncoderConfig {
        self.cfg
    }

    /// Backbone feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// Projection output dimension.
    pub fn proj_dim(&self) -> usize {
        self.proj_dim
    }

    /// The parameter set (optimizers are built against this).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable parameter set (optimizer steps; registering extra heads
    /// such as BYOL's predictor or a fine-tuning classifier).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.params.num_scalars()
    }

    /// Runs the encoder, returning features, projection and the trace.
    ///
    /// The backbone runs in the lane layout (`cq_tensor::lanes`): an
    /// `[N, C, H, W]` input is converted once here, and the global pool
    /// leaves the layout as `[N, C]` features.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (bad input shapes etc.).
    pub fn forward(&mut self, x: &Tensor, ctx: &ForwardCtx) -> Result<EncoderOutput, NnError> {
        let _sp = cq_obs::span("encoder.forward");
        let (features, backbone) = self.backbone.forward(&self.params, &lanes(x)?, ctx)?;
        let (projection, proj) = match &mut self.projector {
            Some(p) => {
                let (z, c) = p.forward(&self.params, &features, ctx)?;
                (z, Some(c))
            }
            None => (features.clone(), None),
        };
        Ok(EncoderOutput {
            features,
            projection,
            trace: EncoderTrace { backbone, proj },
        })
    }

    /// Convenience: features only, no projector run (evaluation paths).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn features(&mut self, x: &Tensor, ctx: &ForwardCtx) -> Result<Tensor, NnError> {
        let (features, _) = self.backbone.forward(&self.params, &lanes(x)?, ctx)?;
        Ok(features)
    }

    /// Backpropagates a gradient w.r.t. the *projection* through projector
    /// and backbone, accumulating into `gs`.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. a trace from another encoder).
    pub fn backward_projection(
        &self,
        trace: &EncoderTrace,
        dz: &Tensor,
        gs: &mut GradSet,
    ) -> Result<(), NnError> {
        let _sp = cq_obs::span("encoder.backward");
        let dh = match (&self.projector, &trace.proj) {
            (Some(p), Some(c)) => p.backward(&self.params, c, dz, gs)?,
            (None, None) => dz.clone(),
            _ => {
                return Err(NnError::CacheMismatch {
                    layer: "Encoder".into(),
                })
            }
        };
        self.backbone
            .backward(&self.params, &trace.backbone, &dh, gs)?;
        Ok(())
    }

    /// Backpropagates a gradient w.r.t. the *features* (fine-tuning path:
    /// a classifier sits directly on `h`).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn backward_features(
        &self,
        trace: &EncoderTrace,
        dh: &Tensor,
        gs: &mut GradSet,
    ) -> Result<(), NnError> {
        self.backbone
            .backward(&self.params, &trace.backbone, dh, gs)?;
        Ok(())
    }

    /// Runs the backbone *without* its final global pooling, returning the
    /// spatial feature map `[N, feat_dim, h, w]`, row-major — what
    /// dense-prediction heads (detection transfer, Tab. 3) consume — plus
    /// a trace for [`Encoder::backward_spatial`].
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward_spatial(
        &mut self,
        x: &Tensor,
        ctx: &ForwardCtx,
    ) -> Result<(Tensor, Cache), NnError> {
        let n = self.backbone.len() - 1; // last layer is GlobalAvgPool
        let (map, cache) = self
            .backbone
            .forward_upto(&self.params, &lanes(x)?, ctx, n)?;
        Ok((map.to_nchw(), cache))
    }

    /// Backpropagates a gradient w.r.t. the spatial feature map produced
    /// by [`Encoder::forward_spatial`].
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn backward_spatial(
        &self,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<(), NnError> {
        self.backbone
            .backward(&self.params, cache, &lanes(dy)?, gs)?;
        Ok(())
    }

    /// Builds a structural copy with identical parameters and state — the
    /// starting point of a BYOL target network.
    ///
    /// # Errors
    ///
    /// Propagates parameter-copy errors (never expected for a fresh copy).
    pub fn duplicate(&self) -> Result<Encoder, NnError> {
        let mut copy = Encoder::new(&self.cfg, 0)?;
        copy.params.copy_from(&self.params)?;
        cq_nn::copy_state(&mut copy.backbone, &self.backbone)?;
        if let (Some(d), Some(s)) = (&mut copy.projector, &self.projector) {
            cq_nn::copy_state(d, s)?;
        }
        Ok(copy)
    }

    /// BYOL target update: `self.params = tau * self.params + (1 - tau) *
    /// online.params`. The online network may carry extra trailing
    /// parameters (its prediction head); they are ignored. Running
    /// statistics are left to the target's own forward passes.
    ///
    /// # Errors
    ///
    /// Returns an error if the shared-prefix parameters do not align.
    pub fn ema_update_from(&mut self, online: &Encoder, tau: f32) -> Result<(), NnError> {
        self.params.ema_from_prefix(&online.params, tau)
    }

    /// Serialises config, parameters and layer state.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), NnError> {
        w.write_all(b"CQEN")?;
        w.write_all(&[self.cfg.arch.tag(), u8::from(self.cfg.proj_bn)])?;
        w.write_all(&(self.cfg.width as u64).to_le_bytes())?;
        let (ph, po) = self.cfg.proj.unwrap_or((0, 0));
        w.write_all(&(ph as u64).to_le_bytes())?;
        w.write_all(&(po as u64).to_le_bytes())?;
        self.params.save(&mut w)?;
        let state = self.state_tensors();
        w.write_all(&(state.len() as u32).to_le_bytes())?;
        for t in state {
            write_tensor(&mut w, t).map_err(NnError::Tensor)?;
        }
        Ok(())
    }

    /// Deserialises an encoder written with [`Encoder::save`].
    ///
    /// The header's configuration is checked against the parameters the
    /// stream carries before the encoder is built, so a corrupt header
    /// cannot make it allocate more than the stream holds.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on malformed input.
    pub fn load<R: Read>(mut r: R) -> Result<Encoder, NnError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"CQEN" {
            return Err(NnError::Io(format!("bad encoder magic {magic:?}")));
        }
        let mut hdr = [0u8; 2];
        r.read_exact(&mut hdr)?;
        let arch = Arch::from_tag(hdr[0])
            .ok_or_else(|| NnError::Io(format!("unknown arch tag {}", hdr[0])))?;
        let mut dims = [0usize; 3];
        for d in &mut dims {
            let mut b8 = [0u8; 8];
            r.read_exact(&mut b8)?;
            *d = u64::from_le_bytes(b8) as usize;
        }
        let [width, ph, po] = dims;
        let cfg = EncoderConfig {
            arch,
            width,
            proj: (ph != 0 || po != 0).then_some((ph, po)),
            proj_bn: hdr[1] != 0,
        };
        let params = ParamSet::load(&mut r)?;
        let (plan, _, _) =
            encoder_plan(&cfg).map_err(|e| NnError::Io(format!("bad encoder header: {e}")))?;
        if plan.checked_param_count() != Some(params.num_scalars()) {
            return Err(NnError::Io(format!(
                "encoder header ({} w{}, proj {:?}) does not match the {} stored parameters",
                cfg.arch,
                cfg.width,
                cfg.proj,
                params.num_scalars()
            )));
        }
        let mut enc = Encoder::new(&cfg, 0)?;
        enc.params.copy_from(&params)?;
        let mut cnt = [0u8; 4];
        r.read_exact(&mut cnt)?;
        let n = u32::from_le_bytes(cnt) as usize;
        let mut state = enc.state_tensors_mut();
        if state.len() != n {
            return Err(NnError::Io(format!(
                "state tensor count mismatch: file {n}, model {}",
                state.len()
            )));
        }
        for dst in &mut state {
            let src = read_tensor(&mut r).map_err(NnError::Tensor)?;
            if dst.dims() != src.dims() {
                return Err(NnError::Io("state tensor shape mismatch".into()));
            }
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
        Ok(enc)
    }

    /// Non-parameter state tensors (BatchNorm running stats) of the
    /// backbone followed by the projector, in a fixed traversal order.
    /// Exposed so checkpointing can capture state that `params()` misses.
    pub fn state_tensors(&self) -> Vec<&Tensor> {
        let mut v = self.backbone.state_tensors();
        if let Some(p) = &self.projector {
            v.extend(p.state_tensors());
        }
        v
    }

    /// Mutable view of [`state_tensors`], for checkpoint restore.
    ///
    /// [`state_tensors`]: Encoder::state_tensors
    pub fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.backbone.state_tensors_mut();
        if let Some(p) = &mut self.projector {
            v.extend(p.state_tensors_mut());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_quant::{Precision, QuantConfig};

    fn small_cfg() -> EncoderConfig {
        EncoderConfig::new(Arch::ResNet18, 2).with_proj(8, 4)
    }

    #[test]
    fn forward_shapes() {
        let mut enc = Encoder::new(&small_cfg(), 1).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let out = enc.forward(&x, &ForwardCtx::eval()).unwrap();
        assert_eq!(out.features.dims(), &[2, 16]);
        assert_eq!(out.projection.dims(), &[2, 4]);
    }

    #[test]
    fn no_projector_projection_equals_features() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 2);
        let mut enc = Encoder::new(&cfg, 1).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let out = enc.forward(&x, &ForwardCtx::eval()).unwrap();
        assert_eq!(out.features, out.projection);
        assert_eq!(enc.proj_dim(), enc.feat_dim());
    }

    #[test]
    fn backward_projection_accumulates() {
        let mut enc = Encoder::new(&small_cfg(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let out = enc.forward(&x, &ForwardCtx::train()).unwrap();
        let mut gs = enc.params().zero_grads();
        let dz = Tensor::ones(&[2, 4]);
        enc.backward_projection(&out.trace, &dz, &mut gs).unwrap();
        assert!(gs.global_norm() > 0.0);
        assert!(gs.is_finite());
    }

    #[test]
    fn multiple_traces_same_params() {
        // the Contrastive Quant pattern: two quantized branches, gradients
        // accumulated from both into one GradSet
        let mut enc = Encoder::new(&small_cfg(), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let ctx1 = ForwardCtx::train().with_quant(QuantConfig::uniform(Precision::Bits(6)));
        let ctx2 = ForwardCtx::train().with_quant(QuantConfig::uniform(Precision::Bits(12)));
        let out1 = enc.forward(&x, &ctx1).unwrap();
        let out2 = enc.forward(&x, &ctx2).unwrap();
        assert!(out1.projection.sub(&out2.projection).unwrap().norm() > 1e-6);
        let mut gs = enc.params().zero_grads();
        let dz = Tensor::ones(&[2, 4]);
        enc.backward_projection(&out1.trace, &dz, &mut gs).unwrap();
        let n1 = gs.global_norm();
        enc.backward_projection(&out2.trace, &dz, &mut gs).unwrap();
        assert!(gs.global_norm() != n1);
    }

    #[test]
    fn duplicate_matches_and_then_diverges() {
        let mut enc = Encoder::new(&small_cfg(), 4).unwrap();
        let mut dup = enc.duplicate().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let a = enc.forward(&x, &ForwardCtx::eval()).unwrap();
        let b = dup.forward(&x, &ForwardCtx::eval()).unwrap();
        assert!(a.projection.sub(&b.projection).unwrap().norm() < 1e-6);
    }

    #[test]
    fn ema_update_moves_target_toward_online() {
        let online = Encoder::new(&small_cfg(), 5).unwrap();
        let mut target = Encoder::new(&small_cfg(), 6).unwrap();
        let before: f32 = target
            .params()
            .iter()
            .zip(online.params().iter())
            .map(|((_, _, a), (_, _, b))| a.sub(b).unwrap().sq_norm())
            .sum();
        target.ema_update_from(&online, 0.5).unwrap();
        let after: f32 = target
            .params()
            .iter()
            .zip(online.params().iter())
            .map(|((_, _, a), (_, _, b))| a.sub(b).unwrap().sq_norm())
            .sum();
        assert!(after < before);
    }

    #[test]
    fn save_load_round_trip_preserves_outputs() {
        let mut enc = Encoder::new(&small_cfg(), 7).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        // push some state into BN running stats
        let x = Tensor::randn(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        enc.forward(&x, &ForwardCtx::train()).unwrap();
        let mut buf = Vec::new();
        enc.save(&mut buf).unwrap();
        let mut back = Encoder::load(buf.as_slice()).unwrap();
        assert_eq!(back.config(), enc.config());
        let a = enc.forward(&x, &ForwardCtx::eval()).unwrap();
        let b = back.forward(&x, &ForwardCtx::eval()).unwrap();
        assert!(a.projection.sub(&b.projection).unwrap().norm() < 1e-5);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Encoder::load(&b"NOPE"[..]).is_err());
    }

    /// A saved encoder with the `u64` header field at `offset`
    /// overwritten (6 = width, 14 = projector hidden, 22 = projector out).
    fn patched(offset: usize, value: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        Encoder::new(&small_cfg(), 8)
            .unwrap()
            .save(&mut buf)
            .unwrap();
        buf[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        buf
    }

    #[test]
    fn load_rejects_header_disagreeing_with_params() {
        for (offset, what) in [(6, "width"), (14, "proj hidden"), (22, "proj out")] {
            let err = Encoder::load(patched(offset, 1 << 40).as_slice()).unwrap_err();
            assert!(matches!(err, NnError::Io(_)), "{what}: {err}");
        }
        // A plausible width that the stored parameters do not match.
        let err = Encoder::load(patched(6, 4).as_slice()).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn load_rejects_state_count_before_reading_state() {
        let enc = Encoder::new(&small_cfg(), 9).unwrap();
        let mut buf = Vec::new();
        enc.save(&mut buf).unwrap();
        let mut params = Vec::new();
        enc.params().save(&mut params).unwrap();
        let at = 30 + params.len();
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Encoder::load(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("state tensor count"), "{err}");
    }

    #[test]
    fn forward_spatial_shapes_per_arch() {
        // ResNet-18 (4 stages): 16x16 -> 2x2 spatial map; channels == feat_dim
        let mut r18 = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 2), 1).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let (sp, _) = r18.forward_spatial(&x, &ForwardCtx::eval()).unwrap();
        assert_eq!(sp.dims(), &[2, r18.feat_dim(), 2, 2]);

        // ResNet-74 (3 stages): 16x16 -> 4x4
        let mut r74 = Encoder::new(&EncoderConfig::new(Arch::ResNet74, 2), 2).unwrap();
        let (sp, _) = r74.forward_spatial(&x, &ForwardCtx::eval()).unwrap();
        assert_eq!(sp.dims(), &[2, r74.feat_dim(), 4, 4]);

        // MobileNetV2 (two stride-2 stages): 16x16 -> 4x4
        let mut mnv = Encoder::new(&EncoderConfig::new(Arch::MobileNetV2, 2), 3).unwrap();
        let (sp, _) = mnv.forward_spatial(&x, &ForwardCtx::eval()).unwrap();
        assert_eq!(sp.dims(), &[2, mnv.feat_dim(), 4, 4]);
    }

    #[test]
    fn spatial_pooled_matches_features() {
        // global-average-pooling the spatial map reproduces features()
        let mut enc = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 2), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (sp, _) = enc.forward_spatial(&x, &ForwardCtx::eval()).unwrap();
        let pooled = cq_tensor::global_avg_pool(&sp).unwrap();
        let feats = enc.features(&x, &ForwardCtx::eval()).unwrap();
        for (a, b) in pooled.as_slice().iter().zip(feats.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_spatial_accumulates_gradients() {
        let mut enc = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 2), 5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (sp, cache) = enc.forward_spatial(&x, &ForwardCtx::train()).unwrap();
        let mut gs = enc.params().zero_grads();
        enc.backward_spatial(&cache, &Tensor::ones(sp.dims()), &mut gs)
            .unwrap();
        assert!(gs.global_norm() > 0.0);
        assert!(gs.is_finite());
    }
}
