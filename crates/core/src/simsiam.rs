//! SimSiam trainer (Chen & He, ref 12 of the paper): a stop-gradient
//! siamese method with **no negative pairs and no momentum target** —
//! included as an extra baseline to situate Contrastive Quant among the
//! contrastive-learning frameworks it builds on. Implemented as an
//! [`SslMethod`] driven by the shared [`TrainLoop`] engine.
//!
//! The loss is the symmetric negative cosine similarity
//! `L = D(p1, sg(z2))/2 + D(p2, sg(z1))/2` with `p = predictor(z)`; we
//! reuse [`crate::byol_regression`] (`2 − 2·cos` has the same gradient
//! direction as `−cos`, scaled by 2). The CQ-C adaptation mirrors the
//! BYOL one: per-precision view-consistency terms plus symmetric
//! cross-precision consistency on the projections.

use std::io::{Read, Write};

use cq_data::{AugmentConfig, AugmentPipeline, Dataset, TwoViewBatch, TwoViewLoader};
use cq_models::plan::mlp_head_plan;
use cq_models::{Encoder, HeadConfig};
use cq_nn::{ForwardCtx, GradSet, Layer, NnError, ParamSet, Sequential};
use cq_quant::Precision;
use cq_tensor::{CqRng, Tensor};
use rand::SeedableRng;

use crate::engine::{SslMethod, StepCtx, TrainLoop};
use crate::{byol_regression, Pipeline, PretrainConfig, TrainHistory};

/// SimSiam's per-step loss semantics: symmetric stop-gradient regression
/// of each view's prediction onto the other view's detached projection.
struct SimsiamMethod {
    encoder: Encoder,
    predictor: Sequential,
    encoder_params: usize,
}

impl SimsiamMethod {
    /// Symmetric stop-grad loss at one (optional) precision: both views
    /// are encoded once; each prediction regresses onto the *detached*
    /// projection of the other view.
    fn branch_loss(
        &mut self,
        batch: &TwoViewBatch,
        ctx: &StepCtx<'_>,
        q: Option<Precision>,
        gs: &mut GradSet,
    ) -> Result<f32, NnError> {
        let fctx = match q {
            Some(p) => ctx.quant_ctx(p),
            None => ForwardCtx::train(),
        };
        let o1 = self.encoder.forward(&batch.view1, &fctx)?;
        let o2 = self.encoder.forward(&batch.view2, &fctx)?;
        let (p1, c1) = self
            .predictor
            .forward(self.encoder.params(), &o1.projection, &fctx)?;
        let (p2, c2) = self
            .predictor
            .forward(self.encoder.params(), &o2.projection, &fctx)?;
        // D(p1, sg(z2)) — gradient flows through p1's branch only.
        let l1 = byol_regression(&p1, &o2.projection)?;
        let l2 = byol_regression(&p2, &o1.projection)?;
        let dz1 = self
            .predictor
            .backward(self.encoder.params(), &c1, &l1.grad_a, gs)?;
        self.encoder.backward_projection(&o1.trace, &dz1, gs)?;
        let dz2 = self
            .predictor
            .backward(self.encoder.params(), &c2, &l2.grad_a, gs)?;
        self.encoder.backward_projection(&o2.trace, &dz2, gs)?;
        Ok(0.5 * (l1.loss + l2.loss))
    }
}

impl SslMethod for SimsiamMethod {
    const TAG: u8 = 2;
    const NAME: &'static str = "simsiam";

    fn params(&self) -> &ParamSet {
        self.encoder.params()
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        self.encoder.params_mut()
    }

    fn compute_loss(
        &mut self,
        batch: &TwoViewBatch,
        ctx: &mut StepCtx<'_>,
        gs: &mut GradSet,
    ) -> Result<f32, NnError> {
        match ctx.cfg().pipeline {
            Pipeline::Baseline => self.branch_loss(batch, ctx, None, gs),
            Pipeline::CqC => {
                let (q1, q2) = ctx.sample_pair()?;
                let mut loss = self.branch_loss(batch, ctx, Some(q1), gs)?;
                loss += self.branch_loss(batch, ctx, Some(q2), gs)?;
                Ok(loss)
            }
            other => Err(NnError::Param(format!(
                "unsupported SimSiam pipeline {other}"
            ))),
        }
    }

    fn probe_encoder(&mut self, _cfg: &PretrainConfig) -> Option<&mut Encoder> {
        Some(&mut self.encoder)
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        let mut v = self.encoder.state_tensors();
        v.extend(self.predictor.state_tensors());
        v
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.encoder.state_tensors_mut();
        v.extend(self.predictor.state_tensors_mut());
        v
    }
}

/// SimSiam self-supervised pre-training, hosting [`Pipeline::Baseline`]
/// and [`Pipeline::CqC`].
pub struct SimsiamTrainer {
    inner: TrainLoop<SimsiamMethod>,
}

impl std::fmt::Debug for SimsiamTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimsiamTrainer(pipeline={}, steps={})",
            self.inner.cfg().pipeline,
            self.inner.steps_taken()
        )
    }
}

impl SimsiamTrainer {
    /// Creates a SimSiam trainer around `encoder` (built with a
    /// batch-normed projection head, as in the reference method).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Param`] for inconsistent configs or pipelines
    /// other than `Baseline` / `CqC`.
    pub fn new(mut encoder: Encoder, cfg: PretrainConfig) -> Result<Self, NnError> {
        cfg.validate().map_err(NnError::Param)?;
        if !matches!(cfg.pipeline, Pipeline::Baseline | Pipeline::CqC) {
            return Err(NnError::Param(format!(
                "SimSiam hosts Baseline and CQ-C; got {}",
                cfg.pipeline
            )));
        }
        // cq-allow(det-rng-ctor): one-shot init stream derived from the run seed, consumed before training
        let mut rng = CqRng::seed_from_u64(cfg.seed ^ 0x51A51);
        let encoder_params = encoder.params().len();
        let pd = encoder.proj_dim();
        let predictor = mlp_head_plan(&HeadConfig::byol(pd, pd / 2 + 1, pd), "pred")
            .build(encoder.params_mut(), &mut rng);
        let loader = TwoViewLoader::new(
            AugmentPipeline::new(AugmentConfig::simclr()),
            cfg.batch_size,
            cfg.seed ^ 0x5151,
        );
        let method = SimsiamMethod {
            encoder,
            predictor,
            encoder_params,
        };
        let inner = TrainLoop::new(method, cfg, loader)?;
        Ok(SimsiamTrainer { inner })
    }

    /// Training diagnostics so far.
    pub fn history(&self) -> &TrainHistory {
        self.inner.history()
    }

    /// Epochs completed so far (survives checkpoint/resume).
    pub fn epochs_done(&self) -> usize {
        self.inner.epochs_done()
    }

    /// Consumes the trainer, returning the encoder with the predictor
    /// stripped.
    pub fn into_encoder(self) -> Encoder {
        let m = self.inner.into_method();
        let mut enc = m.encoder;
        enc.params_mut().truncate(m.encoder_params);
        enc
    }

    /// Runs `cfg.epochs` of SimSiam pre-training.
    ///
    /// # Errors
    ///
    /// Propagates layer/optimizer errors; exploded steps are skipped and
    /// counted.
    pub fn train(&mut self, dataset: &Dataset) -> Result<(), NnError> {
        self.inner.train(dataset)
    }

    /// Runs pre-training until `stop_epoch` epochs are complete (clamped
    /// to `cfg.epochs`); the LR schedule still spans the full run.
    ///
    /// # Errors
    ///
    /// See [`train`](SimsiamTrainer::train).
    pub fn train_until(&mut self, dataset: &Dataset, stop_epoch: usize) -> Result<(), NnError> {
        self.inner.train_until(dataset, stop_epoch)
    }

    /// One optimizer step; `None` when skipped due to explosion.
    ///
    /// # Errors
    ///
    /// Propagates layer/optimizer errors, and [`NnError::Health`] when the
    /// health monitor has latched an abort.
    pub fn step(&mut self, batch: &TwoViewBatch, lr: f32) -> Result<Option<(f32, f32)>, NnError> {
        self.inner.step(batch, lr)
    }

    /// Writes a checkpoint from which [`load_checkpoint`] resumes
    /// bitwise-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on write failure.
    ///
    /// [`load_checkpoint`]: SimsiamTrainer::load_checkpoint
    pub fn save_checkpoint<W: Write>(&self, w: W) -> Result<(), NnError> {
        self.inner.save_checkpoint(w)
    }

    /// Restores a checkpoint written by [`save_checkpoint`]. Fails with a
    /// clean error (and no partial mutation) on corrupt or mismatched
    /// files.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`]/[`NnError::Param`] on invalid checkpoints.
    ///
    /// [`save_checkpoint`]: SimsiamTrainer::save_checkpoint
    pub fn load_checkpoint<R: Read>(&mut self, r: R) -> Result<(), NnError> {
        self.inner.load_checkpoint(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::DatasetConfig;
    use cq_models::{Arch, EncoderConfig};
    use cq_quant::PrecisionSet;

    fn tiny_encoder(seed: u64) -> Encoder {
        Encoder::new(
            &EncoderConfig::new(Arch::ResNet18, 2).with_byol_proj(16, 8),
            seed,
        )
        .unwrap()
    }

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::cifarlike().with_sizes(32, 8)).0
    }

    fn cfg(pipeline: Pipeline) -> PretrainConfig {
        PretrainConfig {
            pipeline,
            precision_set: pipeline
                .needs_precisions()
                .then(|| PrecisionSet::range(6, 16).unwrap()),
            epochs: 1,
            batch_size: 8,
            lr: 0.02,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_simsiam_trains() {
        let mut t = SimsiamTrainer::new(tiny_encoder(1), cfg(Pipeline::Baseline)).unwrap();
        t.train(&tiny_dataset()).unwrap();
        assert!(t.history().final_loss().unwrap().is_finite());
        assert!(t.history().steps > 0);
    }

    #[test]
    fn cqc_simsiam_trains() {
        let mut t = SimsiamTrainer::new(tiny_encoder(2), cfg(Pipeline::CqC)).unwrap();
        t.train(&tiny_dataset()).unwrap();
        assert!(t.history().final_loss().unwrap().is_finite());
    }

    #[test]
    fn into_encoder_strips_predictor() {
        let enc = tiny_encoder(3);
        let n = enc.params().len();
        let mut t = SimsiamTrainer::new(enc, cfg(Pipeline::Baseline)).unwrap();
        t.train(&tiny_dataset()).unwrap();
        let out = t.into_encoder();
        assert_eq!(out.params().len(), n);
        assert!(out.duplicate().is_ok());
    }

    #[test]
    fn unsupported_pipelines_rejected() {
        for p in [
            Pipeline::CqA,
            Pipeline::CqB,
            Pipeline::CqQuant,
            Pipeline::NoiseA,
        ] {
            assert!(SimsiamTrainer::new(tiny_encoder(4), cfg(p)).is_err(), "{p}");
        }
    }
}
