//! SimSiam trainer (Chen & He, ref 12 of the paper): a stop-gradient
//! siamese method with **no negative pairs and no momentum target** —
//! included as an extra baseline to situate Contrastive Quant among the
//! contrastive-learning frameworks it builds on. Implemented as an
//! [`SslMethod`] driven by the shared [`TrainLoop`].
//!
//! The loss is the symmetric negative cosine similarity
//! `L = D(p1, sg(z2))/2 + D(p2, sg(z1))/2` with `p = predictor(z)`; we
//! reuse [`crate::byol_regression`] (`2 − 2·cos` has the same gradient
//! direction as `−cos`, scaled by 2). CQ-C sums this loss at the two
//! sampled precisions, `L_q1 + L_q2`: the per-precision view-consistency
//! terms only. Unlike BYOL's CQ-C, it has no cross-precision term.

use cq_data::TwoViewBatch;
use cq_models::plan::mlp_head_plan;
use cq_models::{Encoder, HeadConfig};
use cq_nn::{ForwardCtx, GradSet, Layer, NnError, Sequential};
use cq_quant::Precision;
use cq_tensor::{CqRng, Tensor};
use rand::SeedableRng;

use crate::engine::{SslMethod, StepCtx, TrainLoop};
use crate::{byol_regression, Pipeline, PretrainConfig};

/// SimSiam self-supervised pre-training, hosting [`Pipeline::Baseline`]
/// and [`Pipeline::CqC`].
pub type SimsiamTrainer = TrainLoop<SimsiamMethod>;

/// SimSiam's per-step loss semantics: symmetric stop-gradient regression
/// of each view's prediction onto the other view's detached projection.
pub struct SimsiamMethod {
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
    const LOADER_SALT: u64 = 0x5151;

    /// Registers the prediction head into the encoder's parameter set
    /// (`encoder` should carry a batch-normed projection head, as in the
    /// reference method). SimSiam hosts `Baseline` and `CqC`.
    fn build(mut encoder: Encoder, cfg: &PretrainConfig) -> Result<Self, NnError> {
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
        Ok(SimsiamMethod {
            encoder,
            predictor,
            encoder_params,
        })
    }

    fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    fn encoder_mut(&mut self) -> &mut Encoder {
        &mut self.encoder
    }

    fn into_encoder(mut self) -> Encoder {
        self.encoder.params_mut().truncate(self.encoder_params);
        self.encoder
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

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::{Dataset, DatasetConfig};
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
