//! BYOL (online/target networks) with Contrastive Quant support, as an
//! [`SslMethod`] driven by the shared [`TrainLoop`].
//!
//! Per §3.4 of the paper, adapting Contrastive Quant to BYOL means:
//! (1) the NCE loss becomes BYOL's normalized-MSE regression loss;
//! (2) a projection head *and* prediction head follow the encoder;
//! (3) gradients are stopped along the target network, and both views pass
//! through online and target networks alternately (the symmetric loss).
//!
//! CQ-C on BYOL adds, on top of the per-precision view-consistency terms,
//! cross-precision consistency between the online projections of the same
//! view under `q1` vs `q2` (the direct analogue of Eq. 9's
//! `NCE(f1, f2) + NCE(f1⁺, f2⁺)` terms); each cross term is applied
//! symmetrically with a stop-gradient on the opposite branch.

use cq_data::TwoViewBatch;
use cq_models::plan::mlp_head_plan;
use cq_models::{Encoder, HeadConfig};
use cq_nn::{ForwardCtx, GradSet, Layer, NnError, Sequential};
use cq_quant::Precision;
use cq_tensor::{CqRng, Tensor};
use rand::SeedableRng;

use crate::engine::{SslMethod, StepCtx, TrainLoop};
use crate::{byol_regression, Pipeline, PretrainConfig};

/// BYOL self-supervised pre-training, hosting the [`Pipeline::Baseline`]
/// and [`Pipeline::CqC`] variants evaluated in Table 6 of the paper.
pub type ByolTrainer = TrainLoop<ByolMethod>;

/// BYOL's per-step loss semantics: symmetric normalized-MSE regression of
/// online predictions onto stop-gradient target projections, with an EMA
/// target update after each optimizer step.
pub struct ByolMethod {
    online: Encoder,
    predictor: Sequential,
    /// Parameter count of the online encoder before the predictor was
    /// registered; used to strip the predictor in `into_encoder`.
    encoder_params: usize,
    target: Encoder,
}

impl ByolMethod {
    /// Symmetric BYOL loss at one precision: both views pass through the
    /// online network (with predictor) against the target's other view.
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
        let mut total = 0.0f32;
        for (va, vb) in [(&batch.view1, &batch.view2), (&batch.view2, &batch.view1)] {
            let online_out = self.online.forward(va, &fctx)?;
            let (p, pred_cache) =
                self.predictor
                    .forward(self.online.params(), &online_out.projection, &fctx)?;
            // stop-gradient: target forward is never backpropagated
            let t = self.target.forward(vb, &fctx)?;
            let pl = byol_regression(&p, &t.projection)?;
            total += pl.loss;
            let dz = self
                .predictor
                .backward(self.online.params(), &pred_cache, &pl.grad_a, gs)?;
            self.online
                .backward_projection(&online_out.trace, &dz, gs)?;
        }
        Ok(total)
    }

    /// Cross-precision consistency on online projections of one view,
    /// applied symmetrically with a stop-gradient on the opposite branch.
    fn cross_precision_loss(
        &mut self,
        view: &Tensor,
        ctx: &StepCtx<'_>,
        q1: Precision,
        q2: Precision,
        gs: &mut GradSet,
    ) -> Result<f32, NnError> {
        let c1 = ctx.quant_ctx(q1);
        let c2 = ctx.quant_ctx(q2);
        let o1 = self.online.forward(view, &c1)?;
        let o2 = self.online.forward(view, &c2)?;
        let l12 = byol_regression(&o1.projection, &o2.projection)?;
        let l21 = byol_regression(&o2.projection, &o1.projection)?;
        self.online
            .backward_projection(&o1.trace, &l12.grad_a, gs)?;
        self.online
            .backward_projection(&o2.trace, &l21.grad_a, gs)?;
        Ok(0.5 * (l12.loss + l21.loss))
    }
}

impl SslMethod for ByolMethod {
    const TAG: u8 = 1;
    const NAME: &'static str = "byol";
    const LOADER_SALT: u64 = 0xB0B0;

    /// Registers a prediction head of the projector's shape into the
    /// online parameter set (`online` should carry a BYOL-style
    /// projection head); the target network starts as an exact copy.
    /// BYOL hosts `Baseline` and `CqC`, the variants in the paper's
    /// Table 6.
    fn build(mut online: Encoder, cfg: &PretrainConfig) -> Result<Self, NnError> {
        if !matches!(cfg.pipeline, Pipeline::Baseline | Pipeline::CqC) {
            return Err(NnError::Param(format!(
                "BYOL hosts Baseline and CQ-C (paper Tab. 6); got {}",
                cfg.pipeline
            )));
        }
        // cq-allow(det-rng-ctor): one-shot init stream derived from the run seed, consumed before training
        let mut rng = CqRng::seed_from_u64(cfg.seed ^ 0x1234);
        // Duplicate into the target BEFORE registering the predictor: the
        // target network has no prediction head.
        let target = online.duplicate()?;
        let encoder_params = online.params().len();
        let pd = online.proj_dim();
        let predictor = mlp_head_plan(&HeadConfig::byol(pd, pd * 2, pd), "pred")
            .build(online.params_mut(), &mut rng);
        Ok(ByolMethod {
            online,
            predictor,
            encoder_params,
            target,
        })
    }

    fn encoder(&self) -> &Encoder {
        &self.online
    }

    fn encoder_mut(&mut self) -> &mut Encoder {
        &mut self.online
    }

    fn into_encoder(mut self) -> Encoder {
        self.online.params_mut().truncate(self.encoder_params);
        self.online
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
                // View-consistency at each precision (Eq. 9 terms 1+2).
                let mut loss = self.branch_loss(batch, ctx, Some(q1), gs)?;
                loss += self.branch_loss(batch, ctx, Some(q2), gs)?;
                // Cross-precision consistency within each view (terms 3+4).
                loss += self.cross_precision_loss(&batch.view1, ctx, q1, q2, gs)?;
                loss += self.cross_precision_loss(&batch.view2, ctx, q1, q2, gs)?;
                Ok(loss)
            }
            other => Err(NnError::Param(format!("unsupported BYOL pipeline {other}"))),
        }
    }

    fn after_step(&mut self, cfg: &PretrainConfig) -> Result<(), NnError> {
        self.target.ema_update_from(&self.online, cfg.ema_tau)
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        let mut v = self.online.state_tensors();
        v.extend(self.predictor.state_tensors());
        v
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.online.state_tensors_mut();
        v.extend(self.predictor.state_tensors_mut());
        v
    }

    fn target(&self) -> Option<&Encoder> {
        Some(&self.target)
    }

    fn target_mut(&mut self) -> Option<&mut Encoder> {
        Some(&mut self.target)
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
    fn baseline_byol_trains() {
        let mut t = ByolTrainer::new(tiny_encoder(1), cfg(Pipeline::Baseline)).unwrap();
        t.train(&tiny_dataset()).unwrap();
        assert!(t.history().final_loss().unwrap().is_finite());
        assert!(t.history().steps > 0);
    }

    #[test]
    fn cqc_byol_trains() {
        let mut t = ByolTrainer::new(tiny_encoder(2), cfg(Pipeline::CqC)).unwrap();
        t.train(&tiny_dataset()).unwrap();
        assert!(t.history().final_loss().unwrap().is_finite());
    }

    #[test]
    fn unsupported_pipelines_rejected() {
        for p in [Pipeline::CqA, Pipeline::CqB, Pipeline::CqQuant] {
            assert!(ByolTrainer::new(tiny_encoder(3), cfg(p)).is_err(), "{p}");
        }
    }

    #[test]
    fn ema_moves_target() {
        let mut t = ByolTrainer::new(tiny_encoder(4), cfg(Pipeline::Baseline)).unwrap();
        let sums = |t: &ByolTrainer| -> Vec<f32> {
            let mut ckpt = Vec::new();
            t.save_checkpoint(&mut ckpt).unwrap();
            let (target, _) = crate::TrainState::read(ckpt.as_slice())
                .unwrap()
                .target
                .unwrap();
            target.iter().map(|(_, _, p)| p.sum()).collect()
        };
        let before = sums(&t);
        t.train(&tiny_dataset()).unwrap();
        let after = sums(&t);
        assert_ne!(before, after, "EMA must move target parameters");
    }

    #[test]
    fn byol_loss_decreases() {
        let mut c = cfg(Pipeline::Baseline);
        c.epochs = 5;
        let mut t = ByolTrainer::new(tiny_encoder(5), c).unwrap();
        t.train(&tiny_dataset()).unwrap();
        let l = &t.history().epoch_losses;
        assert!(l.last().unwrap() <= l.first().unwrap(), "{l:?}");
    }
}
