//! SimCLR with the Contrastive Quant pipelines: NT-Xent over the
//! pipeline's quantized or noisy forward branches, as an [`SslMethod`]
//! driven by the shared [`TrainLoop`].

use cq_data::{AugmentConfig, Dataset, TwoViewBatch};
use cq_models::Encoder;
use cq_nn::{ForwardCtx, GradSet, NnError};
use cq_tensor::Tensor;

use crate::engine::{SslMethod, StepCtx, TrainLoop};
use crate::{nt_xent, Pipeline, PretrainConfig};

/// Self-supervised pre-training with SimCLR's NT-Xent objective, hosting
/// every [`Pipeline`] variant of the paper.
///
/// # Example
///
/// ```no_run
/// use cq_core::{SimclrTrainer, PretrainConfig, Pipeline};
/// use cq_models::{Arch, Encoder, EncoderConfig};
/// use cq_data::{Dataset, DatasetConfig};
/// use cq_quant::PrecisionSet;
///
/// let enc = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 4).with_proj(32, 16), 0)?;
/// let cfg = PretrainConfig {
///     pipeline: Pipeline::CqC,
///     precision_set: Some(PrecisionSet::range(6, 16)?),
///     epochs: 5,
///     ..Default::default()
/// };
/// let (train, _) = Dataset::generate(&DatasetConfig::cifarlike());
/// let mut trainer = SimclrTrainer::new(enc, cfg)?;
/// trainer.train(&train)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type SimclrTrainer = TrainLoop<SimclrMethod>;

/// SimCLR's per-step loss semantics: NT-Xent over the pipeline-specific
/// combination of quantized/noisy forward branches.
pub struct SimclrMethod {
    encoder: Encoder,
}

impl SimclrMethod {
    /// `NCE(F_c1(va), F_c2(vb))`: two branches, backward in branch order.
    fn two_branches(
        &mut self,
        [c1, c2]: [ForwardCtx; 2],
        [va, vb]: [&Tensor; 2],
        temp: f32,
        gs: &mut GradSet,
    ) -> Result<f32, NnError> {
        let o1 = self.encoder.forward(va, &c1)?;
        let o2 = self.encoder.forward(vb, &c2)?;
        let pl = nt_xent(&o1.projection, &o2.projection, temp)?;
        self.encoder
            .backward_projection(&o1.trace, &pl.grad_a, gs)?;
        self.encoder
            .backward_projection(&o2.trace, &pl.grad_b, gs)?;
        Ok(pl.loss)
    }

    /// Four branches `f_i = F_ci(view1)`, `f_i⁺ = F_ci(view2)`:
    /// `NCE(f1, f1⁺) + NCE(f2, f2⁺)` (Eq. 8), plus with `cross` the
    /// cross-context terms `NCE(f1, f2) + NCE(f1⁺, f2⁺)` (Eq. 9).
    fn four_branches(
        &mut self,
        [c1, c2]: [ForwardCtx; 2],
        batch: &TwoViewBatch,
        cross: bool,
        temp: f32,
        gs: &mut GradSet,
    ) -> Result<f32, NnError> {
        let f1 = self.encoder.forward(&batch.view1, &c1)?;
        let f2 = self.encoder.forward(&batch.view1, &c2)?;
        let f1p = self.encoder.forward(&batch.view2, &c1)?;
        let f2p = self.encoder.forward(&batch.view2, &c2)?;
        let t1 = nt_xent(&f1.projection, &f1p.projection, temp)?;
        let t2 = nt_xent(&f2.projection, &f2p.projection, temp)?;
        if !cross {
            // Each branch is in one term: walk f1, f1⁺, f2, f2⁺.
            for (o, g) in [
                (&f1, &t1.grad_a),
                (&f1p, &t1.grad_b),
                (&f2, &t2.grad_a),
                (&f2p, &t2.grad_b),
            ] {
                self.encoder.backward_projection(&o.trace, g, gs)?;
            }
            return Ok(t1.loss + t2.loss);
        }
        let t3 = nt_xent(&f1.projection, &f2.projection, temp)?;
        let t4 = nt_xent(&f1p.projection, &f2p.projection, temp)?;
        // Each branch is in two terms; sum its gradients before walking
        // the traces once, in the order f1, f2, f1⁺, f2⁺.
        let grads = [
            t1.grad_a.add(&t3.grad_a)?,
            t2.grad_a.add(&t3.grad_b)?,
            t1.grad_b.add(&t4.grad_a)?,
            t2.grad_b.add(&t4.grad_b)?,
        ];
        for (o, g) in [&f1, &f2, &f1p, &f2p].into_iter().zip(&grads) {
            self.encoder.backward_projection(&o.trace, g, gs)?;
        }
        Ok(t1.loss + t2.loss + t3.loss + t4.loss)
    }
}

impl SslMethod for SimclrMethod {
    const TAG: u8 = 0;
    const NAME: &'static str = "simclr";
    const LOADER_SALT: u64 = 0xA5A5;

    fn build(encoder: Encoder, _cfg: &PretrainConfig) -> Result<Self, NnError> {
        Ok(SimclrMethod { encoder })
    }

    /// [`Pipeline::CqQuant`] disables input augmentations (§4.5);
    /// everything else uses SimCLR-strength augmentations.
    fn augment(cfg: &PretrainConfig) -> AugmentConfig {
        if cfg.pipeline == Pipeline::CqQuant {
            AugmentConfig::none()
        } else {
            AugmentConfig::simclr()
        }
    }

    fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    fn encoder_mut(&mut self) -> &mut Encoder {
        &mut self.encoder
    }

    fn into_encoder(self) -> Encoder {
        self.encoder
    }

    fn compute_loss(
        &mut self,
        batch: &TwoViewBatch,
        ctx: &mut StepCtx<'_>,
        gs: &mut GradSet,
    ) -> Result<f32, NnError> {
        let pipeline = ctx.cfg().pipeline;
        let temp = ctx.cfg().temperature;
        let fctx = match pipeline {
            Pipeline::Baseline => [ForwardCtx::train(), ForwardCtx::train()],
            Pipeline::CqA | Pipeline::CqB | Pipeline::CqC | Pipeline::CqQuant => {
                let (q1, q2) = ctx.sample_pair()?;
                [ctx.quant_ctx(q1), ctx.quant_ctx(q2)]
            }
            // Gaussian weight noise as the model-side augmentation (the
            // paper's future-work direction, §4.2).
            Pipeline::NoiseA | Pipeline::NoiseC => {
                let (s1, s2) = (ctx.noise_seed(), ctx.noise_seed());
                [ctx.noise_ctx(s1), ctx.noise_ctx(s2)]
            }
        };
        let views = [&batch.view1, &batch.view2];
        match pipeline {
            Pipeline::Baseline | Pipeline::CqA | Pipeline::NoiseA => {
                self.two_branches(fctx, views, temp, gs)
            }
            // The loader produced identical views; quantization is the
            // only view-maker.
            Pipeline::CqQuant => self.two_branches(fctx, [&batch.view1; 2], temp, gs),
            Pipeline::CqB => self.four_branches(fctx, batch, false, temp, gs),
            Pipeline::CqC | Pipeline::NoiseC => self.four_branches(fctx, batch, true, temp, gs),
        }
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        self.encoder.state_tensors()
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        self.encoder.state_tensors_mut()
    }
}

/// Extracts all features of a dataset with the given encoder (eval mode,
/// full precision) — shared by the evaluation harness and examples.
///
/// # Errors
///
/// Propagates layer errors.
pub fn extract_features(
    encoder: &mut Encoder,
    dataset: &Dataset,
    batch_size: usize,
) -> Result<(Tensor, Vec<usize>), NnError> {
    let mut feats: Vec<f32> = Vec::with_capacity(dataset.len() * encoder.feat_dim());
    let mut labels = Vec::with_capacity(dataset.len());
    let ctx = ForwardCtx::eval();
    let mut i = 0;
    while i < dataset.len() {
        let end = (i + batch_size).min(dataset.len());
        let idxs: Vec<usize> = (i..end).collect();
        let (x, l) = dataset.batch(&idxs);
        let h = encoder.features(&x, &ctx)?;
        feats.extend_from_slice(h.as_slice());
        labels.extend(l);
        i = end;
    }
    let d = encoder.feat_dim();
    Ok((Tensor::from_vec(feats, &[dataset.len(), d])?, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::DatasetConfig;
    use cq_models::{Arch, EncoderConfig};
    use cq_quant::PrecisionSet;

    fn tiny_encoder(seed: u64) -> Encoder {
        Encoder::new(
            &EncoderConfig::new(Arch::ResNet18, 2).with_proj(16, 8),
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
    fn every_pipeline_trains_one_epoch() {
        let ds = tiny_dataset();
        for pipeline in Pipeline::all() {
            let mut t = SimclrTrainer::new(tiny_encoder(1), cfg(pipeline)).unwrap();
            t.train(&ds).unwrap();
            let h = t.history();
            assert_eq!(h.epoch_losses.len(), 1, "{pipeline}");
            assert!(h.final_loss().unwrap().is_finite(), "{pipeline}");
            assert!(h.steps > 0, "{pipeline}");
            assert_eq!(t.epochs_done(), 1, "{pipeline}");
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let ds = tiny_dataset();
        let mut c = cfg(Pipeline::Baseline);
        c.epochs = 6;
        let mut t = SimclrTrainer::new(tiny_encoder(2), c).unwrap();
        t.train(&ds).unwrap();
        let l = &t.history().epoch_losses;
        assert!(
            l.last().unwrap() < l.first().unwrap(),
            "loss should decrease: {l:?}"
        );
    }

    #[test]
    fn quantized_pipeline_requires_precision_set() {
        let mut c = cfg(Pipeline::CqA);
        c.precision_set = None;
        assert!(SimclrTrainer::new(tiny_encoder(3), c).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let ds = tiny_dataset();
        let run = || {
            let mut t = SimclrTrainer::new(tiny_encoder(4), cfg(Pipeline::CqC)).unwrap();
            t.train(&ds).unwrap();
            t.history().final_loss().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn noise_pipelines_train() {
        let ds = tiny_dataset();
        for pipeline in Pipeline::extensions() {
            let c = PretrainConfig {
                pipeline,
                precision_set: None,
                noise_std: 0.05,
                epochs: 1,
                batch_size: 8,
                lr: 0.02,
                ..Default::default()
            };
            let mut t = SimclrTrainer::new(tiny_encoder(11), c).unwrap();
            t.train(&ds).unwrap();
            assert!(t.history().final_loss().unwrap().is_finite(), "{pipeline}");
        }
    }

    #[test]
    fn cyclic_sampling_trains_and_differs_from_uniform() {
        let ds = tiny_dataset();
        let run = |sampling| {
            let c = PretrainConfig {
                sampling,
                ..cfg(Pipeline::CqC)
            };
            let mut t = SimclrTrainer::new(tiny_encoder(12), c).unwrap();
            t.train(&ds).unwrap();
            t.history().final_loss().unwrap()
        };
        let u = run(crate::PrecisionSampling::Uniform);
        let cy = run(crate::PrecisionSampling::Cyclic);
        assert!(u.is_finite() && cy.is_finite());
        assert_ne!(u, cy, "different sampling schedules should diverge");
    }

    #[test]
    fn floor_mode_trains() {
        let ds = tiny_dataset();
        let c = PretrainConfig {
            quant_mode: cq_quant::QuantMode::Floor,
            ..cfg(Pipeline::CqC)
        };
        let mut t = SimclrTrainer::new(tiny_encoder(13), c).unwrap();
        t.train(&ds).unwrap();
        assert!(t.history().final_loss().unwrap().is_finite());
    }

    #[test]
    fn partial_training_resumes_to_same_loss() {
        let ds = tiny_dataset();
        let mut full = SimclrTrainer::new(tiny_encoder(6), cfg(Pipeline::CqA)).unwrap();
        let mut c2 = cfg(Pipeline::CqA);
        c2.epochs = 1; // same schedule; train_until splits the epoch loop
        let mut split = SimclrTrainer::new(tiny_encoder(6), c2).unwrap();
        full.train(&ds).unwrap();
        split.train_until(&ds, 0).unwrap();
        assert_eq!(split.epochs_done(), 0);
        split.train(&ds).unwrap();
        assert_eq!(full.history().epoch_losses, split.history().epoch_losses);
    }

    #[test]
    fn extract_features_shapes() {
        let ds = tiny_dataset();
        let mut enc = tiny_encoder(5);
        let (f, labels) = extract_features(&mut enc, &ds, 8).unwrap();
        assert_eq!(f.dims(), &[32, enc.feat_dim()]);
        assert_eq!(labels.len(), 32);
        assert!(f.is_finite());
    }
}
