//! Detection transfer training: fine-tune a pretrained encoder + fresh
//! YOLO head on the synthetic detection set (the paper's Tab. 3 protocol).

use cq_models::Encoder;
use cq_nn::{CosineSchedule, ForwardCtx, Layer, NnError, Sgd, SgdConfig};
use cq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{decode_predictions, evaluate_detections, nms, yolo_loss, DetDataset, DetMetrics};

/// Detector fine-tuning hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (cosine-decayed).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Confidence threshold for decoding at evaluation.
    pub conf_thresh: f32,
    /// IoU threshold for NMS at evaluation.
    pub nms_thresh: f32,
    /// Seed for head init and batch order.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            epochs: 15,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            conf_thresh: 0.3,
            nms_thresh: 0.45,
            seed: 21,
        }
    }
}

/// Transfers a pretrained encoder to the detection task: duplicates the
/// encoder, attaches a fresh head built from [`crate::head_plan`],
/// fine-tunes end-to-end and returns test-set AP metrics.
///
/// The input encoder is left untouched.
///
/// # Errors
///
/// Propagates layer/optimizer errors.
pub fn train_detector(
    encoder: &Encoder,
    train: &DetDataset,
    test: &DetDataset,
    cfg: &DetectorConfig,
) -> Result<DetMetrics, NnError> {
    // cq-allow(det-rng-ctor): detection transfer is a short un-checkpointed eval; its stream replays from cfg.seed
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = encoder.duplicate()?;
    let channels = model.feat_dim(); // spatial channels == feature dim
    let plan = crate::head_plan(channels, train.num_classes())
        .and_then(|p| p.infer(&[2, channels, 4, 4]).map(|_| p))
        .map_err(|e| NnError::Param(format!("invalid detection head config: {e}")))?;
    let mut head = plan.build(model.params_mut(), &mut rng);
    let mut opt = Sgd::new(
        model.params(),
        SgdConfig {
            lr: cfg.lr,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            nesterov: false,
        },
    );
    let bs = cfg.batch_size.min(train.len()).max(1);
    let steps_per_epoch = (train.len() / bs).max(1);
    let sched = CosineSchedule::new(cfg.lr, cfg.epochs * steps_per_epoch, 0);
    let train_ctx = ForwardCtx::train();
    let mut step = 0usize;
    for _ in 0..cfg.epochs {
        let order = Tensor::permutation(train.len(), &mut rng);
        for chunk in order.chunks(bs) {
            if chunk.len() < 2 {
                continue; // BatchNorm in the head needs batch statistics
            }
            let (x, gts) = train.batch(chunk);
            let (spatial, sp_cache) = model.forward_spatial(&x, &train_ctx)?;
            let (raw, head_cache) = head.forward(model.params(), &spatial, &train_ctx)?;
            let (_, draw) = yolo_loss(&raw, &gts, train.num_classes())?;
            let mut gs = model.params().zero_grads();
            let dspatial = head.backward(model.params(), &head_cache, &draw, &mut gs)?;
            model.backward_spatial(&sp_cache, &dspatial, &mut gs)?;
            if gs.is_finite() {
                opt.step(model.params_mut(), &gs, sched.lr_at(step))?;
            }
            step += 1;
        }
    }

    // Evaluation on the test split.
    let eval_ctx = ForwardCtx::eval();
    let mut all_preds = Vec::with_capacity(test.len());
    let mut all_gts = Vec::with_capacity(test.len());
    let mut i = 0;
    while i < test.len() {
        let end = (i + bs).min(test.len());
        let idxs: Vec<usize> = (i..end).collect();
        let (x, gts) = test.batch(&idxs);
        let (spatial, _) = model.forward_spatial(&x, &eval_ctx)?;
        let (raw, _) = head.forward(model.params(), &spatial, &eval_ctx)?;
        let decoded = decode_predictions(&raw, test.num_classes(), cfg.conf_thresh);
        for preds in decoded {
            let boxes: Vec<_> = preds.iter().map(|p| p.bbox).collect();
            let scores: Vec<_> = preds.iter().map(|p| p.score).collect();
            let classes: Vec<_> = preds.iter().map(|p| p.class).collect();
            let keep = nms(&boxes, &scores, &classes, cfg.nms_thresh);
            all_preds.push(keep.into_iter().map(|k| preds[k]).collect::<Vec<_>>());
        }
        all_gts.extend(gts);
        i = end;
    }
    Ok(evaluate_detections(
        &all_preds,
        &all_gts,
        test.num_classes(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionConfig;
    use cq_models::{Arch, EncoderConfig};

    #[test]
    fn detector_learns_something_small_scale() {
        let enc = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 4), 0).unwrap();
        let (train, test) = DetDataset::generate(&DetectionConfig::default().with_sizes(64, 24));
        let cfg = DetectorConfig {
            epochs: 8,
            batch_size: 16,
            ..Default::default()
        };
        let m = train_detector(&enc, &train, &test, &cfg).unwrap();
        assert!(m.ap50.is_finite());
        assert!(m.ap50 >= 0.0 && m.ap50 <= 100.0);
        assert!(
            m.ap <= m.ap50 + 1e-3,
            "AP averages stricter thresholds: {m}"
        );
    }

    #[test]
    fn detector_does_not_mutate_input_encoder() {
        let enc = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 2), 1).unwrap();
        let before: f32 = enc.params().iter().map(|(_, _, t)| t.sum()).sum();
        let (train, test) = DetDataset::generate(&DetectionConfig::default().with_sizes(16, 8));
        let cfg = DetectorConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        };
        train_detector(&enc, &train, &test, &cfg).unwrap();
        let after: f32 = enc.params().iter().map(|(_, _, t)| t.sum()).sum();
        assert_eq!(before, after);
    }
}
