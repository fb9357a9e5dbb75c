//! A training step converts between NCHW and the lane layout only at the
//! encoder's boundaries.
//!
//! Inside an encoder, activations stay in the image-minor lane layout
//! (`cq_tensor::lanes`) from the stem's input to the global pool, so the
//! only elements `tensor.conv.lane_elems` counts in a step are each
//! forward's input batch (`N·3·H·W`, converted into lanes) and its pooled
//! features (`N·F`, the pool's exit). One CQ-C step of ResNet-18 w2 at
//! batch 8 (four encoder forwards, a partial lane block) and one CQ-A step
//! of MobileNetV2 w2 at batch 32 (two forwards) pin that total. The count
//! depends on shapes alone, so it is the same at every thread count.
//!
//! Single `#[test]` in its own file: the counters are process-global.

use std::sync::Arc;

use cq_core::{Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{AugmentConfig, AugmentPipeline, Dataset, DatasetConfig, TwoViewLoader};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_quant::PrecisionSet;

fn lane_elems() -> u64 {
    cq_obs::counter_totals()
        .into_iter()
        .find(|&(name, _)| name == "tensor.conv.lane_elems")
        .map_or(0, |(_, total)| total)
}

/// `tensor.conv.lane_elems` of one training step of `arch` w2 under
/// `pipeline` at `batch` images, and the count its encoder boundaries
/// alone give: `forwards` times the input batch and the features.
fn one_step(arch: Arch, pipeline: Pipeline, batch: usize, forwards: u64) -> (u64, u64) {
    let encoder = Encoder::new(&EncoderConfig::new(arch, 2).with_proj(16, 8), 7)
        .expect("encoder construction");
    let feat = encoder.feat_dim();
    let cfg = PretrainConfig {
        pipeline,
        precision_set: Some(PrecisionSet::range(6, 16).expect("valid range")),
        batch_size: batch,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    };
    let (train, _test) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(batch, 8));
    let mut loader = TwoViewLoader::new(AugmentPipeline::new(AugmentConfig::simclr()), batch, 7);
    let mut trainer = SimclrTrainer::new(encoder, cfg).expect("trainer construction");
    let idx: Vec<usize> = (0..batch).collect();
    let views = loader.make_batch(&train, &idx);
    let input = views.view1.len() as u64;
    let before = lane_elems();
    trainer.step(&views, 0.02).expect("step");
    let boundaries = forwards * (input + (batch * feat) as u64);
    (lane_elems() - before, boundaries)
}

#[test]
fn a_step_moves_elements_between_layouts_only_at_the_encoder_boundary() {
    cq_obs::reset();
    cq_obs::install(Arc::new(MemorySink::new()));
    let r18 = one_step(Arch::ResNet18, Pipeline::CqC, 8, 4);
    let mbv2 = one_step(Arch::MobileNetV2, Pipeline::CqA, 32, 2);
    cq_obs::uninstall();
    if std::env::var("CQ_GOLDEN_PRINT").is_ok() {
        eprintln!("ResNet-18 {r18:?}, MobileNetV2 {mbv2:?}");
    }
    assert_eq!(r18.0, r18.1, "ResNet-18 CQ-C, batch 8");
    assert_eq!(mbv2.0, mbv2.1, "MobileNetV2 CQ-A, batch 32");
    // The same totals as literals, so a change of input or feature size
    // shows too.
    assert_eq!((r18.0, mbv2.0), (R18_STEP, MBV2_STEP));
}

/// Four forwards of 8 images of 3×16×16 and their 16 features.
const R18_STEP: u64 = 4 * 8 * (3 * 16 * 16 + 16);
/// Two forwards of 32 images of 3×16×16 and their 16 features.
const MBV2_STEP: u64 = 2 * 32 * (3 * 16 * 16 + 16);
