//! A training step copies activations channel-minor only in the
//! reductions that need one chain per channel.
//!
//! The depthwise forward and input gradient run on the image lanes in
//! place, so `tensor.lanes.transposed_elems` counts only the depthwise
//! weight gradient's copies of `X` and `dY` (`N·C·(H·W + OH·OW)` per
//! layer) and the BatchNorm2d `dgamma`/`dbeta` copies of `dY` and `xhat`
//! (`2·N·16⌊C/16⌋·H·W` per layer: whole groups of 16 channels only). One
//! CQ-A step of MobileNetV2 w2 at batch 32 (two encoder backwards) pins
//! that total, from the network's layer shapes. The count depends on
//! shapes alone, so it is the same at every thread count.
//!
//! Single `#[test]` in its own file: the counters are process-global.

use std::sync::Arc;

use cq_core::{Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{AugmentConfig, AugmentPipeline, Dataset, DatasetConfig, TwoViewLoader};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_quant::PrecisionSet;

fn transposed_elems() -> u64 {
    cq_obs::counter_totals()
        .into_iter()
        .find(|&(name, _)| name == "tensor.lanes.transposed_elems")
        .map_or(0, |(_, total)| total)
}

/// Per image and encoder backward: each depthwise layer of MobileNetV2
/// w2 on a 16×16 input as `(C, H·W, OH·OW)`. The stem and the first
/// block run at 16×16, the 2w stage at 8×8 and the 4w stage at 4×4.
const DEPTHWISE: [(u64, u64, u64); 5] = [
    (2, 256, 256), // ir0.0: t = 1, stride 1
    (12, 256, 64), // ir1.0: 6 × 2, stride 2
    (24, 64, 64),  // ir1.1: 6 × 4
    (24, 64, 16),  // ir2.0: 6 × 4, stride 2
    (48, 16, 16),  // ir2.1: 6 × 8
];

/// Each BatchNorm2d with at least 16 channels as `(C, H·W)`: the 24- and
/// 48-channel expansions and depthwise outputs, and the 16-channel head.
const BATCH_NORM: [(u64, u64); 7] = [
    (24, 64), // ir1.1 expand
    (24, 64), // ir1.1 dw
    (24, 64), // ir2.0 expand
    (24, 16), // ir2.0 dw
    (48, 16), // ir2.1 expand
    (48, 16), // ir2.1 dw
    (16, 16), // head
];

/// Elements one image's encoder backward copies channel-minor.
fn per_image() -> u64 {
    let dw: u64 = DEPTHWISE.iter().map(|&(c, hw, p)| c * (hw + p)).sum();
    let bn: u64 = BATCH_NORM
        .iter()
        .map(|&(c, hw)| 2 * (c / 16 * 16) * hw)
        .sum();
    dw + bn
}

#[test]
fn a_step_copies_channel_minor_only_for_the_per_channel_sums() {
    const BATCH: usize = 32;
    cq_obs::reset();
    cq_obs::install(Arc::new(MemorySink::new()));
    let encoder = Encoder::new(
        &EncoderConfig::new(Arch::MobileNetV2, 2).with_proj(16, 8),
        7,
    )
    .expect("encoder construction");
    let cfg = PretrainConfig {
        pipeline: Pipeline::CqA,
        precision_set: Some(PrecisionSet::range(6, 16).expect("valid range")),
        batch_size: BATCH,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    };
    let (train, _test) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(BATCH, 8));
    let mut loader = TwoViewLoader::new(AugmentPipeline::new(AugmentConfig::simclr()), BATCH, 7);
    let mut trainer = SimclrTrainer::new(encoder, cfg).expect("trainer construction");
    let idx: Vec<usize> = (0..BATCH).collect();
    let views = loader.make_batch(&train, &idx);
    let before = transposed_elems();
    trainer.step(&views, 0.02).expect("step");
    let got = transposed_elems() - before;
    cq_obs::uninstall();
    if std::env::var("CQ_GOLDEN_PRINT").is_ok() {
        eprintln!("MobileNetV2 CQ-A step: {got}");
    }
    // Two encoder backwards of 32 images.
    assert_eq!(got, 2 * BATCH as u64 * per_image());
    // The same total as a literal, so a change of the network shows too.
    assert_eq!(got, MBV2_STEP);
}

/// `2 · 32 · (11,392 + 10,240)`.
const MBV2_STEP: u64 = 1_384_448;
