//! MobileNetV2 golden trace: a 3-step CQ-A pretrain on MobileNetV2 w2
//! must reproduce the exact per-step loss bits, the exact sampled
//! bit-width sequence and an FNV-1a hash of every final parameter's bits.
//!
//! This is the golden that runs depthwise convolutions (channels 2, 12,
//! 24 and 48, strides 1 and 2). The batch of 32 puts 4 images in each of
//! the 8 weight-gradient bands, so the band partials' running sum over
//! several images is pinned too. There is no tolerance: any change in a
//! kernel's summation order shows up here.
//!
//! Run with `CQ_GOLDEN_PRINT=1 -- --nocapture` to print current values
//! when intentionally re-baselining.
//!
//! Single `#[test]` in its own file: the sink is process-global. CI runs
//! it at `CQ_THREADS=1` and `4` and expects identical values.

use std::sync::Arc;

use cq_core::{Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{Dataset, DatasetConfig};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_obs::Event;
use cq_quant::PrecisionSet;

// Recorded before depthwise convolution moved onto channel lanes; the
// lanes must reproduce them bit for bit. Identical at CQ_THREADS = 1 and 4.
// Losses 4.1185346, 4.1202207, 4.1500378.
const GOLDEN_LOSS_BITS: [u32; 3] = [0x4083_cb09, 0x4083_d8d9, 0x4084_cd1c];
const GOLDEN_BITS: [u32; 6] = [6, 7, 13, 10, 16, 11];
const GOLDEN_PARAM_HASH: u64 = 0x1605_1943_ff10_9c8e;

/// FNV-1a over the little-endian bytes of every parameter, in
/// registration order.
fn param_hash(enc: &Encoder) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, _, t) in enc.params().iter() {
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn three_step_cq_a_mobilenet_v2_pretrain_reproduces_golden_trace() {
    let sink = Arc::new(MemorySink::new());
    cq_obs::reset();
    cq_obs::install(sink.clone());

    let encoder = Encoder::new(
        &EncoderConfig::new(Arch::MobileNetV2, 2).with_proj(16, 8),
        7,
    )
    .expect("encoder construction");
    let cfg = PretrainConfig {
        pipeline: Pipeline::CqA,
        precision_set: Some(PrecisionSet::range(6, 16).expect("valid range")),
        epochs: 1,
        batch_size: 32,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    };
    // 96 train images / batch 32 = exactly 3 steps in the single epoch.
    let (train, _test) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(96, 8));
    let mut trainer = SimclrTrainer::new(encoder, cfg).expect("trainer construction");
    trainer.train(&train).expect("3-step pretrain");

    cq_obs::uninstall();
    let events = sink.take();

    let losses: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Metric { name, step, value } if *name == "train.loss" => {
                Some((*step, (*value as f32).to_bits()))
            }
            _ => None,
        })
        .collect();
    let bits: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            Event::Histogram { name, value } if *name == "quant.bits" => Some(*value as u32),
            _ => None,
        })
        .collect();
    let hash = param_hash(trainer.encoder());

    if std::env::var("CQ_GOLDEN_PRINT").is_ok() {
        eprintln!("loss bits: {losses:?}");
        eprintln!("bits: {bits:?}");
        eprintln!("param hash: {hash:#018x}");
    }

    let steps: Vec<u64> = losses.iter().map(|&(s, _)| s).collect();
    assert_eq!(steps, [0, 1, 2], "one train.loss metric per step");
    let loss_bits: Vec<u32> = losses.iter().map(|&(_, b)| b).collect();
    assert_eq!(
        loss_bits,
        GOLDEN_LOSS_BITS.to_vec(),
        "per-step loss bits drifted from the golden trace"
    );
    assert_eq!(
        bits,
        GOLDEN_BITS.to_vec(),
        "sampled bit-width sequence drifted from the golden trace"
    );
    assert_eq!(
        hash, GOLDEN_PARAM_HASH,
        "final parameter bits drifted from the golden trace"
    );
}
