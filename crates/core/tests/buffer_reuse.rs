//! Steady-state training steps reuse the buffers of the step before.
//!
//! After the first step of a small CQ-A run on MobileNetV2, and of one on
//! ResNet-18 (whose activations live in lane tensors, aligned inside
//! their recycled buffers), a step takes every large buffer it needs
//! from the recycler (no misses) and never copies a tensor because its
//! storage was shared (`tensor.cow_copies` stays 0).
//!
//! The run is at one thread: with more, the number of pool workers that
//! hold lane scratch at the same moment depends on scheduling, so a later
//! step can still miss once per extra concurrent worker.
//!
//! Single `#[test]` in its own file: the recycler and the counters are
//! process-global.

use std::sync::Arc;

use cq_core::{Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{AugmentConfig, AugmentPipeline, Dataset, DatasetConfig, TwoViewLoader};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_quant::PrecisionSet;
use cq_tensor::par::with_thread_limit;
use cq_tensor::recycle;

fn cow_copies() -> u64 {
    cq_obs::counter_totals()
        .into_iter()
        .find(|&(name, _)| name == "tensor.cow_copies")
        .map_or(0, |(_, total)| total)
}

/// Three steps of a small CQ-A run on `arch` w2 at one thread: after
/// the first, no recycler misses and no copy-on-write copies.
fn steady_steps_reuse_buffers(arch: Arch) {
    let encoder = Encoder::new(&EncoderConfig::new(arch, 2).with_proj(16, 8), 7)
        .expect("encoder construction");
    let cfg = PretrainConfig {
        pipeline: Pipeline::CqA,
        precision_set: Some(PrecisionSet::range(6, 16).expect("valid range")),
        batch_size: 32,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    };
    let (train, _test) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(96, 8));
    let mut loader = TwoViewLoader::new(AugmentPipeline::new(AugmentConfig::simclr()), 32, 7);
    let mut trainer = SimclrTrainer::new(encoder, cfg).expect("trainer construction");
    with_thread_limit(1, || {
        let mut step = |i: usize| {
            let idx: Vec<usize> = (32 * i..32 * (i + 1)).collect();
            let batch = loader.make_batch(&train, &idx);
            let loss = trainer.step(&batch, 0.02).expect("step");
            assert!(loss.is_some(), "{arch}: step {i} applied an update");
        };
        step(0);
        let (first, cow) = (recycle::stats(), cow_copies());
        assert!(first.misses > 0, "{arch}: the run uses recycled buffers");
        for i in 1..3 {
            step(i);
            let now = recycle::stats();
            assert_eq!(
                now.misses, first.misses,
                "{arch}: fresh buffers in step {i}"
            );
            assert!(now.hits > first.hits, "{arch}: step {i} reused buffers");
            assert_eq!(
                cow_copies(),
                cow,
                "{arch}: shared storage copied in step {i}"
            );
        }
    });
}

#[test]
fn steps_after_the_first_take_no_fresh_buffers_and_copy_no_shared_storage() {
    cq_obs::reset();
    cq_obs::install(Arc::new(MemorySink::new()));
    steady_steps_reuse_buffers(Arch::MobileNetV2);
    steady_steps_reuse_buffers(Arch::ResNet18);
    cq_obs::uninstall();
}
