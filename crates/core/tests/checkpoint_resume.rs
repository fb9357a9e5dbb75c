//! Checkpoint/resume exactness (ISSUE tentpole acceptance): for every
//! SimCLR pipeline plus BYOL and SimSiam, a 2-epoch run checkpointed
//! after epoch 1 and resumed into a **fresh** trainer must be bitwise
//! identical to the uninterrupted run — same per-step loss metrics, same
//! sampled quantization bit sequence, same final parameters. Corrupt,
//! truncated, wrong-version and wrong-method checkpoints must be rejected
//! with a clean `NnError` and zero partial state mutation.
//!
//! Single `#[test]`: the observability sink is process-global, so the
//! instrumented sub-runs cannot share the process with other tests that
//! train (their events would interleave).

use std::sync::Arc;

use cq_core::{ByolTrainer, Pipeline, PretrainConfig, SimclrTrainer, SimsiamTrainer};
use cq_data::{Dataset, DatasetConfig};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_nn::NnError;
use cq_obs::sink::MemorySink;
use cq_obs::Event;
use cq_quant::PrecisionSet;

fn simclr_encoder(seed: u64) -> Encoder {
    Encoder::new(
        &EncoderConfig::new(Arch::ResNet18, 2).with_proj(16, 8),
        seed,
    )
    .unwrap()
}

fn byol_encoder(seed: u64) -> Encoder {
    Encoder::new(
        &EncoderConfig::new(Arch::ResNet18, 2).with_byol_proj(16, 8),
        seed,
    )
    .unwrap()
}

fn dataset() -> Dataset {
    // 24 train images / batch 8 = exactly 3 steps per epoch.
    Dataset::generate(&DatasetConfig::cifarlike().with_sizes(24, 8)).0
}

fn cfg(pipeline: Pipeline) -> PretrainConfig {
    PretrainConfig {
        pipeline,
        precision_set: pipeline
            .needs_precisions()
            .then(|| PrecisionSet::range(6, 16).unwrap()),
        epochs: 2,
        batch_size: 8,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    }
}

/// Bit patterns of an `f32` slice: exact comparison that treats equal
/// NaNs as equal (epoch means are NaN when every step of an epoch
/// exploded, which SimSiam CQ-C does at this tiny scale).
fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` with a fresh in-memory sink installed; returns the per-step
/// loss metrics (bit patterns) and sampled bit-width sequence it
/// produced.
fn capture<F: FnOnce()>(f: F) -> (Vec<(u64, u64)>, Vec<u32>) {
    let sink = Arc::new(MemorySink::new());
    cq_obs::reset();
    cq_obs::install(sink.clone());
    f();
    cq_obs::uninstall();
    let events = sink.take();
    let losses = events
        .iter()
        .filter_map(|e| match e {
            Event::Metric { name, step, value } if *name == "train.loss" => {
                Some((*step, value.to_bits()))
            }
            _ => None,
        })
        .collect();
    let bits = events
        .iter()
        .filter_map(|e| match e {
            Event::Histogram { name, value } if *name == "quant.bits" => Some(*value as u32),
            _ => None,
        })
        .collect();
    (losses, bits)
}

/// Interrupted run: train 1 epoch, checkpoint into memory, resume in a
/// brand-new trainer (fresh encoder init, fresh RNGs — everything must
/// come from the checkpoint), finish the remaining epoch.
macro_rules! check_pipeline {
    ($name:expr, $trainer:ty, $make_enc:expr, $pipeline:expr, $final_params:expr) => {{
        let ds = dataset();
        let label = $name;

        let mut full = <$trainer>::new($make_enc(7), cfg($pipeline)).unwrap();
        let (full_losses, full_bits) = capture(|| full.train(&ds).unwrap());

        let mut ckpt = Vec::new();
        let mut resumed = <$trainer>::new($make_enc(7), cfg($pipeline)).unwrap();
        let (resumed_losses, resumed_bits) = capture(|| {
            resumed.train_until(&ds, 1).unwrap();
            resumed.save_checkpoint(&mut ckpt).unwrap();
            // Different init seed: every tensor and RNG must be restored
            // from the checkpoint for the traces to match.
            let mut fresh = <$trainer>::new($make_enc(99), cfg($pipeline)).unwrap();
            fresh.load_checkpoint(ckpt.as_slice()).unwrap();
            assert_eq!(fresh.epochs_done(), 1, "{label}: epochs_done restored");
            fresh.train(&ds).unwrap();
            resumed = fresh;
        });

        assert_eq!(
            full_losses, resumed_losses,
            "{label}: resumed loss trace must be bitwise identical"
        );
        assert_eq!(
            full_bits, resumed_bits,
            "{label}: resumed bit sequence must be bitwise identical"
        );
        assert_eq!(
            bits32(&full.history().epoch_losses),
            bits32(&resumed.history().epoch_losses),
            "{label}: history"
        );
        assert_eq!(
            full.history().exploded_steps,
            resumed.history().exploded_steps,
            "{label}: exploded-step count"
        );
        let (pf, pr) = ($final_params(&full), $final_params(&resumed));
        assert!(
            pf == pr,
            "{label}: final parameters must be bitwise identical"
        );
        ckpt
    }};
}

#[test]
fn checkpoint_resume_is_bitwise_exact_and_rejects_corruption() {
    // --- all five SimCLR pipelines ---
    let mut simclr_ckpt = Vec::new();
    for pipeline in Pipeline::all() {
        let ckpt = check_pipeline!(
            format!("simclr/{pipeline}"),
            SimclrTrainer,
            simclr_encoder,
            pipeline,
            |t: &SimclrTrainer| t.encoder().params().clone()
        );
        if pipeline == Pipeline::CqC {
            simclr_ckpt = ckpt;
        }
    }

    // --- BYOL and SimSiam (CQ-C exercises precision sampling + the BYOL
    // target network / predictor paths) ---
    let byol_ckpt = check_pipeline!(
        "byol/CQ-C".to_string(),
        ByolTrainer,
        byol_encoder,
        Pipeline::CqC,
        |t: &ByolTrainer| t.encoder().params().clone()
    );
    check_pipeline!(
        "simsiam/CQ-C".to_string(),
        SimsiamTrainer,
        byol_encoder,
        Pipeline::CqC,
        |t: &SimsiamTrainer| bits32(&t.history().epoch_grad_norms)
    );

    // --- corruption / mismatch rejection: clean errors, no mutation ---
    let mut victim = SimclrTrainer::new(simclr_encoder(7), cfg(Pipeline::CqC)).unwrap();
    let pristine = victim.encoder().params().clone();

    // Bad magic.
    let err = victim
        .load_checkpoint(&b"XXXXjunkjunkjunk"[..])
        .unwrap_err();
    assert!(matches!(err, NnError::Io(_)), "bad magic: {err}");

    // Unsupported version (byte 4 is the LE version field).
    let mut wrong_version = simclr_ckpt.clone();
    wrong_version[4] = 99;
    let err = victim
        .load_checkpoint(wrong_version.as_slice())
        .unwrap_err();
    assert!(matches!(err, NnError::Io(_)), "wrong version: {err}");
    assert!(err.to_string().contains("version"), "{err}");

    // Truncation at several depths (header, mid-params, tail).
    for frac in [8, 2, 1] {
        let cut = simclr_ckpt.len() - simclr_ckpt.len() / frac;
        let err = victim
            .load_checkpoint(&simclr_ckpt[..cut])
            .expect_err("truncated checkpoint must be rejected");
        // Header/tail cuts surface as Io; a cut inside a tensor payload
        // surfaces as Tensor(Io) via ParamSet::load. Both are clean.
        assert!(
            matches!(err, NnError::Io(_) | NnError::Tensor(_)),
            "truncated@{cut}: {err}"
        );
    }

    // Wrong method (a BYOL checkpoint into a SimCLR trainer).
    let err = victim.load_checkpoint(byol_ckpt.as_slice()).unwrap_err();
    assert!(matches!(err, NnError::Io(_)), "wrong method: {err}");
    assert!(err.to_string().contains("byol"), "{err}");

    // Wrong pipeline/seed vs the live config.
    let mut other_cfg = SimclrTrainer::new(simclr_encoder(7), cfg(Pipeline::CqA)).unwrap();
    assert!(other_cfg.load_checkpoint(simclr_ckpt.as_slice()).is_err());
    let mut other_seed_cfg = cfg(Pipeline::CqC);
    other_seed_cfg.seed = 8;
    let mut other_seed = SimclrTrainer::new(simclr_encoder(7), other_seed_cfg).unwrap();
    assert!(other_seed.load_checkpoint(simclr_ckpt.as_slice()).is_err());

    // After all those failures, the victim is untouched...
    assert!(
        *victim.encoder().params() == pristine,
        "failed loads must not mutate any state"
    );
    assert_eq!(victim.epochs_done(), 0);
    // ...and still accepts the valid checkpoint.
    victim.load_checkpoint(simclr_ckpt.as_slice()).unwrap();
    assert_eq!(victim.epochs_done(), 1);
}
