//! Hostile checkpoints on the methods with a prediction head: BYOL CQ-C
//! (predictor and EMA target network) and SimSiam CQ-C (predictor).
//!
//! Each checkpoint is cut at every offset of its fixed header and at
//! evenly spaced offsets through the body, and its target-presence byte
//! is set to every other value. A SimCLR and a BYOL checkpoint also get
//! one byte appended after their last section. Every such load must
//! fail, and after each failure the live trainer (parameters with the
//! predictor, BatchNorm state, momentum, history, the BYOL target, RNG
//! states and counters) must be bit-identical to before. The trainer's
//! own checkpoint bytes are the witness: they serialize all of that
//! state.

use cq_core::{
    ByolMethod, Pipeline, PretrainConfig, SimclrMethod, SimsiamMethod, SslMethod, TrainLoop,
    TrainState,
};
use cq_data::{Dataset, DatasetConfig};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_quant::PrecisionSet;

/// Bytes before the first variable-length field of a `CQTS` file: magic,
/// version, method and pipeline tags, seed, batch size, step and epoch
/// counters, both RNG states, and the exploded/optimizer step counts.
const HEADER_LEN: usize = 4 + 4 + 2 + 4 * 8 + 8 * 8 + 2 * 8;

/// Evenly spaced cuts through the body, past the header.
const BODY_CUTS: usize = 96;

fn encoder<M: SslMethod>(seed: u64) -> Encoder {
    let ec = EncoderConfig::new(Arch::ResNet18, 2);
    let ec = if M::NAME == "simclr" {
        ec.with_proj(16, 8)
    } else {
        ec.with_byol_proj(16, 8)
    };
    Encoder::new(&ec, seed).expect("encoder")
}

fn cfg() -> PretrainConfig {
    PretrainConfig {
        pipeline: Pipeline::CqC,
        precision_set: Some(PrecisionSet::range(6, 16).expect("valid range")),
        epochs: 2,
        batch_size: 8,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    }
}

fn snapshot<M: SslMethod>(t: &TrainLoop<M>) -> Vec<u8> {
    let mut out = Vec::new();
    t.save_checkpoint(&mut out).expect("save");
    out
}

/// A checkpoint after one epoch, and a victim trainer with state of its
/// own (one epoch from another init) with its checkpoint bytes.
fn checkpoint_and_victim<M: SslMethod>() -> (Vec<u8>, TrainLoop<M>, Vec<u8>) {
    // 24 train images / batch 8 = 3 steps per epoch.
    let (ds, _) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(24, 8));
    let mut writer = TrainLoop::<M>::new(encoder::<M>(7), cfg()).expect("trainer");
    writer.train_until(&ds, 1).expect("train");
    let ckpt = snapshot(&writer);
    let mut victim = TrainLoop::<M>::new(encoder::<M>(99), cfg()).expect("trainer");
    victim.train_until(&ds, 1).expect("train");
    let before = snapshot(&victim);
    assert_ne!(
        before,
        ckpt,
        "{}: victim must differ from the checkpoint",
        M::NAME
    );
    (ckpt, victim, before)
}

/// Asserts that loading `bytes` into `victim` fails and leaves its
/// checkpoint bytes equal to `before`.
fn assert_rejected<M: SslMethod>(
    victim: &mut TrainLoop<M>,
    before: &[u8],
    bytes: &[u8],
    what: &str,
) {
    let name = M::NAME;
    assert!(
        victim.load_checkpoint(bytes).is_err(),
        "{name}: {what} loaded"
    );
    assert!(
        snapshot(victim) == before,
        "{name}: failed load ({what}) mutated the trainer"
    );
}

fn hostile_loads_fail_without_mutation<M: SslMethod>() {
    let (ckpt, mut victim, before) = checkpoint_and_victim::<M>();
    let name = M::NAME;
    let mut attempt =
        |bytes: &[u8], what: String| assert_rejected(&mut victim, &before, bytes, &what);

    assert!(
        ckpt.len() > HEADER_LEN + BODY_CUTS,
        "{name}: checkpoint too short"
    );
    for cut in 0..=HEADER_LEN {
        attempt(&ckpt[..cut], format!("header cut at {cut}"));
    }
    // Cuts in (HEADER_LEN, len - 1]; the last one drops only the final byte.
    let body = ckpt.len() - 1 - HEADER_LEN;
    for i in 1..=BODY_CUTS {
        let cut = HEADER_LEN + i * body / BODY_CUTS;
        attempt(&ckpt[..cut], format!("body cut at {cut}"));
    }

    // The presence byte is the last byte a target-less copy writes.
    let mut no_target = TrainState::read(ckpt.as_slice()).expect("parse");
    let had_target = no_target.target.take().is_some();
    assert_eq!(had_target, name == "byol", "{name}: target presence");
    let mut prefix = Vec::new();
    no_target.write(&mut prefix).expect("write");
    let at = prefix.len() - 1;
    assert_eq!(ckpt[..at], prefix[..at], "{name}: shared prefix");
    assert_eq!(ckpt[at], u8::from(had_target), "{name}: presence byte");
    for v in (0..=u8::MAX).filter(|&v| v != ckpt[at]) {
        let mut flipped = ckpt.clone();
        flipped[at] = v;
        attempt(&flipped, format!("presence byte {v}"));
    }

    // The intact checkpoint still loads, and round-trips byte for byte.
    victim
        .load_checkpoint(ckpt.as_slice())
        .expect("valid checkpoint");
    assert!(snapshot(&victim) == ckpt, "{name}: load/save round trip");
}

/// One byte appended after the last section must fail the load without
/// mutation; the intact checkpoint still loads.
fn trailing_byte_fails_without_mutation<M: SslMethod>() {
    let (ckpt, mut victim, before) = checkpoint_and_victim::<M>();
    for extra in [0u8, 1, 0xff] {
        let mut long = ckpt.clone();
        long.push(extra);
        assert_rejected(
            &mut victim,
            &before,
            &long,
            &format!("trailing byte {extra}"),
        );
    }
    victim
        .load_checkpoint(ckpt.as_slice())
        .expect("valid checkpoint");
    assert!(
        snapshot(&victim) == ckpt,
        "{}: load/save round trip",
        M::NAME
    );
}

#[test]
fn simclr_cq_c_rejects_a_trailing_byte_without_mutation() {
    trailing_byte_fails_without_mutation::<SimclrMethod>();
}

#[test]
fn byol_cq_c_rejects_a_trailing_byte_without_mutation() {
    trailing_byte_fails_without_mutation::<ByolMethod>();
}

#[test]
fn byol_cq_c_rejects_hostile_checkpoints_without_mutation() {
    hostile_loads_fail_without_mutation::<ByolMethod>();
}

#[test]
fn simsiam_cq_c_rejects_hostile_checkpoints_without_mutation() {
    hostile_loads_fail_without_mutation::<SimsiamMethod>();
}
