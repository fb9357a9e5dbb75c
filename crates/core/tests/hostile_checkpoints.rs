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
//!
//! A SimCLR CQ-C checkpoint also has every bit of its fixed header and
//! of each section's length prefix flipped, one at a time, and each
//! length prefix set to `u32::MAX`. Some of those loads are valid
//! checkpoints (a flipped step counter, say), so each load may succeed
//! or fail, but must return rather than panic, and a failed one must
//! leave the trainer as it was.

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
    assert!(
        victim.load_checkpoint(bytes).is_err(),
        "{}: {what} loaded",
        M::NAME
    );
    assert_unchanged(victim, before, what);
}

/// Asserts that the failed load `what` left `victim`'s checkpoint bytes
/// equal to `before`.
fn assert_unchanged<M: SslMethod>(victim: &TrainLoop<M>, before: &[u8], what: &str) {
    assert!(
        snapshot(victim) == before,
        "{}: failed load ({what}) mutated the trainer",
        M::NAME
    );
}

/// Loads `bytes` into `victim`, which must return rather than panic. A
/// failed load must leave its checkpoint bytes equal to `before`; after
/// a successful one, `before` is loaded back.
fn assert_load_returns<M: SslMethod>(
    victim: &mut TrainLoop<M>,
    before: &[u8],
    bytes: &[u8],
    what: &str,
) {
    match victim.load_checkpoint(bytes) {
        Err(_) => assert_unchanged(victim, before, what),
        Ok(()) => {
            victim
                .load_checkpoint(before)
                .expect("the victim's own bytes");
            assert_unchanged(victim, before, "restore");
        }
    }
}

/// Bytes `write_tensors` gives `ts`: a `u32` count, then each tensor.
fn tensors_len(ts: &[cq_tensor::Tensor]) -> usize {
    let mut out = Vec::new();
    for t in ts {
        cq_tensor::write_tensor(&mut out, t).expect("write");
    }
    4 + out.len()
}

/// The `u32` length prefix of each variable-length section of the
/// target-less checkpoint `ckpt`, as (section, offset): the two history
/// lists, the parameter count after the `CQPS` magic, the BatchNorm
/// state and the momentum.
fn length_prefixes(ckpt: &[u8]) -> [(&'static str, usize); 5] {
    let st = TrainState::read(ckpt).expect("parse");
    let losses = HEADER_LEN;
    let norms = losses + 4 + 4 * st.history.epoch_losses.len();
    let params = norms + 4 + 4 * st.history.epoch_grad_norms.len();
    let mut saved = Vec::new();
    st.params.save(&mut saved).expect("save");
    let state = params + saved.len();
    let velocity = state + tensors_len(&st.state);
    // The target-presence byte follows, and ends the file.
    assert_eq!(velocity + tensors_len(&st.velocity), ckpt.len() - 1);
    let prefixes = [
        ("epoch losses", losses),
        ("epoch grad norms", norms),
        ("parameters", params + 4),
        ("state", state),
        ("momentum", velocity),
    ];
    let counts = [
        st.history.epoch_losses.len(),
        st.history.epoch_grad_norms.len(),
        st.params.len(),
        st.state.len(),
        st.velocity.len(),
    ];
    for ((what, at), n) in prefixes.iter().zip(counts) {
        let v = u32::from_le_bytes(ckpt[*at..at + 4].try_into().expect("4 bytes"));
        assert_eq!(v as usize, n, "{what} prefix at {at}");
    }
    prefixes
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

/// Every bit of the header and of each length prefix flipped, and each
/// prefix set to `u32::MAX`.
fn bit_flips_and_oversize_prefixes_return<M: SslMethod>() {
    let (ckpt, mut victim, before) = checkpoint_and_victim::<M>();
    let mut attempt =
        |bytes: &[u8], what: String| assert_load_returns(&mut victim, &before, bytes, &what);
    let prefixes = length_prefixes(&ckpt);
    let header = (0..HEADER_LEN).map(|at| ("header", at));
    let prefix_bytes = prefixes
        .iter()
        .flat_map(|&(what, at)| (at..at + 4).map(move |b| (what, b)));
    for (what, at) in header.chain(prefix_bytes) {
        for bit in 0..8 {
            let mut flipped = ckpt.clone();
            flipped[at] ^= 1 << bit;
            attempt(&flipped, format!("{what}: bit {bit} of byte {at} flipped"));
        }
    }
    for (what, at) in prefixes {
        let mut oversize = ckpt.clone();
        oversize[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        attempt(&oversize, format!("{what}: length u32::MAX"));
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
fn simclr_cq_c_survives_bit_flips_and_oversize_length_prefixes() {
    bit_flips_and_oversize_prefixes_return::<SimclrMethod>();
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
