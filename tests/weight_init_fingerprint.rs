//! Weight-init and structure fingerprints of every network the
//! reproduction builds.
//!
//! Each case hashes (FNV-1a, 64-bit) the parameter names in registration
//! order with their dims and f32 bits, then the dims of the state tensors
//! in traversal order. A change to a topology, a parameter name, the
//! weight-init RNG draw order or the state-tensor order moves the hash;
//! checkpoints (CQEN/CQTS), the golden traces and int8 parity all depend
//! on those staying fixed.
//!
//! Print current values with
//! `CQ_GOLDEN_PRINT=1 cargo test --test weight_init_fingerprint -- --nocapture`.

use contrastive_quant::core::{ByolTrainer, Pipeline, PretrainConfig, SimsiamTrainer, TrainState};
use contrastive_quant::models::{Arch, Encoder, EncoderConfig};
use contrastive_quant::nn::{Layer, ParamSet};
use contrastive_quant::tensor::Tensor;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn dims(&mut self, dims: &[usize]) {
        self.bytes(&(dims.len() as u64).to_le_bytes());
        for &d in dims {
            self.bytes(&(d as u64).to_le_bytes());
        }
    }
}

fn fingerprint(ps: &ParamSet, state: &[&Tensor]) -> u64 {
    let mut h = Fnv::new();
    for (_, name, t) in ps.iter() {
        h.bytes(name.as_bytes());
        h.dims(t.dims());
        for v in t.as_slice() {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.bytes(b"state");
    for t in state {
        h.dims(t.dims());
    }
    h.0
}

fn check(label: &str, got: u64, want: u64) {
    if std::env::var("CQ_GOLDEN_PRINT").is_ok() {
        eprintln!("{label}: {got:#018x}");
    }
    assert_eq!(got, want, "{label}: weight-init fingerprint moved");
}

fn encoder_fingerprint(cfg: &EncoderConfig, seed: u64) -> u64 {
    let enc = Encoder::new(cfg, seed).expect("encoder");
    fingerprint(enc.params(), &enc.state_tensors())
}

/// Fingerprint of a trainer's freshly initialised checkpoint: encoder
/// parameters plus the predictor head registered after them, and the
/// method's state tensors (encoder first, then predictor).
fn checkpoint_fingerprint(bytes: &[u8]) -> u64 {
    let st = TrainState::read(bytes).expect("checkpoint");
    let state: Vec<&Tensor> = st.state.iter().collect();
    fingerprint(&st.params, &state)
}

fn pretrain_cfg() -> PretrainConfig {
    PretrainConfig {
        pipeline: Pipeline::Baseline,
        batch_size: 4,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn simclr_encoders_of_every_arch_keep_their_fingerprint() {
    let want: [(Arch, u64); 6] = [
        (Arch::ResNet18, 0xba66_2052_1f0b_63b7),
        (Arch::ResNet34, 0x3b02_df5e_3af3_aa83),
        (Arch::ResNet74, 0x9add_6109_1e56_83e7),
        (Arch::ResNet110, 0x54dd_6fa4_b549_cef2),
        (Arch::ResNet152, 0x7ffe_f1e9_9182_b091),
        (Arch::MobileNetV2, 0x19f2_f29e_a502_cb71),
    ];
    for (arch, want) in want {
        let cfg = EncoderConfig::new(arch, 2).with_proj(8, 4);
        check(
            &format!("{arch} simclr"),
            encoder_fingerprint(&cfg, 5),
            want,
        );
    }
}

#[test]
fn byol_projector_encoder_keeps_its_fingerprint() {
    let cfg = EncoderConfig::new(Arch::ResNet18, 2).with_byol_proj(8, 4);
    check(
        "ResNet-18 byol",
        encoder_fingerprint(&cfg, 6),
        0xdee5_d052_34a8_b2b9,
    );
}

#[test]
fn predictor_heads_keep_their_fingerprint() {
    let cfg = EncoderConfig::new(Arch::ResNet18, 2).with_byol_proj(8, 4);
    let byol = ByolTrainer::new(Encoder::new(&cfg, 7).expect("encoder"), pretrain_cfg())
        .expect("byol trainer");
    let mut buf = Vec::new();
    byol.save_checkpoint(&mut buf).expect("save");
    check(
        "byol predictor",
        checkpoint_fingerprint(&buf),
        0x5415_4723_1cfa_e503,
    );

    let simsiam = SimsiamTrainer::new(Encoder::new(&cfg, 8).expect("encoder"), pretrain_cfg())
        .expect("simsiam trainer");
    let mut buf = Vec::new();
    simsiam.save_checkpoint(&mut buf).expect("save");
    check(
        "simsiam predictor",
        checkpoint_fingerprint(&buf),
        0xa09e_015d_e098_ba76,
    );
}

#[test]
fn detection_head_keeps_its_fingerprint() {
    use rand::SeedableRng;
    let mut ps = ParamSet::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let head = contrastive_quant::detect::head_plan(8, 5)
        .expect("head plan")
        .build(&mut ps, &mut rng);
    check(
        "detection head",
        fingerprint(&ps, &head.state_tensors()),
        0x546f_cc12_d014_dd7a,
    );
}
