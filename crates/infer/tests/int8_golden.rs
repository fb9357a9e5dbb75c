//! Golden hashes of the integer program's outputs.
//!
//! Each case converts a seeded encoder (batch-norm running statistics
//! randomized, so every fold is non-trivial) and hashes (FNV-1a, 64-bit)
//! the f32 bits of `IntEncoder::features` and of `forward().projection`
//! on two batches: 17 seeded images, so the last 16-column panel of every
//! conv is partial, and a hostile batch with a NaN pixel, a `+Inf` and a
//! `−Inf` pixel, a constant image and an all-zero image. Any change to
//! the integer data flow that moves one output bit moves a hash.
//!
//! Print current values with
//! `CQ_GOLDEN_PRINT=1 cargo test --release -p cq-infer --test int8_golden -- --nocapture`.

use cq_infer::IntEncoder;
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_tensor::gemm::int8::{with_i8_level, I8Level};
use cq_tensor::simd::{with_simd_level, SimdLevel};
use cq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH: usize = 17;
const SIDE: usize = 16;

fn fnv(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A converted encoder whose batch norms hold seeded running means in
/// `[−0.2, 0.2)` and variances in `[0.6, 1.4)`.
fn int_encoder(cfg: &EncoderConfig, seed: u64) -> IntEncoder {
    let mut enc = Encoder::new(cfg, seed).expect("encoder");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for (i, t) in enc.state_tensors_mut().into_iter().enumerate() {
        for v in t.as_mut_slice() {
            *v = if i % 2 == 0 {
                rng.gen_range(-0.2..0.2f32)
            } else {
                rng.gen_range(0.6..1.4f32)
            };
        }
    }
    IntEncoder::from_encoder(&enc).expect("conversion")
}

fn seeded_batch(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(&[BATCH, 3, SIDE, SIDE], 0.0, 1.0, &mut rng)
}

/// Image 0 holds a NaN pixel, image 1 a `+Inf` and image 2 a `−Inf`
/// pixel (on different channels and borders), image 3 is constant and
/// image 4 all zero; the rest stay seeded.
fn hostile_batch(seed: u64) -> Tensor {
    let mut x = seeded_batch(seed);
    let img = 3 * SIDE * SIDE;
    let data = x.as_mut_slice();
    data[5 * SIDE + 7] = f32::NAN;
    data[img + SIDE * SIDE] = f32::INFINITY;
    data[2 * img + 3 * SIDE * SIDE - 1] = f32::NEG_INFINITY;
    data[3 * img..4 * img].fill(0.7);
    data[4 * img..5 * img].fill(0.0);
    x
}

/// `(features, projection)` hashes of both batches.
fn hashes(int: &IntEncoder, seed: u64) -> [u64; 4] {
    let mut out = [0; 4];
    for (i, x) in [seeded_batch(seed), hostile_batch(seed)].iter().enumerate() {
        out[2 * i] = fnv(&int.features(x).expect("features"));
        out[2 * i + 1] = fnv(&int.forward(x).expect("forward").projection);
    }
    out
}

/// Checks the hashes at every i8 tile level and f32 SIMD level the host
/// runs: the levels change speed, never bits.
fn check(label: &str, cfg: EncoderConfig, seed: u64, want: [u64; 4]) {
    let int = int_encoder(&cfg, seed);
    if std::env::var("CQ_GOLDEN_PRINT").is_ok() {
        eprintln!("{label}: {:#018x?}", hashes(&int, seed + 1));
    }
    for i8_level in I8Level::supported() {
        for level in SimdLevel::supported() {
            let got = with_i8_level(i8_level, || {
                with_simd_level(level, || hashes(&int, seed + 1))
            });
            assert_eq!(
                got, want,
                "{label}: int8 output bits moved at {i8_level:?} / {level:?}"
            );
        }
    }
}

#[test]
fn resnet18_w8_outputs_keep_their_bits() {
    check(
        "resnet18 w8",
        EncoderConfig::new(Arch::ResNet18, 8).with_proj(16, 8),
        61,
        [
            0xefd5643343c3d08a,
            0xe086ee8038983101,
            0x9dd75928f5a896cf,
            0x9fffd98539646cc3,
        ],
    );
}

#[test]
fn mobilenet_v2_w8_outputs_keep_their_bits() {
    check(
        "mobilenet_v2 w8",
        EncoderConfig::new(Arch::MobileNetV2, 8).with_proj(16, 8),
        71,
        [
            0xf2fb5d6a34f02171,
            0x85746385fe7c8e4c,
            0xf3312bdb89b343c0,
            0x436dddf5109f09a8,
        ],
    );
}

#[test]
fn resnet110_w4_outputs_keep_their_bits() {
    check(
        "resnet110 w4",
        EncoderConfig::new(Arch::ResNet110, 4).with_proj(16, 8),
        81,
        [
            0x4e3c65638ffb4081,
            0xa60d7296a092f0d5,
            0xcd61da0c74d97191,
            0x117df1a6c5acc80a,
        ],
    );
}
