//! Per-method golden traces: every (method, pipeline) pair the trainers
//! accept runs three tiny steps and must reproduce, bit for bit:
//!
//! - each step's `train.loss` and `train.grad_norm`;
//! - the sampled bit-width sequence (`quant.bits`);
//! - an FNV-1a hash of the final encoder parameters (prediction head
//!   stripped, as `into_encoder` returns them);
//! - an FNV-1a hash of the whole checkpoint (parameters with any
//!   prediction head, BatchNorm state, momentum, BYOL target, history
//!   and both RNG states).
//!
//! `checkpoint_resume` compares two runs of the same code, so it cannot
//! see a change that moves both; this test can. The f32 gradient sums
//! depend on the backward order, so a reordered backward pass moves the
//! grad-norm bits and the hashes even when the losses agree. SimSiam's
//! gradient norm exceeds the explosion threshold at this scale, so its
//! steps are skipped and its parameter hash is the initial one; its
//! grad-norm bits still pin its backward pass.
//!
//! Run with `CQ_GOLDEN_PRINT=1 -- --nocapture` to print current values
//! when intentionally re-baselining.
//!
//! Single `#[test]` in its own file: the sink is process-global. CI runs
//! it at `CQ_THREADS=1` and `4` and expects identical values.

use std::sync::Arc;

use cq_core::{ByolTrainer, Pipeline, PretrainConfig, SimclrTrainer, SimsiamTrainer};
use cq_data::{Dataset, DatasetConfig};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_obs::Event;
use cq_quant::PrecisionSet;

/// What one three-step run leaves behind.
#[derive(Debug, PartialEq)]
struct Trace {
    loss_bits: Vec<u32>,
    norm_bits: Vec<u32>,
    bits: Vec<u32>,
    param_hash: u64,
    ckpt_hash: u64,
}

/// The recorded values of one (method, pipeline) pair.
struct Golden {
    method: &'static str,
    pipeline: Pipeline,
    loss_bits: [u32; 3],
    norm_bits: [u32; 3],
    bits: &'static [u32],
    param_hash: u64,
    ckpt_hash: u64,
}

// Recorded before the three trainer structs became aliases of
// `TrainLoop`. Identical at CQ_THREADS = 1 and 4.
const GOLDENS: [Golden; 11] = [
    Golden {
        method: "simclr",
        pipeline: Pipeline::Baseline,
        loss_bits: [0x402d_a470, 0x402d_3ad4, 0x402c_4226],
        norm_bits: [0x4126_6f07, 0x41aa_491d, 0x4138_69d9],
        bits: &[],
        param_hash: 0x6950_6e8e_ed95_b942,
        ckpt_hash: 0xa337_b312_1fe6_092a,
    },
    Golden {
        method: "simclr",
        pipeline: Pipeline::CqA,
        loss_bits: [0x402d_6080, 0x402f_342b, 0x402d_46a1],
        norm_bits: [0x412e_9365, 0x4150_9d71, 0x4103_bce2],
        bits: &[6, 7, 13, 10, 16, 11],
        param_hash: 0x1d1d_4a31_9019_568f,
        ckpt_hash: 0x1cc2_47ee_30aa_faf1,
    },
    Golden {
        method: "simclr",
        pipeline: Pipeline::CqB,
        loss_bits: [0x40af_e392, 0x40b2_f55a, 0x40a8_c136],
        norm_bits: [0x4188_55c9, 0x41b0_d74c, 0x415a_858d],
        bits: &[6, 7, 13, 10, 16, 11],
        param_hash: 0x0146_2c4b_bb7d_2671,
        ckpt_hash: 0x69ce_f008_ca1b_4b09,
    },
    Golden {
        method: "simclr",
        pipeline: Pipeline::CqC,
        loss_bits: [0x4120_570d, 0x4118_5c14, 0x4111_e3f3],
        norm_bits: [0x41b7_87ed, 0x41bc_64f6, 0x41e4_4393],
        bits: &[6, 7, 13, 10, 16, 11],
        param_hash: 0x1570_b37a_3bb2_40ae,
        ckpt_hash: 0x324f_5b90_199d_46ff,
    },
    Golden {
        method: "simclr",
        pipeline: Pipeline::CqQuant,
        loss_bits: [0x4017_21a8, 0x400b_e8fe, 0x3fe5_ea5d],
        norm_bits: [0x4103_e78f, 0x4109_e220, 0x40f8_63e7],
        bits: &[6, 7, 13, 10, 16, 11],
        param_hash: 0x7b5d_c670_981c_3e78,
        ckpt_hash: 0xb78b_bf4c_ca30_fbc0,
    },
    Golden {
        method: "simclr",
        pipeline: Pipeline::NoiseA,
        loss_bits: [0x402d_955a, 0x4025_5d59, 0x4025_8c2e],
        norm_bits: [0x4124_a84c, 0x419c_4392, 0x4100_b706],
        bits: &[],
        param_hash: 0x4493_277d_53b1_c351,
        ckpt_hash: 0x1d91_c5af_755a_44e3,
    },
    Golden {
        method: "simclr",
        pipeline: Pipeline::NoiseC,
        loss_bits: [0x4122_536a, 0x412a_9094, 0x4118_a6f3],
        norm_bits: [0x41a0_c341, 0x417d_cf18, 0x41b0_23a2],
        bits: &[],
        param_hash: 0xf912_39a9_dad6_51f6,
        ckpt_hash: 0x8ac1_9712_f202_7092,
    },
    Golden {
        method: "byol",
        pipeline: Pipeline::Baseline,
        loss_bits: [0x409d_e841, 0x409d_e2c8, 0x4084_0304],
        norm_bits: [0x4209_44fe, 0x41ea_6e06, 0x41a3_29df],
        bits: &[],
        param_hash: 0x43cc_ec2c_164e_2b51,
        ckpt_hash: 0x2498_24f3_ef3c_2e6a,
    },
    Golden {
        method: "byol",
        pipeline: Pipeline::CqC,
        loss_bits: [0x4126_66bf, 0x4113_7c70, 0x40f4_a0f8],
        norm_bits: [0x42d8_6793, 0x4223_498e, 0x4217_8214],
        bits: &[6, 7, 13, 10, 16, 11],
        param_hash: 0xe411_9b6e_7c41_c647,
        ckpt_hash: 0x08d5_f0d3_51cb_85f6,
    },
    Golden {
        method: "simsiam",
        pipeline: Pipeline::Baseline,
        loss_bits: [0x4001_61fc, 0x3ff0_7f54, 0x3fe6_f237],
        norm_bits: [0x52e2_46c6, 0x5268_d4a6, 0x5268_d4a5],
        bits: &[],
        param_hash: 0xcb25_dfcb_1bb1_e594,
        ckpt_hash: 0xb48e_7eb8_a232_24a9,
    },
    Golden {
        method: "simsiam",
        pipeline: Pipeline::CqC,
        loss_bits: [0x4082_98b6, 0x4070_3c78, 0x4066_a312],
        norm_bits: [0x52e7_af77, 0x52e8_75a9, 0x52e8_b482],
        bits: &[6, 7, 13, 10, 16, 11],
        param_hash: 0xcb25_dfcb_1bb1_e594,
        ckpt_hash: 0xde2a_50e2_3be1_5127,
    },
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of every parameter, in
/// registration order.
fn param_hash(enc: &Encoder) -> u64 {
    let mut h = FNV_OFFSET;
    for (_, _, t) in enc.params().iter() {
        for v in t.as_slice() {
            fnv1a(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

fn cfg(pipeline: Pipeline) -> PretrainConfig {
    PretrainConfig {
        pipeline,
        precision_set: pipeline
            .needs_precisions()
            .then(|| PrecisionSet::range(6, 16).expect("valid range")),
        epochs: 1,
        batch_size: 8,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    }
}

fn encoder(method: &str) -> Encoder {
    let ec = EncoderConfig::new(Arch::ResNet18, 2);
    let ec = if method == "simclr" {
        ec.with_proj(16, 8)
    } else {
        ec.with_byol_proj(16, 8)
    };
    Encoder::new(&ec, 7).expect("encoder construction")
}

/// Trains one epoch of three steps with a fresh in-memory sink and
/// returns the run's trace.
macro_rules! run {
    ($trainer:ty, $method:expr, $pipeline:expr, $ds:expr) => {{
        let mut t = <$trainer>::new(encoder($method), cfg($pipeline)).expect("trainer");
        let sink = Arc::new(MemorySink::new());
        cq_obs::reset();
        cq_obs::install(sink.clone());
        t.train($ds).expect("3-step pretrain");
        cq_obs::uninstall();
        let mut ckpt = Vec::new();
        t.save_checkpoint(&mut ckpt).expect("checkpoint");
        let mut ckpt_hash = FNV_OFFSET;
        fnv1a(&mut ckpt_hash, &ckpt);
        (sink.take(), param_hash(&t.into_encoder()), ckpt_hash)
    }};
}

fn trace(method: &str, pipeline: Pipeline, ds: &Dataset) -> Trace {
    let (events, param_hash, ckpt_hash) = match method {
        "simclr" => run!(SimclrTrainer, method, pipeline, ds),
        "byol" => run!(ByolTrainer, method, pipeline, ds),
        _ => run!(SimsiamTrainer, method, pipeline, ds),
    };
    let metric = |want: &str| -> Vec<u32> {
        let series: Vec<(u64, u32)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Metric { name, step, value } if *name == want => {
                    Some((*step, (*value as f32).to_bits()))
                }
                _ => None,
            })
            .collect();
        let steps: Vec<u64> = series.iter().map(|&(s, _)| s).collect();
        assert_eq!(steps, [0, 1, 2], "{method}/{pipeline}: one {want} per step");
        series.into_iter().map(|(_, b)| b).collect()
    };
    Trace {
        loss_bits: metric("train.loss"),
        norm_bits: metric("train.grad_norm"),
        bits: events
            .iter()
            .filter_map(|e| match e {
                Event::Histogram { name, value } if *name == "quant.bits" => Some(*value as u32),
                _ => None,
            })
            .collect(),
        param_hash,
        ckpt_hash,
    }
}

/// Every (method, pipeline) pair the trainers accept.
fn pairs() -> Vec<(&'static str, Pipeline)> {
    let mut v: Vec<_> = Pipeline::all()
        .into_iter()
        .chain(Pipeline::extensions())
        .map(|p| ("simclr", p))
        .collect();
    for m in ["byol", "simsiam"] {
        v.push((m, Pipeline::Baseline));
        v.push((m, Pipeline::CqC));
    }
    v
}

#[test]
fn every_method_and_pipeline_reproduces_its_golden_trace() {
    // 24 train images / batch 8 = exactly 3 steps in the single epoch.
    let (ds, _) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(24, 8));
    let print = std::env::var("CQ_GOLDEN_PRINT").is_ok();
    let pairs = pairs();
    if !print {
        assert_eq!(GOLDENS.len(), pairs.len(), "one golden per pair");
    }
    for (i, (method, pipeline)) in pairs.into_iter().enumerate() {
        let got = trace(method, pipeline, &ds);
        if print {
            let hex = |v: &[u32]| {
                let v: Vec<String> = v.iter().map(|b| format!("{b:#010x}")).collect();
                format!("[{}]", v.join(", "))
            };
            eprintln!(
                "    Golden {{\n        method: {method:?},\n        pipeline: Pipeline::{pipeline:?},\n        \
                 loss_bits: {},\n        norm_bits: {},\n        bits: &{:?},\n        \
                 param_hash: {:#018x},\n        ckpt_hash: {:#018x},\n    }},",
                hex(&got.loss_bits),
                hex(&got.norm_bits),
                got.bits,
                got.param_hash,
                got.ckpt_hash
            );
            continue;
        }
        let g = &GOLDENS[i];
        assert_eq!((g.method, g.pipeline), (method, pipeline), "golden order");
        let want = Trace {
            loss_bits: g.loss_bits.to_vec(),
            norm_bits: g.norm_bits.to_vec(),
            bits: g.bits.to_vec(),
            param_hash: g.param_hash,
            ckpt_hash: g.ckpt_hash,
        };
        assert_eq!(
            got, want,
            "{method}/{pipeline} drifted from its golden trace"
        );
    }
}
