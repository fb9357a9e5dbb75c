//! Profiling-determinism regression test (ISSUE satellite): running the
//! exact golden-trace workload with `CQ_PROF` timeline profiling ON must
//! reproduce the same per-step loss bits, sampled bit-width sequence and
//! final-parameter hash as the unprofiled golden run — profiling reads clocks and stages
//! intervals, but must never perturb RNG draws, the chunk grid, or any
//! reduction order. The goldens below are the same values as
//! `golden_trace.rs`; a divergence here with that test passing means the
//! profiler itself changed training behaviour.
//!
//! Also asserts the timeline is well-formed: span intervals on one
//! thread are properly nested (RAII scopes cannot partially overlap) and
//! every interval carries a sane extent.
//!
//! Single `#[test]` in its own file: the sink and the profiling gate are
//! process-global.

use std::collections::BTreeMap;
use std::sync::Arc;

use cq_core::{Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{Dataset, DatasetConfig};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_obs::{prof, Event};
use cq_quant::PrecisionSet;

// Must stay byte-for-byte identical to the goldens in `golden_trace.rs`.
const GOLDEN_LOSS_BITS: [u32; 3] = [0x402d_6080, 0x402f_342b, 0x402d_46a1];
const GOLDEN_BITS: [u32; 6] = [6, 7, 13, 10, 16, 11];
const GOLDEN_PARAM_HASH: u64 = 0x1d1d_4a31_9019_568f;

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
fn profiled_three_step_pretrain_matches_unprofiled_goldens() {
    let sink = Arc::new(MemorySink::new());
    cq_obs::reset();
    cq_obs::install(sink.clone());
    prof::set_enabled(true);

    let encoder = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 2).with_proj(16, 8), 7)
        .expect("encoder construction");
    let cfg = PretrainConfig {
        pipeline: Pipeline::CqA,
        precision_set: Some(PrecisionSet::range(6, 16).expect("valid range")),
        epochs: 1,
        batch_size: 8,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    };
    let (train, _test) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(24, 8));
    let mut trainer = SimclrTrainer::new(encoder, cfg).expect("trainer construction");
    trainer.train(&train).expect("3-step pretrain");

    // Drain the main thread's staged intervals into the sink before
    // reading it (workers drain at job boundaries, the caller on flush).
    cq_obs::flush();
    prof::set_enabled(false);
    cq_obs::uninstall();
    let events = sink.take();

    // --- the golden values, bitwise ---
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
    let steps: Vec<u64> = losses.iter().map(|&(s, _)| s).collect();
    assert_eq!(
        steps,
        [0, 1, 2],
        "one train.loss per step even when profiled"
    );
    let loss_bits: Vec<u32> = losses.iter().map(|&(_, b)| b).collect();
    assert_eq!(
        loss_bits,
        GOLDEN_LOSS_BITS.to_vec(),
        "per-step loss bits drifted under profiling: the profiler must not perturb training"
    );
    assert_eq!(
        bits,
        GOLDEN_BITS.to_vec(),
        "sampled bit-width sequence drifted under profiling"
    );
    assert_eq!(
        param_hash(trainer.encoder()),
        GOLDEN_PARAM_HASH,
        "final parameter bits drifted under profiling"
    );

    // --- timeline well-formedness ---
    let mut span_lanes: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut n_timeline = 0usize;
    for e in &events {
        if let Event::Timeline {
            cat,
            tid,
            start_ns,
            dur_ns,
            ..
        } = e
        {
            n_timeline += 1;
            let end = start_ns
                .checked_add(*dur_ns)
                .expect("interval extent overflows u64");
            if *cat == prof::CAT_SPAN {
                span_lanes.entry(*tid).or_default().push((*start_ns, end));
            }
        }
    }
    assert!(
        n_timeline > 0,
        "a profiled run must stage timeline intervals"
    );
    // RAII scopes on one thread yield properly nested intervals: sorted
    // by (start asc, end desc), each interval either contains the next
    // or ends before it starts — partial overlap is a malformed stream.
    for (tid, mut lane) in span_lanes {
        lane.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (s, e) in lane {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= s {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, top_end)) = stack.last() {
                assert!(
                    e <= top_end,
                    "partial overlap on thread {tid}: [{s}, {e}) vs enclosing end {top_end}"
                );
            }
            stack.push((s, e));
        }
    }
}
