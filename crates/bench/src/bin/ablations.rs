//! Design-choice ablations beyond the paper's tables (DESIGN.md §6):
//!
//! 1. **Perturbation kind** — Gaussian weight noise (Noise-A/Noise-C, the
//!    paper's stated future-work direction) vs quantization (CQ-C) vs
//!    no model-side augmentation (SimCLR).
//! 2. **Quantizer rounding** — round-to-nearest vs the paper's literal
//!    floor notation (Eq. 10).
//! 3. **Precision sampling** — the paper's uniform draws vs a CPT-style
//!    cyclic schedule (its ref 3).
//!
//! All runs share the Table 4 protocol on ResNet-18 / CIFAR-like and reuse
//! its encoder cache where applicable.

use cq_bench::{
    finetune_grid, fmt_acc, linear_probe, pretrain_simclr_cached, Protocol, Regime, Scale,
};
use cq_core::{Pipeline, PrecisionSampling, PretrainConfig, SimclrTrainer};
use cq_eval::Table;
use cq_models::{Arch, Encoder};
use cq_quant::{PrecisionSet, QuantMode};

fn main() {
    cq_bench::obs_init();
    let scale = Scale::from_args();
    let proto = Protocol::new(Regime::CifarLike, scale);
    let (train, test) = proto.datasets();
    let scale_tag = if scale == Scale::Paper {
        "paper"
    } else {
        "quick"
    };
    let pset = PrecisionSet::range(6, 16).expect("valid");

    let run_custom = |cfg: PretrainConfig| -> Encoder {
        let enc = Encoder::new(&proto.encoder_cfg(Arch::ResNet18), proto.seed).expect("encoder");
        let mut t = SimclrTrainer::new(enc, cfg).expect("trainer");
        t.train(&train).expect("training");
        t.into_encoder()
    };

    // ------------------------------------------------------------------
    // 1. Perturbation kind
    // ------------------------------------------------------------------
    let mut t1 = Table::new(
        "Ablation: model-side perturbation kind (ResNet-18, CIFAR-like)",
        &[
            "Method",
            "FP 10%",
            "FP 1%",
            "4-bit 10%",
            "4-bit 1%",
            "Linear",
        ],
    );
    // cached baseline + CQ-C rows
    for (name, pipeline) in [("SimCLR", Pipeline::Baseline), ("CQ-C", Pipeline::CqC)] {
        let tag = format!("ci-r18-{}-{scale_tag}", name.to_lowercase());
        let (mut enc, _) = pretrain_simclr_cached(
            &tag,
            Arch::ResNet18,
            pipeline,
            pipeline.needs_precisions().then(|| pset.clone()),
            &proto,
            &train,
        )
        .expect("pretraining failed");
        let grid = finetune_grid(&enc, &train, &test, &proto).expect("ft");
        let lin = linear_probe(&mut enc, &train, &test, &proto).expect("linear");
        t1.row_owned(vec![
            name.into(),
            fmt_acc(grid.fp10),
            fmt_acc(grid.fp1),
            fmt_acc(grid.q10),
            fmt_acc(grid.q1),
            fmt_acc(lin),
        ]);
    }
    for pipeline in Pipeline::extensions() {
        eprintln!("  [train] {pipeline}");
        let mut enc = run_custom(PretrainConfig {
            pipeline,
            noise_std: 0.05,
            ..proto.pretrain_cfg(Pipeline::Baseline, None)
        });
        let grid = finetune_grid(&enc, &train, &test, &proto).expect("ft");
        let lin = linear_probe(&mut enc, &train, &test, &proto).expect("linear");
        t1.row_owned(vec![
            pipeline.name().into(),
            fmt_acc(grid.fp10),
            fmt_acc(grid.fp1),
            fmt_acc(grid.q10),
            fmt_acc(grid.q1),
            fmt_acc(lin),
        ]);
    }
    t1.print();

    // ------------------------------------------------------------------
    // 2. Rounding mode
    // ------------------------------------------------------------------
    let mut t2 = Table::new(
        "Ablation: quantizer rounding mode (CQ-C, ResNet-18)",
        &["Mode", "FP 10%", "FP 1%", "Linear"],
    );
    for (name, mode) in [
        ("Round (default)", QuantMode::Round),
        ("Floor (literal Eq. 10)", QuantMode::Floor),
    ] {
        eprintln!("  [train] mode {name}");
        let mut enc = run_custom(PretrainConfig {
            quant_mode: mode,
            ..proto.pretrain_cfg(Pipeline::CqC, Some(pset.clone()))
        });
        let grid = finetune_grid(&enc, &train, &test, &proto).expect("ft");
        let lin = linear_probe(&mut enc, &train, &test, &proto).expect("linear");
        t2.row_owned(vec![
            name.into(),
            fmt_acc(grid.fp10),
            fmt_acc(grid.fp1),
            fmt_acc(lin),
        ]);
    }
    t2.print();

    // ------------------------------------------------------------------
    // 3. Precision sampling
    // ------------------------------------------------------------------
    let mut t3 = Table::new(
        "Ablation: precision-pair sampling (CQ-C, ResNet-18)",
        &["Sampling", "FP 10%", "FP 1%", "Linear"],
    );
    for (name, sampling) in [
        ("Uniform (paper)", PrecisionSampling::Uniform),
        ("Cyclic (CPT-style)", PrecisionSampling::Cyclic),
    ] {
        eprintln!("  [train] sampling {name}");
        let mut enc = run_custom(PretrainConfig {
            sampling,
            ..proto.pretrain_cfg(Pipeline::CqC, Some(pset.clone()))
        });
        let grid = finetune_grid(&enc, &train, &test, &proto).expect("ft");
        let lin = linear_probe(&mut enc, &train, &test, &proto).expect("linear");
        t3.row_owned(vec![
            name.into(),
            fmt_acc(grid.fp10),
            fmt_acc(grid.fp1),
            fmt_acc(lin),
        ]);
    }
    t3.print();
    cq_bench::print_obs_summary();
}
