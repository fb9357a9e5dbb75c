//! Table 8: CQ-Quant — quantization as the *only* augmentation (§4.5) —
//! vs no SSL pre-training at all, on ResNet-74/110, precision sets 6-16
//! and 8-16. Reports fine-tuning (FP, 1% and 10% labels) and linear
//! evaluation, matching the paper's columns.

use cq_bench::{fmt_acc, linear_probe, pretrain_simclr_cached, Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_eval::{finetune, FinetuneConfig, Table};
use cq_models::{Arch, Encoder};
use cq_quant::{Precision, PrecisionSet};

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

    let mut table = Table::new(
        "Table 8: CQ-Quant (quantization-only augmentation) vs no SSL training",
        &[
            "Network",
            "Precision Set",
            "FT FP 1%",
            "FT FP 10%",
            "Linear eval",
        ],
    );
    let ft = |enc: &Encoder, fraction: f32| -> f32 {
        let cfg = FinetuneConfig {
            label_fraction: fraction,
            precision: Precision::Fp,
            epochs: proto.ft_epochs,
            batch_size: 64,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: proto.seed ^ 0xF1,
        };
        finetune(enc, &train, &test, &cfg)
            .expect("fine-tuning failed")
            .test_acc
    };

    for (arch, at) in [(Arch::ResNet74, "r74"), (Arch::ResNet110, "r110")] {
        for (lo, hi) in [(6u8, 16u8), (8, 16)] {
            let pset = PrecisionSet::range(lo, hi).expect("valid");
            let tag = format!("cqq-{at}-{lo}-{hi}-{scale_tag}");
            let (mut enc, _) =
                pretrain_simclr_cached(&tag, arch, Pipeline::CqQuant, Some(pset), &proto, &train)
                    .expect("pretraining failed");
            let lin = linear_probe(&mut enc, &train, &test, &proto).expect("linear eval failed");
            table.row_owned(vec![
                arch.name().into(),
                format!("{lo}-{hi}"),
                fmt_acc(ft(&enc, 0.01)),
                fmt_acc(ft(&enc, 0.1)),
                fmt_acc(lin),
            ]);
            eprintln!("  {arch} {lo}-{hi}: done");
        }
        // No-SSL baseline: a freshly initialised encoder.
        let mut fresh = Encoder::new(&proto.encoder_cfg(arch), proto.seed).expect("encoder");
        let lin = linear_probe(&mut fresh, &train, &test, &proto).expect("linear eval failed");
        table.row_owned(vec![
            arch.name().into(),
            "No SSL Training".into(),
            fmt_acc(ft(&fresh, 0.01)),
            fmt_acc(ft(&fresh, 0.1)),
            fmt_acc(lin),
        ]);
        eprintln!("  {arch} no-ssl: done");
    }
    table.print();
    cq_bench::finish(&table, "table8.csv");
}
