//! Table 4: CQ-C (precision set 6-16) vs SimCLR on the CIFAR-like config
//! across all six networks, fine-tuning with 10%/1% labels at FP/4-bit.
//!
//! `--seed <n>` runs one seed of a multi-seed experiment: it sets the
//! protocol's master seed and the dataset's seed, and writes
//! `table4_s<n>.csv` instead of `table4.csv`.

use cq_bench::{finetune_grid, fmt_acc, pretrain_simclr_cached, Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_eval::Table;
use cq_models::Arch;
use cq_quant::PrecisionSet;

/// Short cache tag for an architecture.
fn arch_tag(arch: Arch) -> &'static str {
    match arch {
        Arch::ResNet18 => "r18",
        Arch::ResNet34 => "r34",
        Arch::ResNet74 => "r74",
        Arch::ResNet110 => "r110",
        Arch::ResNet152 => "r152",
        Arch::MobileNetV2 => "mnv2",
    }
}

fn main() {
    cq_bench::obs_init();
    let scale = Scale::from_args();
    let seed = cq_bench::seed_from_args();
    let mut proto = Protocol::new(Regime::CifarLike, scale);
    if let Some(seed) = seed {
        proto = proto.with_seed(seed);
    }
    let (train, test) = proto.datasets();
    let scale_tag = if scale == Scale::Paper {
        "paper"
    } else {
        "quick"
    };

    let mut table = Table::new(
        "Table 4: CQ-C vs SimCLR on six networks (CIFAR-like, fine-tuning)",
        &[
            "Network",
            "Method",
            "FP 10%",
            "FP 1%",
            "4-bit 10%",
            "4-bit 1%",
        ],
    );
    for arch in Arch::all() {
        for (name, pipeline, pset) in [
            ("SimCLR", Pipeline::Baseline, None),
            (
                "CQ-C",
                Pipeline::CqC,
                Some(PrecisionSet::range(6, 16).expect("valid")),
            ),
        ] {
            let tag = format!("ci-{}-{}-{scale_tag}", arch_tag(arch), name.to_lowercase());
            let (enc, _) = pretrain_simclr_cached(&tag, arch, pipeline, pset, &proto, &train)
                .expect("pretraining failed");
            let grid = finetune_grid(&enc, &train, &test, &proto).expect("fine-tuning failed");
            table.row_owned(vec![
                arch.name().into(),
                name.into(),
                fmt_acc(grid.fp10),
                fmt_acc(grid.fp1),
                fmt_acc(grid.q10),
                fmt_acc(grid.q1),
            ]);
            eprintln!("  {arch} {name}: done");
        }
    }
    table.print();
    cq_bench::finish(&table, &cq_bench::csv_name("table4", seed));
}
