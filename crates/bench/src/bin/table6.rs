//! Table 6: CQ-C vs vanilla BYOL on the CIFAR-like config
//! (ResNet-18/34 + MobileNetV2), fine-tuning grid, precision set 6-16.

use cq_bench::{finetune_grid, fmt_acc, pretrain_byol_cached, Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_eval::Table;
use cq_models::Arch;
use cq_quant::PrecisionSet;

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
        "Table 6: CQ-C vs BYOL (CIFAR-like, fine-tuning, precision set 6-16)",
        &[
            "Network",
            "Method",
            "FP 10%",
            "FP 1%",
            "4-bit 10%",
            "4-bit 1%",
        ],
    );
    for (arch, at) in [
        (Arch::ResNet18, "r18"),
        (Arch::ResNet34, "r34"),
        (Arch::MobileNetV2, "mnv2"),
    ] {
        for (name, pipeline, pset) in [
            ("BYOL", Pipeline::Baseline, None),
            (
                "CQ-C",
                Pipeline::CqC,
                Some(PrecisionSet::range(6, 16).expect("valid")),
            ),
        ] {
            let tag = format!("byol-{at}-{}-{scale_tag}", name.to_lowercase());
            let (enc, _) = pretrain_byol_cached(&tag, arch, pipeline, pset, &proto, &train)
                .expect("BYOL pretraining failed");
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
    cq_bench::finish(&table, "table6.csv");
}
