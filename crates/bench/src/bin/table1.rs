//! Table 1: Contrastive Quant vs SimCLR on the ImageNet-like config,
//! ResNet-18/34, fine-tuning with 10%/1% labels at FP and 4-bit.
//!
//! Paper pairing (§4.2): CQ-A uses precision set 6-16, CQ-C uses 8-16.
//!
//! `--seed <n>` runs one seed of a multi-seed experiment: it sets the
//! protocol's master seed and the dataset's seed, and writes
//! `table1_s<n>.csv` instead of `table1.csv`.

use cq_bench::{finetune_grid, fmt_acc, pretrain_simclr_cached, Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_eval::Table;
use cq_models::Arch;
use cq_quant::PrecisionSet;

fn main() {
    cq_bench::obs_init();
    let scale = Scale::from_args();
    let seed = cq_bench::seed_from_args();
    let mut proto = Protocol::new(Regime::ImagenetLike, scale);
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
        "Table 1: Benchmark Contrastive Quant against SimCLR (ImageNet-like, fine-tuning)",
        &[
            "Network",
            "Method",
            "Precision Set",
            "FP 10%",
            "FP 1%",
            "4-bit 10%",
            "4-bit 1%",
        ],
    );
    for arch in [Arch::ResNet18, Arch::ResNet34] {
        let arch_tag = if arch == Arch::ResNet18 { "r18" } else { "r34" };
        let methods: [(&str, Pipeline, Option<PrecisionSet>, &str); 3] = [
            ("SimCLR", Pipeline::Baseline, None, "-"),
            (
                "CQ-A",
                Pipeline::CqA,
                Some(PrecisionSet::range(6, 16).expect("valid")),
                "6-16",
            ),
            (
                "CQ-C",
                Pipeline::CqC,
                Some(PrecisionSet::range(8, 16).expect("valid")),
                "8-16",
            ),
        ];
        for (name, pipeline, pset, pset_name) in methods {
            let tag = format!("in-{arch_tag}-{}-{scale_tag}", name.to_lowercase());
            let (enc, _) = pretrain_simclr_cached(&tag, arch, pipeline, pset, &proto, &train)
                .expect("pretraining failed");
            let grid = finetune_grid(&enc, &train, &test, &proto).expect("fine-tuning failed");
            table.row_owned(vec![
                arch.name().into(),
                name.into(),
                pset_name.into(),
                fmt_acc(grid.fp10),
                fmt_acc(grid.fp1),
                fmt_acc(grid.q10),
                fmt_acc(grid.q1),
            ]);
            eprintln!("  {arch} {name}: done");
        }
    }
    table.print();
    cq_bench::finish(&table, &cq_bench::csv_name("table1", seed));
}
