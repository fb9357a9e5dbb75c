//! Table 2: linear evaluation on the ImageNet-like config, ResNet-18/34
//! (reuses the cached Table 1 encoders).
//!
//! `--seed <n>` runs one seed of a multi-seed experiment: it sets the
//! protocol's master seed and the dataset's seed, reuses the encoders of
//! `table1 --seed <n>`, and writes `table2_s<n>.csv` instead of
//! `table2.csv`.

use cq_bench::{fmt_acc, linear_probe, pretrain_simclr_cached, Protocol, Regime, Scale};
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
        "Table 2: Linear evaluation (ImageNet-like)",
        &["Network", "SimCLR", "CQ-C", "CQ-A"],
    );
    for arch in [Arch::ResNet18, Arch::ResNet34] {
        let arch_tag = if arch == Arch::ResNet18 { "r18" } else { "r34" };
        let mut cells = vec![arch.name().to_string()];
        let methods: [(&str, Pipeline, Option<PrecisionSet>); 3] = [
            ("simclr", Pipeline::Baseline, None),
            (
                "cq-c",
                Pipeline::CqC,
                Some(PrecisionSet::range(8, 16).expect("valid")),
            ),
            (
                "cq-a",
                Pipeline::CqA,
                Some(PrecisionSet::range(6, 16).expect("valid")),
            ),
        ];
        for (name, pipeline, pset) in methods {
            let tag = format!("in-{arch_tag}-{name}-{scale_tag}");
            let (mut enc, _) = pretrain_simclr_cached(&tag, arch, pipeline, pset, &proto, &train)
                .expect("pretraining failed");
            let acc = linear_probe(&mut enc, &train, &test, &proto).expect("linear eval failed");
            cells.push(fmt_acc(acc));
            eprintln!("  {arch} {name}: linear done");
        }
        table.row_owned(cells);
    }
    table.print();
    cq_bench::finish(&table, &cq_bench::csv_name("table2", seed));
}
