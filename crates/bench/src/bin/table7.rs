//! Table 7: ablation of the CQ variants (CQ-A / CQ-B / CQ-C, precision
//! set 6-16) against SimCLR on the CIFAR-like config, ResNet-34/74 +
//! MobileNetV2. Also reports the gradient-explosion rate the paper
//! observed for CQ-B.
//!
//! `--seed <n>` runs one seed of a multi-seed experiment: it sets the
//! protocol's master seed and the dataset's seed, and writes
//! `table7_s<n>.csv` instead of `table7.csv`.

use cq_bench::{finetune_grid, fmt_acc, pretrain_simclr_cached, Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_eval::Table;
use cq_models::Arch;
use cq_quant::PrecisionSet;

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
    let pset = PrecisionSet::range(6, 16).expect("valid");

    let mut table = Table::new(
        "Table 7: CQ variant ablation (CIFAR-like, precision set 6-16)",
        &[
            "Network",
            "Method",
            "FP 10%",
            "FP 1%",
            "4-bit 10%",
            "4-bit 1%",
            "Exploded steps",
        ],
    );
    for (arch, at) in [
        (Arch::ResNet34, "r34"),
        (Arch::ResNet74, "r74"),
        (Arch::MobileNetV2, "mnv2"),
    ] {
        for (name, pipeline) in [
            ("SimCLR", Pipeline::Baseline),
            ("CQ-A", Pipeline::CqA),
            ("CQ-B", Pipeline::CqB),
            ("CQ-C", Pipeline::CqC),
        ] {
            // SimCLR and CQ-C share tags (and caches) with Table 4.
            let tag = format!("ci-{at}-{}-{scale_tag}", name.to_lowercase());
            let pset_arg = (pipeline != Pipeline::Baseline).then(|| pset.clone());
            let (enc, expl) =
                pretrain_simclr_cached(&tag, arch, pipeline, pset_arg, &proto, &train)
                    .expect("pretraining failed");
            let grid = finetune_grid(&enc, &train, &test, &proto).expect("fine-tuning failed");
            table.row_owned(vec![
                arch.name().into(),
                name.into(),
                fmt_acc(grid.fp10),
                fmt_acc(grid.fp1),
                fmt_acc(grid.q10),
                fmt_acc(grid.q1),
                format!("{:.1}%", 100.0 * expl),
            ]);
            eprintln!(
                "  {arch} {name}: done (explosion rate {:.1}%)",
                100.0 * expl
            );
        }
    }
    table.print();
    cq_bench::finish(&table, &cq_bench::csv_name("table7", seed));
}
