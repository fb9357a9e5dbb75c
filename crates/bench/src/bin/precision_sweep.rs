//! Precision-set sweep (§4.1 of the paper lists 4-16 / 6-16 / 8-16 as
//! candidates): CQ-C on ResNet-18, CIFAR-like config, one row per set.
//! Complements Table 8's observation that more diverse precision sets
//! help.

use cq_bench::{
    finetune_grid, fmt_acc, linear_probe, pretrain_simclr_cached, Protocol, Regime, Scale,
};
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
        "Precision-set sweep: CQ-C on ResNet-18 (CIFAR-like)",
        &[
            "Precision Set",
            "Diversity",
            "FP 10%",
            "FP 1%",
            "4-bit 10%",
            "4-bit 1%",
            "Linear",
        ],
    );
    for (lo, hi) in [(4u8, 16u8), (6, 16), (8, 16)] {
        let pset = PrecisionSet::range(lo, hi).expect("valid");
        let diversity = pset.diversity();
        let tag = if (lo, hi) == (6, 16) {
            format!("ci-r18-cq-c-{scale_tag}") // shared with Table 4
        } else {
            format!("psweep-r18-{lo}-{hi}-{scale_tag}")
        };
        let (mut enc, _) = pretrain_simclr_cached(
            &tag,
            Arch::ResNet18,
            Pipeline::CqC,
            Some(pset),
            &proto,
            &train,
        )
        .expect("pretraining failed");
        let grid = finetune_grid(&enc, &train, &test, &proto).expect("fine-tuning failed");
        let lin = linear_probe(&mut enc, &train, &test, &proto).expect("linear eval failed");
        table.row_owned(vec![
            format!("{lo}-{hi}"),
            diversity.to_string(),
            fmt_acc(grid.fp10),
            fmt_acc(grid.fp1),
            fmt_acc(grid.q10),
            fmt_acc(grid.q1),
            fmt_acc(lin),
        ]);
        eprintln!("  {lo}-{hi}: done");
    }
    table.print();
    cq_bench::finish(&table, "precision_sweep.csv");
}
