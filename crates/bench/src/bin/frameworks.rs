//! Framework comparison: Contrastive Quant (CQ-C) applied to all three
//! siamese SSL frameworks implemented in this repo — SimCLR (negatives),
//! BYOL (momentum target) and SimSiam (stop-grad only, extra baseline
//! from the paper's ref 12) — linear evaluation on the CIFAR-like
//! config, ResNet-18.

use cq_bench::{
    fmt_acc, linear_probe, pretrain_byol_cached, pretrain_simclr_cached, Protocol, Regime, Scale,
};
use cq_core::{Pipeline, SimsiamTrainer};
use cq_eval::Table;
use cq_models::{Arch, Encoder};
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
    let pset = PrecisionSet::range(6, 16).expect("valid");

    let mut table = Table::new(
        "Framework comparison: CQ-C across SSL frameworks (linear eval, ResNet-18)",
        &["Framework", "Baseline", "CQ-C", "Δ"],
    );

    // SimCLR (cached with Table 4).
    let row = |framework: &str, base: f32, cq: f32, table: &mut Table| {
        table.row_owned(vec![
            framework.into(),
            fmt_acc(base),
            fmt_acc(cq),
            format!("{:+.2}", cq - base),
        ]);
    };

    {
        let (mut b, _) = pretrain_simclr_cached(
            &format!("ci-r18-simclr-{scale_tag}"),
            Arch::ResNet18,
            Pipeline::Baseline,
            None,
            &proto,
            &train,
        )
        .expect("simclr");
        let (mut c, _) = pretrain_simclr_cached(
            &format!("ci-r18-cq-c-{scale_tag}"),
            Arch::ResNet18,
            Pipeline::CqC,
            Some(pset.clone()),
            &proto,
            &train,
        )
        .expect("cq-c");
        let lb = linear_probe(&mut b, &train, &test, &proto).expect("linear");
        let lc = linear_probe(&mut c, &train, &test, &proto).expect("linear");
        row("SimCLR", lb, lc, &mut table);
    }

    // BYOL (cached with Table 6).
    {
        let (mut b, _) = pretrain_byol_cached(
            &format!("byol-r18-byol-{scale_tag}"),
            Arch::ResNet18,
            Pipeline::Baseline,
            None,
            &proto,
            &train,
        )
        .expect("byol");
        let (mut c, _) = pretrain_byol_cached(
            &format!("byol-r18-cq-c-{scale_tag}"),
            Arch::ResNet18,
            Pipeline::CqC,
            Some(pset.clone()),
            &proto,
            &train,
        )
        .expect("byol cq-c");
        let lb = linear_probe(&mut b, &train, &test, &proto).expect("linear");
        let lc = linear_probe(&mut c, &train, &test, &proto).expect("linear");
        row("BYOL", lb, lc, &mut table);
    }

    // SimSiam (no cache — extension runs).
    {
        let run = |pipeline: Pipeline| -> Encoder {
            eprintln!("  [train] simsiam {pipeline}");
            let enc =
                Encoder::new(&proto.byol_encoder_cfg(Arch::ResNet18), proto.seed).expect("encoder");
            let cfg =
                proto.pretrain_cfg(pipeline, pipeline.needs_precisions().then(|| pset.clone()));
            let mut t = SimsiamTrainer::new(enc, cfg).expect("trainer");
            t.train(&train).expect("training");
            t.into_encoder()
        };
        let mut b = run(Pipeline::Baseline);
        let mut c = run(Pipeline::CqC);
        let lb = linear_probe(&mut b, &train, &test, &proto).expect("linear");
        let lc = linear_probe(&mut c, &train, &test, &proto).expect("linear");
        row("SimSiam", lb, lc, &mut table);
    }

    table.print();
    cq_bench::finish(&table, "frameworks.csv");
}
