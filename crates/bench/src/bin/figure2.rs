//! Figure 2: t-SNE visualisation of the learned representations.
//!
//! Embeds the test-set features of the SimCLR- and Contrastive-Quant-
//! trained encoders with exact t-SNE, dumps the 2-D embeddings (+labels)
//! to CSV for plotting, and prints the quantitative separability metrics
//! that correspond to the paper's visual claim ("better linear
//! separability, especially under larger models").

use cq_bench::{fmt_acc, pretrain_simclr_cached, Protocol, Regime, Scale};
use cq_core::{extract_features, Pipeline};
use cq_eval::{knn_accuracy, separability_ratio, tsne, Table, TsneConfig};
use cq_models::Arch;
use cq_quant::PrecisionSet;
use std::io::Write as _;

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
        "Figure 2: representation separability (t-SNE embedding metrics)",
        &[
            "Network",
            "Method",
            "kNN acc (features)",
            "kNN acc (t-SNE 2-D)",
            "Separability ratio",
        ],
    );
    for (arch, at) in [(Arch::ResNet18, "r18"), (Arch::ResNet34, "r34")] {
        for (name, pipeline, pset) in [
            ("SimCLR", Pipeline::Baseline, None),
            (
                "CQ-C",
                Pipeline::CqC,
                Some(PrecisionSet::range(6, 16).expect("valid")),
            ),
        ] {
            let tag = format!("ci-{at}-{}-{scale_tag}", name.to_lowercase());
            let (mut enc, _) = pretrain_simclr_cached(&tag, arch, pipeline, pset, &proto, &train)
                .expect("pretraining failed");
            let (feats, labels) = extract_features(&mut enc, &test, 64).expect("features");
            let emb = tsne(
                &feats,
                &TsneConfig {
                    iterations: 400,
                    perplexity: 12.0,
                    lr: 50.0,
                    ..Default::default()
                },
            );

            // dump embedding CSV: x,y,label
            let fname = format!("figure2_{at}_{}.csv", name.to_lowercase().replace('-', ""));
            let mut f = std::fs::File::create(&fname).expect("csv");
            writeln!(f, "x,y,label").unwrap();
            for (i, &lab) in labels.iter().enumerate() {
                writeln!(
                    f,
                    "{},{},{}",
                    emb.as_slice()[i * 2],
                    emb.as_slice()[i * 2 + 1],
                    lab
                )
                .unwrap();
            }

            table.row_owned(vec![
                arch.name().into(),
                name.into(),
                fmt_acc(knn_accuracy(&feats, &labels, 5)),
                fmt_acc(knn_accuracy(&emb, &labels, 5)),
                format!("{:.3}", separability_ratio(&feats, &labels)),
            ]);
            eprintln!("  {arch} {name}: embedded -> {fname}");
        }
    }
    table.print();
    cq_bench::finish(&table, "figure2.csv");
}
