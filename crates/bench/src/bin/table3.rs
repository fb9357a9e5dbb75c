//! Table 3: transfer of the ImageNet-like pretrained encoders to the
//! synthetic detection task (Pascal VOC stand-in), reporting
//! AP / AP50 / AP75. Reuses the cached Table 1 encoders.

use cq_bench::{fmt_acc, pretrain_simclr_cached, Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_detect::{train_detector, DetDataset, DetectionConfig, DetectorConfig};
use cq_eval::Table;
use cq_models::Arch;
use cq_quant::PrecisionSet;

fn main() {
    cq_bench::obs_init();
    let scale = Scale::from_args();
    let proto = Protocol::new(Regime::ImagenetLike, scale);
    let (ssl_train, _) = proto.datasets();
    let scale_tag = if scale == Scale::Paper {
        "paper"
    } else {
        "quick"
    };

    let det_cfg = match scale {
        Scale::Quick => DetectionConfig::default().with_sizes(256, 96),
        Scale::Paper => DetectionConfig::default().with_sizes(1024, 256),
    };
    let (det_train, det_test) = DetDataset::generate(&det_cfg);
    let trainer_cfg = DetectorConfig {
        epochs: if scale == Scale::Paper { 30 } else { 10 },
        batch_size: 32,
        ..Default::default()
    };

    let mut table = Table::new(
        "Table 3: Transfer to the detection task (AP / AP50 / AP75)",
        &["Network", "Method", "AP", "AP50", "AP75"],
    );
    for arch in [Arch::ResNet18, Arch::ResNet34] {
        let arch_tag = if arch == Arch::ResNet18 { "r18" } else { "r34" };
        let methods: [(&str, Pipeline, Option<PrecisionSet>); 3] = [
            ("Vanilla SimCLR", Pipeline::Baseline, None),
            (
                "CQ-C",
                Pipeline::CqC,
                Some(PrecisionSet::range(8, 16).expect("valid")),
            ),
            (
                "CQ-A",
                Pipeline::CqA,
                Some(PrecisionSet::range(6, 16).expect("valid")),
            ),
        ];
        for (name, pipeline, pset) in methods {
            let short = match name {
                "Vanilla SimCLR" => "simclr",
                "CQ-C" => "cq-c",
                _ => "cq-a",
            };
            let tag = format!("in-{arch_tag}-{short}-{scale_tag}");
            let (enc, _) = pretrain_simclr_cached(&tag, arch, pipeline, pset, &proto, &ssl_train)
                .expect("pretraining failed");
            let m = train_detector(&enc, &det_train, &det_test, &trainer_cfg)
                .expect("detector training failed");
            table.row_owned(vec![
                arch.name().into(),
                name.into(),
                fmt_acc(m.ap),
                fmt_acc(m.ap50),
                fmt_acc(m.ap75),
            ]);
            eprintln!("  {arch} {name}: {m}");
        }
    }
    table.print();
    cq_bench::finish(&table, "table3.csv");
}
