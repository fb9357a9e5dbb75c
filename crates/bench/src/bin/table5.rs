//! Table 5: linear evaluation on the CIFAR-like config across six
//! networks (reuses the cached Table 4 encoders).

use cq_bench::{fmt_acc, linear_probe, pretrain_simclr_cached, Protocol, Regime, Scale};
use cq_core::Pipeline;
use cq_eval::Table;
use cq_models::Arch;
use cq_quant::PrecisionSet;

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
    let proto = Protocol::new(Regime::CifarLike, scale);
    let (train, test) = proto.datasets();
    let scale_tag = if scale == Scale::Paper {
        "paper"
    } else {
        "quick"
    };

    let mut header = vec!["Method".to_string()];
    header.extend(Arch::all().iter().map(|a| a.name().to_string()));
    let headers: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table 5: Linear evaluation on six networks (CIFAR-like)",
        &headers,
    );

    for (name, pipeline, pset) in [
        ("SimCLR", Pipeline::Baseline, None),
        (
            "CQ-C",
            Pipeline::CqC,
            Some(PrecisionSet::range(6, 16).expect("valid")),
        ),
    ] {
        let mut cells = vec![name.to_string()];
        for arch in Arch::all() {
            let tag = format!("ci-{}-{}-{scale_tag}", arch_tag(arch), name.to_lowercase());
            let (mut enc, _) =
                pretrain_simclr_cached(&tag, arch, pipeline, pset.clone(), &proto, &train)
                    .expect("pretraining failed");
            let acc = linear_probe(&mut enc, &train, &test, &proto).expect("linear eval failed");
            cells.push(fmt_acc(acc));
            eprintln!("  {arch} {name}: linear done");
        }
        table.row_owned(cells);
    }
    table.print();
    cq_bench::finish(&table, "table5.csv");
}
