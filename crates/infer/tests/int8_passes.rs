//! The passes an int8 ResNet-18 batch makes over its activations besides
//! the dense convs' tile stores.
//!
//! Every ReLU runs in the tile store of the conv before it, and every
//! residual add in the tile store of the main branch's last conv, so the
//! backbone makes no separate clamp or add pass. The snaps write the
//! next conv's quads themselves, so the only activation quantized from a
//! range scan is the image at the stem.
//!
//! A single test, because counters are process-global.

use std::collections::HashMap;
use std::sync::Arc;

use cq_infer::IntEncoder;
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_obs::Event;
use cq_tensor::Tensor;
use rand::SeedableRng;

/// Counter totals of the work `run` does.
fn counted(run: impl FnOnce()) -> HashMap<&'static str, u64> {
    cq_obs::reset();
    let mem = Arc::new(MemorySink::new());
    cq_obs::install(mem.clone());
    run();
    cq_obs::flush();
    cq_obs::uninstall();
    mem.take()
        .into_iter()
        .filter_map(|e| match e {
            Event::Counter { name, total } => Some((name, total)),
            _ => None,
        })
        .collect()
}

#[test]
fn resnet18_quantizes_once_per_batch_and_runs_no_clamp_or_add_pass() {
    let enc = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 8), 5).expect("encoder");
    let int = IntEncoder::from_encoder(&enc).expect("conversion");
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let x = Tensor::randn(&[17, 3, 16, 16], 0.0, 1.0, &mut rng);
    let c = counted(|| {
        int.features(&x).expect("features");
    });
    let get = |name| c.get(name).copied().unwrap_or(0);
    assert_eq!(get("infer.quantize_passes"), 1, "{c:?}");
    assert_eq!(get("infer.relu_scans"), 0, "{c:?}");
    assert_eq!(get("infer.residual_adds"), 0, "{c:?}");
    // The stem, 16 block convs and 3 projections.
    assert_eq!(get("tensor.gemm_i8.packed_calls"), 20, "{c:?}");
}
