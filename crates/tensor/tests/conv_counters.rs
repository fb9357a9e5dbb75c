//! The dense-conv kernel counters leave out no work.
//!
//! A 3×3 stride-1 and a 1×1 stride-2 geometry run forward and backward at
//! batches of 1, 11 and 12 images, each a partial 16-image lane block.
//! Every case counts `tensor.conv.flops` as `2·O·(C·KH·KW)·N·OH·OW` per
//! pass and the NCHW elements copied into and out of the image-minor lane
//! layout in `tensor.conv.lane_elems`; no dense f32 conv reaches the
//! packed GEMM.
//!
//! A single test, because counters are process-global.

use std::collections::HashMap;
use std::sync::Arc;

use cq_obs::sink::MemorySink;
use cq_obs::Event;
use cq_tensor::{conv2d, conv2d_backward, Conv2dSpec, ConvShape};

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
fn every_pass_is_counted() {
    let specs = [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(1, 2, 0)];
    for spec in specs {
        for n in [1, 11, 12] {
            let s = ConvShape::new(n, 4, 8, 8, 6, spec).expect("shape");
            let (k, p, img) = (s.taps(), s.positions(), s.c * s.h * s.w);
            let x: Vec<f32> = (0..n * img).map(|i| (i % 7) as f32 - 3.0).collect();
            let w: Vec<f32> = (0..s.o * k).map(|i| (i % 5) as f32 - 2.0).collect();
            let dy: Vec<f32> = (0..n * s.o * p).map(|i| (i % 3) as f32 - 1.0).collect();
            let (mut y, mut dx, mut dw) =
                (vec![0.0; dy.len()], vec![0.0; x.len()], vec![0.0; w.len()]);
            let c = counted(|| {
                conv2d(&x, &w, &s, &mut y);
                conv2d_backward(&x, &dy, &w, &s, &mut dx, &mut dw);
            });
            let get = |name: &str| c.get(name).copied().unwrap_or(0);
            // Three passes: forward, input gradient, weight gradient.
            let flops = 2 * (s.o * k * n * p) as u64;
            assert_eq!(s.flops(), flops, "{s:?}");
            assert_eq!(get("tensor.conv.flops"), 3 * flops, "{s:?}");
            // Forward: X in, Y out. Backward: dY, X in, dX out.
            let (xe, ye) = ((n * img) as u64, (n * s.o * p) as u64);
            let lane = (xe + ye) + (ye + 2 * xe);
            assert_eq!(get("tensor.conv.lane_elems"), lane, "{s:?}");
            assert_eq!(get("tensor.gemm.packed_calls"), 0, "{s:?}");
        }
    }
}
