//! The dense-conv kernel counters leave out no work on either lowering.
//!
//! One layer geometry runs at a batch one image below the batch-lane
//! lowering's smallest (the implicit GEMM) and at that smallest batch
//! (the batch-lane path), forward and backward. Both count
//! `tensor.conv.flops` as
//! `2·O·(C·KH·KW)·N·OH·OW` per pass; the implicit GEMM also counts its
//! packed elements and GEMM calls, the lane path the NCHW elements it
//! copies into and out of its image-minor layout instead.
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
fn both_lowerings_count_every_pass() {
    for n in [11, 12] {
        let s = ConvShape::new(n, 4, 8, 8, 6, Conv2dSpec::new(3, 1, 1)).expect("shape");
        let (k, p, img) = (s.taps(), s.positions(), s.c * s.h * s.w);
        let x: Vec<f32> = (0..n * img).map(|i| (i % 7) as f32 - 3.0).collect();
        let w: Vec<f32> = (0..s.o * k).map(|i| (i % 5) as f32 - 2.0).collect();
        let dy: Vec<f32> = (0..n * s.o * p).map(|i| (i % 3) as f32 - 1.0).collect();
        let (mut y, mut dx, mut dw) = (vec![0.0; dy.len()], vec![0.0; x.len()], vec![0.0; w.len()]);
        let c = counted(|| {
            conv2d(&x, &w, &s, &mut y);
            conv2d_backward(&x, &dy, &w, &s, &mut dx, &mut dw);
        });
        let get = |name: &str| c.get(name).copied().unwrap_or(0);
        // Three passes: forward, input gradient, weight gradient.
        assert_eq!(get("tensor.conv.flops"), 3 * s.flops(), "n = {n}");
        assert_eq!(s.flops(), 2 * (s.o * k * n * p) as u64);
        let (xe, ye) = ((n * img) as u64, (n * s.o * p) as u64);
        if n < 12 {
            assert_eq!(get("tensor.gemm.packed_calls"), 3);
            // B rows: forward and weight gradient T, input gradient O.
            let rows = (2 * k + s.o) as u64;
            assert_eq!(get("tensor.conv.packed_elems"), rows * (n * p) as u64);
            assert_eq!(get("tensor.conv.lane_elems"), 0);
        } else {
            assert_eq!(get("tensor.gemm.packed_calls"), 0);
            assert_eq!(get("tensor.conv.packed_elems"), 0);
            // Forward: X in, Y out. Backward: dY, X in, dX out.
            let lane = (xe + ye) + (ye + 2 * xe);
            assert_eq!(get("tensor.conv.lane_elems"), lane);
        }
    }
}
