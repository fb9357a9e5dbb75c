//! The conv kernel counters leave out no work.
//!
//! A 3×3 stride-1 and a 1×1 stride-2 geometry run forward and backward at
//! batches of 1, 11 and 12 images, each a partial 16-image lane block.
//! Every case counts `tensor.conv.flops` as `2·O·(C·KH·KW)·N·OH·OW` per
//! pass; no dense f32 conv reaches the packed GEMM. The kernels read and
//! write the lane layout in place, so they count nothing in
//! `tensor.conv.lane_elems`: the conversions into and out of it count
//! the real elements they move, pad lanes left out.
//!
//! The int8 forward, at batches of 1, 16 and 17 images (whole panels,
//! and panels straddling images), counts `2·O·(C·KH·KW)·N·OH·OW` per
//! call in `tensor.conv_i8.flops`, and one `tensor.gemm_i8.packed_calls`.
//!
//! Depthwise convs count `2·C·KH·KW·N·OH·OW` per pass in
//! `tensor.depthwise.flops`: the f32 forward once and its backward twice
//! (input and weight gradient), the i8 forward once.
//!
//! A single test, because counters are process-global.

use std::collections::HashMap;
use std::sync::Arc;

use cq_obs::sink::MemorySink;
use cq_obs::Event;
use cq_tensor::{
    conv2d, conv2d_backward, conv2d_i8, depthwise_conv2d, depthwise_conv2d_backward,
    depthwise_conv2d_i8, ActQuads, Conv2dSpec, ConvShape, Epilogue, Layout, QuadGeom, Requant,
    Tensor,
};

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
    dense_passes_are_counted();
    int8_passes_are_counted();
    depthwise_passes_are_counted();
}

fn dense_passes_are_counted() {
    let specs = [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(1, 2, 0)];
    for spec in specs {
        for n in [1, 11, 12] {
            let s = ConvShape::new(n, 4, 8, 8, 6, spec).expect("shape");
            let (k, p, img) = (s.taps(), s.positions(), s.c * s.h * s.w);
            let (xd, yd) = ([n, s.c, s.h, s.w], [n, s.o, s.oh, s.ow]);
            let x: Vec<f32> = (0..n * img).map(|i| (i % 7) as f32 - 3.0).collect();
            let w: Vec<f32> = (0..s.o * k).map(|i| (i % 5) as f32 - 2.0).collect();
            let dy: Vec<f32> = (0..n * s.o * p).map(|i| (i % 3) as f32 - 1.0).collect();
            let x = Tensor::from_vec(x, &xd).expect("x");
            let dy = Tensor::from_vec(dy, &yd).expect("dy");
            let (mut xl, mut dyl) = (Tensor::default(), Tensor::default());
            let moved = counted(|| {
                xl = x.to_lanes().expect("x");
                dyl = dy.to_lanes().expect("dy");
            });
            let (mut y, mut dx) = (
                Tensor::written(&yd, Layout::Lanes),
                Tensor::written(&xd, Layout::Lanes),
            );
            let mut dw = vec![0.0; w.len()];
            let c = counted(|| {
                conv2d(xl.as_slice(), &w, &s, y.as_mut_slice());
                let (xs, dys) = (xl.as_slice(), dyl.as_slice());
                conv2d_backward(xs, dys, &w, &s, dx.as_mut_slice(), &mut dw);
            });
            let get = |name: &str| c.get(name).copied().unwrap_or(0);
            // Three passes: forward, input gradient, weight gradient.
            let flops = 2 * (s.o * k * n * p) as u64;
            assert_eq!(s.flops(), flops, "{s:?}");
            assert_eq!(get("tensor.conv.flops"), 3 * flops, "{s:?}");
            // The kernels copy nothing between layouts; the conversions
            // of X and dY move their real elements once each, and so does
            // the conversion of Y back.
            assert_eq!(get("tensor.conv.lane_elems"), 0, "{s:?}");
            assert_eq!(get("tensor.gemm.packed_calls"), 0, "{s:?}");
            let (xe, ye) = ((n * img) as u64, (n * s.o * p) as u64);
            assert_eq!(
                moved.get("tensor.conv.lane_elems"),
                Some(&(xe + ye)),
                "{s:?}"
            );
            let back = counted(|| assert_eq!(y.to_nchw().dims(), yd));
            assert_eq!(back.get("tensor.conv.lane_elems"), Some(&ye), "{s:?}");
        }
    }
}

fn int8_passes_are_counted() {
    let specs = [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(1, 2, 0)];
    for spec in specs {
        for n in [1, 16, 17] {
            let s = ConvShape::new(n, 5, 8, 6, 9, spec).expect("shape");
            let (k, p) = (s.taps(), s.positions());
            let x: Vec<i8> = (0..n * s.c * s.h * s.w)
                .map(|i| (i % 7) as i8 - 3)
                .collect();
            let w: Vec<i8> = (0..s.o * k).map(|i| (i % 5) as i8 - 2).collect();
            let (wsum, scale, shift) = (vec![0; s.o], vec![1.0; s.o], vec![0.0; s.o]);
            let rq = Requant {
                za: 3,
                zw: -1,
                wsum: &wsum,
                scale: &scale,
                shift: &shift,
            };
            let geom = QuadGeom {
                c: s.c,
                h: s.h,
                w: s.w,
                pad: spec.padding.0,
            };
            let xq = ActQuads::from_codes(&x, n, geom, rq.za);
            let mut y = vec![0.0; n * s.o * p];
            let c = counted(|| {
                conv2d_i8(&xq, &w, &s, &rq, Epilogue::default(), &mut y);
            });
            let flops = 2 * (s.o * k * n * p) as u64;
            assert_eq!(c.get("tensor.conv_i8.flops"), Some(&flops), "{s:?}");
            assert_eq!(c.get("tensor.gemm_i8.packed_calls"), Some(&1), "{s:?}");
        }
    }
}

fn depthwise_passes_are_counted() {
    let specs = [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(3, 2, 1)];
    for spec in specs {
        for n in [1, 16, 17] {
            let s = ConvShape::new(n, 20, 8, 6, 20, spec).expect("shape");
            let (t, p, img) = (9, s.positions(), s.c * s.h * s.w);
            let (xd, yd) = ([n, s.c, s.h, s.w], [n, s.c, s.oh, s.ow]);
            let x: Vec<f32> = (0..n * img).map(|i| (i % 7) as f32 - 3.0).collect();
            let w: Vec<f32> = (0..s.c * t).map(|i| (i % 5) as f32 - 2.0).collect();
            let dy: Vec<f32> = (0..n * s.c * p).map(|i| (i % 3) as f32 - 1.0).collect();
            let x = Tensor::from_vec(x, &xd).expect("x").to_lanes().expect("x");
            let dy = Tensor::from_vec(dy, &yd)
                .expect("dy")
                .to_lanes()
                .expect("dy");
            let (mut y, mut dx) = (
                Tensor::written(&yd, Layout::Lanes),
                Tensor::written(&xd, Layout::Lanes),
            );
            let mut dw = vec![0.0; w.len()];
            let flops = 2 * (s.c * t * n * p) as u64;
            let c = counted(|| depthwise_conv2d(x.as_slice(), &w, &s, y.as_mut_slice()));
            assert_eq!(c.get("tensor.depthwise.flops"), Some(&flops), "{s:?}");
            // Forward + backward: three passes, and no layout copies.
            let c = counted(|| {
                depthwise_conv2d(x.as_slice(), &w, &s, y.as_mut_slice());
                let (xs, dys) = (x.as_slice(), dy.as_slice());
                depthwise_conv2d_backward(xs, dys, &w, &s, dx.as_mut_slice(), &mut dw);
            });
            assert_eq!(c.get("tensor.depthwise.flops"), Some(&(3 * flops)), "{s:?}");
            assert_eq!(
                c.get("tensor.conv.lane_elems").copied().unwrap_or(0),
                0,
                "{s:?}"
            );
            // The i8 forward of one image counts its one pass.
            let codes = vec![1i8; img];
            let wc = vec![1i8; s.c * t];
            let (mut acc, mut asum) = (vec![0i32; s.c * p], vec![0i32; s.c * p]);
            let c = counted(|| {
                depthwise_conv2d_i8(&codes, &wc, s.c, s.h, s.w, &spec, 0, &mut acc, &mut asum)
            });
            assert_eq!(
                c.get("tensor.depthwise.flops"),
                Some(&(flops / n as u64)),
                "{s:?}"
            );
        }
    }
}
