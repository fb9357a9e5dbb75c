//! Every layer an encoder runs in the lane layout (`cq_tensor::lanes`)
//! gives, on the row-major conversion of its lane output, the bits of
//! its row-major path: outputs, input gradients, parameter gradients and
//! running statistics. The row-major paths are held to the scalar
//! oracles of `cq_nn::reference` by the unit tests; the dense and
//! depthwise convolutions are also checked here against the per-sample
//! loops of `cq_tensor::gemm::reference` directly.
//!
//! Batches of 1, 8, 16, 17 and 33 images put whole and partial 16-image
//! blocks under every layer, at every SIMD level the host runs and at
//! thread limits 1/2/5/8. In builds with debug assertions every pad lane
//! holds NaN (conversions write it, recycled buffers are poisoned), so a
//! pad lane that reached a statistic, a range scan or a weight gradient
//! would show as a NaN or as a different quantization grid.

use cq_nn::spec::{LayerKind, Plan};
use cq_nn::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, ForwardCtx, GlobalAvgPool, Layer, ParamSet, Relu, Relu6,
    Sequential,
};
use cq_quant::{Precision, QuantConfig};
use cq_tensor::gemm::reference;
use cq_tensor::par::with_thread_limit;
use cq_tensor::simd::{with_simd_level, SimdLevel};
use cq_tensor::{Conv2dSpec, ConvShape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Batches: partial blocks, one block, a block and one image, two and one.
const BATCHES: [usize; 5] = [1, 8, 16, 17, 33];
const THREADS: [usize; 4] = [1, 2, 5, 8];

/// Channels and spatial side of the layer inputs.
const C: usize = 5;
const SIDE: usize = 6;

fn bits(t: &Tensor) -> Vec<u32> {
    t.to_nchw().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Seeded values with exact zeros and values past ReLU6's knee.
fn fill(dims: &[usize], seed: u64) -> Tensor {
    let len = dims.iter().product::<usize>();
    let v = (0..len)
        .map(|i| {
            let k = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97) % 4099;
            if k.is_multiple_of(9) {
                0.0
            } else {
                (k as f32 / 4099.0 - 0.45) * 16.0
            }
        })
        .collect();
    Tensor::from_vec(v, dims).expect("dims")
}

/// Output, input gradient, parameter gradients and layer state of one
/// forward and backward of `layer` on `x` (either layout).
fn run(layer: &mut dyn Layer, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Vec<Vec<u32>> {
    let (y, cache) = layer.forward(ps, x, ctx).expect("forward");
    assert_eq!(y.is_lanes(), x.is_lanes() && y.rank() == 4, "output layout");
    let dy = fill(y.dims(), 7);
    let dy = if y.is_lanes() {
        dy.to_lanes().expect("rank 4")
    } else {
        dy
    };
    let mut gs = ps.zero_grads();
    let dx = layer.backward(ps, &cache, &dy, &mut gs).expect("backward");
    assert_eq!(dx.layout(), x.layout(), "input gradient layout");
    let mut out = vec![bits(&y), bits(&dx)];
    out.extend(ps.iter().map(|(id, _, _)| bits(gs.get(id))));
    out.extend(layer.state_tensors().into_iter().map(bits));
    out
}

/// Checks the lane path of the layers `make` builds against their
/// row-major path on `[n, C, SIDE, SIDE]` inputs, at every batch, level
/// and thread limit.
fn check(what: &str, ctx: &ForwardCtx, make: impl Fn() -> (ParamSet, Box<dyn Layer>)) {
    for n in BATCHES {
        let x = fill(&[n, C, SIDE, SIDE], n as u64);
        let (ps, mut layer) = make();
        let want = run(layer.as_mut(), &ps, &x, ctx);
        let xl = x.to_lanes().expect("rank 4");
        for level in SimdLevel::supported() {
            for limit in THREADS {
                let (ps, mut layer) = make();
                let got = with_simd_level(level, || {
                    with_thread_limit(limit, || run(layer.as_mut(), &ps, &xl, ctx))
                });
                assert_eq!(got, want, "{what} n={n} {level:?} {limit} threads");
            }
        }
    }
}

fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn ctxs() -> [(&'static str, ForwardCtx); 3] {
    [
        ("train", ForwardCtx::train()),
        ("eval", ForwardCtx::eval()),
        (
            "train 5-bit",
            ForwardCtx::train().with_quant(QuantConfig::uniform(Precision::Bits(5))),
        ),
    ]
}

#[test]
fn dense_convs_match_their_row_major_path_and_the_oracle() {
    // 3×3 at stride 1 and 2, and 1×1 shortcuts at stride 1 and 2.
    for (k, stride, pad, bias) in [
        (3, 1, 1, false),
        (3, 2, 1, true),
        (1, 1, 0, false),
        (1, 2, 0, false),
    ] {
        let spec = Conv2dSpec::new(k, stride, pad);
        let make = || -> (ParamSet, Box<dyn Layer>) {
            let mut ps = ParamSet::new();
            let conv = Conv2d::new(&mut ps, "c", C, 7, spec, bias, &mut seeded(3));
            (ps, Box::new(conv))
        };
        for (name, ctx) in ctxs() {
            check(&format!("Conv2d {spec:?} {name}"), &ctx, make);
        }
        // The row-major path, and so the lane one, is the oracle's.
        for n in BATCHES {
            let x = fill(&[n, C, SIDE, SIDE], n as u64);
            let (ps, mut conv) = make();
            let (y, _) = conv
                .forward(&ps, &x.to_lanes().unwrap(), &ForwardCtx::eval())
                .unwrap();
            let s = ConvShape::new(n, C, SIDE, SIDE, 7, spec).unwrap();
            let w = ps.iter().next().unwrap().2.as_slice();
            let mut want = vec![0.0f32; n * 7 * s.positions()];
            reference::conv2d(x.as_slice(), w, &s, &mut want);
            if bias {
                // The layer adds its fresh, zero bias (−0.0 becomes +0.0).
                want.iter_mut().for_each(|v| *v += 0.0);
            }
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits(&y), want, "Conv2d {spec:?} n={n} vs oracle");
        }
    }
}

#[test]
fn depthwise_convs_match_their_row_major_path_and_the_oracle() {
    for (stride, pad) in [(1, 1), (2, 1)] {
        let spec = Conv2dSpec::new(3, stride, pad);
        let make = || -> (ParamSet, Box<dyn Layer>) {
            let mut ps = ParamSet::new();
            let dw = DepthwiseConv2d::new(&mut ps, "d", C, spec, &mut seeded(4));
            (ps, Box::new(dw))
        };
        check(
            &format!("DepthwiseConv2d {spec:?}"),
            &ForwardCtx::train(),
            make,
        );
        for n in BATCHES {
            let x = fill(&[n, C, SIDE, SIDE], n as u64);
            let (ps, mut dw) = make();
            let (y, _) = dw
                .forward(&ps, &x.to_lanes().unwrap(), &ForwardCtx::eval())
                .unwrap();
            let s = ConvShape::new(n, C, SIDE, SIDE, C, spec).unwrap();
            let w = ps.iter().next().unwrap().2.as_slice();
            let mut want = vec![0.0f32; n * C * s.positions()];
            reference::depthwise_conv2d(x.as_slice(), w, &s, &mut want);
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits(&y), want, "DepthwiseConv2d {spec:?} n={n} vs oracle");
        }
    }
}

#[test]
fn batch_norm_and_activations_match_their_row_major_path() {
    let bn = || -> (ParamSet, Box<dyn Layer>) {
        let mut ps = ParamSet::new();
        let bn = BatchNorm2d::new(&mut ps, "bn", C);
        // Gamma and beta off their (1, 0) init.
        let ids: Vec<_> = ps.iter().map(|(id, _, _)| id).collect();
        for (k, id) in ids.into_iter().enumerate() {
            for (i, v) in ps.get_mut(id).as_mut_slice().iter_mut().enumerate() {
                *v += 0.1 * (i + k) as f32;
            }
        }
        (ps, Box::new(bn))
    };
    let relu = || -> (ParamSet, Box<dyn Layer>) { (ParamSet::new(), Box::new(Relu::new())) };
    let relu6 = || -> (ParamSet, Box<dyn Layer>) { (ParamSet::new(), Box::new(Relu6::new())) };
    let gap =
        || -> (ParamSet, Box<dyn Layer>) { (ParamSet::new(), Box::new(GlobalAvgPool::new())) };
    for (name, ctx) in ctxs() {
        check(&format!("BatchNorm2d {name}"), &ctx, bn);
        check(&format!("Relu {name}"), &ctx, relu);
        check(&format!("Relu6 {name}"), &ctx, relu6);
        check(&format!("GlobalAvgPool {name}"), &ctx, gap);
    }
}

/// A residual block as encoders build it: conv → BN → ReLU → conv → BN,
/// plus a 1×1 stride-2 projection skip with its BN, joined and followed
/// by a ReLU (whose fake-quant fuses with the join).
fn residual_block() -> (ParamSet, Box<dyn Layer>) {
    let conv = |i: usize, o: usize, k: usize, s: usize| LayerKind::Conv2d {
        in_ch: i,
        out_ch: o,
        spec: Conv2dSpec::new(k, s, k / 2),
        bias: false,
    };
    let bn = |c: usize| LayerKind::BatchNorm2d { channels: c };
    let mut main = Plan::new();
    main.push("c1", conv(C, 8, 3, 2))
        .push("b1", bn(8))
        .push("r1", LayerKind::Relu)
        .push("c2", conv(8, 8, 3, 1))
        .push("b2", bn(8));
    let mut skip = Plan::new();
    skip.push("sc", conv(C, 8, 1, 2)).push("sb", bn(8));
    let mut block = Plan::new();
    block
        .push(
            "res",
            LayerKind::Residual {
                main,
                skip: Some(skip),
            },
        )
        .push("out", LayerKind::Relu);
    let mut plan = Plan::new();
    plan.push("block", LayerKind::Block(block));
    let mut ps = ParamSet::new();
    let net: Sequential = plan.build(&mut ps, &mut seeded(5));
    (ps, Box::new(net))
}

#[test]
fn residual_blocks_match_their_row_major_path() {
    for (name, ctx) in ctxs() {
        check(&format!("Residual {name}"), &ctx, residual_block);
    }
}
