//! `cq-bench kernels` — measured kernel throughput, written as a
//! schema-versioned `BENCH_<pr>.json` so every PR's speed claim is a
//! committed artifact instead of a sentence.
//!
//! For each matmul layout (`matmul`, `matmul_nt`, `matmul_tn`) across
//! a fixed size grid, reports blocked GFLOP/s, the pre-rewrite scalar
//! baseline GFLOP/s (the unblocked reference kernels dispatched exactly
//! as the old `Tensor::matmul*` were), and the speedup — both sides
//! timed in-process at the same thread count, so the ratio isolates the
//! kernel change. Machine/thread metadata lets `cq-trace bench-diff`
//! refuse to hard-gate across different hardware. End-to-end training
//! throughput is the `benchmark` binary's job, which samples it with
//! spread.
//!
//! The v2 schema adds a measured machine roofline — peak multiply-add
//! GFLOP/s (independent accumulator chains across the worker pool; the
//! kernels' determinism contract forbids FMA, so the mul-add peak is
//! the ceiling they can legally reach) and stream triad bandwidth — and
//! stamps every grid point with its arithmetic intensity and the
//! percentage of the roofline-attainable throughput it achieves. The
//! machine fingerprint gains the effective thread count (post
//! `CQ_THREADS`) and the SIMD dispatch level, so a `bench-diff` across
//! a thread-count or ISA change degrades to report-only.
//!
//! The v3 schema adds the integer inference path: `matmul_i8_nt` grid
//! points (the i8×i8→i32 blocked linear-layer kernel vs its serial
//! reference, in integer GOP/s under the same `gflops` key; older
//! artifacts also carry the retired `matmul_i8` NN points) and an
//! `int8_encoders` section measuring end-to-end imgs/sec of the
//! `cq-infer` i8 program against the fake-quant f32 eval forward per
//! encoder architecture. `conv2d_i8` points (the implicit i8 conv vs its
//! per-sample oracle at ResNet-18's stage shapes) ride under the same
//! schema, as do `conv2d_fwd`/`conv2d_bwd` points: the dense f32 conv
//! forward and backward (both gradients, as training runs them) at those
//! stage shapes and at the 1×1 shapes training runs, batch 128, against
//! the per-sample oracle. (Older artifacts also carry retired `conv2d`
//! points: single-image 3×3 forwards.) `dw_fwd`/`dw_bwd` points time the
//! depthwise conv forward and backward (both gradients) at MobileNetV2
//! w8's five depthwise shapes, batch 128, against the per-pixel oracle.
//!
//! PR 10 adds an optional `ew_chains` section under the unchanged v3
//! schema: the graph executor's fused elementwise-chain throughput
//! (BN → residual adds → ReLU → fake-quant, in GB/s of logical chain
//! traffic) against the per-layer path. The `bn_relu6_q8_train` point
//! runs BN → ReLU6 → fake-quant in train mode at a MobileNetV2 expand
//! shape, so it also covers the batch statistics and both backward taps.
//!
//! ```text
//! kernels [--scale quick|paper] [--out BENCH_10.json]
//! ```

use cq_bench::parity::clustered_batch;
use cq_bench::Scale;
use cq_infer::IntEncoder;
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_nn::graph::Recorder;
use cq_nn::{BatchNorm2d, ForwardCtx, Layer, ParamSet, Relu, Relu6};
use cq_quant::{Precision, QuantConfig};
use cq_tensor::gemm::int8::{gemm_i8_nt_ref, par_gemm_i8};
use cq_tensor::gemm::{self, Kind};
use cq_tensor::par::{num_threads, parallel_chunks_mut, parallel_for_each};
use cq_tensor::{
    conv2d, conv2d_backward, conv2d_i8, depthwise_conv2d, depthwise_conv2d_backward, ActQuads,
    Conv2dSpec, ConvShape, Epilogue, Layout, QuadGeom, Requant, Tensor,
};
use cq_trace::bench::is_integer_kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc as StdArc;
use std::time::Instant;

/// Schema identifier checked by `cq-trace bench-check` / `bench-diff`.
const SCHEMA: &str = "cq-bench-kernels/v3";

/// This PR's artifact number.
const PR: u32 = 10;

/// One measured grid point.
struct Point {
    kernel: &'static str,
    m: usize,
    n: usize,
    k: usize,
    iters: usize,
    gflops: f64,
    ref_gflops: f64,
}

/// Times `f` (already warmed up): picks an iteration count that makes one
/// rep last ~80 ms, runs three reps, returns best seconds-per-call.
fn time_best(mut f: impl FnMut()) -> (f64, usize) {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let iters = (0.08 / once).ceil().max(1.0) as usize;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    (best, iters)
}

fn randvec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Measures one matmul layout at `m`×`n`×`k`: blocked kernel vs the
/// pre-rewrite parallel reference, same data, same thread count.
fn bench_matmul(kind: Kind, m: usize, n: usize, k: usize, rng: &mut StdRng) -> Point {
    let (alen, blen) = match kind {
        Kind::Nn => (m * k, k * n),
        Kind::Nt => (m * k, n * k),
        Kind::Tn => (k * m, k * n),
    };
    let a = randvec(alen, rng);
    let b = randvec(blen, rng);
    let mut out = vec![0.0f32; m * n];
    let flops = 2.0 * m as f64 * n as f64 * k as f64;

    let (t_blocked, iters) = time_best(|| gemm::par_gemm(kind, &a, &b, m, n, k, &mut out));
    let (t_ref, _) = time_best(|| gemm::reference::par_gemm_ref(kind, &a, &b, m, n, k, &mut out));

    Point {
        kernel: match kind {
            Kind::Nn => "matmul",
            Kind::Nt => "matmul_nt",
            Kind::Tn => "matmul_tn",
        },
        m,
        n,
        k,
        iters,
        gflops: flops / t_blocked / 1e9,
        ref_gflops: flops / t_ref / 1e9,
    }
}

/// A conv's operands in the lane layout the f32 kernels take, converted
/// once outside the timed region (in an encoder they stay in it between
/// layers), and its outputs.
struct LaneOperands {
    x: Tensor,
    dy: Tensor,
    y: Tensor,
    dx: Tensor,
}

impl LaneOperands {
    fn new(s: &ConvShape, x: &[f32], dy: &[f32]) -> LaneOperands {
        let (xd, yd) = ([s.n, s.c, s.h, s.w], [s.n, s.o, s.oh, s.ow]);
        let lanes = |v: &[f32], dims: &[usize]| {
            let t = Tensor::from_vec(v.to_vec(), dims).expect("conv operand");
            t.to_lanes().expect("rank 4")
        };
        LaneOperands {
            x: lanes(x, &xd),
            dy: lanes(dy, &yd),
            y: Tensor::written(&yd, Layout::Lanes),
            dx: Tensor::written(&xd, Layout::Lanes),
        }
    }
}

/// Measures one dense f32 conv pass of a `c`→`o` layer with a square
/// `kernel` at `stride` ("same" padding) over a 128-image batch of
/// `hw`×`hw` inputs, the forward or (`backward`) both gradients: the
/// batch-lane kernels `Conv2d` runs against the per-sample oracle (a
/// materialised im2col, or col2im, and a scalar GEMM per image).
/// `m`/`n`/`k` record the forward product shape, `O`×`N·P`×`T`; the
/// backward runs two products of that size.
fn bench_conv_pass(
    backward: bool,
    (c, o, kernel, stride, hw): (usize, usize, usize, usize, usize),
    rng: &mut StdRng,
) -> Point {
    let spec = Conv2dSpec::new(kernel, stride, kernel / 2);
    let shape = ConvShape::new(128, c, hw, hw, o, spec).expect("conv geometry");
    let (t, np) = (shape.taps(), shape.n * shape.positions());
    let x = randvec(shape.n * c * hw * hw, rng);
    let wgt = randvec(o * t, rng);
    let dy = randvec(o * np, rng);
    let (mut y, mut dx, mut dw) = (
        vec![0.0f32; dy.len()],
        vec![0.0f32; x.len()],
        vec![0.0f32; wgt.len()],
    );
    let mut l = LaneOperands::new(&shape, &x, &dy);
    let ((t_kernel, iters), (t_ref, _), kernel, flops) = if backward {
        (
            time_best(|| {
                let (x, dy) = (l.x.as_slice(), l.dy.as_slice());
                conv2d_backward(x, dy, &wgt, &shape, l.dx.as_mut_slice(), &mut dw)
            }),
            time_best(|| {
                gemm::reference::conv2d_backward_input(&dy, &wgt, &shape, &mut dx);
                gemm::reference::conv2d_backward_weight(&x, &dy, &shape, &mut dw);
            }),
            "conv2d_bwd",
            2.0 * shape.flops() as f64,
        )
    } else {
        (
            time_best(|| conv2d(l.x.as_slice(), &wgt, &shape, l.y.as_mut_slice())),
            time_best(|| gemm::reference::conv2d(&x, &wgt, &shape, &mut y)),
            "conv2d_fwd",
            shape.flops() as f64,
        )
    };
    Point {
        kernel,
        m: o,
        n: np,
        k: t,
        iters,
        gflops: flops / t_kernel / 1e9,
        ref_gflops: flops / t_ref / 1e9,
    }
}

/// Measures one depthwise conv pass of a `c`-channel 3×3 layer at
/// `stride` (padding 1) over a 128-image batch of `hw`×`hw` inputs, the
/// forward or (`backward`) both gradients: the channel-lane kernels
/// `DepthwiseConv2d` runs against the per-pixel oracle. `m`/`n`/`k`
/// record `C`×`N·P`×`T`; the backward does two passes of that size.
fn bench_depthwise_pass(
    backward: bool,
    (c, hw, stride): (usize, usize, usize),
    rng: &mut StdRng,
) -> Point {
    let shape =
        ConvShape::new(128, c, hw, hw, c, Conv2dSpec::new(3, stride, 1)).expect("conv geometry");
    let (t, np) = (9, shape.n * shape.positions());
    let x = randvec(shape.n * c * hw * hw, rng);
    let wgt = randvec(c * t, rng);
    let dy = randvec(c * np, rng);
    let (mut y, mut dx, mut dw) = (
        vec![0.0f32; dy.len()],
        vec![0.0f32; x.len()],
        vec![0.0f32; wgt.len()],
    );
    let flops = 2.0 * (c * t) as f64 * np as f64;
    let mut l = LaneOperands::new(&shape, &x, &dy);
    let ((t_kernel, iters), (t_ref, _), kernel, flops) = if backward {
        (
            time_best(|| {
                let (x, dy) = (l.x.as_slice(), l.dy.as_slice());
                depthwise_conv2d_backward(x, dy, &wgt, &shape, l.dx.as_mut_slice(), &mut dw)
            }),
            time_best(|| {
                gemm::reference::depthwise_conv2d_backward(&x, &dy, &wgt, &shape, &mut dx, &mut dw)
            }),
            "dw_bwd",
            2.0 * flops,
        )
    } else {
        (
            time_best(|| depthwise_conv2d(l.x.as_slice(), &wgt, &shape, l.y.as_mut_slice())),
            time_best(|| gemm::reference::depthwise_conv2d(&x, &wgt, &shape, &mut y)),
            "dw_fwd",
            flops,
        )
    };
    Point {
        kernel,
        m: c,
        n: np,
        k: t,
        iters,
        gflops: flops / t_kernel / 1e9,
        ref_gflops: flops / t_ref / 1e9,
    }
}

/// Measures the i8×i8→i32 matmul (`a @ bᵀ`, the linear-layer layout) at
/// `m`×`n`×`k`: the blocked integer kernel (parallel dispatch) against
/// the serial scalar reference. Throughput is integer GOP/s (2·m·n·k MAC ops), reported
/// under the same `gflops` key so the diff tooling treats the points
/// uniformly.
fn bench_matmul_i8(m: usize, n: usize, k: usize, rng: &mut StdRng) -> Point {
    let a: Vec<i8> = (0..m * k)
        .map(|_| rng.gen_range(-128i16..128) as i8)
        .collect();
    let b: Vec<i8> = (0..n * k)
        .map(|_| rng.gen_range(-128i16..128) as i8)
        .collect();
    let mut out = vec![0i32; m * n];
    let ops = 2.0 * m as f64 * n as f64 * k as f64;

    let (t_blocked, iters) = time_best(|| par_gemm_i8(&a, &b, m, n, k, &mut out));
    let (t_ref, _) = time_best(|| gemm_i8_nt_ref(&a, m, k, &b, n, &mut out));

    Point {
        kernel: "matmul_i8_nt",
        m,
        n,
        k,
        iters,
        gflops: ops / t_blocked / 1e9,
        ref_gflops: ops / t_ref / 1e9,
    }
}

/// Measures an int8 conv forward for a `c`→`o` 3×3 layer over a
/// 128-image batch of `hw`×`hw` codes: the implicit i8 GEMM
/// (`conv2d_i8`, reading channel quads laid out before the timing, as
/// the pass that produces an activation writes them) against the
/// per-sample oracle (a materialised `im2col_i8` and a scalar i8 GEMM
/// per image), both requantizing into f32. Throughput is integer GOP/s;
/// `m`/`n`/`k` record the lowered product shape.
fn bench_conv_i8(c: usize, o: usize, hw: usize, rng: &mut StdRng) -> Point {
    let shape = ConvShape::new(128, c, hw, hw, o, Conv2dSpec::new(3, 1, 1)).expect("conv geometry");
    let k = shape.taps();
    let mut codes = |len: usize| -> Vec<i8> {
        (0..len)
            .map(|_| rng.gen_range(-128i16..128) as i8)
            .collect()
    };
    let x = codes(shape.n * c * hw * hw);
    let wgt = codes(o * k);
    let wsum: Vec<i32> = wgt
        .chunks_exact(k)
        .map(|r| r.iter().map(|&v| i32::from(v)).sum())
        .collect();
    let (scale, shift) = (vec![1e-3f32; o], vec![0.5f32; o]);
    let rq = Requant {
        za: 77,
        zw: -3,
        wsum: &wsum,
        scale: &scale,
        shift: &shift,
    };
    let mut out = vec![0.0f32; shape.n * o * shape.positions()];
    let ops = shape.flops() as f64;

    let geom = QuadGeom {
        c,
        h: hw,
        w: hw,
        pad: 1,
    };
    let xq = ActQuads::from_codes(&x, shape.n, geom, rq.za);
    let (t_blocked, iters) = time_best(|| {
        conv2d_i8(&xq, &wgt, &shape, &rq, Epilogue::default(), &mut out);
    });
    let (t_ref, _) =
        time_best(|| gemm::reference::conv2d_i8_per_sample(&x, &wgt, &shape, &rq, &mut out));

    Point {
        kernel: "conv2d_i8",
        m: o,
        n: shape.n * shape.positions(),
        k,
        iters,
        gflops: ops / t_blocked / 1e9,
        ref_gflops: ops / t_ref / 1e9,
    }
}

/// One end-to-end encoder throughput measurement: images per second of
/// the `cq-infer` i8 program vs the fake-quant f32 eval forward.
struct EncPoint {
    arch: Arch,
    n: usize,
    f32_ips: f64,
    int8_ips: f64,
}

/// Measures int8-vs-f32 imgs/sec for one architecture on a synthetic
/// batch (width 8, 16×16 images — the parity-harness geometry).
fn bench_int8_encoder(arch: Arch, rng_seed: u64) -> EncPoint {
    let mut enc = Encoder::new(&EncoderConfig::new(arch, 8), rng_seed).expect("encoder");
    let int = IntEncoder::from_encoder(&enc).expect("int conversion");
    let (x, _) = clustered_batch(8, 16, rng_seed);
    let n = x.dims()[0];
    let fake8 = ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(8)));

    let (t_f32, _) = time_best(|| {
        enc.features(&x, &fake8).expect("f32 forward");
    });
    let (t_int, _) = time_best(|| {
        int.features(&x).expect("int8 forward");
    });
    EncPoint {
        arch,
        n,
        f32_ips: n as f64 / t_f32,
        int8_ips: n as f64 / t_int,
    }
}

/// One fused-vs-per-layer elementwise-chain measurement.
struct ChainPoint {
    chain: &'static str,
    elems: usize,
    groups: usize,
    iters: usize,
    fused_gbs: f64,
    per_layer_gbs: f64,
}

/// Measures the elementwise chain BN → (`adds` × residual add) → ReLU →
/// 8-bit fake-quant over an `[n, c, h, w]` map, fused vs. per-layer.
/// `train` runs MobileNetV2's form of the chain as a training step does:
/// ReLU6, and BatchNorm in train mode, so each rep also computes the
/// batch statistics and writes both backward taps (BN's `xhat` and the
/// activation's mask bits); the eval chains measure the executor's pass
/// structure alone.
///
/// The *fused* arm drives the graph executor through the public
/// [`Recorder`] path: one recorded chain, one working buffer (the input's
/// own storage), one merged pass with the quantizer's range scan folded
/// in. The *per-layer* arm — reported as `unfused_gbs` — is standalone
/// `Layer::forward` calls plus `Tensor::add` joins, the path every
/// non-graph caller still takes, which materializes a fresh tensor per
/// layer and re-reads it on the next. Both arms compute bit-identical
/// values and carry identical harness costs: each feeds its own output
/// forward as the next iteration's input (the chain contracts toward a
/// fixed point, so values stay finite and the quant range stays open),
/// and residual operands are `Arc`-shared, never deep-copied. Throughput
/// counts the chain's *logical* traffic — one read of the input, one
/// read per residual operand, one write of the output — so both arms are
/// scored against the same bytes and the ratio is exactly the memory
/// traffic (intermediate buffers, re-reads, quant re-scan) that graph
/// fusion elides. Tensors are sized past L2 but under the allocator's
/// mmap threshold, so timings measure memory traffic rather than
/// page-fault churn.
fn bench_ew_chain(
    chain: &'static str,
    dims: [usize; 4],
    adds: usize,
    train: bool,
    rng: &mut StdRng,
) -> ChainPoint {
    let [n, c, h, w] = dims;
    let elems = n * c * h * w;
    let mut ps = ParamSet::new();
    // Each arm gets its own layers (forward takes `&mut self`) and its
    // own feed-forward state; both pairs are identically initialized, so
    // the two arms iterate the same chain function.
    let mut bn = BatchNorm2d::new(&mut ps, "bn", c);
    let mut bn_e = BatchNorm2d::new(&mut ps, "bn_eager", c);
    let act = || -> Box<dyn Layer> {
        if train {
            Box::new(Relu6::new())
        } else {
            Box::new(Relu::new())
        }
    };
    let (mut relu, mut relu_e) = (act(), act());
    // Eval-mode BN (running statistics) keeps the eval chains free of the
    // whole-tensor stats reduction, so they measure the executor's pass
    // structure and nothing else.
    let ctx = if train {
        ForwardCtx::train()
    } else {
        ForwardCtx::eval()
    };
    let ctx = ctx.with_quant(QuantConfig::uniform(Precision::Bits(8)));
    let input = Tensor::from_vec(randvec(elems, rng), &dims).expect("chain input");
    let mut state = Some(input.clone());
    let mut state_e = Some(input);
    let skips: Vec<StdArc<Tensor>> = (0..adds)
        .map(|_| {
            StdArc::new(Tensor::from_vec(randvec(elems, rng), &dims).expect("residual operand"))
        })
        .collect();

    let mut run_fused = || {
        let prev = state.take().expect("chain state");
        let mut rec = Recorder::new(&ps, &ctx, prev);
        rec.run(&mut bn).expect("bn record");
        for s in &skips {
            rec.push_add(StdArc::clone(s)).expect("residual add");
        }
        rec.run(relu.as_mut()).expect("relu record");
        let (y, _) = rec.finish().expect("chain execution");
        state = Some(y);
        std::hint::black_box(&state);
    };
    let mut run_eager = || {
        let prev = state_e.take().expect("chain state");
        // cq-allow(no-eager-forward): this arm measures the eager fallback on purpose
        let (mut t, _) = bn_e.forward(&ps, &prev, &ctx).expect("bn forward");
        for s in &skips {
            t = t.add(s.as_ref()).expect("residual add");
        }
        // cq-allow(no-eager-forward): this arm measures the eager fallback on purpose
        let (y, _) = relu_e.forward(&ps, &t, &ctx).expect("relu forward");
        state_e = Some(y);
        std::hint::black_box(&state_e);
    };
    // Interleave the arms rep-by-rep instead of timing one arm to
    // completion before the other: the suite runs the chains right after
    // sustained SIMD benches, and back-to-back blocks would hand the two
    // arms systematically different clock/thermal states. Alternating
    // reps exposes both arms to the same conditions; best-of-3 then
    // discards the noisy rounds for each arm independently.
    let t0 = Instant::now();
    run_fused();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    run_eager();
    let iters = (0.08 / once).ceil().max(1.0) as usize;
    let mut t_fused = f64::INFINITY;
    let mut t_per_layer = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            run_fused();
        }
        t_fused = t_fused.min(t.elapsed().as_secs_f64() / iters as f64);
        let t = Instant::now();
        for _ in 0..iters {
            run_eager();
        }
        t_per_layer = t_per_layer.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    let bytes = (4 * elems * (2 + adds)) as f64;
    ChainPoint {
        chain,
        elems,
        groups: 2 + adds,
        iters,
        fused_gbs: bytes / t_fused / 1e9,
        per_layer_gbs: bytes / t_per_layer / 1e9,
    }
}

/// Measured machine ceilings the roofline model is built from.
struct Roofline {
    /// Peak multiply-add throughput across the pool, GFLOP/s.
    peak_gflops: f64,
    /// Sustained stream-triad bandwidth across the pool, GB/s.
    stream_gbs: f64,
}

impl Roofline {
    /// Arithmetic intensity of an `m`×`n`×`k` product in FLOPs per byte
    /// of unique f32 traffic (both operands plus the output).
    fn intensity(m: usize, n: usize, k: usize) -> f64 {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let bytes = 4.0 * (m * k + k * n + m * n) as f64;
        flops / bytes
    }

    /// Arithmetic intensity of an i8×i8→i32 product: one byte per
    /// operand element, four per accumulator.
    fn intensity_i8(m: usize, n: usize, k: usize) -> f64 {
        let ops = 2.0 * m as f64 * n as f64 * k as f64;
        let bytes = (m * k + k * n + 4 * m * n) as f64;
        ops / bytes
    }

    /// Roofline-attainable GFLOP/s at arithmetic intensity `ai`:
    /// `min(peak, ai x bandwidth)`.
    fn attainable(&self, ai: f64) -> f64 {
        self.peak_gflops.min(ai * self.stream_gbs)
    }
}

/// Lanes in the peak-compute microkernel: enough independent per-lane
/// accumulator chains to hide mul/add latency at any vector width the
/// autovectorizer picks (8 chains even at 512-bit vectors) while still
/// fitting the accumulators in registers.
const PEAK_LANES: usize = 128;

/// Multiply-add iterations per work item in the peak measurement.
const PEAK_REPS: u32 = 100_000;

/// One peak-compute work item: `PEAK_LANES` independent multiply-add
/// chains against broadcast constants (no per-lane operand loads, so
/// the loop is pure FP issue). Deliberately mul-then-add (two
/// instructions), not FMA — the gemm kernels' bitwise-determinism
/// contract forbids FMA contraction, so this measures the ceiling those
/// kernels can legally reach.
fn madd_chains(seed: f32) -> f32 {
    let mut acc = [0.0f32; PEAK_LANES];
    for (i, v) in acc.iter_mut().enumerate() {
        *v = seed + i as f32 * 1e-6;
    }
    for _ in 0..PEAK_REPS {
        for a in acc.iter_mut() {
            // Fixed point of x*c + d stays ~ d/(1-c): bounded forever.
            *a = *a * 0.999_999 + 1.0e-3;
        }
    }
    let mut sum = 0.0f32;
    for a in acc {
        sum += a;
    }
    sum
}

/// Measures peak multiply-add GFLOP/s across the worker pool: several
/// compute-bound items per thread, best of three passes.
fn measure_peak_gflops() -> f64 {
    let items = num_threads() * 8;
    let run = || {
        parallel_for_each(items, |i| {
            std::hint::black_box(madd_chains(1.0 + i as f32));
        })
    };
    run(); // warm up the pool and the frequency governor
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    let flops = items as f64 * PEAK_REPS as f64 * PEAK_LANES as f64 * 2.0;
    flops / best / 1e9
}

/// Measures sustained memory bandwidth with a stream-style triad
/// (`c = a + 3b`) over buffers far larger than the last-level cache,
/// parallelized across the pool. Counts 12 bytes of traffic per element
/// (two reads, one write; write-allocate traffic is ignored, as STREAM
/// does).
fn measure_stream_gbs() -> f64 {
    const LEN: usize = 8 * 1024 * 1024; // 32 MiB per buffer
    const CHUNK: usize = 64 * 1024;
    let a: Vec<f32> = (0..LEN).map(|i| (i % 17) as f32).collect();
    let b: Vec<f32> = (0..LEN).map(|i| (i % 13) as f32).collect();
    let mut c = vec![0.0f32; LEN];
    let run = |c: &mut [f32]| {
        parallel_chunks_mut(c, CHUNK, |ci, chunk| {
            let off = ci * CHUNK;
            let (a, b) = (&a[off..off + CHUNK], &b[off..off + CHUNK]);
            for i in 0..CHUNK {
                chunk[i] = a[i] + 3.0 * b[i];
            }
        })
    };
    run(&mut c); // warm up: page in all three buffers
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        run(&mut c);
        best = best.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    (12.0 * LEN as f64) / best / 1e9
}

/// First `model name` line of /proc/cpuinfo, or "unknown".
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_json(
    scale: Scale,
    points: &[Point],
    encoders: &[EncPoint],
    chains: &[ChainPoint],
    roofline: &Roofline,
) -> String {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"pr\": {PR},");
    let _ = writeln!(
        s,
        "  \"scale\": \"{}\",",
        if scale == Scale::Paper {
            "paper"
        } else {
            "quick"
        }
    );
    let _ = writeln!(s, "  \"unix_secs\": {unix_secs},");
    let _ = writeln!(s, "  \"machine\": {{");
    let _ = writeln!(s, "    \"os\": \"{}\",", esc(std::env::consts::OS));
    let _ = writeln!(s, "    \"arch\": \"{}\",", esc(std::env::consts::ARCH));
    let _ = writeln!(s, "    \"cpu\": \"{}\",", esc(&cpu_model()));
    let hw_threads = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let _ = writeln!(s, "    \"threads\": {hw_threads},");
    let _ = writeln!(s, "    \"threads_effective\": {},", num_threads());
    let _ = writeln!(s, "    \"simd\": \"{}\"", esc(gemm::simd_level_name()));
    let _ = writeln!(s, "  }},");
    let _ = writeln!(
        s,
        "  \"roofline\": {{\"peak_gflops\": {:.3}, \"stream_gbs\": {:.3}}},",
        roofline.peak_gflops, roofline.stream_gbs
    );
    let _ = writeln!(s, "  \"kernels\": [");
    for (i, p) in points.iter().enumerate() {
        let speedup = p.gflops / p.ref_gflops;
        let ai = if is_integer_kernel(p.kernel) {
            Roofline::intensity_i8(p.m, p.n, p.k)
        } else {
            Roofline::intensity(p.m, p.n, p.k)
        };
        let pct = 100.0 * p.gflops / roofline.attainable(ai);
        let _ = writeln!(
            s,
            "    {{\"kernel\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"iters\": {}, \
             \"gflops\": {:.3}, \"ref_gflops\": {:.3}, \"speedup\": {:.3}, \
             \"ai\": {:.3}, \"roofline_pct\": {:.1}}}{}",
            p.kernel,
            p.m,
            p.n,
            p.k,
            p.iters,
            p.gflops,
            p.ref_gflops,
            speedup,
            ai,
            pct,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"int8_encoders\": [");
    for (i, e) in encoders.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"arch\": \"{:?}\", \"n\": {}, \"f32_imgs_per_sec\": {:.3}, \
             \"int8_imgs_per_sec\": {:.3}, \"ratio\": {:.3}}}{}",
            e.arch,
            e.n,
            e.f32_ips,
            e.int8_ips,
            e.int8_ips / e.f32_ips,
            if i + 1 < encoders.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"ew_chains\": [");
    for (i, c) in chains.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"chain\": \"{}\", \"elems\": {}, \"groups\": {}, \"iters\": {}, \
             \"fused_gbs\": {:.3}, \"unfused_gbs\": {:.3}, \"speedup\": {:.3}}}{}",
            c.chain,
            c.elems,
            c.groups,
            c.iters,
            c.fused_gbs,
            c.per_layer_gbs,
            c.fused_gbs / c.per_layer_gbs,
            if i + 1 < chains.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let scale = Scale::from_args();
    let mut out_path = format!("BENCH_{PR}.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("kernels: --out needs a path");
                    std::process::exit(2);
                });
            }
            "--scale" => {
                args.next(); // validated by Scale::from_args
            }
            other if other.starts_with("--scale=") => {}
            other if other.starts_with("--out=") => {
                out_path = other["--out=".len()..].to_string();
            }
            other => {
                eprintln!("kernels: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(0xBE7C);
    // Elementwise fusion: chain throughput at three chain depths (the
    // deeper the chain, the more full passes fusion elides). 512K
    // elements per tensor (2 MiB) spills L2 while staying below the
    // allocator's mmap threshold, so the eager arm's per-layer
    // materializations cost memory traffic, not page faults. This
    // section runs FIRST: it is the suite's only purely memory-bound
    // comparison, and running it on a fresh heap (before the gemm and
    // encoder sections grow and fragment the arena) keeps large
    // allocations hugepage-backed and the measurement reproducible.
    let chain_dims = [4usize, 32, 64, 64];
    // The train-mode point is an MBv2 expand-layer map: statistics, both
    // backward taps and the fake-quant, as a training step runs them.
    let chains = vec![
        bench_ew_chain("bn_relu_q8", chain_dims, 0, false, &mut rng),
        bench_ew_chain("bn_add3_relu_q8", chain_dims, 3, false, &mut rng),
        bench_ew_chain("bn_add7_relu_q8", chain_dims, 7, false, &mut rng),
        bench_ew_chain("bn_relu6_q8_train", [128, 96, 8, 8], 0, true, &mut rng),
    ];
    for c in &chains {
        eprintln!(
            "  ew {:<16} {:>4} groups {:>8.2} GB/s fused (per-layer {:>7.2}, x{:.2})",
            c.chain,
            c.groups,
            c.fused_gbs,
            c.per_layer_gbs,
            c.fused_gbs / c.per_layer_gbs
        );
    }
    // The 256-cube is the acceptance point (blocked >= 2x scalar); the
    // paper grid extends to 512 for the perf trajectory.
    let cubes: &[usize] = match scale {
        Scale::Quick => &[64, 128, 256],
        Scale::Paper => &[64, 128, 256, 384, 512],
    };
    let mut points = Vec::new();
    for &s in cubes {
        for kind in [Kind::Nn, Kind::Nt, Kind::Tn] {
            points.push(bench_matmul(kind, s, s, s, &mut rng));
        }
    }
    // One rectangular case per layout: backward-pass-like skinny shapes.
    points.push(bench_matmul(Kind::Nn, 64, 512, 128, &mut rng));
    points.push(bench_matmul(Kind::Nt, 128, 64, 512, &mut rng));
    points.push(bench_matmul(Kind::Tn, 64, 512, 128, &mut rng));
    // The dense f32 conv forward and backward at batch 128, as (C, O,
    // kernel, stride, H = W): ResNet-18's four 3×3 stage shapes (width 8,
    // 16×16 inputs), then the 1×1 shapes training runs, MobileNetV2's
    // 8→48 expand and 48→8 project and ResNet-18's 8→16 stride-2
    // shortcut.
    let layers = [
        (8, 8, 3, 1, 16),
        (16, 16, 3, 1, 8),
        (32, 32, 3, 1, 4),
        (64, 64, 3, 1, 2),
        (8, 48, 1, 1, 16),
        (48, 8, 1, 1, 16),
        (8, 16, 1, 2, 16),
    ];
    for layer in layers {
        for backward in [false, true] {
            points.push(bench_conv_pass(backward, layer, &mut rng));
        }
    }
    // The depthwise conv forward and backward at batch 128, as (C, H = W,
    // stride): MobileNetV2 w8's five 3×3 depthwise shapes.
    for layer in [(8, 16, 1), (48, 16, 2), (96, 8, 1), (96, 8, 2), (192, 4, 1)] {
        for backward in [false, true] {
            points.push(bench_depthwise_pass(backward, layer, &mut rng));
        }
    }
    // Integer inference kernels: the i8 GEMM cubes in the linear layout.
    for &s in cubes {
        points.push(bench_matmul_i8(s, s, s, &mut rng));
    }
    // The int8 conv at ResNet-18's four stage shapes (width 8, 16×16
    // inputs, batch 128).
    for (c, hw) in [(8, 16), (16, 8), (32, 4), (64, 2)] {
        points.push(bench_conv_i8(c, c, hw, &mut rng));
    }

    for p in &points {
        eprintln!(
            "  {:>9} {:>4}x{:<4}x{:<4} {:>8.2} GFLOP/s (ref {:>7.2}, x{:.2})",
            p.kernel,
            p.m,
            p.n,
            p.k,
            p.gflops,
            p.ref_gflops,
            p.gflops / p.ref_gflops
        );
    }
    // The compute ceiling is the mul-add microbenchmark, raised to the
    // fastest observed kernel point when a kernel beats it — a gemm with
    // deeper ILP than the chain microkernel is itself a demonstration of
    // what the machine sustains, and the ceiling must bound the evidence.
    let micro_peak = measure_peak_gflops();
    // Integer GOP/s points are excluded: the mul-add roofline is an FP
    // ceiling and i8 kernels can legitimately exceed it.
    let best_kernel = points
        .iter()
        .filter(|p| !is_integer_kernel(p.kernel))
        .map(|p| p.gflops)
        .fold(0.0, f64::max);
    let roofline = Roofline {
        peak_gflops: micro_peak.max(best_kernel),
        stream_gbs: measure_stream_gbs(),
    };
    eprintln!(
        "  roofline: {:.2} GFLOP/s mul-add peak, {:.2} GB/s stream ({} simd, {} thread(s))",
        roofline.peak_gflops,
        roofline.stream_gbs,
        gemm::simd_level_name(),
        num_threads()
    );
    let enc_archs: &[Arch] = match scale {
        Scale::Quick => &[Arch::ResNet18, Arch::MobileNetV2],
        Scale::Paper => &[Arch::ResNet18, Arch::ResNet34, Arch::MobileNetV2],
    };
    let encoders: Vec<EncPoint> = enc_archs
        .iter()
        .map(|&arch| bench_int8_encoder(arch, 0xC0DE))
        .collect();
    for e in &encoders {
        eprintln!(
            "  int8 {:?}: f32 {:.1} imgs/s | int8 {:.1} imgs/s (x{:.2})",
            e.arch,
            e.f32_ips,
            e.int8_ips,
            e.int8_ips / e.f32_ips
        );
    }
    let json = render_json(scale, &points, &encoders, &chains, &roofline);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("kernels: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} grid points)", points.len());
}
