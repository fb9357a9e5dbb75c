//! Property tests pinning the graph executor's bitwise contract: a
//! [`Sequential`] forward, which records BN/activation/quantize chains on
//! the `Recorder` and runs each as one fused pass, must agree **bit for
//! bit** with the pass-per-group reference — each layer's own
//! `Layer::forward` in order, then each `Layer::backward` in reverse —
//! on outputs, gradients and updated running statistics, across
//! adversarial shapes and thread limits 1/2/5/8. Any extended-precision
//! carry, reordered reduction, or thread-dependent chunking in the fused
//! path shows up here as a `to_bits` mismatch.

use cq_nn::{BatchNorm1d, BatchNorm2d, ForwardCtx, Layer, ParamSet, Relu, Relu6, Sequential};
use cq_quant::{Precision, QuantConfig, QuantMode};
use cq_tensor::par::with_thread_limit;
use cq_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic, seed-keyed fill with varied sign and magnitude
/// (including values beyond the ReLU6 knee at 6).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let k = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97) % 2048;
            (k as f32 / 2048.0 - 0.5) * 16.0
        })
        .collect()
}

/// Builds the layers under test: BN2d -> Relu -> BN2d -> Relu6 over
/// `[n, c, h, w]`, with gamma/beta perturbed away from the (1, 0) init so
/// the affine op is non-trivial.
fn build_stack(c: usize, seed: u64) -> (ParamSet, Vec<Box<dyn Layer>>) {
    let mut ps = ParamSet::new();
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(BatchNorm2d::new(&mut ps, "bn1", c)),
        Box::new(Relu::new()),
        Box::new(BatchNorm2d::new(&mut ps, "bn2", c)),
        Box::new(Relu6::new()),
    ];
    let ids: Vec<_> = ps.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let scale = if ps.name(id).ends_with(".gamma") {
            0.1
        } else {
            0.05
        };
        for (i, v) in ps.get_mut(id).as_mut_slice().iter_mut().enumerate() {
            *v += ((i as u64 + seed) % 7) as f32 * scale;
        }
    }
    (ps, layers)
}

fn to_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Output, input gradient, parameter gradients and running statistics of
/// one forward/backward, as bit patterns.
type Run = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);

/// The fused path: the layers in a [`Sequential`], whose forward records
/// them on the `Recorder` and whose backward walks them in reverse.
fn run_fused(
    ps: &ParamSet,
    layers: Vec<Box<dyn Layer>>,
    x: &Tensor,
    dy: &Tensor,
    ctx: &ForwardCtx,
) -> Run {
    let mut seq = Sequential::new();
    for l in layers {
        seq.push_boxed(l);
    }
    let (y, cache) = seq.forward(ps, x, ctx).unwrap();
    let mut gs = ps.zero_grads();
    let dx = seq.backward(ps, &cache, dy, &mut gs).unwrap();
    let stats = seq.state_tensors().into_iter().flat_map(to_bits).collect();
    let grads = ps
        .iter()
        .flat_map(|(id, _, _)| to_bits(gs.get(id)))
        .collect();
    (to_bits(&y), to_bits(&dx), grads, stats)
}

/// The pass-per-group reference: each layer's own `forward` in order,
/// then its own `backward` in reverse order.
fn run_per_layer(
    ps: &ParamSet,
    mut layers: Vec<Box<dyn Layer>>,
    x: &Tensor,
    dy: &Tensor,
    ctx: &ForwardCtx,
) -> Run {
    let mut y = x.clone();
    let mut caches = Vec::new();
    for l in &mut layers {
        let (next, cache) = l.forward(ps, &y, ctx).unwrap();
        y = next;
        caches.push(cache);
    }
    let mut gs = ps.zero_grads();
    let mut dx = dy.clone();
    for (l, cache) in layers.iter().zip(&caches).rev() {
        dx = l.backward(ps, cache, &dx, &mut gs).unwrap();
    }
    let stats = layers
        .iter()
        .flat_map(|l| {
            l.state_tensors()
                .into_iter()
                .flat_map(to_bits)
                .collect::<Vec<_>>()
        })
        .collect();
    let grads = ps
        .iter()
        .flat_map(|(id, _, _)| to_bits(gs.get(id)))
        .collect();
    (to_bits(&y), to_bits(&dx), grads, stats)
}

/// One full fused-vs-reference comparison at a given thread limit:
/// forward (train mode, quantized), backward, running stats.
#[allow(clippy::too_many_arguments)]
fn assert_bitwise_equal(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    bits: u8,
    floor: bool,
    threads: usize,
    seed: u64,
) {
    let dims = [n, c, h, w];
    let len = n * c * h * w;
    let x = Tensor::from_vec(fill(len, seed), &dims).unwrap();
    let dy = Tensor::from_vec(fill(len, seed + 1), &dims).unwrap();
    let mut quant = QuantConfig::uniform(Precision::Bits(bits));
    if floor {
        quant.mode = QuantMode::Floor;
    }
    let ctx = ForwardCtx::train().with_quant(quant);

    let (fused, reference) = with_thread_limit(threads, || {
        let (ps, layers) = build_stack(c, seed);
        let fused = run_fused(&ps, layers, &x, &dy, &ctx);
        let (ps, layers) = build_stack(c, seed);
        (fused, run_per_layer(&ps, layers, &x, &dy, &ctx))
    });
    assert_eq!(
        fused.0, reference.0,
        "forward bits diverge ({dims:?}, t={threads})"
    );
    assert_eq!(
        fused.1, reference.1,
        "dx bits diverge ({dims:?}, t={threads})"
    );
    assert_eq!(
        fused.2, reference.2,
        "grad bits diverge ({dims:?}, t={threads})"
    );
    assert_eq!(
        fused.3, reference.3,
        "running-stat bits diverge ({dims:?}, t={threads})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adversarial shapes — tiny inner extents, single channels, prime
    /// dimensions straddling the executor's chunk size — at every thread
    /// limit the pool contract covers.
    #[test]
    fn fused_equals_per_layer_bitwise(
        n in 2usize..=5,
        c in 1usize..=7,
        h in 1usize..=13,
        w in 1usize..=17,
        bits in 2u8..=16,
        floor_raw in 0u8..=1,
        seed in 0u64..512,
    ) {
        for threads in [1usize, 2, 5, 8] {
            assert_bitwise_equal(n, c, h, w, bits, floor_raw == 1, threads, seed);
        }
    }
}

/// A shape big enough that the executor actually splits it into many
/// parallel chunks (crosses the 4096-element block size several times).
#[test]
fn fused_equals_per_layer_on_multi_chunk_tensor() {
    for threads in [1usize, 2, 5, 8] {
        assert_bitwise_equal(4, 3, 37, 41, 7, false, threads, 99);
    }
}

/// The 1-D (projection-head) variant: BN1d -> Relu over `[n, features]`,
/// eval mode so running statistics drive normalization.
#[test]
fn fused_equals_per_layer_for_bn1d_eval() {
    let (n, f) = (9, 33);
    let x = Tensor::from_vec(fill(n * f, 3), &[n, f]).unwrap();
    let dy = Tensor::from_vec(fill(n * f, 4), &[n, f]).unwrap();
    let ctx = ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(4)));
    let build = || {
        let mut ps = ParamSet::new();
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(BatchNorm1d::new(&mut ps, "bn", f)),
            Box::new(Relu::new()),
        ];
        (ps, layers)
    };
    for threads in [1usize, 2, 5, 8] {
        let (fused, reference) = with_thread_limit(threads, || {
            let (ps, layers) = build();
            let fused = run_fused(&ps, layers, &x, &dy, &ctx);
            let (ps, layers) = build();
            (fused, run_per_layer(&ps, layers, &x, &dy, &ctx))
        });
        assert_eq!(fused, reference, "t={threads}");
    }
}
