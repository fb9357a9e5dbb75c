//! Property-based equivalence of the blocked GEMM kernels against their
//! naive references, over adversarial shapes and thread counts.
//!
//! The blocked kernels promise *bitwise* equality with the serial
//! reference implementations (see `gemm/mod.rs` for the contract), so
//! every comparison here is on `f32::to_bits`, never an epsilon. Shapes
//! are drawn from the hostile corners: 1, primes, `K = 0`, and the tile
//! boundaries `MR/NR = 8` and the widened 16-column panel, each ±1. The
//! parallel entry point is additionally run under thread limits
//! {1, 2, 5, 8} — all must produce identical bits. The dense convolution
//! (on batch lanes) is held to the same standard against its per-sample
//! im2col oracle, and the depthwise convolution against its per-pixel
//! loops.

use cq_tensor::gemm::{self, reference, Kind};
use cq_tensor::par::with_thread_limit;
use cq_tensor::{
    conv2d, conv2d_backward, depthwise_conv2d, depthwise_conv2d_backward, Conv2dSpec, ConvShape,
    Layout, Tensor,
};
use proptest::prelude::*;

/// Runs a conv kernel pair on the lane conversions of the row-major
/// operands `x` and `dy`: `run(x, dy, y, dx)` on lane storage, and
/// returns `y` and `dx` row-major.
fn via_lanes(
    s: &ConvShape,
    x: &[f32],
    dy: &[f32],
    run: impl FnOnce(&[f32], &[f32], &mut [f32], &mut [f32]),
) -> [Vec<f32>; 2] {
    let (xd, yd) = ([s.n, s.c, s.h, s.w], [s.n, s.o, s.oh, s.ow]);
    let lanes = |v: &[f32], dims: &[usize]| {
        let t = Tensor::from_vec(v.to_vec(), dims).expect("dims");
        t.to_lanes().expect("rank 4")
    };
    let (xl, dyl) = (lanes(x, &xd), lanes(dy, &yd));
    let (mut y, mut dx) = (
        Tensor::written(&yd, Layout::Lanes),
        Tensor::written(&xd, Layout::Lanes),
    );
    run(
        xl.as_slice(),
        dyl.as_slice(),
        y.as_mut_slice(),
        dx.as_mut_slice(),
    );
    [y.into_vec(), dx.into_vec()]
}

/// Checked thread limits: serial, even split, odd/ragged split, and more
/// threads than most row-tile grids have.
const THREAD_LIMITS: [usize; 4] = [1, 2, 5, 8];

/// Adversarial extents: 1, primes, and blocked-kernel tile boundaries
/// (`MR/NR = 8`, AVX-512 panel width 16) each ±1.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2usize),
        Just(3usize),
        Just(5usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(13usize),
        Just(15usize),
        Just(16usize),
        Just(17usize),
        Just(23usize),
        Just(24usize),
        Just(25usize),
        Just(31usize),
        Just(33usize),
    ]
}

/// Like [`dim`] but including zero — `K = 0` must yield an all-zero
/// (or untouched, for the accumulating kernel) output.
fn kdim() -> impl Strategy<Value = usize> {
    prop_oneof![1 => Just(0usize), 8 => dim()]
}

/// Extents that force the packed path (`m*n*k >= 4096` and `n >= NR`),
/// so the microkernel itself is exercised, not the small-shape fallback.
fn big_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(16usize),
        Just(17usize),
        Just(23usize),
        Just(25usize),
        Just(31usize),
        Just(33usize)
    ]
}

/// Element values with exact zeros mixed in so the zero-skip fast path
/// of the NN/TN kernels runs alongside the generic lanes.
fn elem() -> impl Strategy<Value = f32> {
    prop_oneof![3 => -4.0f32..4.0, 1 => Just(0.0f32)]
}

fn matrix(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(elem(), len)
}

/// `len` elements drawn like [`elem`] from a SplitMix64 stream seeded
/// with `seed`, for operands too long to draw element by element.
fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z.is_multiple_of(4) {
                0.0
            } else {
                // The top 24 bits, as a fraction in [0, 1), onto [-4, 4).
                (z >> 40) as f32 / (1u32 << 24) as f32 * 8.0 - 4.0
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs the serial naive reference for `kind` (the ground truth every
/// blocked variant must reproduce bit-for-bit).
fn reference_gemm(kind: Kind, a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; m * n];
    match kind {
        Kind::Nn => reference::gemm_nn(a, m, k, b, n, &mut out),
        Kind::Nt => reference::gemm_nt(a, m, k, b, n, &mut out),
        Kind::Tn => reference::gemm_tn(a, k, m, b, n, &mut out),
    }
    out
}

fn operand_lens(kind: Kind, m: usize, n: usize, k: usize) -> (usize, usize) {
    match kind {
        Kind::Nn => (m * k, k * n),
        Kind::Nt => (m * k, n * k),
        Kind::Tn => (k * m, k * n),
    }
}

/// Asserts `par_gemm` equals the naive reference bit-for-bit at every
/// thread limit in [`THREAD_LIMITS`].
fn check_par_gemm(kind: Kind, a: &[f32], b: &[f32], m: usize, n: usize, k: usize) {
    let want = bits(&reference_gemm(kind, a, b, m, n, k));
    for limit in THREAD_LIMITS {
        let mut out = vec![f32::NAN; m * n];
        with_thread_limit(limit, || gemm::par_gemm(kind, a, b, m, n, k, &mut out));
        prop_assert_eq!(
            bits(&out),
            want.clone(),
            "{:?} diverged from reference at thread limit {} (m={}, n={}, k={})",
            kind,
            limit,
            m,
            n,
            k
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_gemm_nn_matches_reference_bitwise(
        m in dim(), n in dim(), k in kdim(), seed_a in matrix(33 * 33), seed_b in matrix(33 * 33),
    ) {
        let (alen, blen) = operand_lens(Kind::Nn, m, n, k);
        check_par_gemm(Kind::Nn, &seed_a[..alen], &seed_b[..blen], m, n, k);
    }

    #[test]
    fn par_gemm_nt_matches_reference_bitwise(
        m in dim(), n in dim(), k in kdim(), seed_a in matrix(33 * 33), seed_b in matrix(33 * 33),
    ) {
        let (alen, blen) = operand_lens(Kind::Nt, m, n, k);
        check_par_gemm(Kind::Nt, &seed_a[..alen], &seed_b[..blen], m, n, k);
    }

    #[test]
    fn par_gemm_tn_matches_reference_bitwise(
        m in dim(), n in dim(), k in kdim(), seed_a in matrix(33 * 33), seed_b in matrix(33 * 33),
    ) {
        let (alen, blen) = operand_lens(Kind::Tn, m, n, k);
        check_par_gemm(Kind::Tn, &seed_a[..alen], &seed_b[..blen], m, n, k);
    }

    #[test]
    fn packed_path_matches_reference_bitwise_all_layouts(
        m in big_dim(), n in big_dim(), k in big_dim(),
        seed_a in matrix(33 * 33), seed_b in matrix(33 * 33),
    ) {
        // big_dim() guarantees m*n*k >= 4096 and n >= NR, so these runs
        // take the packed microkernel, never the small-shape fallback.
        for kind in [Kind::Nn, Kind::Nt, Kind::Tn] {
            let (alen, blen) = operand_lens(kind, m, n, k);
            check_par_gemm(kind, &seed_a[..alen], &seed_b[..blen], m, n, k);
        }
    }

    #[test]
    fn conv_matches_per_sample_oracle_bitwise(
        n in prop_oneof![1usize..16, 16usize..40], c in 1usize..6, hw in 1usize..9, o in dim(),
        kernel in 1usize..4, stride in 1usize..3, pad in 0usize..3,
        seed_w in matrix(33 * 5 * 9), seed in 0u64..u64::MAX,
    ) {
        // The batch-lane passes (forward, input and weight gradient), on
        // batches within one 16-image block and across several, against
        // the per-sample im2col lowering, at every thread limit. Every
        // image gets its own data.
        // Kernels larger than the padded input are invalid geometry: that
        // case is skipped, the rest still run.
        let Ok(s) = ConvShape::new(n, c, hw, hw, o, Conv2dSpec::new(kernel, stride, pad)) else {
            continue;
        };
        let x = seeded(n * c * hw * hw, seed);
        let dy = seeded(n * o * s.positions(), !seed);
        let (x, w, dy) = (&x[..], &seed_w[..o * s.taps()], &dy[..]);
        let mut want = [vec![f32::NAN; dy.len()], vec![f32::NAN; x.len()], vec![f32::NAN; w.len()]];
        reference::conv2d(x, w, &s, &mut want[0]);
        reference::conv2d_backward_input(dy, w, &s, &mut want[1]);
        reference::conv2d_backward_weight(x, dy, &s, &mut want[2]);
        for limit in THREAD_LIMITS {
            let mut got = [vec![f32::NAN; dy.len()], vec![f32::NAN; x.len()], vec![f32::NAN; w.len()]];
            with_thread_limit(limit, || {
                let [y, dx, dw] = &mut got;
                [*y, *dx] = via_lanes(&s, x, dy, |x, dy, y, dx| {
                    conv2d(x, w, &s, y);
                    conv2d_backward(x, dy, w, &s, dx, dw);
                });
            });
            for (pass, (g, r)) in ["forward", "dx", "dw"].iter().zip(got.iter().zip(&want)) {
                prop_assert_eq!(bits(g), bits(r), "{} {:?} at {} threads", pass, s, limit);
            }
        }
    }

    #[test]
    fn depthwise_matches_per_pixel_oracle_bitwise(
        n in prop_oneof![1usize..9, 9usize..40], c in prop_oneof![1usize..18, 30usize..50],
        h in 1usize..9, w in 1usize..9, kernel in 1usize..6, stride in 1usize..3,
        pad in 0usize..3, seed in 0u64..u64::MAX,
    ) {
        // The channel-lane passes (forward, input and weight gradient),
        // with channel counts within one 16-lane block and across several,
        // on square and non-square inputs, against the per-pixel loops, at
        // every thread limit.
        let Ok(s) = ConvShape::new(n, c, h, w, c, Conv2dSpec::new(kernel, stride, pad)) else {
            continue;
        };
        let x = seeded(n * c * h * w, seed);
        let wgt = seeded(c * kernel * kernel, seed ^ 0x5eed);
        let dy = seeded(n * c * s.positions(), !seed);
        let (x, wgt, dy) = (&x[..], &wgt[..], &dy[..]);
        let mut want = [vec![f32::NAN; dy.len()], vec![f32::NAN; x.len()], vec![f32::NAN; wgt.len()]];
        reference::depthwise_conv2d(x, wgt, &s, &mut want[0]);
        {
            let [_, dx, dw] = &mut want;
            reference::depthwise_conv2d_backward(x, dy, wgt, &s, dx, dw);
        }
        for limit in THREAD_LIMITS {
            let mut got = [vec![f32::NAN; dy.len()], vec![f32::NAN; x.len()], vec![f32::NAN; wgt.len()]];
            with_thread_limit(limit, || {
                let [y, dx, dw] = &mut got;
                [*y, *dx] = via_lanes(&s, x, dy, |x, dy, y, dx| {
                    depthwise_conv2d(x, wgt, &s, y);
                    depthwise_conv2d_backward(x, dy, wgt, &s, dx, dw);
                });
            });
            for (pass, (g, r)) in ["forward", "dx", "dw"].iter().zip(got.iter().zip(&want)) {
                prop_assert_eq!(bits(g), bits(r), "{} {:?} at {} threads", pass, s, limit);
            }
        }
    }

    #[test]
    fn thread_limits_agree_with_each_other_exactly(
        m in big_dim(), n in big_dim(), k in big_dim(),
        seed_a in matrix(33 * 33), seed_b in matrix(33 * 33),
    ) {
        // Independent of the reference: every thread limit must produce
        // the same bits as every other (the determinism half of the
        // contract, without the equivalence half).
        for kind in [Kind::Nn, Kind::Nt, Kind::Tn] {
            let (alen, blen) = operand_lens(kind, m, n, k);
            let (a, b) = (&seed_a[..alen], &seed_b[..blen]);
            let mut first: Option<Vec<u32>> = None;
            for limit in THREAD_LIMITS {
                let mut out = vec![f32::NAN; m * n];
                with_thread_limit(limit, || gemm::par_gemm(kind, a, b, m, n, k, &mut out));
                let got = bits(&out);
                match &first {
                    None => first = Some(got),
                    Some(want) => prop_assert_eq!(
                        &got, want, "{:?} not thread-count independent at limit {}", kind, limit
                    ),
                }
            }
        }
    }
}
