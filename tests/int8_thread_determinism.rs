//! Thread-count and SIMD-level independence of the i8 inference kernels,
//! mirroring `tests/thread_determinism.rs` for the f32 kernels:
//! `par_gemm_i8` and the implicit `conv2d_i8` must produce bitwise-
//! identical output at every thread limit and every i8 tile level the
//! host supports, and that output must equal the scalar oracle bit for
//! bit.
//!
//! For the integer kernels this is a *stronger* claim than for f32 —
//! integer addition is associative, so as long as accumulators cannot
//! overflow (the quantflow headroom proof), any tiling, pair grouping or
//! thread split is exact. These proptests drive the claim through
//! adversarial shapes: degenerate dims (1), `K = 0`, primes, odd `K`
//! (the zero pair half), and the register-tile edges `MR±1`/`NR±1` where
//! the packed kernels take their remainder paths.
//!
//! The thread limit is varied with `par::with_thread_limit` (same
//! degrees of freedom as `CQ_THREADS`, but testable in-process); the
//! values exercised match the f32 test: 1, 2, 5 and 8.

use contrastive_quant::tensor::gemm::int8::{gemm_i8_nt_ref, par_gemm_i8, with_i8_level, I8Level};
use contrastive_quant::tensor::gemm::reference::conv2d_i8_per_sample;
use contrastive_quant::tensor::par::with_thread_limit;
use contrastive_quant::tensor::{
    conv2d_i8, ActQuads, Conv2dSpec, ConvShape, Epilogue, QuadGeom, Requant,
};
use proptest::prelude::*;

const LIMITS: [usize; 4] = [1, 2, 5, 8];

/// Adversarial size values: degenerate, prime, and straddling the 8-wide
/// register tile (`MR = NR = 8`) so edge tiles and the small-size
/// reference fast path both fire.
const ADVERSARIAL_DIMS: [usize; 8] = [1, 2, 5, 7, 8, 9, 13, 17];

/// Full-range i8 operands, including the `-128` asymmetric endpoint;
/// sized for the largest adversarial shape and truncated per case. Sizes
/// are bounded so `K·128² ≪ i32::MAX` (headroom by construction).
fn full_range(cells: usize) -> impl Strategy<Value = Vec<i8>> {
    collection::vec(-128i8..=127, cells)
}

/// Runs `f` at every host i8 level × thread limit and asserts every
/// result equals `oracle`.
fn assert_everywhere<T: PartialEq + std::fmt::Debug>(what: &str, oracle: &T, f: impl Fn() -> T) {
    for level in I8Level::supported() {
        for &limit in &LIMITS {
            let got = with_i8_level(level, || with_thread_limit(limit, &f));
            assert_eq!(
                &got, oracle,
                "{what}: drift at {level:?}, thread limit {limit}"
            );
        }
    }
}

/// `par_gemm_i8` (`a[m,k] @ b[n,k]ᵀ`) ≡ the scalar oracle at every
/// level and thread limit; returns the oracle.
fn run_all_limits(a: &[i8], b: &[i8], m: usize, n: usize, k: usize) -> Vec<i32> {
    let mut oracle = vec![0i32; m * n];
    gemm_i8_nt_ref(a, m, k, b, n, &mut oracle);
    assert_everywhere(&format!("{m}x{n}x{k}"), &oracle, || {
        let mut out = vec![0i32; m * n];
        par_gemm_i8(a, b, m, n, k, &mut out);
        out
    });
    oracle
}

/// One i8 convolution case: stored codes and a requantization with
/// matching `wsum` (padding reads the code of real zero, `(−za) as i8`).
struct ConvCase {
    s: ConvShape,
    x: Vec<i8>,
    wgt: Vec<i8>,
    za: i32,
    zw: i32,
    wsum: Vec<i32>,
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl ConvCase {
    fn new(s: ConvShape, x: Vec<i8>, wgt: Vec<i8>, za: i32, zw: i32, salt: f32) -> ConvCase {
        let k = s.taps();
        let wsum = wgt
            .chunks_exact(k)
            .map(|r| r.iter().map(|&v| i32::from(v)).sum())
            .collect();
        let scale = (0..s.o).map(|o| salt * (o as f32 - 3.5) / 997.0).collect();
        let shift = (0..s.o).map(|o| salt * (o % 5) as f32 - 0.25).collect();
        ConvCase {
            s,
            x,
            wgt,
            za,
            zw,
            wsum,
            scale,
            shift,
        }
    }

    fn requant(&self) -> Requant<'_> {
        Requant {
            za: self.za,
            zw: self.zw,
            wsum: &self.wsum,
            scale: &self.scale,
            shift: &self.shift,
        }
    }

    /// Output bits of the per-sample oracle on the stored codes.
    fn oracle(&self) -> Vec<u32> {
        let mut out = vec![f32::NAN; self.s.n * self.s.o * self.s.positions()];
        conv2d_i8_per_sample(&self.x, &self.wgt, &self.s, &self.requant(), &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// Output bits of `conv2d_i8` on the codes laid out as channel quads
    /// padded `extra` words wider than the conv's padding.
    fn run(&self, extra: usize) -> Vec<u32> {
        let (ph, pw) = self.s.spec.padding;
        let geom = QuadGeom {
            c: self.s.c,
            h: self.s.h,
            w: self.s.w,
            pad: ph.max(pw) + extra,
        };
        let xq = ActQuads::from_codes(&self.x, self.s.n, geom, self.za);
        let mut out = vec![f32::NAN; self.s.n * self.s.o * self.s.positions()];
        conv2d_i8(
            &xq,
            &self.wgt,
            &self.s,
            &self.requant(),
            Epilogue::default(),
            &mut out,
        );
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// `conv2d_i8` ≡ the per-sample oracle at every level and thread
    /// limit, on quads padded as the conv needs and one word wider.
    fn check(&self) {
        let oracle = self.oracle();
        for extra in [0, 1] {
            let what = format!("{:?} padded {extra} wider", self.s);
            assert_everywhere(&what, &oracle, || self.run(extra));
        }
    }
}

fn shape(
    n: usize,
    c: usize,
    hw: usize,
    o: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> ConvShape {
    ConvShape::new(n, c, hw, hw, o, Conv2dSpec::new(k, stride, pad)).expect("valid conv shape")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_gemm_i8_nt_is_thread_count_independent(
        mi in 0usize..8, ni in 0usize..8, ki in 0usize..8,
        a in full_range(17 * 17), b in full_range(17 * 17),
    ) {
        let (m, n, k) = (ADVERSARIAL_DIMS[mi], ADVERSARIAL_DIMS[ni], ADVERSARIAL_DIMS[ki]);
        run_all_limits(&a[..m * k], &b[..n * k], m, n, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random geometry: batch 1–5, 1–4 input channels (odd and even K),
    /// 1–9 pixel sides, output channels around the 8-row tile, 1×1 and
    /// 3×3 kernels at stride 1 and 2, padding 0 and 1.
    #[test]
    fn conv2d_i8_matches_per_sample_oracle(
        n in 1usize..=5, c in 1usize..=4, hw in 1usize..=9, oi in 0usize..8,
        k3 in 0usize..2, stride in 1usize..=2, pad in 0usize..=1,
        za in -127i32..=128, zw in -127i32..=128, salt in 0.5f32..2.0,
        x in full_range(5 * 4 * 9 * 9), wgt in full_range(17 * 4 * 9),
    ) {
        let kernel = if k3 == 1 { 3 } else { 1 };
        if kernel <= hw + 2 * pad {
            let s = shape(n, c, hw, ADVERSARIAL_DIMS[oi], kernel, stride, pad);
            let (xl, wl) = (n * c * hw * hw, s.o * s.taps());
            ConvCase::new(s, x[..xl].to_vec(), wgt[..wl].to_vec(), za, zw, salt).check();
        }
    }
}

/// The shapes a ResNet-18 lowering hits, each at random codes: the stem's
/// odd K = 27 (pair padding), 1×1 stride-2 shortcuts, padding 0 and 1,
/// OH·OW = 4 below the panel width, N·OH·OW not a multiple of 16, N = 1,
/// and a batch wide enough (4500 columns) that the chunk grid's 256-chunk
/// cap packs several panels per chunk into one reused panel buffer.
#[test]
fn conv2d_i8_covers_the_lowering_corner_cases() {
    let cases = [
        shape(3, 3, 6, 8, 3, 1, 1),   // stem: K = 27, 3·36 = 108 columns
        shape(2, 8, 6, 16, 1, 2, 0),  // 1×1 stride-2 shortcut
        shape(4, 4, 5, 9, 3, 1, 0),   // padding 0, odd output rows
        shape(5, 6, 2, 12, 3, 1, 1),  // OH·OW = 4 < panel width
        shape(3, 2, 5, 7, 3, 1, 1),   // N·OH·OW = 75
        shape(1, 5, 4, 17, 3, 2, 1),  // N = 1, stride 2
        shape(20, 3, 15, 9, 3, 1, 1), // several panels per chunk
    ];
    for (i, s) in cases.into_iter().enumerate() {
        let seed = 0x9E37_79B9u64.wrapping_mul(i as u64 + 1);
        let code = |j: usize| ((seed >> (j % 32)) as usize ^ j.wrapping_mul(2_654_435_761)) as i8;
        let x = (0..s.n * s.c * s.h * s.w).map(code).collect();
        let wgt = (0..s.o * s.taps()).map(|j| code(j + 7)).collect();
        ConvCase::new(s, x, wgt, 37 - 11 * i as i32, -5 + 3 * i as i32, 1.0).check();
    }
}

/// All-−128 and all-127 codes with a non-zero pad code: the largest pair
/// sums the tile can see, and padding that is not the zero byte.
#[test]
fn conv2d_i8_extreme_codes_and_pad_code() {
    for (xv, wv) in [(-128i8, -128i8), (127, 127), (-128, 127)] {
        for za in [-127, 1, 128] {
            let s = shape(2, 3, 4, 9, 3, 1, 1);
            let x = vec![xv; s.n * s.c * s.h * s.w];
            let wgt = vec![wv; s.o * s.taps()];
            ConvCase::new(s, x, wgt, za, 7, 1.0).check();
        }
    }
}

/// `K = 0` is an empty reduction: every output element is exactly zero at
/// every thread count (and the kernels must not read the empty operands).
#[test]
fn k_zero_yields_zero_bits_at_every_thread_count() {
    for (m, n) in [(1, 1), (7, 9), (8, 8), (17, 5)] {
        let out = run_all_limits(&[], &[], m, n, 0);
        assert!(out.iter().all(|&v| v == 0), "{m}x{n}x0 nonzero");
    }
}

/// The extreme-magnitude corner: all operands at the asymmetric i8
/// endpoints (`-128 · -128` products) with K at the adversarial maximum,
/// where any accumulator-width mistake would show first.
#[test]
fn saturated_operands_stay_exact_at_every_thread_count() {
    let (m, n, k) = (9, 17, 17);
    let a = vec![-128i8; m * k];
    let b = vec![127i8; n * k];
    let mixed = run_all_limits(&a, &b, m, n, k);
    assert!(mixed.iter().all(|&v| v == -128 * 127 * k as i32));
    let b = vec![-128i8; n * k];
    let both = run_all_limits(&a, &b, m, n, k);
    assert!(both.iter().all(|&v| v == 128 * 128 * k as i32));
}
