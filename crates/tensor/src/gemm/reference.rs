//! Unblocked reference GEMM kernels: the exact scalar loops the packed
//! microkernels in the parent module replaced.
//!
//! These are kept for two jobs:
//!
//! 1. **Small-size fast path** — below [`super`]'s packing threshold the
//!    panel copies would cost more than they save, so tiny products run
//!    here directly.
//! 2. **Equivalence oracle** — the property tests assert the packed
//!    kernels match these loops *bit for bit* on every shape.
//!
//! The per-sample convolution lowering (materialised [`im2col`] column
//! matrix, one product per image, [`col2im`] scatter, per-band weight
//! gradient partials) lives here too, as the oracle of the batch-lane
//! convolution behind [`super::conv`] — and its int8 counterpart
//! ([`im2col_i8`], [`conv2d_i8_per_sample`]), the oracle of
//! [`super::conv::conv2d_i8`]. The per-pixel depthwise loops
//! ([`depthwise_conv2d`], [`depthwise_conv2d_backward`]) are the oracle of
//! the channel-lane kernels in [`super::depthwise`].
//!
//! This module is the one place the `cq-check` `no-naive-hot-loop` lint
//! permits an unblocked multiply-accumulate loop nest; new naive loops
//! anywhere else are a finding.

use super::conv::{ConvShape, Requant, WGRAD_BANDS};
use super::int8::gemm_i8_nn_ref;
use crate::par::ChunkGrid;
use crate::Conv2dSpec;

/// Serial `out = a @ b` for `a: [m,k]`, `b: [k,n]` (i-k-j loop order,
/// contiguous row updates, `a == 0.0` terms skipped).
pub fn gemm_nn(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..kk * n + n];
            let orow = &mut out[i * n..i * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
}

/// Serial `out = a @ bᵀ` for `a: [m,k]`, `b: [n,k]` (contiguous dot per
/// output element, no zero skip).
pub fn gemm_nt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        for j in 0..n {
            let brow = &b[j * k..j * k + k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Serial `out += a @ bᵀ` for `a: [m,k]`, `b: [n,k]`: the full-`k` dot is
/// formed first, then added to `out` once (the accumulation order weight
/// gradients depend on).
pub fn gemm_nt_acc(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        for j in 0..n {
            let brow = &b[j * k..j * k + k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * n + j] += acc;
        }
    }
}

/// Serial `out = aᵀ @ b` for `a: [k,m]`, `b: [k,n]` (k-i-j loop order,
/// `a == 0.0` terms skipped).
pub fn gemm_tn(a: &[f32], k: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for kk in 0..k {
        let brow = &b[kk * n..kk * n + n];
        for i in 0..m {
            let aki = a[kk * m + i];
            if aki == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..i * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aki * bv;
            }
        }
    }
}

/// Lowers one `[c, h, w]` sample (flat slice, CHW order) to a column matrix
/// written into `out`, which must have length `c*kh*kw * oh*ow`.
///
/// Row `(ci*kh+ki)*kw+kj` of the column matrix holds, for every output
/// location, the input value under kernel tap `(ki, kj)` of channel `ci`
/// (zero where the tap falls in padding).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the geometry.
pub fn im2col(input: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.out_hw(h, w).expect("im2col: invalid geometry"); // cq-check: allow — geometry pre-validated by callers
    assert_eq!(input.len(), c * h * w, "im2col: input length mismatch");
    assert_eq!(
        out.len(),
        c * kh * kw * oh * ow,
        "im2col: output length mismatch"
    );
    for (row, dst) in out.chunks_exact_mut(oh * ow).enumerate() {
        let (ci, ki, kj) = (row / (kh * kw), row / kw % kh, row % kw);
        for oy in 0..oh {
            for ox in 0..ow {
                let iy = (oy * sh + ki) as isize - ph as isize;
                let ix = (ox * sw + kj) as isize - pw as isize;
                let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                dst[oy * ow + ox] = if inside {
                    input[(ci * h + iy as usize) * w + ix as usize]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Reverse of [`im2col`]: accumulates a column-matrix gradient back into a
/// `[c, h, w]` input-gradient slice, rows in ascending tap order. `out` is
/// accumulated into, not overwritten.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the geometry.
pub fn col2im(cols: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.out_hw(h, w).expect("col2im: invalid geometry"); // cq-check: allow — geometry pre-validated by callers
    assert_eq!(out.len(), c * h * w, "col2im: output length mismatch");
    assert_eq!(
        cols.len(),
        c * kh * kw * oh * ow,
        "col2im: cols length mismatch"
    );
    for (row, src) in cols.chunks_exact(oh * ow).enumerate() {
        let (ci, ki, kj) = (row / (kh * kw), row / kw % kh, row % kw);
        for oy in 0..oh {
            for ox in 0..ow {
                let iy = (oy * sh + ki) as isize - ph as isize;
                let ix = (ox * sw + kj) as isize - pw as isize;
                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                    out[(ci * h + iy as usize) * w + ix as usize] += src[oy * ow + ox];
                }
            }
        }
    }
}

/// Per-sample forward convolution: [`im2col`] then [`gemm_nn`] for each
/// image. Oracle of [`super::conv::conv2d`]; same argument layout.
pub fn conv2d(x: &[f32], wgt: &[f32], s: &ConvShape, out: &mut [f32]) {
    let (k, p) = (s.taps(), s.positions());
    let mut cols = vec![0.0f32; k * p];
    let xs = x.chunks_exact(s.c * s.h * s.w);
    for (xi, yi) in xs.zip(out.chunks_exact_mut(s.o * p)) {
        im2col(xi, s.c, s.h, s.w, &s.spec, &mut cols);
        gemm_nn(wgt, s.o, k, &cols, p, yi);
    }
}

/// Per-sample input gradient: [`gemm_tn`] into a column matrix, then
/// [`col2im`] into the zeroed `dx`. Oracle of the input gradient of
/// [`super::conv::conv2d_backward`].
pub fn conv2d_backward_input(dy: &[f32], wgt: &[f32], s: &ConvShape, dx: &mut [f32]) {
    let (k, p) = (s.taps(), s.positions());
    let mut dcols = vec![0.0f32; k * p];
    dx.fill(0.0);
    let dxs = dx.chunks_exact_mut(s.c * s.h * s.w);
    for (dyi, dxi) in dy.chunks_exact(s.o * p).zip(dxs) {
        gemm_tn(wgt, s.o, k, dyi, p, &mut dcols);
        col2im(&dcols, s.c, s.h, s.w, &s.spec, dxi);
    }
}

/// Per-sample weight gradient: each image's [`gemm_nt_acc`] against its
/// [`im2col`] matrix adds into its band's partial, and the
/// [`WGRAD_BANDS`] partials are summed in band order. Oracle of the
/// weight gradient of [`super::conv::conv2d_backward`].
pub fn conv2d_backward_weight(x: &[f32], dy: &[f32], s: &ConvShape, dw: &mut [f32]) {
    let (k, p) = (s.taps(), s.positions());
    let img_len = s.c * s.h * s.w;
    let bands = ChunkGrid::with_max_chunks(s.n, 1, WGRAD_BANDS);
    let mut cols = vec![0.0f32; k * p];
    let mut part = vec![0.0f32; s.o * k];
    dw.fill(0.0);
    for b in 0..bands.n_chunks() {
        let (b0, b1) = bands.range(b);
        part.fill(0.0);
        for i in b0..b1 {
            im2col(
                &x[i * img_len..(i + 1) * img_len],
                s.c,
                s.h,
                s.w,
                &s.spec,
                &mut cols,
            );
            gemm_nt_acc(
                &dy[i * s.o * p..(i + 1) * s.o * p],
                s.o,
                p,
                &cols,
                k,
                &mut part,
            );
        }
        for (d, &v) in dw.iter_mut().zip(&part) {
            *d += v;
        }
    }
}

/// Per-pixel depthwise convolution: each output of channel `ci` sums its
/// in-bounds taps in ascending `(ki, kj)` order from `+0.0`, skipping
/// padding taps. `s` has `s.o == s.c`, `wgt` is `[C, KH·KW]`. Oracle of
/// [`super::depthwise::depthwise_conv2d`]; same argument layout.
pub fn depthwise_conv2d(x: &[f32], wgt: &[f32], s: &ConvShape, out: &mut [f32]) {
    let (kh, kw) = s.spec.kernel;
    let (sh, sw) = s.spec.stride;
    let (ph, pw) = s.spec.padding;
    let (h, w) = (s.h as isize, s.w as isize);
    for i in 0..s.n * s.c {
        let (xc, wc) = (&x[i * s.h * s.w..], &wgt[(i % s.c) * kh * kw..]);
        for oy in 0..s.oh {
            for ox in 0..s.ow {
                let mut acc = 0.0f32;
                for ki in 0..kh {
                    let iy = (oy * sh + ki) as isize - ph as isize;
                    for kj in 0..kw {
                        let ix = (ox * sw + kj) as isize - pw as isize;
                        if (0..h).contains(&iy) && (0..w).contains(&ix) {
                            acc += xc[(iy * w + ix) as usize] * wc[ki * kw + kj];
                        }
                    }
                }
                out[(i * s.oh + oy) * s.ow + ox] = acc;
            }
        }
    }
}

/// Per-pixel depthwise gradients: for every `dY` element `g ≠ 0` in
/// raster order (zeros are skipped), each in-bounds tap adds `g·w` into
/// `dx` and `g·x` into its band's weight-gradient partial; images are
/// split into [`WGRAD_BANDS`] bands and the partials summed in band
/// order. `dx` and `dw` are overwritten. Oracle of
/// [`super::depthwise::depthwise_conv2d_backward`]; same argument layout.
pub fn depthwise_conv2d_backward(
    x: &[f32],
    dy: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    dx: &mut [f32],
    dw: &mut [f32],
) {
    let (kh, kw) = s.spec.kernel;
    let (sh, sw) = s.spec.stride;
    let (ph, pw) = s.spec.padding;
    let (h, w) = (s.h as isize, s.w as isize);
    let bands = ChunkGrid::with_max_chunks(s.n, 1, WGRAD_BANDS);
    let mut part = vec![0.0f32; s.c * kh * kw];
    dx.fill(0.0);
    dw.fill(0.0);
    for band in 0..bands.n_chunks() {
        let (b0, b1) = bands.range(band);
        part.fill(0.0);
        for i in b0 * s.c..b1 * s.c {
            let ci = i % s.c;
            for oy in 0..s.oh {
                for ox in 0..s.ow {
                    let g = dy[(i * s.oh + oy) * s.ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ki in 0..kh {
                        let iy = (oy * sh + ki) as isize - ph as isize;
                        for kj in 0..kw {
                            let ix = (ox * sw + kj) as isize - pw as isize;
                            if (0..h).contains(&iy) && (0..w).contains(&ix) {
                                let at = i * s.h * s.w + (iy * w + ix) as usize;
                                let t = ci * kh * kw + ki * kw + kj;
                                dx[at] += g * wgt[t];
                                part[t] += g * x[at];
                            }
                        }
                    }
                }
            }
        }
        for (d, &v) in dw.iter_mut().zip(&part) {
            *d += v;
        }
    }
}

// i8 column-matrix elements the oracle writes.
static IM2COL_ELEMS: cq_obs::Counter = cq_obs::Counter::new("tensor.im2col.elems");

/// i8 [`im2col`]: lowers one `[c, h, w]` sample of stored activation codes
/// to a column matrix, writing `pad` where a tap falls in padding. With a
/// zero-point representation real `0.0` is code `-zp`, not `0`, so the
/// caller passes that code and the zero-point correction stays exact.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the geometry.
pub fn im2col_i8(
    input: &[i8],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    pad: i8,
    out: &mut [i8],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.out_hw(h, w).expect("im2col_i8: invalid geometry"); // cq-check: allow — geometry pre-validated by callers
    assert_eq!(input.len(), c * h * w, "im2col_i8: input length mismatch");
    assert_eq!(
        out.len(),
        c * kh * kw * oh * ow,
        "im2col_i8: output length mismatch"
    );
    IM2COL_ELEMS.add(out.len() as u64);
    for (row, dst) in out.chunks_exact_mut(oh * ow).enumerate() {
        let (ci, ki, kj) = (row / (kh * kw), row / kw % kh, row % kw);
        for oy in 0..oh {
            for ox in 0..ow {
                let iy = (oy * sh + ki) as isize - ph as isize;
                let ix = (ox * sw + kj) as isize - pw as isize;
                let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                dst[oy * ow + ox] = if inside {
                    input[(ci * h + iy as usize) * w + ix as usize]
                } else {
                    pad
                };
            }
        }
    }
}

/// Per-sample int8 forward convolution: for each image, [`im2col_i8`]
/// (padding with the code of real zero), the stored-code column sums,
/// [`gemm_i8_nn_ref`] and the i64 requantization of [`Requant`]. Oracle of
/// [`super::conv::conv2d_i8`]; same argument layout.
pub fn conv2d_i8_per_sample(x: &[i8], wgt: &[i8], s: &ConvShape, rq: &Requant, out: &mut [f32]) {
    let (k, p) = (s.taps(), s.positions());
    let mut cols = vec![0i8; k * p];
    let mut acc = vec![0i32; s.o * p];
    let mut asum = vec![0i32; p];
    let (ilen, olen) = (s.c * s.h * s.w, s.o * p);
    // Indexed rather than chunked: an image or output of zero length
    // (C = 0 or O = 0) still has its images.
    for img in 0..s.n {
        let xi = &x[img * ilen..(img + 1) * ilen];
        let yi = &mut out[img * olen..(img + 1) * olen];
        im2col_i8(xi, s.c, s.h, s.w, &s.spec, rq.pad_code(), &mut cols);
        asum.fill(0);
        for krow in cols.chunks_exact(p) {
            for (a, &v) in asum.iter_mut().zip(krow) {
                *a += v as i32;
            }
        }
        gemm_i8_nn_ref(wgt, s.o, k, &cols, p, &mut acc);
        let zw = rq.zw as i64;
        for (o, (arow, orow)) in acc.chunks_exact(p).zip(yi.chunks_exact_mut(p)).enumerate() {
            let (m, row_corr, b) = (rq.scale[o], rq.row_corr(o, k), rq.shift[o]);
            for ((dst, &a), &sum) in orow.iter_mut().zip(arow).zip(&asum) {
                *dst = m * (a as i64 + row_corr + zw * sum as i64) as f32 + b;
            }
        }
    }
}
