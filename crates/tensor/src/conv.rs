//! Convolution geometry and depthwise kernels.
//!
//! Dense convolutions, f32 and i8, run over the whole batch (see
//! [`crate::gemm::conv`]): f32 on batch lanes, i8 as an implicit GEMM. Depthwise convolutions (MobileNetV2)
//! use direct loops, which is faster for a single channel per group.

use crate::{Result, TensorError};

// Kernel counter (a no-op unless a cq-obs sink is installed): depthwise
// convs in multiply-add FLOPs, so observed totals reconcile with Plan IR
// estimates.
static DEPTHWISE_FLOPS: cq_obs::Counter = cq_obs::Counter::new("tensor.depthwise.flops");

/// Geometry of a 2-D convolution or pooling window: kernel size, stride and
/// zero padding (symmetric).
///
/// # Example
///
/// ```
/// use cq_tensor::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 1, 1); // 3x3, stride 1, pad 1 => "same"
/// assert_eq!(spec.out_hw(16, 16)?, (16, 16));
/// # Ok::<(), cq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Stride along height and width.
    pub stride: (usize, usize),
    /// Zero padding along height and width (applied on both sides).
    pub padding: (usize, usize),
}

impl Conv2dSpec {
    /// Square-kernel constructor: `k`×`k` kernel, stride `s`, padding `p`.
    pub fn new(k: usize, s: usize, p: usize) -> Self {
        Conv2dSpec {
            kernel: (k, k),
            stride: (s, s),
            padding: (p, p),
        }
    }

    /// Output spatial size for an `h`×`w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit
    /// in the padded input or any stride is zero.
    pub fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let (kh, kw) = self.kernel;
        let (sh, sw) = self.stride;
        let (ph, pw) = self.padding;
        if sh == 0 || sw == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be nonzero".into(),
            ));
        }
        if kh == 0 || kw == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel must be nonzero".into(),
            ));
        }
        let ph2 = h + 2 * ph;
        let pw2 = w + 2 * pw;
        if kh > ph2 || kw > pw2 {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {:?} larger than padded input {}x{}",
                self.kernel, ph2, pw2
            )));
        }
        Ok(((ph2 - kh) / sh + 1, (pw2 - kw) / sw + 1))
    }

    /// Number of rows of the column matrix for a `c`-channel input:
    /// `c * kh * kw`.
    pub fn col_rows(&self, c: usize) -> usize {
        c * self.kernel.0 * self.kernel.1
    }
}

/// Direct depthwise convolution over one `[c, h, w]` sample: channel `ci`
/// of the output is channel `ci` of the input convolved with kernel
/// `weight[ci]` (`weight` is flat `[c, kh, kw]`).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the geometry.
pub fn depthwise_conv2d(
    input: &[f32],
    weight: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    out: &mut [f32],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.out_hw(h, w).expect("depthwise: invalid geometry"); // cq-check: allow — geometry pre-validated by callers
    assert_eq!(input.len(), c * h * w);
    assert_eq!(weight.len(), c * kh * kw);
    assert_eq!(out.len(), c * oh * ow);
    DEPTHWISE_FLOPS.add(2 * (c * oh * ow * kh * kw) as u64);

    // Row-wise: each output row accumulates tap by tap (ascending, taps in
    // padding skipped) over its in-bounds column span, so every output
    // element sums the same terms in the same order as a per-pixel loop,
    // while the inner loop runs over contiguous columns.
    let spans: Vec<(usize, usize)> = (0..kw).map(|kj| tap_columns(kj, pw, sw, w, ow)).collect();
    for ((in_ch, ker), out_ch) in input
        .chunks_exact(h * w)
        .zip(weight.chunks_exact(kh * kw))
        .zip(out.chunks_exact_mut(oh * ow))
    {
        for (oy, orow) in out_ch.chunks_exact_mut(ow).enumerate() {
            orow.fill(0.0);
            for ki in 0..kh {
                let Some(iy) = (oy * sh + ki).checked_sub(ph).filter(|&iy| iy < h) else {
                    continue;
                };
                let irow = &in_ch[iy * w..(iy + 1) * w];
                for (kj, &(x0, x1)) in spans.iter().enumerate() {
                    if x0 == x1 {
                        continue;
                    }
                    let kv = ker[ki * kw + kj];
                    let at = x0 * sw + kj - pw;
                    let dst = &mut orow[x0..x1];
                    // cq-allow(no-naive-hot-loop): depthwise k x k stencil, one tap over a row span; no matrix structure to lower onto cq_tensor::gemm
                    let step = |(o, &v): (&mut f32, &f32)| *o += v * kv;
                    if sw == 1 {
                        dst.iter_mut().zip(&irow[at..at + x1 - x0]).for_each(step);
                    } else {
                        dst.iter_mut()
                            .zip(irow[at..].iter().step_by(sw))
                            .for_each(step);
                    }
                }
            }
        }
    }
}

/// Output columns `[x0, x1)` whose kernel column `kj` reads inside a
/// `w`-wide input row (padding `pw`, stride `sw`, `ow` output columns).
fn tap_columns(kj: usize, pw: usize, sw: usize, w: usize, ow: usize) -> (usize, usize) {
    let x0 = pw.saturating_sub(kj).div_ceil(sw).min(ow);
    // The last in-bounds output column is (w - 1 + pw - kj) / sw.
    let x1 = (w + pw)
        .checked_sub(kj + 1)
        .map_or(x0, |hi| (hi / sw + 1).clamp(x0, ow));
    (x0, x1)
}

/// i8 variant of [`depthwise_conv2d`] with exact `i32` accumulation for
/// the integer inference path. Unlike the f32 kernel, padded taps are not
/// skipped: they contribute `pad * ker` so a zero-point code (`pad =
/// -zp`) is treated exactly like an in-bounds code, keeping the
/// per-channel zero-point correction term exact. The same pass writes
/// each window's stored-code sum (pad codes included) into `asum`, the
/// per-element factor of that correction.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_i8(
    input: &[i8],
    weight: &[i8],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    pad: i8,
    out: &mut [i32],
    asum: &mut [i32],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.out_hw(h, w).expect("depthwise_i8: invalid geometry"); // cq-check: allow — geometry pre-validated by callers
    assert_eq!(input.len(), c * h * w);
    assert_eq!(weight.len(), c * kh * kw);
    assert_eq!(out.len(), c * oh * ow);
    assert_eq!(asum.len(), c * oh * ow);
    DEPTHWISE_FLOPS.add(2 * (c * oh * ow * kh * kw) as u64);

    for ci in 0..c {
        let in_ch = &input[ci * h * w..(ci + 1) * h * w];
        let ker = &weight[ci * kh * kw..(ci + 1) * kh * kw];
        let out_ch = &mut out[ci * oh * ow..(ci + 1) * oh * ow];
        let sum_ch = &mut asum[ci * oh * ow..(ci + 1) * oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let (mut acc, mut sum) = (0i32, 0i32);
                for ki in 0..kh {
                    let iy = (oy * sh + ki) as isize - ph as isize;
                    for kj in 0..kw {
                        let ix = (ox * sw + kj) as isize - pw as isize;
                        let v = if iy >= 0 && iy < h as isize && ix >= 0 && (ix as usize) < w {
                            in_ch[iy as usize * w + ix as usize]
                        } else {
                            pad
                        };
                        // cq-allow(no-naive-hot-loop): depthwise k x k stencil with per-tap padding codes; no matrix structure to lower onto cq_tensor::gemm
                        acc += v as i32 * ker[ki * kw + kj] as i32;
                        sum += v as i32;
                    }
                }
                out_ch[oy * ow + ox] = acc;
                sum_ch[oy * ow + ox] = sum;
            }
        }
    }
}

/// Backward pass of [`depthwise_conv2d`]: accumulates the input gradient
/// into `dinput` and the weight gradient into `dweight` given the output
/// gradient `dout`.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_backward(
    input: &[f32],
    weight: &[f32],
    dout: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    dinput: &mut [f32],
    dweight: &mut [f32],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec
        .out_hw(h, w)
        .expect("depthwise backward: invalid geometry"); // cq-check: allow — geometry pre-validated by callers
    assert_eq!(input.len(), c * h * w);
    assert_eq!(weight.len(), c * kh * kw);
    assert_eq!(dout.len(), c * oh * ow);
    assert_eq!(dinput.len(), c * h * w);
    assert_eq!(dweight.len(), c * kh * kw);

    // Both gradients keep the per-pixel loop's summation order. Each
    // input-gradient element receives its terms in raster (oy, ox) order:
    // within one output row it is reached by exactly one ki, and by
    // ascending ox exactly when kj descends, hence the reversed kj loop.
    // Each weight-gradient element is one running sum over raster
    // positions. Zero output gradients contribute nothing (selecting +0.0
    // instead of skipping is exact: sums that start at +0.0 never reach
    // -0.0).
    let spans: Vec<(usize, usize)> = (0..kw).map(|kj| tap_columns(kj, pw, sw, w, ow)).collect();
    let chans = weight
        .chunks_exact(kh * kw)
        .zip(dout.chunks_exact(oh * ow))
        .zip(dinput.chunks_exact_mut(h * w));
    for ((ker, dout_ch), din_ch) in chans {
        for (oy, grow) in dout_ch.chunks_exact(ow).enumerate() {
            for ki in 0..kh {
                let Some(iy) = (oy * sh + ki).checked_sub(ph).filter(|&iy| iy < h) else {
                    continue;
                };
                for (kj, &(x0, x1)) in spans.iter().enumerate().rev() {
                    if x0 == x1 {
                        continue;
                    }
                    let at = iy * w + x0 * sw + kj - pw;
                    let kv = ker[ki * kw + kj];
                    let g = &grow[x0..x1];
                    let term = |g: f32| if g != 0.0 { g * kv } else { 0.0 };
                    let step = |(d, &g): (&mut f32, &f32)| *d += term(g);
                    if sw == 1 {
                        din_ch[at..at + g.len()].iter_mut().zip(g).for_each(step);
                    } else {
                        din_ch[at..].iter_mut().step_by(sw).zip(g).for_each(step);
                    }
                }
            }
        }
    }
    // Weight gradient, 8 channels at a time: each channel's running sums
    // keep their raster order, and the 8 independent chains overlap.
    const CB: usize = 8;
    let taps = kh * kw;
    for c0 in (0..c).step_by(CB) {
        let cn = CB.min(c - c0);
        for t in 0..taps {
            let (ki, kj) = (t / kw, t % kw);
            let (x0, x1) = spans[kj];
            let mut acc = [0.0f32; CB];
            for (i, a) in acc.iter_mut().enumerate().take(cn) {
                *a = dweight[(c0 + i) * taps + t];
            }
            for oy in 0..oh {
                let Some(iy) = (oy * sh + ki).checked_sub(ph).filter(|&iy| iy < h) else {
                    continue;
                };
                for ox in x0..x1 {
                    let (gi, xi) = (oy * ow + ox, iy * w + ox * sw + kj - pw);
                    for (i, a) in acc.iter_mut().enumerate().take(cn) {
                        let g = dout[(c0 + i) * oh * ow + gi];
                        // cq-allow(no-naive-hot-loop): depthwise weight-gradient running sums, raster order per element; not a lowerable matmul
                        *a += if g != 0.0 {
                            g * input[(c0 + i) * h * w + xi]
                        } else {
                            0.0
                        };
                    }
                }
            }
            for (i, &a) in acc.iter().enumerate().take(cn) {
                dweight[(c0 + i) * taps + t] = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn out_hw_same_padding() {
        let spec = Conv2dSpec::new(3, 1, 1);
        assert_eq!(spec.out_hw(8, 8).unwrap(), (8, 8));
        let stride2 = Conv2dSpec::new(3, 2, 1);
        assert_eq!(stride2.out_hw(8, 8).unwrap(), (4, 4));
    }

    #[test]
    fn out_hw_rejects_bad_geometry() {
        assert!(Conv2dSpec::new(5, 1, 0).out_hw(3, 3).is_err());
        assert!(Conv2dSpec {
            kernel: (3, 3),
            stride: (0, 1),
            padding: (0, 0)
        }
        .out_hw(8, 8)
        .is_err());
        assert!(Conv2dSpec {
            kernel: (0, 3),
            stride: (1, 1),
            padding: (0, 0)
        }
        .out_hw(8, 8)
        .is_err());
    }

    /// Reference convolution via explicit loops, for cross-checking the
    /// depthwise kernels.
    fn conv_reference(
        x: &[f32],
        wgt: &[f32],
        c_in: usize,
        c_out: usize,
        h: usize,
        w: usize,
        spec: &Conv2dSpec,
    ) -> Vec<f32> {
        let (kh, kw) = spec.kernel;
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        let (oh, ow) = spec.out_hw(h, w).unwrap();
        let mut out = vec![0.0f32; c_out * oh * ow];
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ci in 0..c_in {
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let iy = (oy * sh + ki) as isize - ph as isize;
                                let ix = (ox * sw + kj) as isize - pw as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    acc += x[ci * h * w + iy as usize * w + ix as usize]
                                        * wgt[((co * c_in + ci) * kh + ki) * kw + kj];
                                }
                            }
                        }
                    }
                    out[co * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        out
    }

    /// The per-pixel depthwise loop the row-wise kernel replaced: taps in
    /// ascending order, padding taps skipped.
    fn depthwise_per_pixel(
        x: &[f32],
        wgt: &[f32],
        c: usize,
        h: usize,
        w: usize,
        spec: &Conv2dSpec,
    ) -> Vec<f32> {
        let (kh, kw) = spec.kernel;
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        let (oh, ow) = spec.out_hw(h, w).unwrap();
        let mut out = vec![0.0f32; c * oh * ow];
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ki in 0..kh {
                        let iy = (oy * sh + ki) as isize - ph as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let ix = (ox * sw + kj) as isize - pw as isize;
                            if ix >= 0 && (ix as usize) < w {
                                acc += x[(ci * h + iy as usize) * w + ix as usize]
                                    * wgt[(ci * kh + ki) * kw + kj];
                            }
                        }
                    }
                    out[(ci * oh + oy) * ow + ox] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn depthwise_matches_per_pixel_loop_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        // (c, h, w, kernel, stride, padding), including padding wider
        // than the kernel's reach and one-pixel outputs.
        for (c, h, w, k, st, pd) in [
            (3, 6, 6, 3, 1, 1),
            (2, 5, 7, 3, 2, 1),
            (4, 16, 16, 3, 1, 1),
            (2, 4, 4, 3, 2, 2),
            (1, 1, 1, 3, 1, 1),
            (3, 9, 5, 5, 3, 2),
            (2, 3, 3, 1, 1, 0),
        ] {
            let spec = Conv2dSpec::new(k, st, pd);
            let x: Vec<f32> = (0..c * h * w).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let wgt: Vec<f32> = (0..c * k * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let (oh, ow) = spec.out_hw(h, w).unwrap();
            let mut got = vec![f32::NAN; c * oh * ow];
            depthwise_conv2d(&x, &wgt, c, h, w, &spec, &mut got);
            let want = depthwise_per_pixel(&x, &wgt, c, h, w, &spec);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{c}x{h}x{w} k{k} s{st} p{pd}");
        }
    }

    #[test]
    fn depthwise_backward_matches_per_pixel_loop_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for (c, h, w, k, st, pd) in [
            (3, 6, 6, 3, 1, 1),
            (2, 5, 7, 3, 2, 1),
            (2, 4, 4, 3, 2, 2),
            (1, 1, 1, 3, 1, 1),
            (3, 9, 5, 5, 3, 2),
        ] {
            let spec = Conv2dSpec::new(k, st, pd);
            let (kh, kw) = spec.kernel;
            let (sh, sw) = spec.stride;
            let (ph, pw) = spec.padding;
            let (oh, ow) = spec.out_hw(h, w).unwrap();
            let x: Vec<f32> = (0..c * h * w).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let wgt: Vec<f32> = (0..c * k * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            // Exact zeros in the output gradient exercise the skip.
            let dout: Vec<f32> = (0..c * oh * ow)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let init: Vec<f32> = (0..c * k * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (mut dx, mut dw) = (vec![0.0f32; c * h * w], init.clone());
            depthwise_conv2d_backward(&x, &wgt, &dout, c, h, w, &spec, &mut dx, &mut dw);
            // The per-pixel loop it replaced.
            let (mut ex, mut ew) = (vec![0.0f32; c * h * w], init);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dout[(ci * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ki in 0..kh {
                            let iy = (oy * sh + ki) as isize - ph as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kj in 0..kw {
                                let ix = (ox * sw + kj) as isize - pw as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    let i = (ci * h + iy as usize) * w + ix as usize;
                                    ex[i] += g * wgt[(ci * kh + ki) * kw + kj];
                                    ew[(ci * kh + ki) * kw + kj] += g * x[i];
                                }
                            }
                        }
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dx), bits(&ex), "dx {c}x{h}x{w} k{k} s{st} p{pd}");
            assert_eq!(bits(&dw), bits(&ew), "dw {c}x{h}x{w} k{k} s{st} p{pd}");
        }
    }

    #[test]
    fn depthwise_matches_reference_per_channel() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (c, h, w) = (3, 6, 6);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::randn(&[c * h * w], 0.0, 1.0, &mut rng);
        let wgt = Tensor::randn(&[c * 9], 0.0, 1.0, &mut rng);
        let (oh, ow) = spec.out_hw(h, w).unwrap();
        let mut out = vec![0.0f32; c * oh * ow];
        depthwise_conv2d(x.as_slice(), wgt.as_slice(), c, h, w, &spec, &mut out);

        // Per channel, compare against the dense reference with c_in = c_out = 1.
        for ci in 0..c {
            let want = conv_reference(
                &x.as_slice()[ci * h * w..(ci + 1) * h * w],
                &wgt.as_slice()[ci * 9..(ci + 1) * 9],
                1,
                1,
                h,
                w,
                &spec,
            );
            for (g, r) in out[ci * oh * ow..(ci + 1) * oh * ow].iter().zip(&want) {
                assert!((g - r).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn depthwise_i8_matches_explicitly_padded_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let (c, h, w) = (3, 5, 5);
        let spec = Conv2dSpec::new(3, 2, 1);
        let (oh, ow) = spec.out_hw(h, w).unwrap();
        let pad = -33i8;
        let x: Vec<i8> = (0..c * h * w)
            .map(|_| rng.gen_range(-128i32..=127) as i8)
            .collect();
        let wgt: Vec<i8> = (0..c * 9)
            .map(|_| rng.gen_range(-127i32..=127) as i8)
            .collect();
        let mut got = vec![0i32; c * oh * ow];
        let mut asum = vec![0i32; c * oh * ow];
        depthwise_conv2d_i8(&x, &wgt, c, h, w, &spec, pad, &mut got, &mut asum);

        // Materialize the padded input with the pad code and run a valid
        // (padding-free) integer conv as the oracle.
        let (hp, wp) = (h + 2, w + 2);
        for ci in 0..c {
            let mut padded = vec![pad; hp * wp];
            for y in 0..h {
                for xx in 0..w {
                    padded[(y + 1) * wp + (xx + 1)] = x[ci * h * w + y * w + xx];
                }
            }
            let ker = &wgt[ci * 9..(ci + 1) * 9];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i32;
                    for ki in 0..3 {
                        for kj in 0..3 {
                            acc += padded[(oy * 2 + ki) * wp + ox * 2 + kj] as i32
                                * ker[ki * 3 + kj] as i32;
                        }
                    }
                    assert_eq!(got[ci * oh * ow + oy * ow + ox], acc, "c{ci} ({oy},{ox})");
                }
            }
        }
    }

    #[test]
    fn depthwise_i8_window_sums_equal_the_ones_kernel_pass() {
        // The one-pass window sums must be bit-identical to the two-pass
        // formulation they replace: the MAC rerun with an all-ones kernel.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for (c, h, w, spec, pad) in [
            (3, 5, 5, Conv2dSpec::new(3, 2, 1), -33i8),
            (4, 7, 6, Conv2dSpec::new(3, 1, 1), 127),
            (2, 4, 4, Conv2dSpec::new(3, 1, 0), -128),
            (5, 3, 8, Conv2dSpec::new(5, 2, 2), 0),
        ] {
            let (oh, ow) = spec.out_hw(h, w).unwrap();
            let (kh, kw) = spec.kernel;
            let x: Vec<i8> = (0..c * h * w)
                .map(|_| rng.gen_range(-128i32..=127) as i8)
                .collect();
            let wgt: Vec<i8> = (0..c * kh * kw)
                .map(|_| rng.gen_range(-128i32..=127) as i8)
                .collect();
            let len = c * oh * ow;
            let (mut acc, mut asum) = (vec![0i32; len], vec![0i32; len]);
            depthwise_conv2d_i8(&x, &wgt, c, h, w, &spec, pad, &mut acc, &mut asum);
            let ones = vec![1i8; c * kh * kw];
            let (mut want, mut scratch) = (vec![0i32; len], vec![0i32; len]);
            depthwise_conv2d_i8(&x, &ones, c, h, w, &spec, pad, &mut want, &mut scratch);
            assert_eq!(asum, want, "{c}x{h}x{w} {spec:?} pad {pad}");
        }
    }

    #[test]
    fn depthwise_backward_matches_finite_difference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let (c, h, w) = (2, 4, 4);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::randn(&[c * h * w], 0.0, 0.5, &mut rng);
        let wgt = Tensor::randn(&[c * 9], 0.0, 0.5, &mut rng);
        let (oh, ow) = spec.out_hw(h, w).unwrap();

        // Loss = sum(out); dout = ones.
        let dout = vec![1.0f32; c * oh * ow];
        let mut dx = vec![0.0f32; c * h * w];
        let mut dw = vec![0.0f32; c * 9];
        depthwise_conv2d_backward(
            x.as_slice(),
            wgt.as_slice(),
            &dout,
            c,
            h,
            w,
            &spec,
            &mut dx,
            &mut dw,
        );

        let loss = |xs: &[f32], ws: &[f32]| -> f32 {
            let mut out = vec![0.0f32; c * oh * ow];
            depthwise_conv2d(xs, ws, c, h, w, &spec, &mut out);
            out.iter().sum()
        };
        let eps = 1e-3;
        // check a few weight grads
        for idx in [0usize, 5, 9, 17] {
            let mut wp = wgt.as_slice().to_vec();
            wp[idx] += eps;
            let mut wm = wgt.as_slice().to_vec();
            wm[idx] -= eps;
            let fd = (loss(x.as_slice(), &wp) - loss(x.as_slice(), &wm)) / (2.0 * eps);
            assert!(
                (fd - dw[idx]).abs() < 1e-2,
                "w[{idx}]: fd {fd} vs {}",
                dw[idx]
            );
        }
        // and a few input grads
        for idx in [0usize, 7, 15, 31] {
            let mut xp = x.as_slice().to_vec();
            xp[idx] += eps;
            let mut xm = x.as_slice().to_vec();
            xm[idx] -= eps;
            let fd = (loss(&xp, wgt.as_slice()) - loss(&xm, wgt.as_slice())) / (2.0 * eps);
            assert!(
                (fd - dx[idx]).abs() < 1e-2,
                "x[{idx}]: fd {fd} vs {}",
                dx[idx]
            );
        }
    }
}
