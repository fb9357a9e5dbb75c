//! Convolution geometry and the int8 depthwise kernel.
//!
//! Every f32 convolution runs over the whole batch in [`crate::gemm`]:
//! dense ones on batch lanes ([`crate::gemm::conv`]), depthwise ones
//! (MobileNetV2) on the same image lanes, their weight gradient on
//! channel lanes ([`crate::gemm::depthwise`]). The int8
//! dense forward is an implicit GEMM; the int8 depthwise forward,
//! [`depthwise_conv2d_i8`], is a direct per-image loop.

use crate::{Result, TensorError};

// Kernel counter (a no-op unless a cq-obs sink is installed): depthwise
// convs in multiply-add FLOPs, every pass counted (the f32 forward once,
// its backward twice, the i8 forward once), so observed totals reconcile
// with Plan IR estimates.
pub(crate) static DEPTHWISE_FLOPS: cq_obs::Counter = cq_obs::Counter::new("tensor.depthwise.flops");

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

/// Depthwise convolution of one `[c, h, w]` sample of i8 codes with
/// `weight` (flat `[c, kh, kw]`), with exact `i32` accumulation for the
/// integer inference path. Unlike the f32 kernel
/// ([`crate::gemm::depthwise::depthwise_conv2d`]), padded taps are not
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
