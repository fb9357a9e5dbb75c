//! Scalar reference loops of the elementwise training kernels: the loops
//! the fused executor ([`crate::graph`]), the BatchNorm kernels and the
//! activation backward replaced, kept as their bitwise oracle, as
//! `cq_tensor::gemm::reference` is for the GEMM and convolution kernels.
//!
//! Every tensor here is viewed as `(outer, c, inner)`, row-major, and
//! every mask is a full `f32` buffer of 0.0 and 1.0. The tests of the
//! kernels compare them to these loops bit for bit at every
//! `SimdLevel` and thread limit.

/// One elementwise op of a fused chain.
pub enum Op<'a> {
    /// `v = (v − mean[c]) · inv_std[c]`; the tap receives the result.
    Normalize {
        /// Per-channel mean.
        mean: &'a [f32],
        /// Per-channel reciprocal standard deviation.
        inv_std: &'a [f32],
        /// Channels.
        c: usize,
        /// Elements per `(o, c)` slice.
        inner: usize,
    },
    /// `v = scale[c] · v + shift[c]`.
    Affine {
        /// Per-channel scale (BN gamma).
        scale: &'a [f32],
        /// Per-channel shift (BN beta).
        shift: &'a [f32],
        /// Channels.
        c: usize,
        /// Elements per `(o, c)` slice.
        inner: usize,
    },
    /// `v = max(0, v)` with NaN to 0; the tap gets 1.0 where `v > 0`.
    Relu,
    /// `v = clamp(v, 0, 6)`; the tap gets 1.0 where `0 < v < 6`.
    Relu6,
    /// `v = v + other[i]`.
    Add(&'a [f32]),
}

/// Applies `f(ci, lo, hi)` over the per-channel segments of `0..len`.
fn for_channel_segments(
    len: usize,
    c: usize,
    inner: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    let mut pos = 0;
    while pos < len {
        let ci = (pos / inner) % c;
        let seg = (inner - pos % inner).min(len - pos);
        f(ci, pos, pos + seg);
        pos += seg;
    }
}

/// Applies `op` to `buf` in place. `tap` must be zero-filled and as long
/// as `buf`; `Normalize` writes its values there and `Relu`/`Relu6` set
/// their mask, the other ops ignore it.
// The negated comparison in the ReLU arm is load-bearing for NaN.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn apply_op(op: &Op<'_>, buf: &mut [f32], tap: Option<&mut [f32]>) {
    let len = buf.len();
    match *op {
        Op::Normalize {
            mean,
            inv_std,
            c,
            inner,
        } => {
            let mut tap = tap;
            for_channel_segments(len, c, inner, |ci, lo, hi| {
                let (mu, is) = (mean[ci], inv_std[ci]);
                for i in lo..hi {
                    let xh = (buf[i] - mu) * is;
                    if let Some(t) = tap.as_deref_mut() {
                        t[i] = xh;
                    }
                    buf[i] = xh;
                }
            });
        }
        Op::Affine {
            scale,
            shift,
            c,
            inner,
        } => for_channel_segments(len, c, inner, |ci, lo, hi| {
            let (gc, bc) = (scale[ci], shift[ci]);
            for v in &mut buf[lo..hi] {
                *v = gc * *v + bc;
            }
        }),
        Op::Relu => match tap {
            Some(mask) => {
                for (v, m) in buf.iter_mut().zip(mask) {
                    if *v > 0.0 {
                        *m = 1.0;
                    } else {
                        *v = 0.0;
                    }
                }
            }
            None => {
                for v in buf.iter_mut() {
                    if !(*v > 0.0) {
                        *v = 0.0;
                    }
                }
            }
        },
        Op::Relu6 => {
            let mut tap = tap;
            for (i, v) in buf.iter_mut().enumerate() {
                if *v > 0.0 && *v < 6.0 {
                    if let Some(m) = tap.as_deref_mut() {
                        m[i] = 1.0;
                    }
                }
                *v = v.clamp(0.0, 6.0);
            }
        }
        Op::Add(other) => {
            for (v, &o) in buf.iter_mut().zip(other) {
                *v += o;
            }
        }
    }
}

/// BatchNorm batch statistics `(mean, biased var)` per channel: each
/// `(o, c)` slice summed with f32 `Sum` (from `−0.0`, in index order),
/// added to the channel's total in `o` order.
pub fn batch_stats(xs: &[f32], outer: usize, c: usize, inner: usize) -> (Vec<f32>, Vec<f32>) {
    let m = (outer * inner) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for o in 0..outer {
        for (ci, mv) in mean.iter_mut().enumerate() {
            let base = (o * c + ci) * inner;
            // cq-allow(det-float-accum): contiguous slice sum in index order
            *mv += xs[base..base + inner].iter().sum::<f32>();
        }
    }
    for v in &mut mean {
        *v /= m;
    }
    for o in 0..outer {
        for ci in 0..c {
            let base = (o * c + ci) * inner;
            let mu = mean[ci];
            var[ci] += xs[base..base + inner]
                .iter()
                .map(|&v| (v - mu) * (v - mu))
                // cq-allow(det-float-accum): contiguous slice sum in index order
                .sum::<f32>();
        }
    }
    for v in &mut var {
        *v /= m;
    }
    (mean, var)
}

/// BatchNorm backward `(dx, dgamma, dbeta)`: `dgamma`/`dbeta` one chain
/// per channel in `o`-then-`k` order; `dx` from the train-mode formula
/// over batch statistics, or `dy · gamma · inv_std` in eval mode.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm_backward(
    dy: &[f32],
    xhat: &[f32],
    gamma: &[f32],
    inv_std: &[f32],
    outer: usize,
    inner: usize,
    train: bool,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let c = gamma.len();
    let m = (outer * inner) as f32;
    let mut dgamma = vec![0.0f32; c];
    let mut dbeta = vec![0.0f32; c];
    for o in 0..outer {
        for ci in 0..c {
            let base = (o * c + ci) * inner;
            for k in 0..inner {
                // cq-allow(no-naive-hot-loop): per-channel reduction over (outer, inner); output is a length-c vector, not a matmul
                dgamma[ci] += dy[base + k] * xhat[base + k];
                dbeta[ci] += dy[base + k];
            }
        }
    }
    let mut dx = vec![0.0f32; dy.len()];
    for o in 0..outer {
        for ci in 0..c {
            let base = (o * c + ci) * inner;
            let (is, gc) = (inv_std[ci], gamma[ci]);
            if train {
                let sum_dxhat = dbeta[ci] * gc;
                let sum_dxhat_xhat = dgamma[ci] * gc;
                for k in 0..inner {
                    let dxhat = dy[base + k] * gc;
                    dx[base + k] =
                        (is / m) * (m * dxhat - sum_dxhat - xhat[base + k] * sum_dxhat_xhat);
                }
            } else {
                let coef = gc * is;
                for k in 0..inner {
                    dx[base + k] = dy[base + k] * coef;
                }
            }
        }
    }
    (dx, dgamma, dbeta)
}

/// Activation backward `dx = dy · mask` over an `f32` mask.
pub fn act_backward(dy: &[f32], mask: &[f32]) -> Vec<f32> {
    let mut dx = dy.to_vec();
    for (g, &m) in dx.iter_mut().zip(mask) {
        *g *= m;
    }
    dx
}

/// Seeded test values in `[−8, 8)` with the hostile ones mixed in every
/// few elements: NaN, ±Inf, ±0.0, exactly 0 and 6, and subnormals.
#[cfg(test)]
pub(crate) fn hostile(len: usize, seed: u64) -> Vec<f32> {
    const SPECIAL: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        6.0,
        -6.0,
        f32::from_bits(1),
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
    ];
    (0..len as u64)
        .map(|i| {
            let h = (i ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .rotate_left(29);
            if h.is_multiple_of(7) {
                SPECIAL[(h >> 8) as usize % SPECIAL.len()]
            } else {
                ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 16.0
            }
        })
        .collect()
}

/// Seeded finite test values in `[−8, 8)`.
#[cfg(test)]
pub(crate) fn finite(len: usize, seed: u64) -> Vec<f32> {
    hostile(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if v.is_finite() {
                v
            } else {
                i as f32 * 0.37 - 3.0
            }
        })
        .collect()
}

/// The shapes the kernels are tested at: channels × `inner`.
#[cfg(all(test, not(miri)))]
pub(crate) const CHANNELS: [usize; 7] = [1, 2, 3, 5, 8, 17, 48];
/// See [`CHANNELS`].
#[cfg(all(test, not(miri)))]
pub(crate) const INNER: [usize; 5] = [1, 4, 16, 64, 256];
/// Thread limits the kernels are tested at.
#[cfg(all(test, not(miri)))]
pub(crate) const THREADS: [usize; 4] = [1, 2, 5, 8];
// Under Miri's interpreter, small shapes: a partial mask word, a channel
// segment split by a chunk, and one pool thread and several.
#[cfg(all(test, miri))]
pub(crate) const CHANNELS: [usize; 2] = [1, 3];
#[cfg(all(test, miri))]
pub(crate) const INNER: [usize; 2] = [4, 33];
#[cfg(all(test, miri))]
pub(crate) const THREADS: [usize; 2] = [1, 2];

/// Bit patterns, so the sign of zero and every rounding compare, with
/// each NaN as one canonical NaN: Rust leaves the sign and payload of a
/// NaN result unspecified, and the vector and scalar compilations of one
/// expression may order a NaN-NaN operation's operands differently.
#[cfg(test)]
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}
