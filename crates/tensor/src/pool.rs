//! Pooling kernels over NCHW batches: max, average and global average,
//! each with its backward pass. The global average also reads and writes
//! the lane layout ([`crate::lanes`]), where encoders leave it.

use crate::lanes::{self, block_images, pad_value, LANES};
use crate::recycle::take_written;
use crate::recycle::take_zeroed;
use crate::{Conv2dSpec, Layout, Result, Tensor, TensorError};

// Output-element counter shared by the forward pooling kernels (max, avg,
// global avg). No-op unless a cq-obs sink is installed.
static POOL_ELEMS: cq_obs::Counter = cq_obs::Counter::new("tensor.pool.elems");

/// The dims of a rank-4 row-major tensor.
fn check_nchw(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if x.is_lanes() {
        return Err(TensorError::LayoutMismatch { op });
    }
    check_rank4(x, op)
}

/// The dims of a rank-4 tensor in either layout.
fn check_rank4(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            got: x.rank(),
            op,
        });
    }
    let d = x.dims();
    Ok((d[0], d[1], d[2], d[3]))
}

/// Max pooling over an NCHW tensor. Returns the pooled tensor and the flat
/// input index chosen for every output element (needed by
/// [`max_pool2d_backward`]).
///
/// Window positions that lie entirely in padding produce `-inf`; with the
/// geometries used in this crate (kernel ≥ padding) this never happens.
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or invalid geometry.
pub fn max_pool2d(x: &Tensor, spec: &Conv2dSpec) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w) = check_nchw(x, "max_pool2d")?;
    let (oh, ow) = spec.out_hw(h, w)?;
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    POOL_ELEMS.add((n * c * oh * ow) as u64);
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    let mut arg = vec![usize::MAX; n * c * oh * ow];
    let xs = x.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = usize::MAX;
                    for ki in 0..kh {
                        let iy = (oy * sh + ki) as isize - ph as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let ix = (ox * sw + kj) as isize - pw as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = base + iy as usize * w + ix as usize;
                            if xs[idx] > best {
                                best = xs[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[obase + oy * ow + ox] = best;
                    arg[obase + oy * ow + ox] = best_idx;
                }
            }
        }
    }
    Ok((Tensor::from_vec(out, &[n, c, oh, ow])?, arg))
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// input element that won the max.
///
/// # Errors
///
/// Returns an error if `dy`'s element count disagrees with `argmax`.
pub fn max_pool2d_backward(dy: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Result<Tensor> {
    if dy.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            len: argmax.len(),
            shape: dy.dims().to_vec(),
        });
    }
    let mut dx = Tensor::zeros(input_shape);
    let dxs = dx.as_mut_slice();
    for (&g, &idx) in dy.as_slice().iter().zip(argmax) {
        if idx != usize::MAX {
            dxs[idx] += g;
        }
    }
    Ok(dx)
}

/// Average pooling over an NCHW tensor. The divisor is the full kernel area
/// (`count_include_pad` semantics, matching the reference frameworks'
/// default for CIFAR-style heads).
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or invalid geometry.
pub fn avg_pool2d(x: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(x, "avg_pool2d")?;
    let (oh, ow) = spec.out_hw(h, w)?;
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let area = (kh * kw) as f32;
    POOL_ELEMS.add((n * c * oh * ow) as u64);
    let mut out = take_zeroed(n * c * oh * ow);
    let xs = x.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * oh * ow;
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
                                acc += xs[base + iy as usize * w + ix as usize];
                            }
                        }
                    }
                    out[obase + oy * ow + ox] = acc / area;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Backward pass of [`avg_pool2d`].
///
/// # Errors
///
/// Returns an error for inconsistent shapes or invalid geometry.
pub fn avg_pool2d_backward(
    dy: &Tensor,
    input_shape: &[usize],
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let (n, c, oh, ow) = check_nchw(dy, "avg_pool2d_backward")?;
    let (h, w) = (input_shape[2], input_shape[3]);
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let area = (kh * kw) as f32;
    let mut dx = Tensor::zeros(input_shape);
    let dxs = dx.as_mut_slice();
    let dys = dy.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dys[obase + oy * ow + ox] / area;
                    for ki in 0..kh {
                        let iy = (oy * sh + ki) as isize - ph as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let ix = (ox * sw + kj) as isize - pw as isize;
                            if ix >= 0 && (ix as usize) < w {
                                dxs[base + iy as usize * w + ix as usize] += g;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(dx)
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`, from either layout.
/// Each output is its plane summed in ascending position order from
/// `-0.0`, then divided by `h·w`; from the lane layout, one 16-lane chain
/// per `(block, channel)` sums 16 planes at once in that order, and pad
/// lanes are dropped (the lane layout's exit, counted in
/// `tensor.conv.lane_elems`).
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_rank4(x, "global_avg_pool")?;
    let hw = h * w;
    let spatial = hw as f32;
    POOL_ELEMS.add((n * c) as u64);
    let xs = x.as_slice();
    if !x.is_lanes() {
        let mut out = take_zeroed(n * c);
        for (i, o) in out.iter_mut().enumerate() {
            let base = i * hw;
            // cq-allow(det-float-accum): contiguous spatial window summed in index order
            *o = xs[base..base + hw].iter().sum::<f32>() / spatial;
        }
        return Tensor::from_vec(out, &[n, c]);
    }
    lanes::count_moved(n * c);
    let mut out = take_written(n * c);
    for (b, block) in xs.chunks_exact(c * hw * LANES).enumerate() {
        let (img0, nimg) = block_images(n, b);
        for (ch, plane) in block.chunks_exact(hw * LANES).enumerate() {
            let mut acc = [-0.0f32; LANES];
            for px in plane.chunks_exact(LANES) {
                for (a, &v) in acc.iter_mut().zip(px) {
                    *a += v;
                }
            }
            for (l, &a) in acc.iter().enumerate().take(nimg) {
                out[(img0 + l) * c + ch] = a / spatial;
            }
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Backward pass of [`global_avg_pool`]: spreads each `[n, c]` gradient
/// uniformly over the spatial grid of an `input_shape` tensor in
/// `layout` (pad lanes get [`pad_value`]).
///
/// # Errors
///
/// Returns an error if `dy` is not `[n, c]` of the rank-4
/// `input_shape`.
pub fn global_avg_pool_backward(
    dy: &Tensor,
    input_shape: &[usize],
    layout: Layout,
) -> Result<Tensor> {
    if input_shape.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            got: input_shape.len(),
            op: "global_avg_pool_backward",
        });
    }
    let (n, c, hw) = (
        input_shape[0],
        input_shape[1],
        input_shape[2] * input_shape[3],
    );
    if dy.dims() != [n, c] || dy.is_lanes() {
        return Err(TensorError::ShapeMismatch {
            lhs: dy.dims().to_vec(),
            rhs: vec![n, c],
            op: "global_avg_pool_backward",
        });
    }
    let spatial = hw as f32;
    let mut dx = Tensor::written(input_shape, layout);
    let dys = dy.as_slice();
    let dxs = dx.as_mut_slice();
    if layout == Layout::Nchw {
        for (i, &g) in dys.iter().enumerate() {
            dxs[i * hw..(i + 1) * hw].fill(g / spatial);
        }
        return Ok(dx);
    }
    for (b, block) in dxs.chunks_exact_mut(c * hw * LANES).enumerate() {
        let (img0, nimg) = block_images(n, b);
        for (ch, plane) in block.chunks_exact_mut(hw * LANES).enumerate() {
            let v: [f32; LANES] = std::array::from_fn(|l| {
                if l < nimg {
                    dys[(img0 + l) * c + ch] / spatial
                } else {
                    pad_value()
                }
            });
            for px in plane.chunks_exact_mut(LANES) {
                px.copy_from_slice(&v);
            }
        }
    }
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        // 1 sample, 1 channel, 4x4 ramp
        Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap()
    }

    #[test]
    fn max_pool_2x2() {
        let (y, arg) = max_pool2d(&sample(), &Conv2dSpec::new(2, 2, 0)).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = sample();
        let (_, arg) = max_pool2d(&x, &Conv2dSpec::new(2, 2, 0)).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let dx = max_pool2d_backward(&dy, &arg, &[1, 1, 4, 4]).unwrap();
        assert_eq!(dx.as_slice()[5], 1.0);
        assert_eq!(dx.as_slice()[7], 2.0);
        assert_eq!(dx.as_slice()[13], 3.0);
        assert_eq!(dx.as_slice()[15], 4.0);
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn avg_pool_2x2() {
        let y = avg_pool2d(&sample(), &Conv2dSpec::new(2, 2, 0)).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_backward_uniform_spread() {
        let dy = Tensor::from_vec(vec![4.0, 0.0, 0.0, 0.0], &[1, 1, 2, 2]).unwrap();
        let dx = avg_pool2d_backward(&dy, &[1, 1, 4, 4], &Conv2dSpec::new(2, 2, 0)).unwrap();
        assert_eq!(dx.as_slice()[0], 1.0);
        assert_eq!(dx.as_slice()[1], 1.0);
        assert_eq!(dx.as_slice()[4], 1.0);
        assert_eq!(dx.as_slice()[5], 1.0);
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn global_avg_pool_and_backward() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 1, 2, 2]).unwrap();
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.dims(), &[2, 1]);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
        let dy = Tensor::from_vec(vec![4.0, 8.0], &[2, 1]).unwrap();
        let dx = global_avg_pool_backward(&dy, &[2, 1, 2, 2], Layout::Nchw).unwrap();
        assert!(dx.as_slice()[..4].iter().all(|&v| v == 1.0));
        assert!(dx.as_slice()[4..].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn global_avg_pool_reads_and_writes_lanes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for n in [1, 8, 16, 17, 33] {
            let x = Tensor::randn(&[n, 3, 3, 2], 0.0, 1.0, &mut rng);
            let want = global_avg_pool(&x).unwrap();
            let got = global_avg_pool(&x.to_lanes().unwrap()).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
            let dy = Tensor::randn(&[n, 3], 0.0, 1.0, &mut rng);
            let dx = global_avg_pool_backward(&dy, x.dims(), Layout::Nchw).unwrap();
            let dxl = global_avg_pool_backward(&dy, x.dims(), Layout::Lanes).unwrap();
            assert!(dxl.is_lanes());
            assert_eq!(bits(&dxl.to_nchw()), bits(&dx), "n = {n}");
        }
        let wide = Tensor::zeros(&[2, 4]);
        assert!(global_avg_pool_backward(&wide, &[2, 3, 2, 2], Layout::Lanes).is_err());
    }

    #[test]
    fn pooling_rejects_wrong_rank() {
        let x = Tensor::zeros(&[2, 2]);
        assert!(max_pool2d(&x, &Conv2dSpec::new(2, 2, 0)).is_err());
        assert!(avg_pool2d(&x, &Conv2dSpec::new(2, 2, 0)).is_err());
        assert!(global_avg_pool(&x).is_err());
    }

    #[test]
    fn avg_pool_gradient_check() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let spec = Conv2dSpec::new(2, 2, 0);
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        let dx = avg_pool2d_backward(&dy, &[1, 2, 4, 4], &spec).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 9, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = avg_pool2d(&xp, &spec).unwrap().sum();
            let lm = avg_pool2d(&xm, &spec).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx.as_slice()[idx]).abs() < 1e-2);
        }
    }
}
