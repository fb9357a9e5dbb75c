//! Pooling kernels over NCHW batches: max, average and global average,
//! each with its backward pass.

use crate::recycle::take_zeroed;
use crate::{Conv2dSpec, Result, Tensor, TensorError};

// Output-element counter shared by the forward pooling kernels (max, avg,
// global avg). No-op unless a cq-obs sink is installed.
static POOL_ELEMS: cq_obs::Counter = cq_obs::Counter::new("tensor.pool.elems");

fn check_nchw(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
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

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(x, "global_avg_pool")?;
    let spatial = (h * w) as f32;
    POOL_ELEMS.add((n * c) as u64);
    let mut out = take_zeroed(n * c);
    let xs = x.as_slice();
    for (i, o) in out.iter_mut().enumerate() {
        let base = i * h * w;
        // cq-allow(det-float-accum): contiguous spatial window summed in index order
        *o = xs[base..base + h * w].iter().sum::<f32>() / spatial;
    }
    Tensor::from_vec(out, &[n, c])
}

/// Backward pass of [`global_avg_pool`]: spreads each `[n, c]` gradient
/// uniformly over the spatial grid.
///
/// # Errors
///
/// Returns an error if `dy` is not rank 2 or shapes disagree.
pub fn global_avg_pool_backward(dy: &Tensor, input_shape: &[usize]) -> Result<Tensor> {
    if dy.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            got: dy.rank(),
            op: "global_avg_pool_backward",
        });
    }
    let (h, w) = (input_shape[2], input_shape[3]);
    let spatial = (h * w) as f32;
    let mut dx = Tensor::zeros(input_shape);
    let dxs = dx.as_mut_slice();
    for (i, &g) in dy.as_slice().iter().enumerate() {
        let v = g / spatial;
        for s in &mut dxs[i * h * w..(i + 1) * h * w] {
            *s = v;
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
        let dx = global_avg_pool_backward(&dy, &[2, 1, 2, 2]).unwrap();
        assert!(dx.as_slice()[..4].iter().all(|&v| v == 1.0));
        assert!(dx.as_slice()[4..].iter().all(|&v| v == 2.0));
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
