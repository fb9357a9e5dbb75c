//! Reductions (sum/mean/min/max/argmax), axis reductions for rank-2
//! tensors, and row-wise softmax / log-softmax.
//!
//! Whole-tensor reductions use pairwise (tree) summation: the rounding
//! error grows as `O(log n)` instead of the `O(n)` of a naive running
//! sum, and splitting at the midpoint mirrors how the parallel runtime
//! combines ordered chunk partials, so sequential and chunked reductions
//! agree bitwise.

use crate::recycle::take_zeroed;
use crate::{Result, Tensor, TensorError};

/// Below this length a sequential fold is both accurate enough and faster
/// than further recursion.
const PAIRWISE_LEAF: usize = 64;

/// Pairwise (tree) summation of `f(x)` over a slice: split at the
/// midpoint, recurse, add the halves. Error grows logarithmically in the
/// length instead of linearly.
fn pairwise_map_sum(xs: &[f32], f: &impl Fn(f32) -> f32) -> f32 {
    if xs.len() <= PAIRWISE_LEAF {
        return xs.iter().fold(0.0f32, |acc, &v| acc + f(v));
    }
    let mid = xs.len() / 2;
    pairwise_map_sum(&xs[..mid], f) + pairwise_map_sum(&xs[mid..], f)
}

/// Pairwise summation of a slice; see [`pairwise_map_sum`].
pub(crate) fn pairwise_sum(xs: &[f32]) -> f32 {
    pairwise_map_sum(xs, &|v| v)
}

impl Tensor {
    /// Sum of all elements, computed by pairwise (tree) summation.
    pub fn sum(&self) -> f32 {
        self.expect_nchw("sum");
        pairwise_sum(self.as_slice())
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.expect_nchw("max");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.expect_nchw("min");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence, flat index).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        self.expect_nchw("argmax");
        let mut best = 0;
        let mut best_v = self.as_slice()[0];
        for (i, &v) in self.as_slice().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// Variance of all elements (population variance; 0 for <2 elements),
    /// with the squared deviations reduced by pairwise summation.
    pub fn variance(&self) -> f32 {
        if self.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        pairwise_map_sum(self.as_slice(), &|v| (v - m) * (v - m)) / self.len() as f32
    }

    /// Sums a rank-2 tensor over `axis` (0 → column sums `[n]`,
    /// 1 → row sums `[m]`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices or
    /// [`TensorError::AxisOutOfRange`] for `axis > 1`.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: self.rank(),
                op: "sum_axis",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        match axis {
            0 => {
                let mut out = take_zeroed(n);
                for i in 0..m {
                    for (j, o) in out.iter_mut().enumerate() {
                        *o += self.as_slice()[i * n + j];
                    }
                }
                Tensor::from_vec(out, &[n])
            }
            1 => {
                let mut out = take_zeroed(m);
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.as_slice()[i * n..(i + 1) * n].iter().sum();
                }
                Tensor::from_vec(out, &[m])
            }
            a => Err(TensorError::AxisOutOfRange { axis: a, rank: 2 }),
        }
    }

    /// Mean over `axis` of a rank-2 tensor. See [`Tensor::sum_axis`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::sum_axis`].
    pub fn mean_axis(&self, axis: usize) -> Result<Tensor> {
        let denom = self.shape().dim(axis)? as f32;
        Ok(self.sum_axis(axis)?.scale(1.0 / denom))
    }

    /// Row-wise softmax of a rank-2 tensor, numerically stabilised by
    /// subtracting each row's max.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: self.rank(),
                op: "softmax_rows",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = take_zeroed(m * n);
        for i in 0..m {
            let row = &self.as_slice()[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - mx).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for v in &mut out[i * n..(i + 1) * n] {
                *v /= denom;
            }
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("softmax_rows", &out);
        Tensor::from_vec(out, &[m, n])
    }

    /// Row-wise log-softmax of a rank-2 tensor (stable log-sum-exp).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn log_softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: self.rank(),
                op: "log_softmax_rows",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = take_zeroed(m * n);
        for i in 0..m {
            let row = &self.as_slice()[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
            for (j, &v) in row.iter().enumerate() {
                out[i * n + j] = v - lse;
            }
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("log_softmax_rows", &out);
        Tensor::from_vec(out, &[m, n])
    }

    /// L2-normalises each row of a rank-2 tensor (unit vectors).
    ///
    /// Rows with norm below `eps` are left unchanged to avoid division by
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn l2_normalize_rows(&self, eps: f32) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: self.rank(),
                op: "l2_normalize_rows",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = self.as_slice().to_vec();
        for i in 0..m {
            let row = &mut out[i * n..(i + 1) * n];
            let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
            if norm > eps {
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("l2_normalize_rows", &out);
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, 0.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
    }

    #[test]
    fn pairwise_sum_survives_adversarial_magnitudes() {
        // One large value followed by a million tiny ones. A naive
        // left-to-right f32 fold loses every tiny addend (each is below
        // the ulp of 1e4 ≈ 9.8e-4) and returns exactly 1e4; pairwise
        // summation accumulates the tiny values in their own subtrees
        // first, recovering the true total of about 1e4 + 100.
        let mut v = vec![1e-4f32; 1_000_001];
        v[0] = 1e4;
        let naive: f32 = v.iter().sum();
        assert_eq!(naive, 1e4, "naive sum should drop every small addend");
        let t = Tensor::from_slice(&v);
        let exact = 1e4f64 + 1e-4f64 * 1_000_000.0;
        let rel = ((t.sum() as f64 - exact) / exact).abs();
        assert!(rel < 1e-6, "pairwise sum {} vs exact {exact}", t.sum());
        // Mean inherits the accuracy.
        let mean_exact = exact / 1_000_001.0;
        assert!(((t.mean() as f64 - mean_exact) / mean_exact).abs() < 1e-6);
    }

    #[test]
    fn pairwise_sum_matches_ordered_chunk_reduction() {
        // Summing ordered chunk partials the way the parallel runtime
        // does must agree with the sequential pairwise sum to within the
        // pairwise error bound (bitwise when the split points coincide).
        let v: Vec<f32> = (0..4096).map(|i| ((i * 37) % 101) as f32 * 0.01).collect();
        let whole = pairwise_sum(&v);
        // Chunk at the same midpoint recursion depth (2 halves, then 4).
        let mid = v.len() / 2;
        let q1 = v.len() / 4;
        let halves = pairwise_sum(&v[..mid]) + pairwise_sum(&v[mid..]);
        let quarters = (pairwise_sum(&v[..q1]) + pairwise_sum(&v[q1..mid]))
            + (pairwise_sum(&v[mid..mid + q1]) + pairwise_sum(&v[mid + q1..]));
        assert_eq!(whole.to_bits(), halves.to_bits());
        assert_eq!(whole.to_bits(), quarters.to_bits());
    }

    #[test]
    fn variance_population() {
        let t = Tensor::from_slice(&[1.0, 3.0]);
        assert_eq!(t.variance(), 1.0);
        assert_eq!(Tensor::scalar(1.0).variance(), 0.0);
    }

    #[test]
    fn axis_sums() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_axis(0).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(1).unwrap().as_slice(), &[6.0, 15.0]);
        assert_eq!(t.mean_axis(1).unwrap().as_slice(), &[2.0, 5.0]);
        assert!(t.sum_axis(2).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_ordering_preserved() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = t.softmax_rows().unwrap();
        for i in 0..2 {
            let row = &s.as_slice()[i * 3..(i + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[1, 3]).unwrap();
        let s = a.softmax_rows().unwrap();
        assert!(s.is_finite());
        let b = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]).unwrap();
        let sb = b.softmax_rows().unwrap();
        for (x, y) in s.as_slice().iter().zip(sb.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]).unwrap();
        let ls = t.log_softmax_rows().unwrap();
        let s = t.softmax_rows().unwrap();
        for (l, p) in ls.as_slice().iter().zip(s.as_slice()) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]).unwrap();
        let n = t.l2_normalize_rows(1e-12).unwrap();
        assert!((n.row(0).unwrap().norm() - 1.0).abs() < 1e-6);
        // zero row unchanged, not NaN
        assert_eq!(n.row(1).unwrap().as_slice(), &[0.0, 0.0]);
    }
}
