//! Matrix operations: blocked parallel matmul (plus transposed variants
//! needed by backward passes) and materialised transpose / permute.
//!
//! The actual kernels live in [`crate::gemm`]; this module owns shape
//! validation, workload counters and the sanitize guard.

use crate::gemm::{par_gemm, Kind};
use crate::recycle::{take_written, take_zeroed};
use crate::{Result, Tensor, TensorError};

// Kernel counters: calls and multiply-add FLOPs (2·m·n·k per product, all
// three layout variants pooled) so an observed run can be reconciled
// against the Plan IR estimate. No-ops unless a cq-obs sink is installed.
static MATMUL_CALLS: cq_obs::Counter = cq_obs::Counter::new("tensor.matmul.calls");
static MATMUL_FLOPS: cq_obs::Counter = cq_obs::Counter::new("tensor.matmul.flops");

#[inline]
fn count_matmul(m: usize, n: usize, k: usize) {
    MATMUL_CALLS.add(1);
    MATMUL_FLOPS.add(2 * (m as u64) * (n as u64) * (k as u64));
}

impl Tensor {
    /// Matrix product `self @ other` for rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Runs the packed register-tiled kernel in [`crate::gemm`],
    /// parallelised over row tiles of the deterministic chunk grid;
    /// results are bitwise thread-count independent.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank 2, and [`TensorError::ShapeMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = as_2d(self, "matmul")?;
        let (k2, n) = as_2d(other, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "matmul",
            });
        }
        count_matmul(m, n, k);
        let mut out = take_zeroed(m * n);
        par_gemm(
            Kind::Nn,
            self.as_slice(),
            other.as_slice(),
            m,
            n,
            k,
            &mut out,
        );
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("matmul", &out);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self @ otherᵀ` for rank-2 tensors: `[m,k] x [n,k] -> [m,n]`.
    ///
    /// Used by backward passes (`dX = dY @ Wᵀ` with `W` stored `[n,k]`)
    /// without materialising the transpose: the transpose is folded into
    /// the kernel's B-panel packing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = as_2d(self, "matmul_nt")?;
        let (n, k2) = as_2d(other, "matmul_nt")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "matmul_nt",
            });
        }
        count_matmul(m, n, k);
        let mut out = take_zeroed(m * n);
        par_gemm(
            Kind::Nt,
            self.as_slice(),
            other.as_slice(),
            m,
            n,
            k,
            &mut out,
        );
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("matmul", &out);
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ @ other` for rank-2 tensors: `[k,m] x [k,n] -> [m,n]`.
    ///
    /// Used by backward passes (`dW = Xᵀ @ dY`); the transpose is folded
    /// into the kernel's A-panel packing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        let (k, m) = as_2d(self, "matmul_tn")?;
        let (k2, n) = as_2d(other, "matmul_tn")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "matmul_tn",
            });
        }
        count_matmul(m, n, k);
        let mut out = take_zeroed(m * n);
        par_gemm(
            Kind::Tn,
            self.as_slice(),
            other.as_slice(),
            m,
            n,
            k,
            &mut out,
        );
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("matmul", &out);
        Tensor::from_vec(out, &[m, n])
    }

    /// Materialised transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        let (m, n) = as_2d(self, "transpose")?;
        let a = self.as_slice();
        let mut out = take_written(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices or
    /// [`TensorError::AxisOutOfRange`] if `i` is out of bounds.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        let (m, n) = as_2d(self, "row")?;
        if i >= m {
            return Err(TensorError::AxisOutOfRange { axis: i, rank: m });
        }
        Ok(Tensor::from_slice(&self.as_slice()[i * n..(i + 1) * n]))
    }

    /// Stacks rank-1 tensors of equal length into a `[rows.len(), n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if rows have unequal lengths
    /// or [`TensorError::InvalidGeometry`] if `rows` is empty.
    pub fn from_rows(rows: &[Tensor]) -> Result<Tensor> {
        if rows.is_empty() {
            return Err(TensorError::InvalidGeometry(
                "from_rows: empty row list".into(),
            ));
        }
        let n = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * n);
        for r in rows {
            if r.len() != n {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![n],
                    rhs: r.dims().to_vec(),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(r.as_slice());
        }
        Tensor::from_vec(data, &[rows.len(), n])
    }
}

fn as_2d(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            got: t.rank(),
            op,
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
                }
                out.as_mut_slice()[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let c = a.matmul(&Tensor::eye(4)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_matches_naive_on_larger_inputs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Tensor::from_vec(
            (0..37 * 19).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[37, 19],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..19 * 23).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[19, 23],
        )
        .unwrap();
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Tensor::from_vec(
            (0..6 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[6, 5],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..7 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[7, 5],
        )
        .unwrap();
        let direct = a.matmul_nt(&b).unwrap();
        let via_t = a.matmul(&b.transpose().unwrap()).unwrap();
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = Tensor::from_vec(
            (0..5 * 6).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[5, 6],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..5 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[5, 4],
        )
        .unwrap();
        let direct = a.matmul_tn(&b).unwrap();
        let via_t = a.transpose().unwrap().matmul(&b).unwrap();
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn row_extraction() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(a.row(1).unwrap().as_slice(), &[3.0, 4.0, 5.0]);
        assert!(a.row(2).is_err());
    }

    #[test]
    fn from_rows_stacks() {
        let r0 = Tensor::from_slice(&[1.0, 2.0]);
        let r1 = Tensor::from_slice(&[3.0, 4.0]);
        let m = Tensor::from_rows(&[r0, r1]).unwrap();
        assert_eq!(m.dims(), &[2, 2]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(Tensor::from_rows(&[]).is_err());
    }
}
