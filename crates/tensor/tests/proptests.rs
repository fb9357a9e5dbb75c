//! Property-based tests of the tensor substrate's algebraic invariants.

use cq_tensor::gemm::reference::im2col;
use cq_tensor::{avg_pool2d, global_avg_pool, max_pool2d, Conv2dSpec, Shape, Tensor};
use proptest::prelude::*;

fn vecf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-50.0f32..50.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_identity_is_neutral(data in vecf(20)) {
        let a = Tensor::from_vec(data, &[4, 5]).unwrap();
        let out = a.matmul(&Tensor::eye(5)).unwrap();
        for (x, y) in out.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn matmul_transpose_identity(a in vecf(12), b in vecf(12)) {
        // (A B)ᵀ == Bᵀ Aᵀ
        let a = Tensor::from_vec(a, &[3, 4]).unwrap();
        let b = Tensor::from_vec(b, &[4, 3]).unwrap();
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn add_is_commutative_and_scale_distributes(a in vecf(16), b in vecf(16), s in -3.0f32..3.0) {
        let a = Tensor::from_vec(a, &[4, 4]).unwrap();
        let b = Tensor::from_vec(b, &[4, 4]).unwrap();
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        let lhs = a.add(&b).unwrap().scale(s);
        let rhs = a.scale(s).add(&b.scale(s)).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn broadcast_matches_explicit_tile(row in vecf(4), mat in vecf(12)) {
        let m = Tensor::from_vec(mat.clone(), &[3, 4]).unwrap();
        let r = Tensor::from_vec(row.clone(), &[4]).unwrap();
        let b = m.add_broadcast(&r).unwrap();
        for i in 0..3 {
            for j in 0..4 {
                prop_assert_eq!(b.as_slice()[i * 4 + j], mat[i * 4 + j] + row[j]);
            }
        }
    }

    #[test]
    fn sum_axis_partitions_total(data in vecf(24)) {
        let t = Tensor::from_vec(data, &[4, 6]).unwrap();
        let total = t.sum();
        prop_assert!((t.sum_axis(0).unwrap().sum() - total).abs() < 1e-2);
        prop_assert!((t.sum_axis(1).unwrap().sum() - total).abs() < 1e-2);
    }

    #[test]
    fn global_avg_pool_equals_mean(data in vecf(2 * 3 * 4 * 4)) {
        let t = Tensor::from_vec(data, &[2, 3, 4, 4]).unwrap();
        let g = global_avg_pool(&t).unwrap();
        for n in 0..2 {
            for c in 0..3 {
                let mean: f32 =
                    t.as_slice()[(n * 3 + c) * 16..(n * 3 + c + 1) * 16].iter().sum::<f32>() / 16.0;
                prop_assert!((g.as_slice()[n * 3 + c] - mean).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn max_pool_dominates_avg_pool(data in vecf(2 * 4 * 4)) {
        let t = Tensor::from_vec(data, &[1, 2, 4, 4]).unwrap();
        let spec = Conv2dSpec::new(2, 2, 0);
        let (mx, _) = max_pool2d(&t, &spec).unwrap();
        let av = avg_pool2d(&t, &spec).unwrap();
        for (m, a) in mx.as_slice().iter().zip(av.as_slice()) {
            prop_assert!(m >= a);
        }
    }

    #[test]
    fn im2col_columns_contain_only_input_values_or_zero(data in vecf(2 * 5 * 5)) {
        let spec = Conv2dSpec::new(3, 1, 1);
        let (oh, ow) = spec.out_hw(5, 5).unwrap();
        let mut cols = vec![0.0f32; 2 * 9 * oh * ow];
        im2col(&data, 2, 5, 5, &spec, &mut cols);
        for &v in &cols {
            prop_assert!(v == 0.0 || data.contains(&v));
        }
    }

    #[test]
    fn l2_normalized_rows_have_unit_norm(data in vecf(20)) {
        let t = Tensor::from_vec(data, &[4, 5]).unwrap();
        let n = t.l2_normalize_rows(1e-9).unwrap();
        for i in 0..4 {
            let norm = n.row(i).unwrap().norm();
            // rows with tiny norm are left unchanged
            prop_assert!(norm < 1e-6 || (norm - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn shape_broadcast_is_associative_when_defined(
        a in 1usize..3, b in 1usize..3, c in 1usize..3,
    ) {
        let s1 = Shape::new(&[a, 1]);
        let s2 = Shape::new(&[1, b]);
        let s3 = Shape::new(&[c, 1]);
        if let (Ok(l), Ok(r)) = (
            s1.broadcast(&s2).and_then(|s| s.broadcast(&s3)),
            s2.broadcast(&s3).and_then(|s| s1.broadcast(&s)),
        ) {
            prop_assert_eq!(l, r);
        }
    }

    #[test]
    fn broadcast_is_commutative_for_any_ranks(
        a in proptest::collection::vec(1usize..5, 0..4usize),
        b in proptest::collection::vec(1usize..5, 0..4usize),
    ) {
        // Ranks 0..=3 with axes 1..=4: exercises rank-0 scalars, size-1
        // axes and mismatched ranks in one sweep.
        let (sa, sb) = (Shape::new(&a), Shape::new(&b));
        match (sa.broadcast(&sb), sb.broadcast(&sa)) {
            (Ok(l), Ok(r)) => prop_assert_eq!(l, r),
            (Err(_), Err(_)) => {}
            (l, r) => prop_assert!(false, "asymmetric broadcast: {:?} vs {:?}", l, r),
        }
    }

    #[test]
    fn broadcast_with_scalar_and_self_is_identity(
        dims in proptest::collection::vec(1usize..5, 0..4usize),
    ) {
        let s = Shape::new(&dims);
        prop_assert_eq!(s.broadcast(&Shape::scalar()).unwrap(), s.clone());
        prop_assert_eq!(Shape::scalar().broadcast(&s).unwrap(), s.clone());
        prop_assert_eq!(s.broadcast(&s).unwrap(), s);
    }

    #[test]
    fn broadcast_aligns_from_trailing_axes(
        dims in proptest::collection::vec(1usize..5, 1..4usize),
        extra in 1usize..5,
    ) {
        // A rank-(n+1) shape with a leading axis broadcasts against the
        // rank-n suffix; the suffix axes must survive unchanged.
        let mut longer = vec![extra];
        longer.extend_from_slice(&dims);
        let out = Shape::new(&longer).broadcast(&Shape::new(&dims)).unwrap();
        prop_assert_eq!(out.dims(), &longer[..]);
    }

    #[test]
    fn size_one_axis_stretches_to_any_extent(
        dims in proptest::collection::vec(1usize..5, 1..4usize),
        axis_seed in 0usize..8,
        stretch in 1usize..6,
    ) {
        let axis = axis_seed % dims.len();
        let mut pinched = dims.clone();
        pinched[axis] = 1;
        let mut stretched = dims.clone();
        stretched[axis] = stretch;
        let out = Shape::new(&pinched).broadcast(&Shape::new(&stretched)).unwrap();
        prop_assert_eq!(out.dims(), &stretched[..]);
    }

    #[test]
    fn incompatible_axes_are_rejected(
        dims in proptest::collection::vec(2usize..5, 1..4usize),
        axis_seed in 0usize..8,
    ) {
        // Two shapes differing (both > 1) on one axis can never broadcast.
        let axis = axis_seed % dims.len();
        let mut other = dims.clone();
        other[axis] += 1;
        prop_assert!(Shape::new(&dims).broadcast(&Shape::new(&other)).is_err());
    }

    #[test]
    fn strides_are_suffix_products_and_index_bijective(
        dims in proptest::collection::vec(1usize..5, 0..4usize),
    ) {
        let s = Shape::new(&dims);
        let strides = s.strides();
        prop_assert_eq!(strides.len(), dims.len());
        for (i, &st) in strides.iter().enumerate() {
            prop_assert_eq!(st, dims[i + 1..].iter().product::<usize>());
        }
        // flatten_index enumerates 0..len exactly once over the index grid.
        let mut seen = vec![false; s.len()];
        let mut idx = vec![0usize; dims.len()];
        loop {
            let flat = s.flatten_index(&idx);
            prop_assert!(!seen[flat], "index {:?} collided at {}", idx, flat);
            seen[flat] = true;
            // odometer increment over the dims grid
            let mut axis = dims.len();
            loop {
                if axis == 0 {
                    break;
                }
                idx[axis - 1] += 1;
                if idx[axis - 1] < dims[axis - 1] {
                    break;
                }
                idx[axis - 1] = 0;
                axis -= 1;
            }
            if axis == 0 {
                break;
            }
        }
        prop_assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn remove_axis_divides_element_count(
        dims in proptest::collection::vec(1usize..5, 1..4usize),
        axis_seed in 0usize..8,
    ) {
        let axis = axis_seed % dims.len();
        let s = Shape::new(&dims);
        let r = s.remove_axis(axis).unwrap();
        prop_assert_eq!(r.rank(), s.rank() - 1);
        prop_assert_eq!(r.len() * dims[axis], s.len());
        prop_assert!(s.remove_axis(dims.len()).is_err());
    }

    #[test]
    fn io_round_trip_any_shape(data in vecf(24)) {
        let t = Tensor::from_vec(data, &[2, 3, 4]).unwrap();
        let mut buf = Vec::new();
        cq_tensor::write_tensor(&mut buf, &t).unwrap();
        prop_assert_eq!(cq_tensor::read_tensor(buf.as_slice()).unwrap(), t);
    }
}
