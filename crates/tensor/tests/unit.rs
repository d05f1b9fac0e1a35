//! Unit tests for the tensor substrate: elementwise ops, linalg kernels, and
//! the `allclose` predicate's edge cases (NaN, shape mismatch, tolerance
//! semantics), which the gradient cross-validation suite leans on.

use dace_tensor::{allclose, allclose_default, Tensor, TensorError};

fn t(data: &[f64], shape: &[usize]) -> Tensor {
    Tensor::from_vec(data.to_vec(), shape).unwrap()
}

// --- allclose edge cases -------------------------------------------------

#[test]
fn allclose_rejects_nan_like_numpy() {
    // np.allclose(nan, nan) is False without equal_nan=True; a gradient
    // validation must never accept NaN == NaN.
    let a = t(&[1.0, f64::NAN], &[2]);
    assert!(!allclose_default(&a, &a));
    let b = t(&[1.0, 2.0], &[2]);
    assert!(!allclose_default(&a, &b));
    assert!(!allclose_default(&b, &a));
}

#[test]
fn allclose_rejects_shape_mismatch() {
    let a = Tensor::ones(&[2, 3]);
    let b = Tensor::ones(&[3, 2]);
    let c = Tensor::ones(&[6]);
    assert!(!allclose_default(&a, &b));
    assert!(!allclose_default(&a, &c), "same volume is not enough");
}

#[test]
fn allclose_rejects_infinities_of_different_sign() {
    let a = t(&[f64::INFINITY], &[1]);
    let b = t(&[f64::NEG_INFINITY], &[1]);
    assert!(allclose_default(&a, &a));
    assert!(!allclose_default(&a, &b));
}

#[test]
fn allclose_tolerance_is_relative_to_rhs() {
    // |x - y| <= atol + rtol*|y|: the predicate is asymmetric like NumPy's.
    let x = t(&[1000.1], &[1]);
    let y = t(&[1000.0], &[1]);
    assert!(allclose(&x, &y, 1.1e-4, 0.0));
    assert!(!allclose(&x, &y, 0.9e-4, 0.0));
    let zero = t(&[0.0], &[1]);
    let tiny = t(&[1e-9], &[1]);
    // Against an exact zero only atol can absorb the difference.
    assert!(allclose(&tiny, &zero, 1e-5, 1e-8));
    assert!(!allclose(&tiny, &zero, 1e-5, 0.0));
}

#[test]
fn allclose_accepts_empty_and_scalar() {
    assert!(allclose_default(&Tensor::zeros(&[0]), &Tensor::zeros(&[0])));
    assert!(allclose_default(&Tensor::scalar(3.5), &Tensor::scalar(3.5)));
}

// --- elementwise ops -----------------------------------------------------

#[test]
fn elementwise_ops_match_reference() {
    let a = t(&[1.0, -2.0, 3.0, 0.5], &[2, 2]);
    let b = t(&[2.0, 4.0, -1.0, 0.25], &[2, 2]);
    assert_eq!(a.add(&b).unwrap().data(), &[3.0, 2.0, 2.0, 0.75]);
    assert_eq!(a.sub(&b).unwrap().data(), &[-1.0, -6.0, 4.0, 0.25]);
    assert_eq!(a.mul(&b).unwrap().data(), &[2.0, -8.0, -3.0, 0.125]);
    assert_eq!(a.div(&b).unwrap().data(), &[0.5, -0.5, -3.0, 2.0]);
    assert_eq!(a.scale(2.0).data(), &[2.0, -4.0, 6.0, 1.0]);
    assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0, 4.0, 1.5]);
}

#[test]
fn elementwise_shape_mismatch_is_an_error() {
    let a = Tensor::ones(&[2, 2]);
    let b = Tensor::ones(&[4]);
    match a.add(&b) {
        Err(TensorError::ShapeMismatch { op, lhs, rhs }) => {
            assert_eq!(op, "add");
            assert_eq!(lhs, vec![2, 2]);
            assert_eq!(rhs, vec![4]);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn in_place_ops_accumulate() {
    let mut acc = Tensor::zeros(&[3]);
    acc.add_assign(&t(&[1.0, 2.0, 3.0], &[3])).unwrap();
    acc.axpy(2.0, &t(&[1.0, 1.0, 1.0], &[3])).unwrap();
    assert_eq!(acc.data(), &[3.0, 4.0, 5.0]);
    acc.mul_assign(&t(&[2.0, 0.5, -1.0], &[3])).unwrap();
    assert_eq!(acc.data(), &[6.0, 2.0, -5.0]);
    assert!(acc.add_assign(&Tensor::ones(&[4])).is_err());
}

#[test]
fn map_applies_pointwise() {
    let a = t(&[0.0, 1.0, 4.0], &[3]);
    assert_eq!(a.map(|x| x.sqrt()).data(), &[0.0, 1.0, 2.0]);
}

// --- linalg --------------------------------------------------------------

#[test]
fn matmul_matches_manual_reference() {
    let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
    let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
    let c = a.matmul(&b).unwrap();
    assert_eq!(c.shape(), &[2, 2]);
    assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    // Inner-dimension mismatch must not silently truncate.
    assert!(a.matmul(&a).is_err());
}

#[test]
fn matmul_over_many_panels_matches_the_reference() {
    // 128x128 spans many row and column panels; validate against the
    // O(n^3) reference evaluated per element.
    let n = 128;
    let a = dace_tensor::random::uniform(&[n, n], 1);
    let b = dace_tensor::random::uniform(&[n, n], 2);
    let c = a.matmul(&b).unwrap();
    for &(i, j) in &[
        (0, 0),
        (0, n - 1),
        (n / 2, n / 3),
        (n - 1, 0),
        (n - 1, n - 1),
    ] {
        let mut expect = 0.0;
        for k in 0..n {
            expect += a.at(&[i, k]).unwrap() * b.at(&[k, j]).unwrap();
        }
        let got = c.at(&[i, j]).unwrap();
        assert!(
            (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
            "c[{i},{j}] = {got}, expected {expect}"
        );
    }
}

#[test]
fn matvec_dot_outer_transpose() {
    let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
    let v = t(&[1.0, -1.0], &[2]);
    assert_eq!(a.matvec(&v).unwrap().data(), &[-1.0, -1.0]);
    assert_eq!(v.dot(&v).unwrap(), 2.0);
    let o = v.outer(&t(&[2.0, 3.0], &[2])).unwrap();
    assert_eq!(o.shape(), &[2, 2]);
    assert_eq!(o.data(), &[2.0, 3.0, -2.0, -3.0]);
    let at = a.transpose().unwrap();
    assert_eq!(at.data(), &[1.0, 3.0, 2.0, 4.0]);
}

#[test]
fn gemm_is_alpha_ab_plus_beta_c() {
    let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
    let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
    let c = Tensor::ones(&[2, 2]);
    let out = a.gemm(&b, &c, 2.0, 3.0).unwrap();
    // 2*(A@B) + 3*C
    assert_eq!(out.data(), &[41.0, 47.0, 89.0, 103.0]);
}

// --- reductions ----------------------------------------------------------

#[test]
fn reductions_match_reference() {
    let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
    assert_eq!(a.sum(), 21.0);
    assert_eq!(a.mean(), 3.5);
    assert_eq!(a.max_value(), 6.0);
    assert_eq!(a.min_value(), 1.0);
    let rows = a.sum_axis(0).unwrap();
    assert_eq!(rows.data(), &[5.0, 7.0, 9.0]);
    let cols = a.sum_axis(1).unwrap();
    assert_eq!(cols.data(), &[6.0, 15.0]);
}
