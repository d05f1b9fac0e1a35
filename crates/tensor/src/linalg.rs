//! Linear-algebra kernels: matmul, matvec, dot, outer product, transpose.
//!
//! These stand in for the optimized library calls (MKL / CBLAS / cuBLAS) that
//! DaCe expands library nodes into.  Every matrix product runs on the one
//! packed kernel of the crate's `gemm` module; the `*_into` entry points
//! write (or accumulate into) a caller-owned tensor and read their matrix
//! operand transposed on request, so neither a result nor a transpose is
//! ever materialised on the way.  Every kernel runs on the calling thread:
//! parallelism is across requests (`dace_runtime::BatchDriver`), not inside
//! an operation.

use crate::error::{TensorError, TensorResult};
use crate::gemm::{gemm, Operand};
use crate::tensor::Tensor;

fn expect_rank(t: &Tensor, rank: usize, op: &'static str) -> TensorResult<()> {
    if t.rank() != rank {
        return Err(TensorError::RankMismatch {
            op,
            expected: rank,
            got: t.rank(),
        });
    }
    Ok(())
}

/// The output of `op` must already have the shape the operands imply.
fn expect_shape(out: &Tensor, shape: &[usize], op: &'static str) -> TensorResult<()> {
    if out.shape() != shape {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: shape.to_vec(),
            rhs: out.shape().to_vec(),
        });
    }
    Ok(())
}

/// `(rows, cols)` of `op(t)` for a rank-2 `t`.
fn op_dims(t: &Tensor, transposed: bool, op: &'static str) -> TensorResult<(usize, usize)> {
    expect_rank(t, 2, op)?;
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    Ok(if transposed {
        (cols, rows)
    } else {
        (rows, cols)
    })
}

/// `*y = dot` or `*y += dot`.
#[inline]
fn store(y: &mut f64, value: f64, accumulate: bool) {
    if accumulate {
        *y += value;
    } else {
        *y = value;
    }
}

impl Tensor {
    /// Matrix-matrix multiplication `self[M,K] @ other[K,N] -> [M,N]`.
    pub fn matmul(&self, other: &Tensor) -> TensorResult<Tensor> {
        let (m, _) = op_dims(self, false, "matmul")?;
        let (_, n) = op_dims(other, false, "matmul")?;
        let mut out = Tensor::zeros(&[m, n]);
        self.matmul_into(other, false, false, &mut out, false)?;
        Ok(out)
    }

    /// `out = op(self) @ op(other)`, or `out += …` with `accumulate`, where
    /// `op(X)` is `Xᵀ` under the operand's flag and `X` otherwise.  `out`
    /// must already have the product's shape.
    pub fn matmul_into(
        &self,
        other: &Tensor,
        trans_a: bool,
        trans_b: bool,
        out: &mut Tensor,
        accumulate: bool,
    ) -> TensorResult<()> {
        let (m, k) = op_dims(self, trans_a, "matmul")?;
        let (k2, n) = op_dims(other, trans_b, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        expect_shape(out, &[m, n], "matmul")?;
        gemm(
            Operand::new(self.data(), m, k, trans_a),
            Operand::new(other.data(), k, n, trans_b),
            (m, k, n),
            out.data_mut(),
            accumulate,
        );
        Ok(())
    }

    /// Matrix-vector product `self[M,K] @ v[K] -> [M]`.
    pub fn matvec(&self, v: &Tensor) -> TensorResult<Tensor> {
        let (m, _) = op_dims(self, false, "matvec")?;
        let mut out = Tensor::zeros(&[m]);
        self.matvec_into(v, false, &mut out, false)?;
        Ok(out)
    }

    /// `out = op(self) @ v`, or `out += …` with `accumulate`.  The plain
    /// form is a dot product per row; the transposed form is a row-axpy
    /// sweep `out += v[i] · self[i, :]`, so both read `self` once, in
    /// storage order.
    pub fn matvec_into(
        &self,
        v: &Tensor,
        trans_a: bool,
        out: &mut Tensor,
        accumulate: bool,
    ) -> TensorResult<()> {
        let (m, k) = op_dims(self, trans_a, "matvec")?;
        expect_rank(v, 1, "matvec")?;
        if v.shape()[0] != k {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape().to_vec(),
                rhs: v.shape().to_vec(),
            });
        }
        expect_shape(out, &[m], "matvec")?;
        let (a, x, y) = (self.data(), v.data(), out.data_mut());
        if trans_a {
            if !accumulate {
                y.fill(0.0);
            }
            for (row, &xi) in a.chunks_exact(m.max(1)).zip(x) {
                for (yj, &aij) in y.iter_mut().zip(row) {
                    *yj += xi * aij;
                }
            }
        } else {
            for (i, y) in y.iter_mut().enumerate() {
                let row = &a[i * k..(i + 1) * k];
                let dot = row.iter().zip(x).map(|(&av, &xv)| av * xv).sum();
                store(y, dot, accumulate);
            }
        }
        Ok(())
    }

    /// Vector dot product.
    pub fn dot(&self, other: &Tensor) -> TensorResult<f64> {
        expect_rank(self, 1, "dot")?;
        expect_rank(other, 1, "dot")?;
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        Ok(self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Outer product of two vectors: `self[M] ⊗ other[N] -> [M,N]`.
    pub fn outer(&self, other: &Tensor) -> TensorResult<Tensor> {
        expect_rank(self, 1, "outer")?;
        expect_rank(other, 1, "outer")?;
        let m = self.shape()[0];
        let n = other.shape()[0];
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            let ai = self.data()[i];
            for j in 0..n {
                out[i * n + j] = ai * other.data()[j];
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `out = self ⊗ v`, or `out += …` with `accumulate`: a row-axpy sweep
    /// `out[i, :] (+)= self[i] · v[:]` that writes `out` once, in storage
    /// order.  `out` must already have the shape `[self.len, v.len]`.
    pub fn outer_into(&self, v: &Tensor, out: &mut Tensor, accumulate: bool) -> TensorResult<()> {
        let (&[m], &[n]) = (self.shape(), v.shape()) else {
            return Err(TensorError::ShapeMismatch {
                op: "outer",
                lhs: self.shape().to_vec(),
                rhs: v.shape().to_vec(),
            });
        };
        expect_shape(out, &[m, n], "outer")?;
        let y = v.data();
        for (row, &xi) in out.data_mut().chunks_exact_mut(n.max(1)).zip(self.data()) {
            for (aij, &yj) in row.iter_mut().zip(y) {
                store(aij, xi * yj, accumulate);
            }
        }
        Ok(())
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> TensorResult<Tensor> {
        let (n, m) = op_dims(self, true, "transpose")?;
        let mut out = Tensor::zeros(&[n, m]);
        self.transpose_into(&mut out, false)?;
        Ok(out)
    }

    /// `out = selfᵀ`, or `out += selfᵀ` with `accumulate`.
    pub fn transpose_into(&self, out: &mut Tensor, accumulate: bool) -> TensorResult<()> {
        let (n, m) = op_dims(self, true, "transpose")?;
        expect_shape(out, &[n, m], "transpose")?;
        let dst = out.data_mut();
        for (i, row) in self.data().chunks_exact(n.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                store(&mut dst[j * m + i], v, accumulate);
            }
        }
        Ok(())
    }

    /// General matrix multiply `alpha * A @ B + beta * C`, overwriting and
    /// returning a new tensor (the BLAS GEMM contract).
    pub fn gemm(&self, b: &Tensor, c: &Tensor, alpha: f64, beta: f64) -> TensorResult<Tensor> {
        let ab = self.matmul(b)?;
        let mut out = c.scale(beta);
        out.axpy(alpha, &ab)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]).unwrap() * b.at(&[p, j]).unwrap();
                }
                *out.at_mut(&[i, j]).unwrap() = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_matches_naive_reference() {
        let a = Tensor::from_fn(&[13, 7], |i| (i[0] * 7 + i[1]) as f64 * 0.1);
        let b = Tensor::from_fn(&[7, 9], |i| (i[0] as f64 - i[1] as f64) * 0.3);
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(crate::allclose(&fast, &slow, 1e-10, 1e-12));
    }

    /// IEEE products are not skipped: `0 · inf` and `0 · NaN` are `NaN` in
    /// the result exactly where the naive loops say so (the old kernel's
    /// `if a == 0.0 { continue }` read `0`), and `-0.0` operands change
    /// nothing.  Every multiply form, overwriting and accumulating.
    #[test]
    fn non_finite_operands_follow_the_naive_loops() {
        let same = |got: &Tensor, want: &Tensor| {
            got.shape() == want.shape()
                && got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(g, w)| g == w || (g.is_nan() && w.is_nan()))
        };
        let one = |v: f64| Tensor::from_vec(vec![v], &[1, 1]).unwrap();
        assert!(one(0.0).matmul(&one(f64::INFINITY)).unwrap().data()[0].is_nan());

        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.5];
        let pick = |i: usize| specials[i % specials.len()];
        // 5 x 9 and 9 x 11: more than one tile each way, with edge tiles.
        let a = Tensor::from_fn(&[5, 9], |i| pick(i[0] * 7 + i[1] * 3));
        let b = Tensor::from_fn(&[9, 11], |i| pick(i[0] * 5 + i[1] + 1));
        let x = Tensor::from_fn(&[9], |i| pick(i[0] + 2));
        let (at, bt) = (a.transpose().unwrap(), b.transpose().unwrap());
        for accumulate in [false, true] {
            let mut want = Tensor::ones(&[5, 11]);
            let mut want_y = Tensor::ones(&[5]);
            for i in 0..5 {
                let mut yi = 0.0;
                for p in 0..9 {
                    yi += a.at(&[i, p]).unwrap() * x.data()[p];
                }
                store(&mut want_y.data_mut()[i], yi, accumulate);
                for j in 0..11 {
                    let mut acc = 0.0;
                    for p in 0..9 {
                        acc += a.at(&[i, p]).unwrap() * b.at(&[p, j]).unwrap();
                    }
                    store(want.at_mut(&[i, j]).unwrap(), acc, accumulate);
                }
            }
            assert!(want.data().iter().any(|v| v.is_nan()));
            assert!(want_y.data().iter().any(|v| v.is_nan()));
            if !accumulate {
                assert!(same(&a.matmul(&b).unwrap(), &want));
                assert!(same(&a.matvec(&x).unwrap(), &want_y));
            }
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut c = Tensor::ones(&[5, 11]);
                let (l, r) = (if ta { &at } else { &a }, if tb { &bt } else { &b });
                l.matmul_into(r, ta, tb, &mut c, accumulate).unwrap();
                assert!(same(&c, &want), "ta={ta} tb={tb} accumulate={accumulate}");
            }
            for (m, ta) in [(&a, false), (&at, true)] {
                let mut y = Tensor::ones(&[5]);
                m.matvec_into(&x, ta, &mut y, accumulate).unwrap();
                assert!(same(&y, &want_y), "ta={ta} accumulate={accumulate}");
            }
        }
    }

    #[test]
    fn into_entry_points_check_the_output_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut c = Tensor::zeros(&[4, 2]);
        assert!(a.matmul_into(&b, false, false, &mut c, false).is_err());
        // (2x3)ᵀ @ ... needs a 2-row right operand.
        assert!(a.matmul_into(&b, true, false, &mut c, false).is_err());
        let mut y = Tensor::zeros(&[2]);
        assert!(a
            .matvec_into(&Tensor::zeros(&[3]), true, &mut y, false)
            .is_err());
        assert!(a
            .matvec_into(&Tensor::zeros(&[2]), true, &mut y, false)
            .is_err());
        assert!(a.transpose_into(&mut y, false).is_err());
        let mut t = Tensor::ones(&[3, 2]);
        a.transpose_into(&mut t, true).unwrap();
        assert_eq!(t, Tensor::ones(&[3, 2]));
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap();
        let y = a.matvec(&x).unwrap();
        assert_eq!(y.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn dot_and_outer() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 11.0);
        let o = a.outer(&b).unwrap();
        assert_eq!(o.shape(), &[2, 2]);
        assert_eq!(o.data(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn outer_into_overwrites_or_accumulates() {
        let x = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let y = Tensor::from_vec(vec![3.0, 0.5, 4.0], &[3]).unwrap();
        let mut a = Tensor::full(&[2, 3], 7.0);
        x.outer_into(&y, &mut a, false).unwrap();
        assert_eq!(a, x.outer(&y).unwrap());
        x.outer_into(&y, &mut a, true).unwrap();
        assert_eq!(a.data(), &[6.0, 1.0, 8.0, -12.0, -2.0, -16.0]);
    }

    #[test]
    fn outer_into_rejects_a_matrix_operand_and_a_wrong_destination() {
        // (x, y, destination): a matrix `y`, a matrix `x`, a `y` too long
        // for the destination, a transposed destination.
        let cases: [(&[usize], &[usize], &[usize]); 4] = [
            (&[2], &[3, 1], &[2, 3]),
            (&[2, 1], &[3], &[2, 3]),
            (&[2], &[4], &[2, 3]),
            (&[2], &[3], &[3, 2]),
        ];
        for (x, y, dst) in cases {
            let mut out = Tensor::zeros(dst);
            for accumulate in [false, true] {
                let r = Tensor::zeros(x).outer_into(&Tensor::zeros(y), &mut out, accumulate);
                assert!(
                    matches!(r, Err(TensorError::ShapeMismatch { op: "outer", .. })),
                    "{x:?} ⊗ {y:?} into {dst:?}: {r:?}"
                );
            }
            assert_eq!(out, Tensor::zeros(dst));
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_fn(&[3, 5], |i| (i[0] * 5 + i[1]) as f64);
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[5, 3]);
        let tt = t.transpose().unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn gemm_combines_alpha_beta() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        let c = Tensor::full(&[2, 2], 10.0);
        let r = a.gemm(&b, &c, 2.0, 0.5).unwrap();
        // 2*(A@B) + 0.5*C = 2*2 + 5 = 9
        assert!(r.data().iter().all(|&x| (x - 9.0).abs() < 1e-12));
    }
}
