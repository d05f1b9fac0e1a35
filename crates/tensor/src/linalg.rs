//! Linear-algebra kernels: matmul, matvec, dot, outer product, transpose.
//!
//! These stand in for the optimized library calls (MKL / CBLAS / cuBLAS) that
//! DaCe expands library nodes into.  The matrix multiplication is blocked and
//! parallelised over row panels with rayon, which is the idiomatic Rust
//! (rayon) equivalent of the OpenMP-parallel kernels DaCe emits.

use rayon::prelude::*;

use crate::error::{TensorError, TensorResult};
use crate::tensor::Tensor;

/// Threshold (in output elements) above which matmul parallelises with rayon.
const PAR_THRESHOLD: usize = 64 * 64;
/// Block size for the k-dimension of the blocked matmul.
const BLOCK_K: usize = 64;

/// Whether a kernel over `work` elements fans out over the pool.  A pool one
/// thread wide has nothing to fan out to: handing the whole kernel to its
/// worker costs a wake-up each way and runs it against another core's cold
/// cache, so it stays on the calling thread.
fn fans_out(work: usize) -> bool {
    work >= PAR_THRESHOLD && rayon::current_num_threads() > 1
}

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

impl Tensor {
    /// Matrix-matrix multiplication `self[M,K] @ other[K,N] -> [M,N]`.
    pub fn matmul(&self, other: &Tensor) -> TensorResult<Tensor> {
        expect_rank(self, 2, "matmul")?;
        expect_rank(other, 2, "matmul")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f64; m * n];

        let row_kernel = |i: usize, row_out: &mut [f64]| {
            // blocked over k to keep the B panel in cache
            let mut kk = 0;
            while kk < k {
                let kend = (kk + BLOCK_K).min(k);
                for p in kk..kend {
                    let aip = a[i * k + p];
                    if aip == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (o, &bv) in row_out.iter_mut().zip(brow.iter()) {
                        *o += aip * bv;
                    }
                }
                kk = kend;
            }
        };

        if fans_out(m * n) {
            out.par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| row_kernel(i, row));
        } else {
            for (i, row) in out.chunks_mut(n).enumerate() {
                row_kernel(i, row);
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix-vector product `self[M,K] @ v[K] -> [M]`.
    pub fn matvec(&self, v: &Tensor) -> TensorResult<Tensor> {
        expect_rank(self, 2, "matvec")?;
        expect_rank(v, 1, "matvec")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        if v.shape()[0] != k {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape().to_vec(),
                rhs: v.shape().to_vec(),
            });
        }
        let a = self.data();
        let x = v.data();
        let out: Vec<f64> = if fans_out(m * k) {
            (0..m)
                .into_par_iter()
                .map(|i| {
                    a[i * k..(i + 1) * k]
                        .iter()
                        .zip(x.iter())
                        .map(|(&av, &xv)| av * xv)
                        .sum()
                })
                .collect()
        } else {
            (0..m)
                .map(|i| {
                    a[i * k..(i + 1) * k]
                        .iter()
                        .zip(x.iter())
                        .map(|(&av, &xv)| av * xv)
                        .sum()
                })
                .collect()
        };
        Tensor::from_vec(out, &[m])
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

    /// 2-D transpose.
    pub fn transpose(&self) -> TensorResult<Tensor> {
        expect_rank(self, 2, "transpose")?;
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
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

    #[test]
    fn matmul_large_parallel_path() {
        let a = Tensor::from_fn(&[80, 64], |i| ((i[0] + i[1]) % 5) as f64);
        let b = Tensor::from_fn(&[64, 80], |i| ((i[0] * i[1]) % 3) as f64);
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(crate::allclose(&fast, &slow, 1e-10, 1e-12));
    }

    /// A one-wide pool keeps large kernels on the caller, a wider one fans
    /// them out, and both compute the same bits.
    #[test]
    fn one_wide_pool_keeps_kernels_on_the_caller() {
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        assert!(!pool(1).install(|| fans_out(PAR_THRESHOLD)));
        assert!(pool(2).install(|| fans_out(PAR_THRESHOLD)));
        assert!(!pool(2).install(|| fans_out(PAR_THRESHOLD - 1)));

        let a = Tensor::from_fn(&[80, 64], |i| (i[0] * 64 + i[1]) as f64 * 0.01);
        let b = Tensor::from_fn(&[64, 80], |i| (i[0] as f64 - i[1] as f64) * 0.3);
        let x = Tensor::from_fn(&[64], |i| i[0] as f64 * 0.7);
        let run = || (a.matmul(&b).unwrap(), a.matvec(&x).unwrap());
        assert_eq!(pool(1).install(run), pool(2).install(run));
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
