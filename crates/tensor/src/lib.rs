//! # dace-tensor
//!
//! Dense tensor substrate for the DaCe AD reproduction.
//!
//! This crate stands in for the NumPy array object plus the optimized BLAS
//! libraries (MKL / CBLAS) that the paper's generated code calls into.  Both
//! the DaCe AD runtime (`dace-runtime`) and the JAX-like baseline (`jax-rs`)
//! execute on the same [`Tensor`] type and the same kernels, so performance
//! comparisons between them measure the *algorithms* (in-place gradient
//! propagation vs. immutable re-materialisation), not the substrate.
//!
//! Design points:
//! * Row-major, contiguous `f64` storage. The paper's float32 deep-learning
//!   kernels run in f64 here.
//! * Element-wise and reduction kernels are straightforward loops; every
//!   matrix product runs on one packed, runtime-dispatched kernel (`gemm`)
//!   on the calling thread, standing in for the optimized library calls DaCe
//!   pattern-matches into library nodes.
//! * Slicing produces owned tensors (copies); the zero-copy "cheap pointer
//!   movement" path the paper highlights for DaCe is modelled by scalar
//!   element accessors ([`Tensor::at`] / [`Tensor::at_mut`]) which the SDFG
//!   interpreter uses for single-element memlets.
//!
//! # Invariants
//!
//! * A [`Tensor`] is always contiguous row-major: `data.len()` equals the
//!   product of `shape()`, and strides are derived from the shape — there
//!   are no views, broadcasts or negative strides to reason about.
//! * [`Tensor`] is plain owned data (`Vec<f64>` + shape), hence `Send` and
//!   `Sync`; `dace-runtime` relies on this to move tensors between pooled
//!   sessions and worker threads.
//! * [`allclose`] follows NumPy semantics, including non-finite handling:
//!   `NaN != NaN`, and infinities match only with equal signs.
//!
//! ```
//! use dace_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! assert_eq!(a.shape(), &[2, 2]);
//! assert_eq!(a.at(&[1, 0]).unwrap(), 3.0);
//! let b = a.add_scalar(1.0);
//! assert_eq!(b.data(), &[2.0, 3.0, 4.0, 5.0]);
//! // The paper's validation predicate:
//! assert!(dace_tensor::allclose(&b, &b.clone(), 1e-8, 1e-12));
//! ```

// One `unsafe` block in the crate: the call into the AVX2 compilation of the
// multiply kernel, directly under its detection (`gemm::row_panel`, which
// carries the `allow`).  `scripts/check_unsafe.sh` keeps it the only one.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod error;
mod gemm;
pub mod linalg;
pub mod ops;
pub mod random;
pub mod reduce;
pub mod slice;
pub mod tensor;

pub use error::{TensorError, TensorResult};
pub use tensor::Tensor;

/// Relative + absolute tolerance comparison mirroring `np.allclose`.
///
/// The paper validates every gradient output with `np.allclose`; the NPBench
/// cross-validation tests in this repository use the same predicate.
pub fn allclose(a: &Tensor, b: &Tensor, rtol: f64, atol: f64) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    a.data()
        .iter()
        .zip(b.data().iter())
        // NumPy semantics: non-finite values are close only when exactly
        // equal (`inf - inf = NaN` would reject equal infinities, while an
        // infinite `rtol*|y|` tolerance would accept *opposite* ones).
        .all(|(&x, &y)| {
            x == y || (x.is_finite() && y.is_finite() && (x - y).abs() <= atol + rtol * y.abs())
        })
}

/// Default-tolerance variant of [`allclose`] (`rtol = 1e-5`, `atol = 1e-8`,
/// the NumPy defaults).
pub fn allclose_default(a: &Tensor, b: &Tensor) -> bool {
    allclose(a, b, 1e-5, 1e-8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allclose_equal_tensors() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert!(allclose_default(&a, &b));
    }

    #[test]
    fn allclose_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(!allclose_default(&a, &b));
    }

    #[test]
    fn allclose_tolerates_small_error() {
        let a = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let b = Tensor::from_vec(vec![1.0 + 1e-9], &[1]).unwrap();
        assert!(allclose_default(&a, &b));
        let c = Tensor::from_vec(vec![1.1], &[1]).unwrap();
        assert!(!allclose_default(&a, &c));
    }
}
