//! The dense, row-major [`Tensor`] type.

use std::fmt;
use std::sync::{Mutex, Weak};

use crate::error::{TensorError, TensorResult};

/// A dense, row-major, contiguously stored `f64` tensor of arbitrary rank.
///
/// Rank-0 tensors (scalars) are represented with an empty shape and a single
/// element, mirroring NumPy's 0-d arrays.
///
/// A tensor may be *on loan* from the buffers of an owner (see
/// [`Tensor::lend`]): dropping it then hands its storage back to that owner
/// instead of freeing it.  The loan is invisible otherwise — a clone carries
/// none, and equality and `Debug` ignore it.
pub struct Tensor {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
    loan: Option<Loan>,
}

/// Where a lent tensor goes home to: slot `slot` of its owner's spares.
struct Loan {
    home: Weak<Mutex<Vec<Option<Tensor>>>>,
    slot: usize,
}

/// Compute row-major strides for a shape.
pub fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Create a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Create a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f64) -> Self {
        let volume = if shape.is_empty() {
            1
        } else {
            shape.iter().product()
        };
        Tensor {
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
            data: vec![value; volume],
            loan: None,
        }
    }

    /// Create a rank-0 scalar tensor.
    pub fn scalar(value: f64) -> Self {
        Tensor {
            shape: vec![],
            strides: vec![],
            data: vec![value],
            loan: None,
        }
    }

    /// Build a tensor from a flat row-major data vector and a shape.
    pub fn from_vec(data: Vec<f64>, shape: &[usize]) -> TensorResult<Self> {
        let volume = if shape.is_empty() {
            1
        } else {
            shape.iter().product()
        };
        if data.len() != volume {
            return Err(TensorError::ShapeDataMismatch {
                expected: volume,
                got: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
            data,
            loan: None,
        })
    }

    /// Build a tensor by evaluating `f(multi_index)` for every element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = Tensor::zeros(shape);
        let volume = t.len();
        let mut idx = vec![0usize; shape.len()];
        for flat in 0..volume {
            t.data[flat] = f(&idx);
            // advance multi-index (row-major)
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        t
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Rank (number of dimensions). Scalars have rank 0.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements (only possible with a 0-length dimension).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes of the element storage (used by the memory model of the
    /// ILP checkpointing formulation).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Immutable access to the flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the tensor, returning its flat data.  A lent tensor's loan
    /// ends here: the storage is the caller's.
    pub fn into_vec(mut self) -> Vec<f64> {
        self.loan = None;
        std::mem::take(&mut self.data)
    }

    /// Put the tensor on loan: when it is dropped, its storage goes into
    /// `home[slot]` if that slot is empty and the owner still exists, and is
    /// freed otherwise.  A later `lend` replaces the loan.
    pub fn lend(&mut self, home: Weak<Mutex<Vec<Option<Tensor>>>>, slot: usize) {
        self.loan = Some(Loan { home, slot });
    }

    /// Flatten a multi-index into a flat offset, with bounds checking.
    pub fn offset(&self, index: &[usize]) -> TensorResult<usize> {
        if index.len() != self.shape.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        let mut off = 0usize;
        for (d, (&i, (&dim, &stride))) in index
            .iter()
            .zip(self.shape.iter().zip(self.strides.iter()))
            .enumerate()
        {
            let _ = d;
            if i >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.shape.clone(),
                });
            }
            off += i * stride;
        }
        Ok(off)
    }

    /// Read a single element (bounds-checked).
    pub fn at(&self, index: &[usize]) -> TensorResult<f64> {
        Ok(self.data[self.offset(index)?])
    }

    /// Mutable reference to a single element (bounds-checked).
    pub fn at_mut(&mut self, index: &[usize]) -> TensorResult<&mut f64> {
        let off = self.offset(index)?;
        Ok(&mut self.data[off])
    }

    /// Return the scalar value of a rank-0 or single-element tensor.
    pub fn item(&self) -> TensorResult<f64> {
        if self.data.len() == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::RankMismatch {
                op: "item",
                expected: 0,
                got: self.rank(),
            })
        }
    }

    /// Reshape into a new shape with the same number of elements.
    pub fn reshape(&self, shape: &[usize]) -> TensorResult<Tensor> {
        let volume: usize = if shape.is_empty() {
            1
        } else {
            shape.iter().product()
        };
        if volume != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: volume,
                got: self.data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
            data: self.data.clone(),
            loan: None,
        })
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f64) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Iterate over all multi-indices of this tensor in row-major order.
    pub fn indices(&self) -> MultiIndexIter {
        MultiIndexIter::new(self.shape.clone())
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        let Some(Loan { home, slot }) = self.loan.take() else {
            return;
        };
        let Some(home) = home.upgrade() else {
            return;
        };
        let mut spares = home.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(spare @ None) = spares.get_mut(slot) {
            *spare = Some(Tensor {
                shape: std::mem::take(&mut self.shape),
                strides: std::mem::take(&mut self.strides),
                data: std::mem::take(&mut self.data),
                loan: None,
            });
        }
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            strides: self.strides.clone(),
            data: self.data.clone(),
            loan: None,
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.strides == other.strides && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("strides", &self.strides)
            .field("data", &self.data)
            .finish()
    }
}

/// Iterator over all multi-indices of a shape in row-major order.
pub struct MultiIndexIter {
    shape: Vec<usize>,
    current: Vec<usize>,
    remaining: usize,
}

impl MultiIndexIter {
    /// Create an iterator over the index space of `shape`.
    pub fn new(shape: Vec<usize>) -> Self {
        let volume: usize = if shape.is_empty() {
            1
        } else {
            shape.iter().product()
        };
        MultiIndexIter {
            current: vec![0; shape.len()],
            shape,
            remaining: volume,
        }
    }
}

impl Iterator for MultiIndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.current.clone();
        self.remaining -= 1;
        for d in (0..self.shape.len()).rev() {
            self.current[d] += 1;
            if self.current[d] < self.shape[d] {
                break;
            }
            self.current[d] = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn strides_are_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.strides(), &[12, 4, 1]);
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.item().unwrap(), 3.5);
    }

    #[test]
    fn from_vec_checks_volume() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4]);
        *t.at_mut(&[1, 2]).unwrap() = 7.0;
        assert_eq!(t.at(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn indexing_out_of_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.at(&[2, 0]).is_err());
        assert!(t.at(&[0]).is_err());
    }

    #[test]
    fn from_fn_builds_expected_values() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.at(&[1, 2]).unwrap(), 12.0);
        assert_eq!(t.at(&[0, 1]).unwrap(), 1.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f64).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.at(&[2, 1]).unwrap(), 5.0);
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn multi_index_iter_covers_all() {
        let t = Tensor::zeros(&[2, 2]);
        let idxs: Vec<_> = t.indices().collect();
        assert_eq!(idxs, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn multi_index_iter_scalar() {
        let t = Tensor::scalar(1.0);
        let idxs: Vec<_> = t.indices().collect();
        assert_eq!(idxs, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn size_bytes_counts_f64() {
        let t = Tensor::zeros(&[10, 10]);
        assert_eq!(t.size_bytes(), 800);
    }

    /// The hand-written `PartialEq` and `Debug` read as the derived ones of
    /// the fields without the loan did, and a loan changes neither.
    #[test]
    fn eq_and_debug_match_the_derived_impls() {
        #[derive(Debug, PartialEq)]
        struct Tensor {
            shape: Vec<usize>,
            strides: Vec<usize>,
            data: Vec<f64>,
        }
        let derived = |t: &super::Tensor| Tensor {
            shape: t.shape.clone(),
            strides: t.strides.clone(),
            data: t.data.clone(),
        };
        let home = std::sync::Arc::new(Mutex::new(vec![None]));
        let mut lent = super::Tensor::from_vec(vec![1.5, -0.0, f64::NAN, 4.0], &[2, 2]).unwrap();
        lent.lend(std::sync::Arc::downgrade(&home), 0);
        let cases = [
            super::Tensor::from_vec(vec![1.5, -0.0, f64::NAN, 4.0], &[2, 2]).unwrap(),
            lent,
            super::Tensor::from_vec(vec![1.5, 0.0, 3.0, 4.0], &[4]).unwrap(),
            super::Tensor::from_vec(vec![1.5, 0.0, 3.0, 4.0], &[2, 2]).unwrap(),
            super::Tensor::scalar(f64::INFINITY),
            super::Tensor::zeros(&[0, 3]),
        ];
        for a in &cases {
            assert_eq!(format!("{a:?}"), format!("{:?}", derived(a)));
            assert_eq!(format!("{a:#?}"), format!("{:#?}", derived(a)));
            for b in &cases {
                assert_eq!(a == b, derived(a) == derived(b), "{a:?} == {b:?}");
            }
        }
    }
}
