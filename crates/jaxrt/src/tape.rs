//! Tape-based reverse-mode AD over immutable functional arrays.
//!
//! This is the JAX-JIT stand-in the paper compares against.
//! It reproduces the mechanisms Section V-B identifies as the source of JAX's
//! overhead on scientific codes:
//!
//! * **Immutability** — there is no in-place update; `dynamic_update_slice`
//!   allocates a brand-new full-size array per call, and its adjoint
//!   materialises another full-size array per call.
//! * **Dynamic slicing** — `dynamic_slice` clamps its start indices and
//!   copies the slice out; its adjoint pads the slice gradient back into a
//!   full-size zero array.
//! * **Store-all tape** — every primitive's inputs/outputs stay alive on the
//!   tape until the backward pass (the default store-all strategy).
//! * **`fori_loop`** — loops are expressed as a traced helper whose carries
//!   are whole arrays, so every iteration appends full-array operations to
//!   the tape.

use std::cell::RefCell;
use std::rc::Rc;

use dace_tensor::slice::DimRange;
use dace_tensor::Tensor;

/// Primitive operations recorded on the tape.
#[derive(Clone, Debug)]
enum Prim {
    /// Leaf (input or constant) — no adjoint propagation.
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Neg(usize),
    Sin(usize),
    Cos(usize),
    Exp(usize),
    Log(usize),
    Sqrt(usize),
    Tanh(usize),
    Relu(usize),
    Sigmoid(usize),
    Scale(usize, f64),
    AddScalar(usize),
    Pow(usize, f64),
    MatMul(usize, usize),
    MatVec(usize, usize),
    Transpose(usize),
    Sum(usize),
    Reshape(usize),
    /// `dynamic_slice(src, start, sizes)`
    DynamicSlice {
        src: usize,
        start: Vec<usize>,
    },
    /// `dynamic_update_slice(dst, patch, start)`
    DynamicUpdateSlice {
        dst: usize,
        patch: usize,
        start: Vec<usize>,
    },
}

struct Node {
    prim: Prim,
    value: Tensor,
}

/// The global trace: values plus the primitive that produced each of them.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Count of full-array materialisations (used by the benchmark harness to
    /// report the overhead the paper describes for Seidel2d).
    pub materializations: usize,
}

/// A traced value: an index into a shared tape.
#[derive(Clone)]
pub struct Var {
    tape: Rc<RefCell<Tape>>,
    index: usize,
}

/// A tracing context that owns the tape.
#[derive(Clone, Default)]
pub struct Context {
    tape: Rc<RefCell<Tape>>,
}

impl Context {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn tape_len(&self) -> usize {
        self.tape.borrow().nodes.len()
    }

    /// Number of full-array materialisations recorded.
    pub fn materializations(&self) -> usize {
        self.tape.borrow().materializations
    }

    /// Introduce a leaf value (program input or constant array).
    pub fn input(&self, value: Tensor) -> Var {
        self.record(Prim::Leaf, value)
    }

    /// Introduce a scalar constant.
    pub fn scalar(&self, value: f64) -> Var {
        self.input(Tensor::from_vec(vec![value], &[1]).expect("scalar"))
    }

    fn record(&self, prim: Prim, value: Tensor) -> Var {
        let mut tape = self.tape.borrow_mut();
        tape.nodes.push(Node { prim, value });
        Var {
            tape: Rc::clone(&self.tape),
            index: tape.nodes.len() - 1,
        }
    }

    /// A JAX-style `fori_loop`: `carry = body(i, carry)` for `i` in
    /// `lower..upper`.  Each iteration traces its operations onto the tape
    /// (store-all), like `jax.lax.scan`/`fori_loop` under `grad`.
    pub fn fori_loop<T>(
        &self,
        lower: i64,
        upper: i64,
        carry: T,
        mut body: impl FnMut(i64, T) -> T,
    ) -> T {
        let mut c = carry;
        let mut i = lower;
        while i < upper {
            c = body(i, c);
            i += 1;
        }
        c
    }

    /// Reverse-mode gradient of the scalar `output` with respect to `inputs`.
    ///
    /// The output must hold exactly one element.  Uses the store-all tape:
    /// every intermediate value recorded during tracing is read back.
    pub fn grad(&self, output: &Var, inputs: &[&Var]) -> Vec<Tensor> {
        let tape = self.tape.borrow();
        let n = tape.nodes.len();
        let mut adjoints: Vec<Option<Tensor>> = vec![None; n];
        let out_shape = tape.nodes[output.index].value.shape().to_vec();
        adjoints[output.index] = Some(Tensor::ones(&out_shape));

        for idx in (0..=output.index).rev() {
            let Some(grad_out) = adjoints[idx].clone() else {
                continue;
            };
            let node = &tape.nodes[idx];
            let add = |target: usize, contribution: Tensor, adjoints: &mut Vec<Option<Tensor>>| {
                match &mut adjoints[target] {
                    Some(existing) => {
                        existing.add_assign(&contribution).expect("same shape");
                    }
                    slot @ None => *slot = Some(contribution),
                }
            };
            match &node.prim {
                Prim::Leaf => {}
                Prim::Add(a, b) => {
                    add(*a, grad_out.clone(), &mut adjoints);
                    add(*b, grad_out, &mut adjoints);
                }
                Prim::Sub(a, b) => {
                    add(*a, grad_out.clone(), &mut adjoints);
                    add(*b, grad_out.scale(-1.0), &mut adjoints);
                }
                Prim::Mul(a, b) => {
                    let va = tape.nodes[*a].value.clone();
                    let vb = tape.nodes[*b].value.clone();
                    add(*a, grad_out.mul(&vb).unwrap(), &mut adjoints);
                    add(*b, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Div(a, b) => {
                    let va = tape.nodes[*a].value.clone();
                    let vb = tape.nodes[*b].value.clone();
                    add(*a, grad_out.div(&vb).unwrap(), &mut adjoints);
                    let gb = grad_out
                        .mul(&va)
                        .unwrap()
                        .div(&vb.mul(&vb).unwrap())
                        .unwrap()
                        .scale(-1.0);
                    add(*b, gb, &mut adjoints);
                }
                Prim::Neg(a) => add(*a, grad_out.scale(-1.0), &mut adjoints),
                Prim::Sin(a) => {
                    let va = tape.nodes[*a].value.map(f64::cos);
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Cos(a) => {
                    let va = tape.nodes[*a].value.map(|x| -x.sin());
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Exp(a) => {
                    let va = tape.nodes[*a].value.map(f64::exp);
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Log(a) => {
                    let va = tape.nodes[*a].value.map(|x| 1.0 / x);
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Sqrt(a) => {
                    let va = tape.nodes[*a].value.map(|x| 0.5 / x.sqrt());
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Tanh(a) => {
                    let va = tape.nodes[*a].value.map(|x| 1.0 - x.tanh() * x.tanh());
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Relu(a) => {
                    let va = tape.nodes[*a]
                        .value
                        .map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Sigmoid(a) => {
                    let va = tape.nodes[*a].value.map(|x| {
                        let s = 1.0 / (1.0 + (-x).exp());
                        s * (1.0 - s)
                    });
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::Scale(a, k) => add(*a, grad_out.scale(*k), &mut adjoints),
                Prim::AddScalar(a) => add(*a, grad_out, &mut adjoints),
                Prim::Pow(a, e) => {
                    let va = tape.nodes[*a].value.map(|x| e * x.powf(e - 1.0));
                    add(*a, grad_out.mul(&va).unwrap(), &mut adjoints);
                }
                Prim::MatMul(a, b) => {
                    let va = tape.nodes[*a].value.clone();
                    let vb = tape.nodes[*b].value.clone();
                    add(
                        *a,
                        grad_out.matmul(&vb.transpose().unwrap()).unwrap(),
                        &mut adjoints,
                    );
                    add(
                        *b,
                        va.transpose().unwrap().matmul(&grad_out).unwrap(),
                        &mut adjoints,
                    );
                }
                Prim::MatVec(a, x) => {
                    let va = tape.nodes[*a].value.clone();
                    let vx = tape.nodes[*x].value.clone();
                    add(*a, grad_out.outer(&vx).unwrap(), &mut adjoints);
                    add(
                        *x,
                        va.transpose().unwrap().matvec(&grad_out).unwrap(),
                        &mut adjoints,
                    );
                }
                Prim::Transpose(a) => {
                    add(*a, grad_out.transpose().unwrap(), &mut adjoints);
                }
                Prim::Sum(a) => {
                    let shape = tape.nodes[*a].value.shape().to_vec();
                    let g = grad_out.data()[0];
                    add(*a, Tensor::full(&shape, g), &mut adjoints);
                }
                Prim::Reshape(a) => {
                    let shape = tape.nodes[*a].value.shape().to_vec();
                    add(*a, grad_out.reshape(&shape).unwrap(), &mut adjoints);
                }
                Prim::DynamicSlice { src, start } => {
                    // Pad the slice gradient back into a full-size zero array —
                    // a full materialisation per call, as in XLA.
                    let full_shape = tape.nodes[*src].value.shape().to_vec();
                    let zeros = Tensor::zeros(&full_shape);
                    let padded = zeros.update_slice(start, &grad_out).unwrap();
                    add(*src, padded, &mut adjoints);
                }
                Prim::DynamicUpdateSlice { dst, patch, start } => {
                    let patch_shape = tape.nodes[*patch].value.shape().to_vec();
                    let ranges: Vec<DimRange> = start
                        .iter()
                        .zip(patch_shape.iter())
                        .map(|(&s, &len)| DimRange::new(s, s + len))
                        .collect();
                    // Gradient of the patch: the slice of the output gradient.
                    add(*patch, grad_out.slice(&ranges).unwrap(), &mut adjoints);
                    // Gradient of the original array: the output gradient with
                    // the patch region zeroed — another full materialisation.
                    let zero_patch = Tensor::zeros(&patch_shape);
                    let masked = grad_out.update_slice(start, &zero_patch).unwrap();
                    add(*dst, masked, &mut adjoints);
                }
            }
        }
        drop(tape);
        inputs
            .iter()
            .map(|v| {
                adjoints[v.index].clone().unwrap_or_else(|| {
                    Tensor::zeros(self.tape.borrow().nodes[v.index].value.shape())
                })
            })
            .collect()
    }
}

macro_rules! unary_op {
    ($name:ident, $prim:ident, $f:expr) => {
        /// Element-wise operation recorded on the tape.
        pub fn $name(&self) -> Var {
            let value = self.value().map($f);
            self.ctx().record(Prim::$prim(self.index), value)
        }
    };
}

impl Var {
    fn ctx(&self) -> Context {
        Context {
            tape: Rc::clone(&self.tape),
        }
    }

    /// The current value of this traced variable.
    pub fn value(&self) -> Tensor {
        self.tape.borrow().nodes[self.index].value.clone()
    }

    /// Shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.borrow().nodes[self.index].value.shape().to_vec()
    }

    fn binary(
        &self,
        other: &Var,
        prim: fn(usize, usize) -> Prim,
        f: impl Fn(&Tensor, &Tensor) -> Tensor,
    ) -> Var {
        let value = f(&self.value(), &other.value());
        self.ctx().record(prim(self.index, other.index), value)
    }

    /// `self + other`
    pub fn add(&self, other: &Var) -> Var {
        self.binary(other, Prim::Add, |a, b| a.add(b).expect("shape"))
    }

    /// `self - other`
    pub fn sub(&self, other: &Var) -> Var {
        self.binary(other, Prim::Sub, |a, b| a.sub(b).expect("shape"))
    }

    /// `self * other` (element-wise)
    pub fn mul(&self, other: &Var) -> Var {
        self.binary(other, Prim::Mul, |a, b| a.mul(b).expect("shape"))
    }

    /// `self / other` (element-wise)
    pub fn div(&self, other: &Var) -> Var {
        self.binary(other, Prim::Div, |a, b| a.div(b).expect("shape"))
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Var {
        let value = self.value().scale(k);
        self.ctx().record(Prim::Scale(self.index, k), value)
    }

    /// Add a scalar.
    pub fn add_scalar(&self, k: f64) -> Var {
        let value = self.value().add_scalar(k);
        self.ctx().record(Prim::AddScalar(self.index), value)
    }

    /// Element-wise power with a constant exponent.
    pub fn pow(&self, e: f64) -> Var {
        let value = self.value().map(|x| x.powf(e));
        self.ctx().record(Prim::Pow(self.index, e), value)
    }

    unary_op!(neg, Neg, |x| -x);
    unary_op!(sin, Sin, f64::sin);
    unary_op!(cos, Cos, f64::cos);
    unary_op!(exp, Exp, f64::exp);
    unary_op!(log, Log, f64::ln);
    unary_op!(sqrt, Sqrt, f64::sqrt);
    unary_op!(tanh, Tanh, f64::tanh);
    unary_op!(relu, Relu, |x| if x > 0.0 { x } else { 0.0 });
    unary_op!(sigmoid, Sigmoid, |x| 1.0 / (1.0 + (-x).exp()));

    /// Matrix-matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        self.binary(other, Prim::MatMul, |a, b| a.matmul(b).expect("shape"))
    }

    /// Matrix-vector product.
    pub fn matvec(&self, other: &Var) -> Var {
        self.binary(other, Prim::MatVec, |a, b| a.matvec(b).expect("shape"))
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> Var {
        let value = self.value().transpose().expect("2-D");
        self.ctx().record(Prim::Transpose(self.index), value)
    }

    /// Full sum reduction to a `[1]`-shaped value.
    pub fn sum(&self) -> Var {
        let value = Tensor::from_vec(vec![self.value().sum()], &[1]).unwrap();
        self.ctx().record(Prim::Sum(self.index), value)
    }

    /// `lax.dynamic_slice`: copy out a rectangular region with clamped start
    /// indices (every call copies).
    pub fn dynamic_slice(&self, start: &[usize], sizes: &[usize]) -> Var {
        let value = self.value();
        // Clamp start indices like XLA.
        let clamped: Vec<usize> = start
            .iter()
            .zip(value.shape().iter().zip(sizes.iter()))
            .map(|(&s, (&dim, &len))| s.min(dim.saturating_sub(len)))
            .collect();
        let ranges: Vec<DimRange> = clamped
            .iter()
            .zip(sizes.iter())
            .map(|(&s, &len)| DimRange::new(s, s + len))
            .collect();
        let out = value.slice(&ranges).expect("slice in bounds");
        {
            let mut tape = self.tape.borrow_mut();
            tape.materializations += 1;
        }
        self.ctx().record(
            Prim::DynamicSlice {
                src: self.index,
                start: clamped,
            },
            out,
        )
    }

    /// `lax.dynamic_update_slice`: produce a brand-new full-size array with
    /// the patch written at `start` (immutability: the original is untouched).
    pub fn dynamic_update_slice(&self, patch: &Var, start: &[usize]) -> Var {
        let value = self.value();
        let out = value
            .update_slice(start, &patch.value())
            .expect("in bounds");
        {
            let mut tape = self.tape.borrow_mut();
            tape.materializations += 1;
        }
        self.ctx().record(
            Prim::DynamicUpdateSlice {
                dst: self.index,
                patch: patch.index,
                start: start.to_vec(),
            },
            out,
        )
    }

    /// Read one element (convenience wrapper over `dynamic_slice`).
    pub fn get_element(&self, index: &[usize]) -> Var {
        let sizes = vec![1; index.len()];
        self.dynamic_slice(index, &sizes).sum()
    }

    /// Write one element (convenience wrapper over `dynamic_update_slice`).
    pub fn set_element(&self, index: &[usize], value: &Var) -> Var {
        let shape = vec![1; index.len()];
        let reshaped = value.reshape(&shape);
        self.dynamic_update_slice(&reshaped, index)
    }

    /// Reshape (same data order; the adjoint reshapes the gradient back).
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let value = self.value().reshape(shape).expect("same volume");
        self.ctx().record(Prim::Reshape(self.index), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_tensor::random::uniform;

    #[test]
    fn elementwise_gradients_match_analytic() {
        let ctx = Context::new();
        let x = ctx.input(uniform(&[8], 1));
        let y = ctx.input(uniform(&[8], 2));
        // out = sum(sin(x * y))
        let out = x.mul(&y).sin().sum();
        let grads = ctx.grad(&out, &[&x, &y]);
        let expected_x = x
            .value()
            .mul(&y.value())
            .unwrap()
            .map(f64::cos)
            .mul(&y.value())
            .unwrap();
        assert!(dace_tensor::allclose_default(&grads[0], &expected_x));
    }

    #[test]
    fn matmul_gradient_matches_fd() {
        let ctx = Context::new();
        let a = ctx.input(uniform(&[4, 3], 3));
        let b = ctx.input(uniform(&[3, 5], 4));
        let out = a.matmul(&b).sum();
        let grads = ctx.grad(&out, &[&a, &b]);
        // d sum(A@B) / dA = rowwise sums of B  => grad_A[i,k] = sum_j B[k,j]
        let ones = Tensor::ones(&[4, 5]);
        let expected_a = ones.matmul(&b.value().transpose().unwrap()).unwrap();
        let expected_b = a.value().transpose().unwrap().matmul(&ones).unwrap();
        assert!(dace_tensor::allclose_default(&grads[0], &expected_a));
        assert!(dace_tensor::allclose_default(&grads[1], &expected_b));
    }

    #[test]
    fn dynamic_update_slice_is_immutable_and_differentiable() {
        let ctx = Context::new();
        let a = ctx.input(Tensor::zeros(&[3, 3]));
        let patch = ctx.input(Tensor::ones(&[1, 1]));
        let b = a.dynamic_update_slice(&patch, &[1, 1]);
        // a unchanged (immutability)
        assert_eq!(a.value().sum(), 0.0);
        assert_eq!(b.value().sum(), 1.0);
        let out = b.mul(&b).sum();
        let grads = ctx.grad(&out, &[&patch, &a]);
        assert_eq!(grads[0].data()[0], 2.0); // d(p^2)/dp = 2p = 2
        assert_eq!(grads[1].at(&[1, 1]).unwrap(), 0.0); // overwritten element
    }

    #[test]
    fn dynamic_slice_gradient_pads_back() {
        let ctx = Context::new();
        let a = ctx.input(uniform(&[5], 5));
        let s = a.dynamic_slice(&[2], &[2]);
        let out = s.sum();
        let grads = ctx.grad(&out, &[&a]);
        assert_eq!(grads[0].data(), &[0.0, 0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn fori_loop_traces_every_iteration() {
        let ctx = Context::new();
        let x = ctx.input(uniform(&[4], 6));
        let before = ctx.tape_len();
        let y = ctx.fori_loop(0, 10, x.clone(), |_, c| c.scale(1.1));
        assert_eq!(
            ctx.tape_len(),
            before + 10,
            "store-all: one node per iteration"
        );
        let out = y.sum();
        let grads = ctx.grad(&out, &[&x]);
        let expected = 1.1f64.powi(10);
        assert!(grads[0].data().iter().all(|&g| (g - expected).abs() < 1e-9));
    }

    #[test]
    fn in_place_style_loop_materializes_full_arrays() {
        // A[i] = A[i] * 2 for each i, expressed with JAX-style immutable updates.
        let ctx = Context::new();
        let a = ctx.input(uniform(&[6], 7));
        let result = ctx.fori_loop(0, 6, a.clone(), |i, c| {
            let elem = c.dynamic_slice(&[i as usize], &[1]);
            let doubled = elem.scale(2.0);
            c.dynamic_update_slice(&doubled, &[i as usize])
        });
        // 2 materialisations per iteration (slice + update).
        assert_eq!(ctx.materializations(), 12);
        let out = result.sum();
        let grads = ctx.grad(&out, &[&a]);
        assert!(grads[0].data().iter().all(|&g| (g - 2.0).abs() < 1e-12));
    }

    #[test]
    fn sum_and_scalar_chain() {
        let ctx = Context::new();
        let x = ctx.input(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let out = x.pow(3.0).scale(2.0).add_scalar(1.0).sum();
        assert_eq!(out.value().data()[0], 17.0);
        let grads = ctx.grad(&out, &[&x]);
        assert_eq!(grads[0].data()[0], 24.0); // d(2x^3)/dx = 6x^2 = 24
    }

    #[test]
    fn unused_input_gets_zero_gradient() {
        let ctx = Context::new();
        let x = ctx.input(uniform(&[3], 8));
        let y = ctx.input(uniform(&[3], 9));
        let out = x.sum();
        let grads = ctx.grad(&out, &[&x, &y]);
        assert!(grads[1].data().iter().all(|&g| g == 0.0));
    }
}
