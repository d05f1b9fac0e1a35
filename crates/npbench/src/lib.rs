//! # npbench
//!
//! An NPBench-style kernel suite for the DaCe AD reproduction.  Every kernel
//! is implemented twice:
//!
//! * as a DaCe-frontend program (NumPy-style statements lowered to an SDFG
//!   and differentiated by `dace-ad`), and
//! * as a jax-rs traced function (immutable arrays, dynamic slices,
//!   `fori_loop`, store-all tape).
//!
//! Both sides consume bit-identical seeded inputs, append the same sum
//! reduction to obtain a scalar dependent variable (as §V-A of the paper
//! does), and their gradients are cross-validated with `allclose` in the test
//! suite.  The `npbench` binary times both sides; `npbench --figure N`
//! regenerates the paper's figures (`docs/reproduction.md`).

#![forbid(unsafe_code)]

pub mod loops;
pub mod runner;
pub mod vectorized;

use std::collections::HashMap;

use dace_sdfg::Sdfg;
use dace_tensor::Tensor;

/// Benchmark category (mirrors the split of the paper's evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Whole-array programs dominated by BLAS-style operations (Fig. 10).
    Vectorized,
    /// Programs with sequential loops, control flow and element accesses
    /// (Fig. 11).
    Loops,
}

/// Problem-size preset.
///
/// `Test` sizes are used by the cross-validation test suite; `Bench` sizes by
/// the benchmark harness.  The paper's "paper" NPBench sizes are scaled down
/// so every configuration completes in seconds under the SDFG interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Tiny sizes for gradient cross-validation.
    Test,
    /// Scaled benchmark sizes.
    Bench,
}

/// Concrete problem sizes for one kernel instance.
#[derive(Clone, Debug, Default)]
pub struct Sizes {
    /// Primary dimension.
    pub n: usize,
    /// Secondary dimension.
    pub m: usize,
    /// Time steps (stencil kernels).
    pub tsteps: usize,
}

impl Sizes {
    /// Construct sizes.
    pub fn new(n: usize, m: usize, tsteps: usize) -> Self {
        Sizes { n, m, tsteps }
    }
}

/// Result of running one side (DaCe AD or jax-rs) of a kernel.
#[derive(Clone, Debug)]
pub struct GradOutput {
    /// Scalar value of the dependent output.
    pub output: f64,
    /// Gradients of the requested inputs, keyed by array name.
    pub gradients: HashMap<String, Tensor>,
}

/// A kernel implemented on both systems.
pub trait Kernel: Sync {
    /// NPBench kernel name.
    fn name(&self) -> &'static str;
    /// Category of the kernel.
    fn category(&self) -> Category;
    /// Sizes for a preset.
    fn sizes(&self, preset: Preset) -> Sizes;
    /// SDFG symbol values for the given sizes.
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64>;
    /// Seeded input tensors.
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor>;
    /// The DaCe forward program (with the sum reduction writing `OUT`).
    fn build_dace(&self, s: &Sizes) -> Sdfg;
    /// The independent variables to differentiate with respect to.
    fn wrt(&self) -> Vec<&'static str>;
    /// Run the jax-rs side: forward value plus gradients of `wrt`.
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput;
}

/// Registry of all kernels.
pub fn all_kernels() -> Vec<Box<dyn Kernel>> {
    let mut v = vectorized::kernels();
    v.extend(loops::kernels());
    v
}

/// Kernels of one category.
pub fn kernels_in(category: Category) -> Vec<Box<dyn Kernel>> {
    all_kernels()
        .into_iter()
        .filter(|k| k.category() == category)
        .collect()
}

/// Look a kernel up by name.
pub fn kernel_by_name(name: &str) -> Option<Box<dyn Kernel>> {
    all_kernels().into_iter().find(|k| k.name() == name)
}

/// The motivating example of the paper's §IV-A (Listing 1) over `N × N`
/// arrays, differentiated with respect to `C` and `D`: three `sin` sites
/// whose inputs `A0` / `A1` / `A2` must be forwarded to the backward pass.
/// The two in-place scalings of `D` are materialised as the transients `D1`
/// and `D2` (an SSA rendering that preserves the paper's `S` / `R` / `c`
/// cost structure), which makes five store/recompute candidates.  Not a
/// [`Kernel`]: it has no jax-rs side and exists for the checkpointing
/// figures, examples and tests.
pub fn listing1() -> Sdfg {
    use dace_frontend::{ArrayExpr as A, ProgramBuilder};
    let mut b = ProgramBuilder::new("listing1");
    let n = b.symbol("N");
    for input in ["C", "D"] {
        b.add_input(input, vec![n.clone(), n.clone()]).unwrap();
    }
    for t in ["A0", "A1", "A2", "sin0", "sin1", "sin2", "D1", "D2", "tmp"] {
        b.add_transient(t, vec![n.clone(), n.clone()]).unwrap();
    }
    b.add_scalar("OUT").unwrap();
    b.assign("A0", A::a("C").mul(A::a("D")));
    b.assign("sin0", A::a("A0").sin());
    b.assign("D1", A::a("D").mul(A::s(6.0)));
    b.assign("A1", A::a("C").mul(A::a("D1")));
    b.assign("sin1", A::a("A1").sin());
    b.assign("D2", A::a("D1").mul(A::s(3.0)));
    b.assign("A2", A::a("C").mul(A::a("D2")));
    b.assign("sin2", A::a("A2").sin());
    b.assign("tmp", A::a("sin0").add(A::a("sin1")).add(A::a("sin2")));
    b.sum_into("OUT", "tmp", false);
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_dace_gradients;

    #[test]
    fn registry_has_both_categories() {
        let all = all_kernels();
        assert!(all.len() >= 12, "expected a substantial kernel suite");
        assert!(all.iter().any(|k| k.category() == Category::Vectorized));
        assert!(all.iter().any(|k| k.category() == Category::Loops));
        // Names are unique.
        let mut names: Vec<_> = all.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn kernel_lookup_by_name() {
        assert!(kernel_by_name("atax").is_some());
        assert!(kernel_by_name("seidel2d").is_some());
        assert!(kernel_by_name("not_a_kernel").is_none());
    }

    /// The §V-A validation: DaCe AD gradients match the jax-rs baseline
    /// gradients (np.allclose) for every kernel at test sizes.
    #[test]
    fn cross_validate_all_kernels() {
        for kernel in all_kernels() {
            let sizes = kernel.sizes(Preset::Test);
            let inputs = kernel.inputs(&sizes);
            let dace = run_dace_gradients(kernel.as_ref(), &sizes, &inputs)
                .unwrap_or_else(|e| panic!("{}: DaCe AD failed: {e}", kernel.name()));
            let jax = kernel.run_jax(&sizes, &inputs);
            assert!(
                (dace.output - jax.output).abs() <= 1e-6 * (1.0 + jax.output.abs()),
                "{}: forward outputs differ: dace={} jax={}",
                kernel.name(),
                dace.output,
                jax.output
            );
            for name in kernel.wrt() {
                let a = &dace.gradients[name];
                let b = &jax.gradients[name];
                assert!(
                    dace_tensor::allclose(a, b, 1e-5, 1e-7),
                    "{}: gradient of {name} differs",
                    kernel.name()
                );
            }
        }
    }
}
