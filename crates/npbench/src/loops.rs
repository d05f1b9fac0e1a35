//! Non-vectorized NPBench kernels (the Fig. 11 category): sequential loops,
//! element-wise accesses and in-place updates.
//!
//! The jax-rs implementations follow the JAX-JIT porting rules described in
//! §V-A of the paper: loops keep their structure, every element read becomes
//! a `dynamic_slice` and every element write a `dynamic_update_slice` (array
//! immutability), which is exactly the per-iteration overhead the paper
//! analyses on Seidel2d.

use std::collections::HashMap;

use dace_frontend::{elem, lit, ProgramBuilder};
use dace_sdfg::{Sdfg, SymExpr};
use dace_tensor::random::uniform_range;
use dace_tensor::Tensor;
use jax_rs::{Context, Var};

use crate::{Category, GradOutput, Kernel, Preset, Sizes};

/// All loop kernels.
pub fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Seidel2d),
        Box::new(Jacobi2d),
        Box::new(Syrk),
        Box::new(Syr2k),
        Box::new(Trmm),
        Box::new(Conv2d),
    ]
}

fn sym_map(pairs: &[(&str, usize)]) -> HashMap<String, i64> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), *v as i64))
        .collect()
}

fn grad_map(names: &[&str], grads: Vec<Tensor>) -> HashMap<String, Tensor> {
    names
        .iter()
        .zip(grads)
        .map(|(n, g)| (n.to_string(), g))
        .collect()
}

// ---------------------------------------------------------------------------
// seidel2d: in-place 9-point Gauss-Seidel sweep inside a time-step loop
// ---------------------------------------------------------------------------

struct Seidel2d;

impl Kernel for Seidel2d {
    fn name(&self) -> &'static str {
        "seidel2d"
    }
    fn category(&self) -> Category {
        Category::Loops
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(7, 0, 2),
            Preset::Bench => Sizes::new(28, 0, 4),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n), ("TSTEPS", s.tsteps)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        [("A".to_string(), uniform_range(&[s.n, s.n], 0.0, 1.0, 31))]
            .into_iter()
            .collect()
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("seidel2d");
        let n = b.symbol("N");
        let tsteps = b.symbol("TSTEPS");
        b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let (i, j) = (SymExpr::sym("i"), SymExpr::sym("j"));
        let one = SymExpr::int(1);
        b.for_range("t", 0, tsteps.clone(), |b| {
            b.for_range("i", 1, n.sub(&one), |b| {
                b.for_range("j", 1, n.sub(&one), |b| {
                    let mut acc = elem("A", vec![i.sub(&one), j.sub(&one)]);
                    for (di, dj) in [
                        (0i64, 0i64),
                        (0, 1),
                        (1, -1),
                        (1, 0),
                        (1, 1),
                        (2, -1),
                        (2, 0),
                        (2, 1),
                    ] {
                        let ii = i.sub(&one).add_int(di);
                        let jj = j.sub(&one).add_int(dj + 1);
                        acc = acc.add(elem("A", vec![ii, jj]));
                    }
                    b.assign_element("A", vec![i.clone(), j.clone()], acc.div(lit(9.0)));
                });
            });
        });
        b.sum_into("OUT", "A", false);
        b.build().unwrap()
    }
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a0 = ctx.input(inputs["A"].clone());
        let mut a = a0.clone();
        for _t in 0..s.tsteps {
            for i in 1..s.n - 1 {
                for j in 1..s.n - 1 {
                    // 3x3 dynamic slice around (i, j), averaged, scattered back.
                    let window = a.dynamic_slice(&[i - 1, j - 1], &[3, 3]);
                    let avg = window.sum().scale(1.0 / 9.0);
                    a = a.set_element(&[i, j], &avg);
                }
            }
        }
        let out = a.sum();
        let grads = ctx.grad(&out, &[&a0]);
        GradOutput {
            output: out.value().data()[0],
            gradients: grad_map(&["A"], grads),
        }
    }
}

// ---------------------------------------------------------------------------
// jacobi2d: 5-point Jacobi updates, A and B ping-pong, explicit loops
// ---------------------------------------------------------------------------

struct Jacobi2d;

impl Kernel for Jacobi2d {
    fn name(&self) -> &'static str {
        "jacobi2d"
    }
    fn category(&self) -> Category {
        Category::Loops
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(7, 0, 2),
            Preset::Bench => Sizes::new(26, 0, 4),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n), ("TSTEPS", s.tsteps)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        [
            ("A".to_string(), uniform_range(&[s.n, s.n], 0.0, 1.0, 33)),
            ("B".to_string(), uniform_range(&[s.n, s.n], 0.0, 1.0, 34)),
        ]
        .into_iter()
        .collect()
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("jacobi2d");
        let n = b.symbol("N");
        let tsteps = b.symbol("TSTEPS");
        b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("B", vec![n.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let (i, j) = (SymExpr::sym("i"), SymExpr::sym("j"));
        let one = SymExpr::int(1);
        let five_point = |arr: &str, i: &SymExpr, j: &SymExpr| {
            elem(arr, vec![i.clone(), j.clone()])
                .add(elem(arr, vec![i.clone(), j.sub(&SymExpr::int(1))]))
                .add(elem(arr, vec![i.clone(), j.add_int(1)]))
                .add(elem(arr, vec![i.add_int(1), j.clone()]))
                .add(elem(arr, vec![i.sub(&SymExpr::int(1)), j.clone()]))
                .mul(lit(0.2))
        };
        b.for_range("t", 0, tsteps.clone(), |b| {
            b.for_range("i", 1, n.sub(&one), |b| {
                b.for_range("j", 1, n.sub(&one), |b| {
                    b.assign_element("B", vec![i.clone(), j.clone()], five_point("A", &i, &j));
                });
            });
            b.for_range("i", 1, n.sub(&one), |b| {
                b.for_range("j", 1, n.sub(&one), |b| {
                    b.assign_element("A", vec![i.clone(), j.clone()], five_point("B", &i, &j));
                });
            });
        });
        b.sum_into("OUT", "A", false);
        b.build().unwrap()
    }
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a0 = ctx.input(inputs["A"].clone());
        let b0 = ctx.input(inputs["B"].clone());
        let five_point = |arr: &Var, i: usize, j: usize| {
            arr.get_element(&[i, j])
                .add(&arr.get_element(&[i, j - 1]))
                .add(&arr.get_element(&[i, j + 1]))
                .add(&arr.get_element(&[i + 1, j]))
                .add(&arr.get_element(&[i - 1, j]))
                .scale(0.2)
        };
        let (mut a, mut bb) = (a0.clone(), b0.clone());
        for _t in 0..s.tsteps {
            for i in 1..s.n - 1 {
                for j in 1..s.n - 1 {
                    let v = five_point(&a, i, j);
                    bb = bb.set_element(&[i, j], &v);
                }
            }
            for i in 1..s.n - 1 {
                for j in 1..s.n - 1 {
                    let v = five_point(&bb, i, j);
                    a = a.set_element(&[i, j], &v);
                }
            }
        }
        let out = a.sum();
        let grads = ctx.grad(&out, &[&a0, &b0]);
        GradOutput {
            output: out.value().data()[0],
            gradients: grad_map(&["A", "B"], grads),
        }
    }
}

// ---------------------------------------------------------------------------
// syrk: C := beta*C + alpha*A*A^T (lower triangle)
// ---------------------------------------------------------------------------

const ALPHA: f64 = 1.5;
const BETA: f64 = 1.2;

struct Syrk;

impl Kernel for Syrk {
    fn name(&self) -> &'static str {
        "syrk"
    }
    fn category(&self) -> Category {
        Category::Loops
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 5, 0),
            Preset::Bench => Sizes::new(18, 14, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n), ("M", s.m)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        [
            ("A".to_string(), uniform_range(&[s.n, s.m], -1.0, 1.0, 35)),
            ("C".to_string(), uniform_range(&[s.n, s.n], -1.0, 1.0, 36)),
        ]
        .into_iter()
        .collect()
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "C"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("syrk");
        let n = b.symbol("N");
        let m = b.symbol("M");
        b.add_input("A", vec![n.clone(), m.clone()]).unwrap();
        b.add_input("C", vec![n.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let (i, j, k) = (SymExpr::sym("i"), SymExpr::sym("j"), SymExpr::sym("k"));
        b.for_range("i", 0, n.clone(), |b| {
            b.for_range("j", 0, i.add_int(1), |b| {
                b.assign_element(
                    "C",
                    vec![i.clone(), j.clone()],
                    elem("C", vec![i.clone(), j.clone()]).mul(lit(BETA)),
                );
            });
            b.for_range("k", 0, m.clone(), |b| {
                b.for_range("j", 0, i.add_int(1), |b| {
                    b.accumulate_element(
                        "C",
                        vec![i.clone(), j.clone()],
                        elem("A", vec![i.clone(), k.clone()])
                            .mul(elem("A", vec![j.clone(), k.clone()]))
                            .mul(lit(ALPHA)),
                    );
                });
            });
        });
        b.sum_into("OUT", "C", false);
        b.build().unwrap()
    }
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a0 = ctx.input(inputs["A"].clone());
        let c0 = ctx.input(inputs["C"].clone());
        let mut c = c0.clone();
        for i in 0..s.n {
            for j in 0..=i {
                let scaled = c.get_element(&[i, j]).scale(BETA);
                c = c.set_element(&[i, j], &scaled);
            }
            for k in 0..s.m {
                for j in 0..=i {
                    let contrib = a0
                        .get_element(&[i, k])
                        .mul(&a0.get_element(&[j, k]))
                        .scale(ALPHA);
                    let updated = c.get_element(&[i, j]).add(&contrib);
                    c = c.set_element(&[i, j], &updated);
                }
            }
        }
        let out = c.sum();
        let grads = ctx.grad(&out, &[&a0, &c0]);
        GradOutput {
            output: out.value().data()[0],
            gradients: grad_map(&["A", "C"], grads),
        }
    }
}

// ---------------------------------------------------------------------------
// syr2k: C := beta*C + alpha*(A*B^T + B*A^T) (lower triangle)
// ---------------------------------------------------------------------------

struct Syr2k;

impl Kernel for Syr2k {
    fn name(&self) -> &'static str {
        "syr2k"
    }
    fn category(&self) -> Category {
        Category::Loops
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 4, 0),
            Preset::Bench => Sizes::new(16, 12, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n), ("M", s.m)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        [
            ("A".to_string(), uniform_range(&[s.n, s.m], -1.0, 1.0, 37)),
            ("B".to_string(), uniform_range(&[s.n, s.m], -1.0, 1.0, 38)),
            ("C".to_string(), uniform_range(&[s.n, s.n], -1.0, 1.0, 39)),
        ]
        .into_iter()
        .collect()
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B", "C"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("syr2k");
        let n = b.symbol("N");
        let m = b.symbol("M");
        b.add_input("A", vec![n.clone(), m.clone()]).unwrap();
        b.add_input("B", vec![n.clone(), m.clone()]).unwrap();
        b.add_input("C", vec![n.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let (i, j, k) = (SymExpr::sym("i"), SymExpr::sym("j"), SymExpr::sym("k"));
        b.for_range("i", 0, n.clone(), |b| {
            b.for_range("j", 0, i.add_int(1), |b| {
                b.assign_element(
                    "C",
                    vec![i.clone(), j.clone()],
                    elem("C", vec![i.clone(), j.clone()]).mul(lit(BETA)),
                );
            });
            b.for_range("k", 0, m.clone(), |b| {
                b.for_range("j", 0, i.add_int(1), |b| {
                    b.accumulate_element(
                        "C",
                        vec![i.clone(), j.clone()],
                        elem("A", vec![j.clone(), k.clone()])
                            .mul(elem("B", vec![i.clone(), k.clone()]))
                            .add(
                                elem("B", vec![j.clone(), k.clone()])
                                    .mul(elem("A", vec![i.clone(), k.clone()])),
                            )
                            .mul(lit(ALPHA)),
                    );
                });
            });
        });
        b.sum_into("OUT", "C", false);
        b.build().unwrap()
    }
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a0 = ctx.input(inputs["A"].clone());
        let b0 = ctx.input(inputs["B"].clone());
        let c0 = ctx.input(inputs["C"].clone());
        let mut c = c0.clone();
        for i in 0..s.n {
            for j in 0..=i {
                let scaled = c.get_element(&[i, j]).scale(BETA);
                c = c.set_element(&[i, j], &scaled);
            }
            for k in 0..s.m {
                for j in 0..=i {
                    let contrib = a0
                        .get_element(&[j, k])
                        .mul(&b0.get_element(&[i, k]))
                        .add(&b0.get_element(&[j, k]).mul(&a0.get_element(&[i, k])))
                        .scale(ALPHA);
                    let updated = c.get_element(&[i, j]).add(&contrib);
                    c = c.set_element(&[i, j], &updated);
                }
            }
        }
        let out = c.sum();
        let grads = ctx.grad(&out, &[&a0, &b0, &c0]);
        GradOutput {
            output: out.value().data()[0],
            gradients: grad_map(&["A", "B", "C"], grads),
        }
    }
}

// ---------------------------------------------------------------------------
// trmm: triangular matrix multiply with in-place updates of B
// ---------------------------------------------------------------------------

struct Trmm;

impl Kernel for Trmm {
    fn name(&self) -> &'static str {
        "trmm"
    }
    fn category(&self) -> Category {
        Category::Loops
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(5, 6, 0),
            Preset::Bench => Sizes::new(16, 18, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("M", s.n), ("N", s.m)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        [
            ("A".to_string(), uniform_range(&[s.n, s.n], -1.0, 1.0, 40)),
            ("B".to_string(), uniform_range(&[s.n, s.m], -1.0, 1.0, 41)),
        ]
        .into_iter()
        .collect()
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("trmm");
        let m = b.symbol("M");
        let n = b.symbol("N");
        b.add_input("A", vec![m.clone(), m.clone()]).unwrap();
        b.add_input("B", vec![m.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let (i, j, k) = (SymExpr::sym("i"), SymExpr::sym("j"), SymExpr::sym("k"));
        b.for_range("i", 0, m.clone(), |b| {
            b.for_range("j", 0, n.clone(), |b| {
                b.for_range("k", i.add_int(1), m.clone(), |b| {
                    b.accumulate_element(
                        "B",
                        vec![i.clone(), j.clone()],
                        elem("A", vec![k.clone(), i.clone()])
                            .mul(elem("B", vec![k.clone(), j.clone()])),
                    );
                });
                b.assign_element(
                    "B",
                    vec![i.clone(), j.clone()],
                    elem("B", vec![i.clone(), j.clone()]).mul(lit(ALPHA)),
                );
            });
        });
        b.sum_into("OUT", "B", false);
        b.build().unwrap()
    }
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a0 = ctx.input(inputs["A"].clone());
        let b0 = ctx.input(inputs["B"].clone());
        let (m, n) = (s.n, s.m);
        let mut bb = b0.clone();
        for i in 0..m {
            for j in 0..n {
                let mut acc = bb.get_element(&[i, j]);
                for k in i + 1..m {
                    let term = a0.get_element(&[k, i]).mul(&bb.get_element(&[k, j]));
                    acc = acc.add(&term);
                }
                let scaled = acc.scale(ALPHA);
                bb = bb.set_element(&[i, j], &scaled);
            }
        }
        let out = bb.sum();
        let grads = ctx.grad(&out, &[&a0, &b0]);
        GradOutput {
            output: out.value().data()[0],
            gradients: grad_map(&["A", "B"], grads),
        }
    }
}

// ---------------------------------------------------------------------------
// conv2d: valid convolution with explicit loops
// ---------------------------------------------------------------------------

struct Conv2d;

const KSIZE: usize = 3;

impl Kernel for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }
    fn category(&self) -> Category {
        Category::Loops
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(7, 0, 0),
            Preset::Bench => Sizes::new(22, 0, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n), ("K", KSIZE)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        [
            ("I".to_string(), uniform_range(&[s.n, s.n], -1.0, 1.0, 42)),
            (
                "W".to_string(),
                uniform_range(&[KSIZE, KSIZE], -1.0, 1.0, 43),
            ),
        ]
        .into_iter()
        .collect()
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["I", "W"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("conv2d");
        let n = b.symbol("N");
        let k = b.symbol("K");
        b.add_input("I", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("W", vec![k.clone(), k.clone()]).unwrap();
        b.add_transient(
            "O",
            vec![
                n.sub(&SymExpr::int(KSIZE as i64 - 1)),
                n.sub(&SymExpr::int(KSIZE as i64 - 1)),
            ],
        )
        .unwrap();
        b.add_scalar("OUT").unwrap();
        let (i, j, ki, kj) = (
            SymExpr::sym("i"),
            SymExpr::sym("j"),
            SymExpr::sym("ki"),
            SymExpr::sym("kj"),
        );
        let out_dim = n.sub(&SymExpr::int(KSIZE as i64 - 1));
        b.for_range("i", 0, out_dim.clone(), |b| {
            b.for_range("j", 0, out_dim.clone(), |b| {
                b.for_range("ki", 0, k.clone(), |b| {
                    b.for_range("kj", 0, k.clone(), |b| {
                        b.accumulate_element(
                            "O",
                            vec![i.clone(), j.clone()],
                            elem("I", vec![i.add(&ki), j.add(&kj)])
                                .mul(elem("W", vec![ki.clone(), kj.clone()])),
                        );
                    });
                });
            });
        });
        b.sum_into("OUT", "O", false);
        b.build().unwrap()
    }
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let image = ctx.input(inputs["I"].clone());
        let weights = ctx.input(inputs["W"].clone());
        let out_dim = s.n - (KSIZE - 1);
        let mut o = ctx.input(Tensor::zeros(&[out_dim, out_dim]));
        for i in 0..out_dim {
            for j in 0..out_dim {
                let window = image.dynamic_slice(&[i, j], &[KSIZE, KSIZE]);
                let v = window.mul(&weights).sum();
                o = o.set_element(&[i, j], &v);
            }
        }
        let out = o.sum();
        let grads = ctx.grad(&out, &[&image, &weights]);
        GradOutput {
            output: out.value().data()[0],
            gradients: grad_map(&["I", "W"], grads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_registry_is_populated() {
        let ks = kernels();
        assert_eq!(ks.len(), 6);
        for k in &ks {
            assert_eq!(k.category(), Category::Loops);
            let sizes = k.sizes(Preset::Test);
            let sdfg = k.build_dace(&sizes);
            assert!(sdfg
                .validate()
                .iter()
                .all(|d| d.severity != dace_sdfg::Severity::Error));
            assert!(sdfg.arrays.contains_key("OUT"));
        }
    }
}
