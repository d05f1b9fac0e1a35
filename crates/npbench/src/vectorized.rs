//! Vectorized NPBench kernels (the Fig. 10 category): whole-array programs
//! dominated by matrix-matrix / matrix-vector products.

use std::collections::HashMap;

use dace_frontend::{ArrayExpr, ProgramBuilder};
use dace_sdfg::{Sdfg, SymExpr};
use dace_tensor::random::uniform_range;
use dace_tensor::Tensor;
use jax_rs::Context;

use crate::{Category, GradOutput, Kernel, Preset, Sizes};

/// All vectorized kernels.
pub fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Atax),
        Box::new(Bicg),
        Box::new(Gemm),
        Box::new(Gesummv),
        Box::new(K2mm),
        Box::new(K3mm),
        Box::new(Mvt),
        Box::new(Mlp),
        Box::new(Jacobi1d),
    ]
}

fn sym_map(pairs: &[(&str, usize)]) -> HashMap<String, i64> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), *v as i64))
        .collect()
}

fn inputs_from(specs: &[(&str, Vec<usize>, u64)]) -> HashMap<String, Tensor> {
    specs
        .iter()
        .map(|(name, shape, seed)| (name.to_string(), uniform_range(shape, -1.0, 1.0, *seed)))
        .collect()
}

// ---------------------------------------------------------------------------
// atax: y = A^T (A x)
// ---------------------------------------------------------------------------

struct Atax;

impl Kernel for Atax {
    fn name(&self) -> &'static str {
        "atax"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 5, 0),
            Preset::Bench => Sizes::new(220, 180, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("M", s.m), ("N", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[("A", vec![s.m, s.n], 1), ("x", vec![s.n], 2)])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "x"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("atax");
        let m = b.symbol("M");
        let n = b.symbol("N");
        b.add_input("A", vec![m.clone(), n.clone()]).unwrap();
        b.add_input("x", vec![n.clone()]).unwrap();
        b.add_transient("t", vec![m.clone()]).unwrap();
        b.add_transient("At", vec![n.clone(), m.clone()]).unwrap();
        b.add_transient("y", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matvec("t", "A", "x");
        b.transpose("At", "A");
        b.matvec("y", "At", "t");
        b.sum_into("OUT", "y", false);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a = ctx.input(inputs["A"].clone());
        let x = ctx.input(inputs["x"].clone());
        let t = a.matvec(&x);
        let y = a.transpose().matvec(&t);
        let out = y.sum();
        let grads = ctx.grad(&out, &[&a, &x]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("x".to_string(), grads[1].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// bicg: s = A^T r ; q = A p
// ---------------------------------------------------------------------------

struct Bicg;

impl Kernel for Bicg {
    fn name(&self) -> &'static str {
        "bicg"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 5, 0),
            Preset::Bench => Sizes::new(220, 180, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("M", s.m), ("N", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[
            ("A", vec![s.n, s.m], 3),
            ("p", vec![s.m], 4),
            ("r", vec![s.n], 5),
        ])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "p", "r"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("bicg");
        let m = b.symbol("M");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone(), m.clone()]).unwrap();
        b.add_input("p", vec![m.clone()]).unwrap();
        b.add_input("r", vec![n.clone()]).unwrap();
        b.add_transient("At", vec![m.clone(), n.clone()]).unwrap();
        b.add_transient("s", vec![m.clone()]).unwrap();
        b.add_transient("q", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.transpose("At", "A");
        b.matvec("s", "At", "r");
        b.matvec("q", "A", "p");
        b.sum_into("OUT", "s", false);
        b.sum_into("OUT", "q", true);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a = ctx.input(inputs["A"].clone());
        let p = ctx.input(inputs["p"].clone());
        let r = ctx.input(inputs["r"].clone());
        let s = a.transpose().matvec(&r);
        let q = a.matvec(&p);
        let out = s.sum().add(&q.sum());
        let grads = ctx.grad(&out, &[&a, &p, &r]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("p".to_string(), grads[1].clone()),
                ("r".to_string(), grads[2].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// gemm: D = alpha * A @ B + beta * C
// ---------------------------------------------------------------------------

struct Gemm;

const GEMM_ALPHA: f64 = 1.5;
const GEMM_BETA: f64 = 1.2;

impl Kernel for Gemm {
    fn name(&self) -> &'static str {
        "gemm"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 6, 0),
            Preset::Bench => Sizes::new(160, 160, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[
            ("A", vec![s.n, s.n], 6),
            ("B", vec![s.n, s.n], 7),
            ("C", vec![s.n, s.n], 8),
        ])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B", "C"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("gemm");
        let n = b.symbol("N");
        for name in ["A", "B", "C"] {
            b.add_input(name, vec![n.clone(), n.clone()]).unwrap();
        }
        b.add_transient("T", vec![n.clone(), n.clone()]).unwrap();
        b.add_transient("D", vec![n.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matmul("T", "A", "B");
        b.assign(
            "D",
            ArrayExpr::a("T")
                .mul(ArrayExpr::s(GEMM_ALPHA))
                .add(ArrayExpr::a("C").mul(ArrayExpr::s(GEMM_BETA))),
        );
        b.sum_into("OUT", "D", false);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a = ctx.input(inputs["A"].clone());
        let bt = ctx.input(inputs["B"].clone());
        let c = ctx.input(inputs["C"].clone());
        let d = a.matmul(&bt).scale(GEMM_ALPHA).add(&c.scale(GEMM_BETA));
        let out = d.sum();
        let grads = ctx.grad(&out, &[&a, &bt, &c]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("B".to_string(), grads[1].clone()),
                ("C".to_string(), grads[2].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// gesummv: y = alpha * A @ x + beta * B @ x
// ---------------------------------------------------------------------------

struct Gesummv;

impl Kernel for Gesummv {
    fn name(&self) -> &'static str {
        "gesummv"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(7, 0, 0),
            Preset::Bench => Sizes::new(250, 0, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[
            ("A", vec![s.n, s.n], 9),
            ("B", vec![s.n, s.n], 10),
            ("x", vec![s.n], 11),
        ])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B", "x"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("gesummv");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("B", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("x", vec![n.clone()]).unwrap();
        b.add_transient("t1", vec![n.clone()]).unwrap();
        b.add_transient("t2", vec![n.clone()]).unwrap();
        b.add_transient("y", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matvec("t1", "A", "x");
        b.matvec("t2", "B", "x");
        b.assign(
            "y",
            ArrayExpr::a("t1")
                .mul(ArrayExpr::s(1.5))
                .add(ArrayExpr::a("t2").mul(ArrayExpr::s(1.2))),
        );
        b.sum_into("OUT", "y", false);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a = ctx.input(inputs["A"].clone());
        let bt = ctx.input(inputs["B"].clone());
        let x = ctx.input(inputs["x"].clone());
        let y = a.matvec(&x).scale(1.5).add(&bt.matvec(&x).scale(1.2));
        let out = y.sum();
        let grads = ctx.grad(&out, &[&a, &bt, &x]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("B".to_string(), grads[1].clone()),
                ("x".to_string(), grads[2].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// k2mm: E = alpha * (A @ B) @ C + beta * D
// ---------------------------------------------------------------------------

struct K2mm;

impl Kernel for K2mm {
    fn name(&self) -> &'static str {
        "k2mm"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 0, 0),
            Preset::Bench => Sizes::new(140, 0, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[
            ("A", vec![s.n, s.n], 12),
            ("B", vec![s.n, s.n], 13),
            ("C", vec![s.n, s.n], 14),
            ("D", vec![s.n, s.n], 15),
        ])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B", "C", "D"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("k2mm");
        let n = b.symbol("N");
        for name in ["A", "B", "C", "D"] {
            b.add_input(name, vec![n.clone(), n.clone()]).unwrap();
        }
        b.add_transient("T1", vec![n.clone(), n.clone()]).unwrap();
        b.add_transient("T2", vec![n.clone(), n.clone()]).unwrap();
        b.add_transient("E", vec![n.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matmul("T1", "A", "B");
        b.matmul("T2", "T1", "C");
        b.assign(
            "E",
            ArrayExpr::a("T2")
                .mul(ArrayExpr::s(1.5))
                .add(ArrayExpr::a("D").mul(ArrayExpr::s(1.2))),
        );
        b.sum_into("OUT", "E", false);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a = ctx.input(inputs["A"].clone());
        let bt = ctx.input(inputs["B"].clone());
        let c = ctx.input(inputs["C"].clone());
        let d = ctx.input(inputs["D"].clone());
        let e = a.matmul(&bt).matmul(&c).scale(1.5).add(&d.scale(1.2));
        let out = e.sum();
        let grads = ctx.grad(&out, &[&a, &bt, &c, &d]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("B".to_string(), grads[1].clone()),
                ("C".to_string(), grads[2].clone()),
                ("D".to_string(), grads[3].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// k3mm: G = (A @ B) @ (C @ D)
// ---------------------------------------------------------------------------

struct K3mm;

impl Kernel for K3mm {
    fn name(&self) -> &'static str {
        "k3mm"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 0, 0),
            Preset::Bench => Sizes::new(140, 0, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[
            ("A", vec![s.n, s.n], 16),
            ("B", vec![s.n, s.n], 17),
            ("C", vec![s.n, s.n], 18),
            ("D", vec![s.n, s.n], 19),
        ])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B", "C", "D"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("k3mm");
        let n = b.symbol("N");
        for name in ["A", "B", "C", "D"] {
            b.add_input(name, vec![n.clone(), n.clone()]).unwrap();
        }
        for t in ["T1", "T2", "G"] {
            b.add_transient(t, vec![n.clone(), n.clone()]).unwrap();
        }
        b.add_scalar("OUT").unwrap();
        b.matmul("T1", "A", "B");
        b.matmul("T2", "C", "D");
        b.matmul("G", "T1", "T2");
        b.sum_into("OUT", "G", false);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a = ctx.input(inputs["A"].clone());
        let bt = ctx.input(inputs["B"].clone());
        let c = ctx.input(inputs["C"].clone());
        let d = ctx.input(inputs["D"].clone());
        let g = a.matmul(&bt).matmul(&c.matmul(&d));
        let out = g.sum();
        let grads = ctx.grad(&out, &[&a, &bt, &c, &d]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("B".to_string(), grads[1].clone()),
                ("C".to_string(), grads[2].clone()),
                ("D".to_string(), grads[3].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// mvt: x1 += A @ y1 ; x2 += A^T @ y2
// ---------------------------------------------------------------------------

struct Mvt;

impl Kernel for Mvt {
    fn name(&self) -> &'static str {
        "mvt"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(7, 0, 0),
            Preset::Bench => Sizes::new(250, 0, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[
            ("A", vec![s.n, s.n], 20),
            ("y1", vec![s.n], 21),
            ("y2", vec![s.n], 22),
        ])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "y1", "y2"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("mvt");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("y1", vec![n.clone()]).unwrap();
        b.add_input("y2", vec![n.clone()]).unwrap();
        b.add_transient("At", vec![n.clone(), n.clone()]).unwrap();
        b.add_transient("x1", vec![n.clone()]).unwrap();
        b.add_transient("x2", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matvec("x1", "A", "y1");
        b.transpose("At", "A");
        b.matvec("x2", "At", "y2");
        b.sum_into("OUT", "x1", false);
        b.sum_into("OUT", "x2", true);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let a = ctx.input(inputs["A"].clone());
        let y1 = ctx.input(inputs["y1"].clone());
        let y2 = ctx.input(inputs["y2"].clone());
        let x1 = a.matvec(&y1);
        let x2 = a.transpose().matvec(&y2);
        let out = x1.sum().add(&x2.sum());
        let grads = ctx.grad(&out, &[&a, &y1, &y2]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("y1".to_string(), grads[1].clone()),
                ("y2".to_string(), grads[2].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// mlp: three dense layers with ReLU activations
// ---------------------------------------------------------------------------

struct Mlp;

impl Kernel for Mlp {
    fn name(&self) -> &'static str {
        "mlp"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(6, 5, 0),
            Preset::Bench => Sizes::new(96, 64, 0),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("B", s.m), ("H", s.n)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[
            ("x", vec![s.m, s.n], 23),
            ("W1", vec![s.n, s.n], 24),
            ("W2", vec![s.n, s.n], 25),
            ("W3", vec![s.n, s.n], 26),
        ])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["W1", "W2", "W3"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        let mut b = ProgramBuilder::new("mlp");
        let batch = b.symbol("B");
        let h = b.symbol("H");
        b.add_input("x", vec![batch.clone(), h.clone()]).unwrap();
        for w in ["W1", "W2", "W3"] {
            b.add_input(w, vec![h.clone(), h.clone()]).unwrap();
        }
        for t in ["z1", "h1", "z2", "h2", "z3"] {
            b.add_transient(t, vec![batch.clone(), h.clone()]).unwrap();
        }
        b.add_scalar("OUT").unwrap();
        b.matmul("z1", "x", "W1");
        b.assign("h1", ArrayExpr::a("z1").relu());
        b.matmul("z2", "h1", "W2");
        b.assign("h2", ArrayExpr::a("z2").relu());
        b.matmul("z3", "h2", "W3");
        b.sum_into("OUT", "z3", false);
        b.build().unwrap()
    }
    fn run_jax(&self, _s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let x = ctx.input(inputs["x"].clone());
        let w1 = ctx.input(inputs["W1"].clone());
        let w2 = ctx.input(inputs["W2"].clone());
        let w3 = ctx.input(inputs["W3"].clone());
        let h1 = x.matmul(&w1).relu();
        let h2 = h1.matmul(&w2).relu();
        let z3 = h2.matmul(&w3);
        let out = z3.sum();
        let grads = ctx.grad(&out, &[&w1, &w2, &w3]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("W1".to_string(), grads[0].clone()),
                ("W2".to_string(), grads[1].clone()),
                ("W3".to_string(), grads[2].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// jacobi1d (vectorized): whole-interior updates inside a time-step loop
// ---------------------------------------------------------------------------

struct Jacobi1d;

impl Kernel for Jacobi1d {
    fn name(&self) -> &'static str {
        "jacobi1d"
    }
    fn category(&self) -> Category {
        Category::Vectorized
    }
    fn sizes(&self, preset: Preset) -> Sizes {
        match preset {
            Preset::Test => Sizes::new(10, 0, 3),
            Preset::Bench => Sizes::new(400, 0, 50),
        }
    }
    fn symbols(&self, s: &Sizes) -> HashMap<String, i64> {
        sym_map(&[("N", s.n), ("TSTEPS", s.tsteps)])
    }
    fn inputs(&self, s: &Sizes) -> HashMap<String, Tensor> {
        inputs_from(&[("A", vec![s.n], 27), ("B", vec![s.n], 28)])
    }
    fn wrt(&self) -> Vec<&'static str> {
        vec!["A", "B"]
    }
    fn build_dace(&self, _s: &Sizes) -> Sdfg {
        use dace_frontend::elem;
        let mut b = ProgramBuilder::new("jacobi1d");
        let n = b.symbol("N");
        let tsteps = b.symbol("TSTEPS");
        b.add_input("A", vec![n.clone()]).unwrap();
        b.add_input("B", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let i = SymExpr::sym("i");
        b.for_range("t", 0, tsteps.clone(), |b| {
            b.map_assign(
                "B",
                &[("i", SymExpr::int(1), n.sub(&SymExpr::int(1)))],
                vec![i.clone()],
                elem("A", vec![i.sub(&SymExpr::int(1))])
                    .add(elem("A", vec![i.clone()]))
                    .add(elem("A", vec![i.add_int(1)]))
                    .mul(dace_frontend::lit(0.33333)),
            );
            b.map_assign(
                "A",
                &[("i", SymExpr::int(1), n.sub(&SymExpr::int(1)))],
                vec![i.clone()],
                elem("B", vec![i.sub(&SymExpr::int(1))])
                    .add(elem("B", vec![i.clone()]))
                    .add(elem("B", vec![i.add_int(1)]))
                    .mul(dace_frontend::lit(0.33333)),
            );
        });
        b.sum_into("OUT", "A", false);
        b.build().unwrap()
    }
    fn run_jax(&self, s: &Sizes, inputs: &HashMap<String, Tensor>) -> GradOutput {
        let ctx = Context::new();
        let n = s.n;
        let a0 = ctx.input(inputs["A"].clone());
        let b0 = ctx.input(inputs["B"].clone());
        let (a, _b) = ctx.fori_loop(0, s.tsteps as i64, (a0.clone(), b0.clone()), |_, (a, b)| {
            let left = a.dynamic_slice(&[0], &[n - 2]);
            let mid = a.dynamic_slice(&[1], &[n - 2]);
            let right = a.dynamic_slice(&[2], &[n - 2]);
            let interior = left.add(&mid).add(&right).scale(0.33333);
            let b = b.dynamic_update_slice(&interior, &[1]);
            let left = b.dynamic_slice(&[0], &[n - 2]);
            let mid = b.dynamic_slice(&[1], &[n - 2]);
            let right = b.dynamic_slice(&[2], &[n - 2]);
            let interior = left.add(&mid).add(&right).scale(0.33333);
            let a = a.dynamic_update_slice(&interior, &[1]);
            (a, b)
        });
        let out = a.sum();
        let grads = ctx.grad(&out, &[&a0, &b0]);
        GradOutput {
            output: out.value().data()[0],
            gradients: [
                ("A".to_string(), grads[0].clone()),
                ("B".to_string(), grads[1].clone()),
            ]
            .into_iter()
            .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectorized_registry_is_populated() {
        let ks = kernels();
        assert_eq!(ks.len(), 9);
        for k in &ks {
            assert_eq!(k.category(), Category::Vectorized);
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
