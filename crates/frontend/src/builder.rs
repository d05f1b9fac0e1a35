//! The NumPy-like program builder and its lowering to SDFGs.
//!
//! Every builder statement corresponds to one line of the NumPy program the
//! paper's Python frontend would consume (`A = 2 * M`, `O += np.sin(A + B)`,
//! a `for` loop header, an element assignment inside a loop, ...).  Each
//! statement lowers to its own SDFG state containing the equivalent dataflow
//! (maps + tasklets, or a library node), and control-flow statements build
//! the structured loop/branch regions of the IR.

use std::collections::HashMap;

use dace_sdfg::{
    ArrayDesc, BranchRegion, CondExpr, ControlFlow, DataflowGraph, LibraryOp, LoopRegion, MapScope,
    Memlet, ScalarExpr, Sdfg, SdfgError, Severity, State, SymExpr, Tasklet,
};

use crate::expr::{ArrayExpr, ElemExpr};

/// Builder for SDFG programs with a NumPy-flavoured statement API.
pub struct ProgramBuilder {
    sdfg: Sdfg,
    frames: Vec<Vec<ControlFlow>>,
    statement_count: usize,
    state_counter: usize,
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            sdfg: Sdfg::new(name),
            frames: vec![Vec::new()],
            statement_count: 0,
            state_counter: 0,
        }
    }

    /// Declare (and return) a symbolic problem size such as `N`.
    pub fn symbol(&mut self, name: &str) -> SymExpr {
        self.sdfg.add_symbol(name);
        SymExpr::sym(name)
    }

    /// Declare a non-transient (input/output) array.
    pub fn add_input(&mut self, name: &str, shape: Vec<SymExpr>) -> Result<(), SdfgError> {
        self.sdfg.add_array(name, ArrayDesc::input(shape))
    }

    /// Declare a transient array.
    pub fn add_transient(&mut self, name: &str, shape: Vec<SymExpr>) -> Result<(), SdfgError> {
        self.sdfg.add_array(name, ArrayDesc::transient(shape))
    }

    /// Declare a `[1]`-shaped non-transient scalar container.
    pub fn add_scalar(&mut self, name: &str) -> Result<(), SdfgError> {
        self.sdfg
            .add_array(name, ArrayDesc::input(vec![SymExpr::int(1)]))
    }

    /// Number of statements issued so far (used as the "lines of code" proxy
    /// in the Fig. 11 program-size comparison).
    pub fn statement_count(&self) -> usize {
        self.statement_count
    }

    /// Finish and validate the SDFG.
    pub fn build(mut self) -> Result<Sdfg, SdfgError> {
        assert_eq!(self.frames.len(), 1, "unclosed control-flow region");
        let items = self.frames.pop().unwrap();
        self.sdfg.cfg = ControlFlow::Sequence(items);
        match self
            .sdfg
            .validate()
            .into_iter()
            .find(|d| d.severity == Severity::Error)
        {
            Some(d) => Err(SdfgError::Invalid(d.message)),
            None => Ok(self.sdfg),
        }
    }

    // ----- statement helpers -------------------------------------------------

    fn push(&mut self, cf: ControlFlow) {
        self.frames.last_mut().expect("frame stack").push(cf);
    }

    fn add_state(&mut self, label: &str, graph: DataflowGraph) -> usize {
        let name = format!("{label}_{}", self.state_counter);
        self.state_counter += 1;
        self.sdfg.add_state(State { name, graph })
    }

    fn push_state(&mut self, label: &str, graph: DataflowGraph) {
        let id = self.add_state(label, graph);
        self.push(ControlFlow::State(id));
        self.statement_count += 1;
    }

    // ----- whole-array statements -------------------------------------------

    /// `dst = expr` (element-wise over the whole array).
    pub fn assign(&mut self, dst: &str, expr: ArrayExpr) {
        let graph = self.lower_elementwise(dst, &expr, false);
        self.push_state(&format!("assign_{dst}"), graph);
    }

    /// `dst += expr` (element-wise accumulation).
    pub fn accumulate(&mut self, dst: &str, expr: ArrayExpr) {
        let graph = self.lower_elementwise(dst, &expr, true);
        self.push_state(&format!("accumulate_{dst}"), graph);
    }

    /// One library call as a statement: `dst = op(operands)`, accumulated
    /// into `dst` with `accumulate`.
    fn library(
        &mut self,
        label: &str,
        op: LibraryOp,
        operands: &[&str],
        dst: &str,
        accumulate: bool,
    ) {
        let graph = DataflowGraph::library_call(op, operands, dst, accumulate);
        self.push_state(&format!("{label}_{dst}"), graph);
    }

    /// `dst = a @ b` (matrix-matrix multiplication library node).
    pub fn matmul(&mut self, dst: &str, a: &str, b: &str) {
        self.library("matmul", LibraryOp::MATMUL, &[a, b], dst, false);
    }

    /// `dst = a @ x` (matrix-vector multiplication library node).
    pub fn matvec(&mut self, dst: &str, a: &str, x: &str) {
        self.library("matvec", LibraryOp::MATVEC, &[a, x], dst, false);
    }

    /// `dst = a^T` (2-D transpose library node).
    pub fn transpose(&mut self, dst: &str, a: &str) {
        self.library("transpose", LibraryOp::Transpose, &[a], dst, false);
    }

    /// `dst = copy(src)` (full-array copy library node).
    pub fn copy(&mut self, dst: &str, src: &str) {
        self.library("copy", LibraryOp::Copy, &[src], dst, false);
    }

    /// `dst[0] = sum(src)` or `dst[0] += sum(src)`.
    ///
    /// This is the reduction the paper appends to every NPBench program to
    /// obtain a scalar dependent variable for reverse-mode AD.
    pub fn sum_into(&mut self, dst: &str, src: &str, accumulate: bool) {
        let op = LibraryOp::SumReduce { accumulate };
        self.library("sum", op, &[src], dst, accumulate);
    }

    // ----- element statements ------------------------------------------------

    /// `dst[idx] = expr` (single element assignment; `idx` may reference loop
    /// iterators of enclosing `for_range` regions).
    pub fn assign_element(&mut self, dst: &str, idx: Vec<SymExpr>, expr: ElemExpr) {
        let graph = lower_elem_tasklet(dst, &idx, &expr, false);
        self.push_state(&format!("set_{dst}"), graph);
    }

    /// `dst[idx] += expr`.
    pub fn accumulate_element(&mut self, dst: &str, idx: Vec<SymExpr>, expr: ElemExpr) {
        let graph = lower_elem_tasklet(dst, &idx, &expr, true);
        self.push_state(&format!("acc_{dst}"), graph);
    }

    /// A parallel map `for params in ranges: dst[dst_idx] = expr`.
    pub fn map_assign(
        &mut self,
        dst: &str,
        params: &[(&str, SymExpr, SymExpr)],
        dst_idx: Vec<SymExpr>,
        expr: ElemExpr,
    ) {
        let graph = self.lower_map(dst, params, dst_idx, &expr);
        self.push_state(&format!("map_{dst}"), graph);
    }

    // ----- control flow -------------------------------------------------------

    /// `for var in start..end` (step 1) with the body built by `f`.
    pub fn for_range(
        &mut self,
        var: &str,
        start: impl Into<SymExpr>,
        end: impl Into<SymExpr>,
        f: impl FnOnce(&mut Self),
    ) {
        self.for_range_step(var, start, end, SymExpr::int(1), f);
    }

    /// `for var in start..end step step` with the body built by `f`.
    pub fn for_range_step(
        &mut self,
        var: &str,
        start: impl Into<SymExpr>,
        end: impl Into<SymExpr>,
        step: impl Into<SymExpr>,
        f: impl FnOnce(&mut Self),
    ) {
        self.frames.push(Vec::new());
        f(self);
        let items = self.frames.pop().expect("loop frame");
        let region = ControlFlow::Loop(LoopRegion {
            var: var.to_string(),
            start: start.into(),
            end: end.into(),
            step: step.into(),
            body: Box::new(ControlFlow::Sequence(items)),
        });
        self.push(region);
        self.statement_count += 1; // the loop header is one line
    }

    /// `if cond { then } else { otherwise }`.
    #[allow(clippy::type_complexity)]
    pub fn branch(
        &mut self,
        cond: CondExpr,
        then_f: impl FnOnce(&mut Self),
        else_f: Option<Box<dyn FnOnce(&mut Self) + '_>>,
    ) {
        self.frames.push(Vec::new());
        then_f(self);
        let then_items = self.frames.pop().expect("then frame");
        let else_body = if let Some(f) = else_f {
            self.frames.push(Vec::new());
            f(self);
            let else_items = self.frames.pop().expect("else frame");
            Some(Box::new(ControlFlow::Sequence(else_items)))
        } else {
            None
        };
        self.push(ControlFlow::Branch(BranchRegion {
            cond,
            then_body: Box::new(ControlFlow::Sequence(then_items)),
            else_body,
        }));
        self.statement_count += 1; // the `if` header is one line
    }

    // ----- lowering -----------------------------------------------------------

    fn lower_elementwise(
        &mut self,
        dst: &str,
        expr: &ArrayExpr,
        accumulate: bool,
    ) -> DataflowGraph {
        let dims = self
            .sdfg
            .arrays
            .get(dst)
            .map(|d| d.shape.clone())
            .unwrap_or_default();
        let params: Vec<String> = (0..dims.len()).map(|d| format!("__i{d}")).collect();
        let idx: Vec<SymExpr> = params.iter().map(|p| SymExpr::sym(p.clone())).collect();

        // Body: tasklet reading each referenced array at [params].
        let mut body = DataflowGraph::new();
        let mut renames: Vec<(String, String)> = Vec::new();
        let scalar = array_expr_to_scalar(expr, &idx, &mut renames);
        let tasklet = body.add_tasklet(Tasklet::new("ew", "out", scalar));
        for (array, conn) in &renames {
            let acc = body.add_access(array);
            body.add_edge(
                acc,
                None,
                tasklet,
                Some(conn),
                Memlet::element(array, idx.clone()),
            );
        }
        let dst_acc = body.add_access(dst);
        let memlet = if accumulate {
            Memlet::element(dst, idx.clone()).with_wcr_sum()
        } else {
            Memlet::element(dst, idx.clone())
        };
        body.add_edge(tasklet, Some("out"), dst_acc, None, memlet);

        // Outer graph: access nodes -> map -> dst access node.
        let mut g = DataflowGraph::new();
        let mut srcs = Vec::new();
        for array in expr.arrays() {
            srcs.push((array.clone(), g.add_access(&array)));
        }
        let map = g.add_map(MapScope {
            params: params.clone(),
            ranges: dims.iter().map(|d| (SymExpr::int(0), d.clone())).collect(),
            body,
        });
        let dst_out = g.add_access(dst);
        for (array, node) in srcs {
            g.add_edge(node, None, map, None, Memlet::all(array));
        }
        let outer_memlet = if accumulate {
            Memlet::all(dst).with_wcr_sum()
        } else {
            Memlet::all(dst)
        };
        g.add_edge(map, None, dst_out, None, outer_memlet);
        g
    }

    fn lower_map(
        &mut self,
        dst: &str,
        params: &[(&str, SymExpr, SymExpr)],
        dst_idx: Vec<SymExpr>,
        expr: &ElemExpr,
    ) -> DataflowGraph {
        let body = lower_elem_tasklet(dst, &dst_idx, expr, false);
        let mut g = DataflowGraph::new();
        let mut srcs = Vec::new();
        for (array, _) in expr.element_reads() {
            if !srcs.iter().any(|(a, _): &(String, usize)| *a == array) {
                let node = g.add_access(&array);
                srcs.push((array, node));
            }
        }
        let map = g.add_map(MapScope {
            params: params.iter().map(|(p, _, _)| p.to_string()).collect(),
            ranges: params
                .iter()
                .map(|(_, lo, hi)| (lo.clone(), hi.clone()))
                .collect(),
            body,
        });
        let dst_out = g.add_access(dst);
        for (array, node) in srcs {
            g.add_edge(node, None, map, None, Memlet::all(array));
        }
        g.add_edge(map, None, dst_out, None, Memlet::all(dst));
        g
    }
}

/// Lower an element expression to a single-tasklet dataflow graph writing
/// `dst[dst_idx]`.
fn lower_elem_tasklet(
    dst: &str,
    dst_idx: &[SymExpr],
    expr: &ElemExpr,
    accumulate: bool,
) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let reads = expr.element_reads();
    // Connector per distinct (array, index) read.
    let mut connectors: Vec<(String, Vec<SymExpr>, String)> = Vec::new();
    for (k, (array, idx)) in reads.iter().enumerate() {
        connectors.push((array.clone(), idx.clone(), format!("in{k}")));
    }
    let scalar = elem_expr_to_scalar(expr, &connectors);
    let tasklet = g.add_tasklet(Tasklet::new("elem", "out", scalar));
    // One access node per distinct array.
    let mut access: HashMap<String, usize> = HashMap::new();
    for (array, idx, conn) in &connectors {
        let node = *access
            .entry(array.clone())
            .or_insert_with(|| g.add_access(array));
        g.add_edge(
            node,
            None,
            tasklet,
            Some(conn),
            Memlet::element(array, idx.clone()),
        );
    }
    let dst_node = g.add_access(dst);
    let memlet = if accumulate {
        Memlet::element(dst, dst_idx.to_vec()).with_wcr_sum()
    } else {
        Memlet::element(dst, dst_idx.to_vec())
    };
    g.add_edge(tasklet, Some("out"), dst_node, None, memlet);
    g
}

/// Convert a whole-array expression into a tasklet scalar expression reading
/// each referenced array at `idx`.  `renames` pairs array names with
/// connector names (one connector per array) in order of first use — the
/// order the caller adds the body's reads in, so that building one program
/// twice gives the same SDFG.
fn array_expr_to_scalar(
    expr: &ArrayExpr,
    _idx: &[SymExpr],
    renames: &mut Vec<(String, String)>,
) -> ScalarExpr {
    match expr {
        ArrayExpr::Ref(name) => {
            let conn = match renames.iter().find(|(array, _)| array == name) {
                Some((_, conn)) => conn.clone(),
                None => {
                    let conn = format!("in{}", renames.len());
                    renames.push((name.clone(), conn.clone()));
                    conn
                }
            };
            ScalarExpr::Input(conn)
        }
        ArrayExpr::Scalar(v) => ScalarExpr::Const(*v),
        ArrayExpr::Unary(op, a) => {
            ScalarExpr::Un(*op, Box::new(array_expr_to_scalar(a, _idx, renames)))
        }
        ArrayExpr::Binary(op, a, b) => ScalarExpr::Bin(
            *op,
            Box::new(array_expr_to_scalar(a, _idx, renames)),
            Box::new(array_expr_to_scalar(b, _idx, renames)),
        ),
    }
}

/// Convert an element expression into a tasklet scalar expression given the
/// connector assignment for each distinct element read.
fn elem_expr_to_scalar(
    expr: &ElemExpr,
    connectors: &[(String, Vec<SymExpr>, String)],
) -> ScalarExpr {
    match expr {
        ElemExpr::Const(v) => ScalarExpr::Const(*v),
        ElemExpr::Iter(name) => ScalarExpr::Iter(name.clone()),
        ElemExpr::Elem(array, idx) => {
            let conn = connectors
                .iter()
                .find(|(a, i, _)| a == array && i == idx)
                .map(|(_, _, c)| c.clone())
                .expect("connector registered for every element read");
            ScalarExpr::Input(conn)
        }
        ElemExpr::Un(op, a) => ScalarExpr::Un(*op, Box::new(elem_expr_to_scalar(a, connectors))),
        ElemExpr::Bin(op, a, b) => ScalarExpr::Bin(
            *op,
            Box::new(elem_expr_to_scalar(a, connectors)),
            Box::new(elem_expr_to_scalar(b, connectors)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{elem, lit};
    use dace_runtime::compile;
    use dace_tensor::Tensor;

    fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn elementwise_assignment_runs() {
        let mut b = ProgramBuilder::new("ew");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.add_input("Z", vec![n.clone()]).unwrap();
        b.assign(
            "Z",
            ArrayExpr::a("X")
                .mul(ArrayExpr::a("Y"))
                .add(ArrayExpr::s(1.0)),
        );
        let sdfg = b.build().unwrap();
        let mut ex = compile(&sdfg, &symbols(&[("N", 4)])).unwrap().session();
        ex.set_input(
            "X",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap(),
        )
        .unwrap();
        ex.set_input(
            "Y",
            Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[4]).unwrap(),
        )
        .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Z").unwrap().data(), &[6.0, 13.0, 22.0, 33.0]);
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let mut b = ProgramBuilder::new("acc");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Z", vec![n.clone()]).unwrap();
        b.accumulate("Z", ArrayExpr::a("X"));
        b.accumulate("Z", ArrayExpr::a("X"));
        let sdfg = b.build().unwrap();
        let mut ex = compile(&sdfg, &symbols(&[("N", 3)])).unwrap().session();
        ex.set_input("X", Tensor::ones(&[3])).unwrap();
        ex.set_input("Z", Tensor::ones(&[3])).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Z").unwrap().data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn matmul_statement_runs() {
        let mut b = ProgramBuilder::new("mm");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("B", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("C", vec![n.clone(), n.clone()]).unwrap();
        b.matmul("C", "A", "B");
        let sdfg = b.build().unwrap();
        let a = dace_tensor::random::uniform(&[3, 3], 1);
        let bt = dace_tensor::random::uniform(&[3, 3], 2);
        let mut ex = compile(&sdfg, &symbols(&[("N", 3)])).unwrap().session();
        ex.set_input("A", a.clone()).unwrap();
        ex.set_input("B", bt.clone()).unwrap();
        ex.run().unwrap();
        assert!(dace_tensor::allclose_default(
            ex.array("C").unwrap(),
            &a.matmul(&bt).unwrap()
        ));
    }

    #[test]
    fn loop_with_element_updates() {
        // out[0] = sum_{i<N} X[i]^2  written as a loop of element accumulations
        let mut b = ProgramBuilder::new("sumsq");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let i = SymExpr::sym("i");
        b.for_range("i", 0, n.clone(), |b| {
            b.accumulate_element(
                "OUT",
                vec![SymExpr::int(0)],
                elem("X", vec![i.clone()]).mul(elem("X", vec![i.clone()])),
            );
        });
        let sdfg = b.build().unwrap();
        let mut ex = compile(&sdfg, &symbols(&[("N", 4)])).unwrap().session();
        ex.set_input(
            "X",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap(),
        )
        .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("OUT").unwrap().data()[0], 30.0);
    }

    #[test]
    fn map_assign_with_shifted_indices() {
        // Y[i] = X[i+1] - X[i] for i in 0..N-1
        let mut b = ProgramBuilder::new("diff");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        let i = SymExpr::sym("i");
        b.map_assign(
            "Y",
            &[("i", SymExpr::int(0), n.sub(&SymExpr::int(1)))],
            vec![i.clone()],
            elem("X", vec![i.add_int(1)]).sub(elem("X", vec![i.clone()])),
        );
        let sdfg = b.build().unwrap();
        let mut ex = compile(&sdfg, &symbols(&[("N", 4)])).unwrap().session();
        ex.set_input(
            "X",
            Tensor::from_vec(vec![1.0, 3.0, 6.0, 10.0], &[4]).unwrap(),
        )
        .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[2.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn sum_reduction_statement() {
        let mut b = ProgramBuilder::new("sum");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_scalar("S").unwrap();
        b.sum_into("S", "X", false);
        let sdfg = b.build().unwrap();
        let mut ex = compile(&sdfg, &symbols(&[("N", 5)])).unwrap().session();
        ex.set_input("X", Tensor::full(&[5], 2.0)).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("S").unwrap().data()[0], 10.0);
    }

    #[test]
    fn branch_statement_lowered() {
        use dace_sdfg::{CmpOp, CondOperand};
        let mut b = ProgramBuilder::new("branchy");
        b.add_scalar("P").unwrap();
        b.add_scalar("Y").unwrap();
        b.branch(
            CondExpr::Cmp {
                lhs: CondOperand::Element {
                    array: "P".into(),
                    index: vec![SymExpr::int(0)],
                },
                op: CmpOp::Gt,
                rhs: CondOperand::Const(0.0),
            },
            |b| b.assign_element("Y", vec![SymExpr::int(0)], lit(1.0)),
            Some(Box::new(|b: &mut ProgramBuilder| {
                b.assign_element("Y", vec![SymExpr::int(0)], lit(2.0))
            })),
        );
        let sdfg = b.build().unwrap();
        let mut ex = compile(&sdfg, &HashMap::new()).unwrap().session();
        ex.set_input("P", Tensor::from_vec(vec![-1.0], &[1]).unwrap())
            .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data()[0], 2.0);
    }

    #[test]
    fn nested_loops_and_transients() {
        // T = X * 2 (transient); then for i: OUT[0] += T[i]
        let mut b = ProgramBuilder::new("nested");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_transient("T", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
        let i = SymExpr::sym("i");
        b.for_range("i", 0, n.clone(), |b| {
            b.accumulate_element("OUT", vec![SymExpr::int(0)], elem("T", vec![i.clone()]));
        });
        let sdfg = b.build().unwrap();
        assert!(sdfg.arrays["T"].transient);
        let mut ex = compile(&sdfg, &symbols(&[("N", 3)])).unwrap().session();
        ex.set_input("X", Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap())
            .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("OUT").unwrap().data()[0], 12.0);
    }

    #[test]
    fn statement_count_tracks_lines() {
        let mut b = ProgramBuilder::new("count");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.assign("Y", ArrayExpr::a("X"));
        b.for_range("i", 0, n.clone(), |b| {
            b.assign_element("Y", vec![SymExpr::sym("i")], lit(0.0));
        });
        assert_eq!(b.statement_count(), 3); // assign + loop header + element set
    }

    #[test]
    fn unknown_array_fails_validation() {
        let mut b = ProgramBuilder::new("bad");
        b.assign("MISSING", ArrayExpr::s(1.0));
        assert!(b.build().is_err());
    }
}
