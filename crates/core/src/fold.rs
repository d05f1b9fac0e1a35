//! Pre-AD transformations (step 1 of the design document in SNIPPETS.md):
//! the form the library nodes take before reverse mode sees them.
//!
//! [`fold_transposes`] folds a user's `B = Aᵀ` into the products that read
//! `B`: a `MatMul` or `MatVec` reads its matrix operands transposed under a
//! flag anyway, so the transpose, its adjoint, the clear of `B`'s gradient
//! and the two operand-sized containers `B` and `grad_B` never exist.

use std::borrow::Cow;

use dace_sdfg::{ControlFlow, DataflowGraph, DfNode, LibraryOp, Memlet, Sdfg};

/// The SDFG reverse mode differentiates: `fwd` with every foldable
/// `B = Aᵀ` folded into its readers, borrowed when nothing folds.
///
/// A `Transpose` folds when all of these hold:
/// - its state is a direct child of the root sequence (not in a loop or a
///   branch) and holds nothing but `A → Transpose → B`, whole arrays, no WCR;
/// - `B` is a transient, not `output` and not in `inputs`, and shaped `Aᵀ`;
/// - no other state writes `B`, and no state writes `A` (map bodies
///   included);
/// - every read of `B` is the matrix operand of a product (`MatMul`
///   connector `A` or `B`, `MatVec` connector `A`) in a state that runs
///   after the transpose, and no branch condition reads `B`.
///
/// A fold flips the flag of each such operand and points its access node and
/// memlet at `A`, takes the transpose's state out of the control flow (its
/// graph emptied, so no state id moves) and removes `B` from `arrays`.
/// States are visited by index and items in order, never through a map, so
/// two builds of one program fold to one SDFG.
pub(crate) fn fold_transposes<'a>(fwd: &'a Sdfg, output: &str, inputs: &[&str]) -> Cow<'a, Sdfg> {
    let ControlFlow::Sequence(top) = &fwd.cfg else {
        return Cow::Borrowed(fwd);
    };
    let order = fwd.cfg.states_in_order();
    let folds: Vec<(usize, &str, &str)> = top
        .iter()
        .filter_map(|item| match *item {
            ControlFlow::State(sid) => {
                let (a, b) = lone_transpose(&fwd.states.get(sid)?.graph)?;
                foldable(fwd, &order, sid, a, b, output, inputs).then_some((sid, a, b))
            }
            _ => None,
        })
        .collect();
    if folds.is_empty() {
        return Cow::Borrowed(fwd);
    }
    let mut folded = fwd.clone();
    for &(sid, a, b) in &folds {
        for (s, state) in folded.states.iter_mut().enumerate() {
            if s != sid {
                read_through(&mut state.graph, a, b);
            }
        }
        folded.states[sid].graph = DataflowGraph::new();
        folded.arrays.remove(b);
    }
    if let ControlFlow::Sequence(top) = &mut folded.cfg {
        top.retain(
            |item| !matches!(item, ControlFlow::State(s) if folds.iter().any(|f| f.0 == *s)),
        );
    }
    Cow::Owned(folded)
}

/// `(A, B)` of a graph that is nothing but `B = Aᵀ` over whole arrays.
fn lone_transpose(graph: &DataflowGraph) -> Option<(&str, &str)> {
    let [first, second] = &graph.edges[..] else {
        return None;
    };
    let (read, write) = if first.dst == second.src {
        (first, second)
    } else {
        (second, first)
    };
    let node = |id: usize| graph.nodes.get(id);
    let (
        Some(DfNode::Access(a)),
        Some(DfNode::Library(LibraryOp::Transpose)),
        Some(DfNode::Access(b)),
    ) = (node(read.src), node(read.dst), node(write.dst))
    else {
        return None;
    };
    let whole = |m: &Memlet, name: &str| m.data == name && m.subset.is_all();
    let lone = graph.nodes.len() == 3
        && read.dst == write.src
        && whole(&read.memlet, a)
        && whole(&write.memlet, b)
        && write.memlet.wcr.is_none();
    lone.then_some((a.as_str(), b.as_str()))
}

/// Whether the lone transpose `B = Aᵀ` of state `sid` may fold (the rule of
/// [`fold_transposes`]); `order` is `fwd.cfg.states_in_order()`.
fn foldable(
    fwd: &Sdfg,
    order: &[usize],
    sid: usize,
    a: &str,
    b: &str,
    output: &str,
    inputs: &[&str],
) -> bool {
    let (Some(a_desc), Some(b_desc)) = (fwd.arrays.get(a), fwd.arrays.get(b)) else {
        return false;
    };
    if a == b
        || !b_desc.transient
        || b == output
        || inputs.contains(&b)
        || b_desc.shape.len() != 2
        || !b_desc.shape.iter().eq(a_desc.shape.iter().rev())
        || condition_reads(&fwd.cfg, b)
    {
        return false;
    }
    let positions = |s: usize| (0..order.len()).filter(move |&p| order[p] == s);
    let [at] = positions(sid).collect::<Vec<_>>()[..] else {
        return false;
    };
    fwd.states.iter().enumerate().all(|(s, state)| {
        let g = &state.graph;
        if s == sid {
            return true;
        }
        let written = g.written_arrays();
        if written.contains(a) || written.contains(b) {
            return false;
        }
        let mut mentions = false;
        for node in &g.nodes {
            match node {
                DfNode::Access(n) if n == b => mentions = true,
                DfNode::MapScope(m) if m.body.referenced_arrays().contains(b) => return false,
                _ => {}
            }
        }
        let operands = g.edges.iter().all(|e| {
            !matches!(&g.nodes[e.src], DfNode::Access(n) if n == b)
                || (e.memlet.data == b
                    && e.memlet.subset.is_all()
                    && matches!(
                        (&g.nodes[e.dst], e.dst_conn.as_deref()),
                        (DfNode::Library(LibraryOp::MatMul { .. }), Some("A" | "B"))
                            | (DfNode::Library(LibraryOp::MatVec { .. }), Some("A"))
                    ))
        });
        let after = || positions(s).next().is_some() && positions(s).all(|p| p > at);
        operands && (!mentions || after())
    })
}

/// Whether a branch condition anywhere in `cf` reads `array`.
fn condition_reads(cf: &ControlFlow, array: &str) -> bool {
    match cf {
        ControlFlow::State(_) => false,
        ControlFlow::Sequence(items) => items.iter().any(|c| condition_reads(c, array)),
        ControlFlow::Loop(l) => condition_reads(&l.body, array),
        ControlFlow::Branch(br) => {
            br.cond.referenced_arrays().contains(array)
                || condition_reads(&br.then_body, array)
                || br
                    .else_body
                    .as_deref()
                    .is_some_and(|e| condition_reads(e, array))
        }
    }
}

/// Point every read of `b` in `graph` at `a`, flipping the flag of the
/// product operand it feeds (`foldable` admitted no other reader).
fn read_through(graph: &mut DataflowGraph, a: &str, b: &str) {
    let DataflowGraph { nodes, edges } = graph;
    for e in edges.iter_mut() {
        if !matches!(&nodes[e.src], DfNode::Access(n) if n == b) {
            continue;
        }
        e.memlet.data = a.to_string();
        match (&mut nodes[e.dst], e.dst_conn.as_deref()) {
            (
                DfNode::Library(
                    LibraryOp::MatMul { trans_a: flag, .. } | LibraryOp::MatVec { trans_a: flag },
                ),
                Some("A"),
            )
            | (DfNode::Library(LibraryOp::MatMul { trans_b: flag, .. }), Some("B")) => {
                *flag = !*flag
            }
            _ => unreachable!("a folded transpose is read by product operands only"),
        }
    }
    for node in nodes.iter_mut() {
        if matches!(node, DfNode::Access(n) if n == b) {
            *node = DfNode::Access(a.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use dace_frontend::{ArrayExpr, ProgramBuilder};
    use dace_sdfg::{CmpOp, CondExpr, CondOperand, Severity, SymExpr};
    use dace_tensor::random::uniform;

    use super::*;
    use crate::engine::finite_difference_gradient;
    use crate::reverse::generate_backward;
    use crate::{AdOptions, GradientEngine};

    /// NPBench's atax: `t = A x; y = Aᵀ t; OUT = sum(y)`, with `extra`
    /// statements issued between the transpose and its reader.
    fn atax_with(extra: impl FnOnce(&mut ProgramBuilder)) -> Sdfg {
        let mut b = ProgramBuilder::new("atax");
        let (m, n) = (b.symbol("M"), b.symbol("N"));
        b.add_input("A", vec![m.clone(), n.clone()]).unwrap();
        b.add_input("x", vec![n.clone()]).unwrap();
        b.add_transient("t", vec![m.clone()]).unwrap();
        b.add_transient("At", vec![n.clone(), m.clone()]).unwrap();
        b.add_transient("y", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matvec("t", "A", "x");
        b.transpose("At", "A");
        extra(&mut b);
        b.matvec("y", "At", "t");
        b.sum_into("OUT", "y", false);
        b.build().unwrap()
    }

    fn atax() -> Sdfg {
        atax_with(|_| {})
    }

    /// NPBench's bicg: `s = Aᵀ r; q = A p; OUT = sum(s) + sum(q)`.
    fn bicg() -> Sdfg {
        let mut b = ProgramBuilder::new("bicg");
        let (m, n) = (b.symbol("M"), b.symbol("N"));
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

    /// NPBench's mvt: `x1 = A y1; x2 = Aᵀ y2; OUT = sum(x1) + sum(x2)`.
    fn mvt() -> Sdfg {
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

    /// The library nodes of `items`, in execution order.
    fn library_ops(sdfg: &Sdfg, items: &[ControlFlow]) -> Vec<LibraryOp> {
        let states = items.iter().flat_map(ControlFlow::states_in_order);
        let nodes = states.flat_map(|s| &sdfg.states[s].graph.nodes);
        nodes
            .filter_map(|node| match node {
                DfNode::Library(op) => Some(*op),
                _ => None,
            })
            .collect()
    }

    fn matvec(trans_a: bool) -> LibraryOp {
        LibraryOp::MatVec { trans_a }
    }

    #[test]
    fn atax_bicg_and_mvt_fold_into_their_readers() {
        let sum = |accumulate| LibraryOp::SumReduce { accumulate };
        let cases = [
            (
                atax(),
                &["A", "x"][..],
                vec![matvec(false), matvec(true), sum(false)],
            ),
            (
                bicg(),
                &["A", "p", "r"],
                vec![matvec(true), matvec(false), sum(false), sum(true)],
            ),
            (
                mvt(),
                &["A", "y1", "y2"],
                vec![matvec(false), matvec(true), sum(false), sum(true)],
            ),
        ];
        for (fwd, wrt, forward_ops) in cases {
            let name = &fwd.name;
            let folded = fold_transposes(&fwd, "OUT", wrt);
            assert!(matches!(folded, Cow::Owned(_)), "{name}");
            assert_eq!(
                folded.cfg.states_in_order().len() + 1,
                fwd.cfg.states_in_order().len(),
                "{name}: the transpose's state leaves the control flow"
            );
            let plan = generate_backward(&fwd, "OUT", wrt).unwrap();
            let sdfg = &plan.sdfg;
            let ControlFlow::Sequence(top) = &sdfg.cfg else {
                panic!("{name}: a gradient program is a sequence")
            };
            let ops = library_ops(sdfg, &top[..plan.backward_start_index]);
            assert_eq!(ops, forward_ops, "{name}: the forward half, as folded");
            assert!(
                !library_ops(sdfg, top).contains(&LibraryOp::Transpose),
                "{name}"
            );
            assert!(
                !sdfg
                    .arrays
                    .keys()
                    .any(|a| a == "At" || a.starts_with("grad_At")),
                "{name}: {:?}",
                sdfg.arrays.keys()
            );
            assert!(!plan.candidates.iter().any(|c| c.array == "At"), "{name}");
            assert_eq!(sdfg.validate(), [], "{name}");
        }
    }

    /// `C = Aᵀ X` and `G = A Aᵀ` fold into both `MatMul` connectors, and the
    /// gradients of the folded program match finite differences of the
    /// program as written.
    #[test]
    fn matmul_operands_fold_and_match_fd() {
        let mut b = ProgramBuilder::new("gram");
        let (m, n) = (b.symbol("M"), b.symbol("N"));
        b.add_input("A", vec![m.clone(), n.clone()]).unwrap();
        b.add_input("X", vec![m.clone(), n.clone()]).unwrap();
        b.add_transient("At", vec![n.clone(), m.clone()]).unwrap();
        b.add_transient("C", vec![n.clone(), n.clone()]).unwrap();
        b.add_transient("S", vec![n.clone(), n.clone()]).unwrap();
        b.add_transient("G", vec![m.clone(), m.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.transpose("At", "A");
        b.matmul("C", "At", "X");
        b.assign("S", ArrayExpr::a("C").sin());
        b.matmul("G", "A", "At");
        b.sum_into("OUT", "S", false);
        b.sum_into("OUT", "G", true);
        let fwd = b.build().unwrap();
        let folded = fold_transposes(&fwd, "OUT", &["A", "X"]);
        let flagged = |trans_a, trans_b| LibraryOp::MatMul { trans_a, trans_b };
        let ControlFlow::Sequence(top) = &folded.cfg else {
            panic!()
        };
        let products: Vec<_> = library_ops(&folded, top)
            .into_iter()
            .filter(|op| matches!(op, LibraryOp::MatMul { .. }))
            .collect();
        assert_eq!(products, [flagged(true, false), flagged(false, true)]);

        let symbols = HashMap::from([("M".to_string(), 3), ("N".to_string(), 4)]);
        let inputs = HashMap::from([
            ("A".to_string(), uniform(&[3, 4], 31)),
            ("X".to_string(), uniform(&[3, 4], 32)),
        ]);
        check_fd(&fwd, &["A", "X"], &symbols, &inputs);
    }

    /// Gradients of `fwd` against central differences of `fwd` as written.
    fn check_fd(
        fwd: &Sdfg,
        wrt: &[&str],
        symbols: &HashMap<String, i64>,
        inputs: &HashMap<String, dace_tensor::Tensor>,
    ) {
        let mut engine =
            GradientEngine::new(fwd, "OUT", wrt, symbols, &AdOptions::default()).unwrap();
        let result = engine.run(inputs).unwrap();
        for input in wrt {
            let fd = finite_difference_gradient(fwd, "OUT", input, symbols, inputs, 1e-6).unwrap();
            let ad = &result.gradients[*input];
            assert!(
                dace_tensor::allclose(ad, &fd, 1e-4, 1e-7),
                "{}: gradient of {input}\nad = {:?}\nfd = {:?}",
                fwd.name,
                ad.data(),
                fd.data()
            );
        }
    }

    fn assert_unfolded(fwd: &Sdfg, output: &str, wrt: &[&str], case: &str) {
        assert!(
            matches!(fold_transposes(fwd, output, wrt), Cow::Borrowed(_)),
            "{case}: the SDFG must come back borrowed, as written"
        );
    }

    #[test]
    fn transposes_read_by_anything_but_a_product_stay() {
        // A map reads `At`.
        let fwd = atax_with(|b| {
            b.add_transient("S", vec![SymExpr::sym("N"), SymExpr::sym("M")])
                .unwrap();
            b.assign("S", ArrayExpr::a("At").mul(ArrayExpr::s(2.0)));
            b.sum_into("OUT", "S", true);
        });
        assert_unfolded(&fwd, "OUT", &["A", "x"], "read by a map");
        // ... by a map body alone, with no edge into the map.
        let mut fwd = fwd;
        for state in &mut fwd.states {
            let DataflowGraph { nodes, edges } = &mut state.graph;
            edges.retain(|e| {
                let into_map = matches!(nodes[e.dst], DfNode::MapScope(_));
                !into_map || !matches!(&nodes[e.src], DfNode::Access(n) if n == "At")
            });
        }
        assert_unfolded(&fwd, "OUT", &["A", "x"], "read by a map body");
        // `SumReduce` reads `At`; its unfolded adjoint still matches FD.
        let fwd = atax_with(|b| b.sum_into("OUT", "At", true));
        assert_unfolded(&fwd, "OUT", &["A", "x"], "read by SumReduce");
        let plan = generate_backward(&fwd, "OUT", &["A", "x"]).unwrap();
        let ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
            panic!()
        };
        assert!(library_ops(&plan.sdfg, top).contains(&LibraryOp::Transpose));
        let symbols = HashMap::from([("M".to_string(), 3), ("N".to_string(), 4)]);
        let inputs = HashMap::from([
            ("A".to_string(), uniform(&[3, 4], 33)),
            ("x".to_string(), uniform(&[4], 34)),
        ]);
        check_fd(&fwd, &["A", "x"], &symbols, &inputs);
        // A branch condition reads `At`.
        let fwd = atax_with(|b| {
            let cond = CondExpr::Cmp {
                lhs: CondOperand::Element {
                    array: "At".into(),
                    index: vec![SymExpr::int(0), SymExpr::int(0)],
                },
                op: CmpOp::Gt,
                rhs: CondOperand::Const(0.0),
            };
            b.branch(cond, |b| b.matvec("t", "A", "x"), None);
        });
        assert_unfolded(&fwd, "OUT", &["A", "x"], "read by a branch condition");
    }

    #[test]
    fn transposes_of_outputs_inputs_and_written_arrays_stay() {
        assert_unfolded(&atax(), "At", &["A", "x"], "B is the output");
        assert_unfolded(&atax(), "OUT", &["A", "x", "At"], "B is in inputs");
        let mut fwd = atax();
        fwd.arrays.get_mut("At").unwrap().transient = false;
        assert_unfolded(&fwd, "OUT", &["A", "x"], "B is not transient");
        let mut fwd = atax();
        fwd.arrays.get_mut("At").unwrap().shape.reverse();
        assert_unfolded(&fwd, "OUT", &["A", "x"], "B is not shaped like Aᵀ");
        let fwd = atax_with(|b| b.transpose("At", "A"));
        assert_unfolded(&fwd, "OUT", &["A", "x"], "B is written twice");
        let fwd = atax_with(|b| b.assign("A", ArrayExpr::a("A").mul(ArrayExpr::s(2.0))));
        assert_unfolded(&fwd, "OUT", &["A", "x"], "A is written after the transpose");
        // The transposed array is written first: `At = (2 A)ᵀ` through `T`.
        let mut b = ProgramBuilder::new("scaled");
        let n = b.symbol("N");
        let square = vec![n.clone(), n.clone()];
        b.add_input("A", square.clone()).unwrap();
        b.add_input("x", vec![n.clone()]).unwrap();
        b.add_transient("T", square.clone()).unwrap();
        b.add_transient("At", square).unwrap();
        b.add_transient("y", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.assign("T", ArrayExpr::a("A").mul(ArrayExpr::s(2.0)));
        b.transpose("At", "T");
        b.matvec("y", "At", "x");
        b.sum_into("OUT", "y", false);
        let fwd = b.build().unwrap();
        assert_unfolded(&fwd, "OUT", &["A", "x"], "the transposed array is written");
    }

    #[test]
    fn transposes_inside_loops_branches_or_not_before_their_reader_stay() {
        let build = |wrap: &dyn Fn(&mut ProgramBuilder)| {
            let mut b = ProgramBuilder::new("wrapped");
            let n = b.symbol("N");
            b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
            b.add_input("x", vec![n.clone()]).unwrap();
            b.add_input("P", vec![SymExpr::int(1)]).unwrap();
            b.add_transient("At", vec![n.clone(), n.clone()]).unwrap();
            b.add_transient("y", vec![n.clone()]).unwrap();
            b.add_scalar("OUT").unwrap();
            wrap(&mut b);
            b.matvec("y", "At", "x");
            b.sum_into("OUT", "y", false);
            b.build().unwrap()
        };
        let looped = build(&|b| b.for_range("i", 0, 2, |b| b.transpose("At", "A")));
        assert_unfolded(&looped, "OUT", &["A", "x"], "inside a loop");
        let cond = CondExpr::Cmp {
            lhs: CondOperand::Element {
                array: "P".into(),
                index: vec![SymExpr::int(0)],
            },
            op: CmpOp::Gt,
            rhs: CondOperand::Const(0.0),
        };
        let branched = build(&|b| b.branch(cond.clone(), |b| b.transpose("At", "A"), None));
        assert_unfolded(&branched, "OUT", &["A", "x"], "inside a branch");

        // The reader moved in front of the transpose.
        let mut fwd = atax();
        let ControlFlow::Sequence(top) = &mut fwd.cfg else {
            panic!()
        };
        top.swap(1, 2);
        assert_unfolded(&fwd, "OUT", &["A", "x"], "reader before the transpose");

        // The reader moved into the transpose's own state.
        let mut fwd = atax();
        let ControlFlow::Sequence(top) = &mut fwd.cfg else {
            panic!()
        };
        let ControlFlow::State(reader) = top.remove(2) else {
            panic!()
        };
        let ControlFlow::State(transpose) = top[1] else {
            panic!()
        };
        let moved = std::mem::take(&mut fwd.states[reader].graph);
        let graph = &mut fwd.states[transpose].graph;
        let offset = graph.nodes.len();
        graph.nodes.extend(moved.nodes);
        graph.edges.extend(moved.edges.into_iter().map(|mut e| {
            e.src += offset;
            e.dst += offset;
            e
        }));
        let errors = fwd.validate().into_iter();
        let errors: Vec<_> = errors.filter(|d| d.severity == Severity::Error).collect();
        assert_eq!(errors, [], "{}", fwd.describe());
        assert_unfolded(&fwd, "OUT", &["A", "x"], "reader in the transpose's state");
    }

    /// Two builds of one program fold to one gradient program: one plan-cache
    /// key.
    #[test]
    fn two_builds_fold_to_one_fingerprint() {
        let fingerprint = || {
            let plan = generate_backward(&atax(), "OUT", &["A", "x"]).unwrap();
            dace_runtime::debug_fingerprint_sdfg(&plan.sdfg)
        };
        assert_eq!(fingerprint(), fingerprint());
    }
}
