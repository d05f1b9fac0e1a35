//! Dataflow analyses over SDFGs.
//!
//! The central analysis is the **critical computation subgraph** (CCS) of
//! Section II of the paper: the minimal subgraph containing only the
//! computations through which the independent variables contribute to the
//! dependent variable.  It is the intersection of two halves (activity
//! analysis):
//!
//! * the arrays the dependent output *depends on*: a reverse breadth-first
//!   traversal that starts from the output and propagates across states,
//!   loops (to a fixed point, matching §III-B without unrolling) and branches
//!   (as an over-approximation, pruned at runtime by stored conditionals);
//! * the arrays *varied* by the independent inputs: everything written from
//!   them, forward, by a flow-insensitive fixed point over every state.
//!
//! An array outside either half has no gradient path from the output to an
//! independent input, so AD stops there: no adjoint container, no adjoint
//! computation.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::graph::{DataflowGraph, DfNode, NodeId};
use crate::memlet::{IndexRange, Subset};
use crate::sdfg::{ArrayDesc, ControlFlow, Sdfg};
use crate::symexpr::SymExpr;

/// Result of the CCS analysis.
#[derive(Clone, Debug, Default)]
pub struct CcsInfo {
    /// For each state id, the set of top-level node ids that belong to the CCS.
    pub per_state: BTreeMap<usize, BTreeSet<NodeId>>,
    /// Arrays that (transitively) contribute to the dependent output and are
    /// varied by an independent input, plus the output itself.
    pub contributing_arrays: BTreeSet<String>,
    /// Number of fixed-point iterations performed over loop bodies (reported
    /// for diagnostics; the paper's observation is that this converges after
    /// a small number of body evaluations).
    pub loop_iterations: usize,
}

impl CcsInfo {
    /// True if a state has any CCS node.
    pub fn state_active(&self, state: usize) -> bool {
        self.per_state
            .get(&state)
            .map(|s| !s.is_empty())
            .unwrap_or(false)
    }

    /// The CCS nodes of a state (empty set if none).
    pub fn nodes_of(&self, state: usize) -> BTreeSet<NodeId> {
        self.per_state.get(&state).cloned().unwrap_or_default()
    }
}

/// Compute the critical computation subgraph of `sdfg` from the dependent
/// output array `output` up to the independent inputs `wrt`.  The reverse
/// traversal from `output` admits only the arrays written from `wrt`
/// (`varied_arrays`), so the arrays it keeps are exactly those on some
/// dataflow path from a `wrt` input to the output.
pub fn compute_ccs(sdfg: &Sdfg, output: &str, wrt: &[&str]) -> CcsInfo {
    let varied = varied_arrays(sdfg, wrt);
    let mut info = CcsInfo::default();
    let mut live: BTreeSet<String> = BTreeSet::new();
    live.insert(output.to_string());
    analyze_cfg(sdfg, &sdfg.cfg, &varied, &mut live, &mut info);
    info.contributing_arrays = live;
    info
}

/// The arrays whose values depend on the `wrt` inputs: the inputs
/// themselves and every array written by a compute node that reads one of
/// them, transitively.  Flow-insensitive: what each compute node of the
/// program reads and writes is listed once, and the list is swept until
/// nothing is added, which covers loops (a value carried to the next trip)
/// without looking at their structure.
fn varied_arrays<'a>(sdfg: &'a Sdfg, wrt: &[&'a str]) -> BTreeSet<&'a str> {
    let mut flows: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    for id in sdfg.cfg.states_in_order() {
        let graph = &sdfg.states[id].graph;
        let mut of_node = vec![(Vec::new(), Vec::new()); graph.nodes.len()];
        let compute = |n: NodeId| !matches!(graph.nodes[n], DfNode::Access(_));
        for e in &graph.edges {
            if compute(e.dst) {
                of_node[e.dst].0.push(e.memlet.data.as_str());
            }
            if compute(e.src) {
                of_node[e.src].1.push(e.memlet.data.as_str());
            }
        }
        for (node, mut flow) in graph.nodes.iter().zip(of_node) {
            match node {
                DfNode::Access(_) => continue,
                DfNode::MapScope(m) => body_flow(&m.body, &mut flow.0, &mut flow.1),
                _ => {}
            }
            flows.push(flow);
        }
    }
    let mut varied: BTreeSet<&str> = wrt.iter().copied().collect();
    loop {
        let before = varied.len();
        for (reads, writes) in &flows {
            if reads.iter().any(|a| varied.contains(a)) {
                varied.extend(writes);
            }
        }
        if varied.len() == before {
            return varied;
        }
    }
}

/// The arrays a map body (nested bodies included) reads and writes.
fn body_flow<'a>(body: &'a DataflowGraph, reads: &mut Vec<&'a str>, writes: &mut Vec<&'a str>) {
    for e in &body.edges {
        if let DfNode::Access(name) = &body.nodes[e.src] {
            reads.push(name);
        }
        if let DfNode::Access(name) = &body.nodes[e.dst] {
            writes.push(name);
        }
    }
    for node in &body.nodes {
        if let DfNode::MapScope(m) = node {
            body_flow(&m.body, reads, writes);
        }
    }
}

fn analyze_cfg(
    sdfg: &Sdfg,
    cfg: &ControlFlow,
    varied: &BTreeSet<&str>,
    live: &mut BTreeSet<String>,
    info: &mut CcsInfo,
) {
    match cfg {
        ControlFlow::State(id) => {
            let state = &sdfg.states[*id];
            let marked = mark_state(&state.graph, live);
            // Varied arrays read by marked nodes now also contribute.
            for array in arrays_read_by(&state.graph, &marked) {
                if varied.contains(array.as_str()) {
                    live.insert(array);
                }
            }
            let entry = info.per_state.entry(*id).or_default();
            entry.extend(marked);
        }
        ControlFlow::Sequence(children) => {
            // Reverse execution order: the last state is analysed first.
            for c in children.iter().rev() {
                analyze_cfg(sdfg, c, varied, live, info);
            }
        }
        ControlFlow::Loop(l) => {
            // Fixed point over the loop body: the contributing set can only
            // grow, so at most |arrays| + 1 iterations are needed.
            let max_iters = sdfg.arrays.len() + 1;
            for _ in 0..max_iters {
                let before = live.clone();
                analyze_cfg(sdfg, &l.body, varied, live, info);
                info.loop_iterations += 1;
                if *live == before {
                    break;
                }
            }
        }
        ControlFlow::Branch(b) => {
            // Over-approximate: both arms are analysed with the same incoming
            // live set and the union is kept (pruned at runtime, Fig. 3).
            let mut then_live = live.clone();
            analyze_cfg(sdfg, &b.then_body, varied, &mut then_live, info);
            let mut else_live = live.clone();
            if let Some(e) = &b.else_body {
                analyze_cfg(sdfg, e, varied, &mut else_live, info);
            }
            live.extend(then_live);
            live.extend(else_live);
            // Arrays referenced by the condition must be preserved for the
            // backward pass (the condition is stored and replayed).
            let cond = b.cond.referenced_arrays();
            live.extend(cond.into_iter().filter(|a| varied.contains(a.as_str())));
        }
    }
}

/// Mark the nodes of a state graph that contribute to any of the `live`
/// arrays: reverse BFS starting from the written access nodes of live arrays.
fn mark_state(graph: &DataflowGraph, live: &BTreeSet<String>) -> BTreeSet<NodeId> {
    let mut marked: BTreeSet<NodeId> = BTreeSet::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();

    for (id, node) in graph.nodes.iter().enumerate() {
        if let DfNode::Access(name) = node {
            if live.contains(name) && !graph.in_edges(id).is_empty() {
                // This access node is written in this state: a seed.
                if marked.insert(id) {
                    queue.push_back(id);
                }
            }
        }
        // Map scopes and library nodes that write a live array directly via
        // their out-edges are seeded through their destination access nodes,
        // handled above.
    }

    while let Some(node) = queue.pop_front() {
        for e in graph.in_edges(node) {
            if marked.insert(e.src) {
                queue.push_back(e.src);
            }
        }
    }
    marked
}

/// Arrays read by the marked nodes of a graph (their incoming access-node
/// edges plus everything read inside marked map bodies).
fn arrays_read_by(graph: &DataflowGraph, marked: &BTreeSet<NodeId>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for e in &graph.edges {
        if marked.contains(&e.dst) {
            if let DfNode::Access(name) = &graph.nodes[e.src] {
                out.insert(name.clone());
            }
        }
    }
    for &id in marked {
        if let DfNode::MapScope(m) = &graph.nodes[id] {
            out.append(&mut m.body.read_arrays());
        }
    }
    out
}

/// Whether a write memlet fully overwrites the array (covers every element
/// and is not an accumulation).  Conservative: returns `false` when coverage
/// cannot be proven symbolically.
pub fn is_full_overwrite(subset: &Subset, desc: &ArrayDesc, wcr: bool) -> bool {
    if wcr {
        return false;
    }
    if subset.is_all() {
        return true;
    }
    if subset.0.len() != desc.shape.len() {
        return false;
    }
    subset
        .0
        .iter()
        .zip(desc.shape.iter())
        .all(|(r, dim)| match r {
            IndexRange::Range { start, end } => {
                start.simplified().is_const(0) && end.simplified() == dim.simplified()
            }
            IndexRange::Index(_) => dim.simplified().is_const(1),
        })
}

/// The trip count of a loop region under symbol bindings (0 if empty).
pub fn loop_trip_count(
    start: &SymExpr,
    end: &SymExpr,
    step: &SymExpr,
    bindings: &HashMap<String, i64>,
) -> i64 {
    let s = match start.eval(bindings) {
        Ok(v) => v,
        Err(_) => return 0,
    };
    let e = match end.eval(bindings) {
        Ok(v) => v,
        Err(_) => return 0,
    };
    let st = match step.eval(bindings) {
        Ok(v) => v,
        Err(_) => return 0,
    };
    if st > 0 {
        ((e - s).max(0) + st - 1) / st
    } else if st < 0 {
        ((s - e).max(0) + (-st) - 1) / (-st)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LibraryOp, MapScope};
    use crate::memlet::Memlet;
    use crate::scalar_expr::ScalarExpr as E;
    use crate::sdfg::{BranchRegion, CmpOp, CondExpr, CondOperand, LoopRegion, State};
    use crate::tasklet::Tasklet;

    /// Build the running example of Fig. 2: two states inside a time-step
    /// loop; `A = 2*M`, `B = 3*M`, `C = 4*N`, `E += C`, `O += sin(A+B)`.
    fn fig2_sdfg() -> Sdfg {
        let mut sdfg = Sdfg::new("fig2");
        sdfg.add_symbol("S");
        sdfg.add_symbol("TSTEPS");
        for name in ["M", "N", "A", "B", "C", "E", "O"] {
            sdfg.add_array(name, ArrayDesc::input(vec![SymExpr::sym("S")]))
                .unwrap();
        }

        // state_1: A = 2*M ; B = 3*M ; C = 4*N  (element-wise maps)
        let mut s1 = DataflowGraph::new();
        for (dst, src, k) in [("A", "M", 2.0), ("B", "M", 3.0), ("C", "N", 4.0)] {
            let mut body = DataflowGraph::new();
            let r = body.add_access(src);
            let t = body.add_tasklet(Tasklet::new("scale", "o", E::input("x").mul(E::c(k))));
            let w = body.add_access(dst);
            body.add_edge(
                r,
                None,
                t,
                Some("x"),
                Memlet::element(src, vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                t,
                Some("o"),
                w,
                None,
                Memlet::element(dst, vec![SymExpr::sym("i")]),
            );
            let src_node = s1.add_access(src);
            let map = s1.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("S"))],
                body,
            });
            let dst_node = s1.add_access(dst);
            s1.add_edge(src_node, None, map, None, Memlet::all(src));
            s1.add_edge(map, None, dst_node, None, Memlet::all(dst));
        }
        let s1_id = sdfg.add_state(State {
            name: "state_1".into(),
            graph: s1,
        });

        // state_2: E += C ; O += sin(A + B)  (element-wise maps with WCR)
        let mut s2 = DataflowGraph::new();
        {
            let mut body = DataflowGraph::new();
            let c = body.add_access("C");
            let t = body.add_tasklet(Tasklet::new("acc", "o", E::input("c")));
            let e = body.add_access("E");
            body.add_edge(
                c,
                None,
                t,
                Some("c"),
                Memlet::element("C", vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                t,
                Some("o"),
                e,
                None,
                Memlet::element("E", vec![SymExpr::sym("i")]).with_wcr_sum(),
            );
            let c_out = s2.add_access("C");
            let map = s2.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("S"))],
                body,
            });
            let e_out = s2.add_access("E");
            s2.add_edge(c_out, None, map, None, Memlet::all("C"));
            s2.add_edge(map, None, e_out, None, Memlet::all("E"));
        }
        {
            let mut body = DataflowGraph::new();
            let a = body.add_access("A");
            let b = body.add_access("B");
            let t = body.add_tasklet(Tasklet::new(
                "sin_add",
                "o",
                E::un(
                    crate::scalar_expr::UnOp::Sin,
                    E::input("a").add(E::input("b")),
                ),
            ));
            let o = body.add_access("O");
            body.add_edge(
                a,
                None,
                t,
                Some("a"),
                Memlet::element("A", vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                b,
                None,
                t,
                Some("b"),
                Memlet::element("B", vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                t,
                Some("o"),
                o,
                None,
                Memlet::element("O", vec![SymExpr::sym("i")]).with_wcr_sum(),
            );
            let a_out = s2.add_access("A");
            let b_out = s2.add_access("B");
            let map = s2.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("S"))],
                body,
            });
            let o_out = s2.add_access("O");
            s2.add_edge(a_out, None, map, None, Memlet::all("A"));
            s2.add_edge(b_out, None, map, None, Memlet::all("B"));
            s2.add_edge(map, None, o_out, None, Memlet::all("O"));
        }
        let s2_id = sdfg.add_state(State {
            name: "state_2".into(),
            graph: s2,
        });

        sdfg.cfg = ControlFlow::Loop(LoopRegion {
            var: "t".into(),
            start: SymExpr::int(0),
            end: SymExpr::sym("TSTEPS"),
            step: SymExpr::int(1),
            body: Box::new(ControlFlow::Sequence(vec![
                ControlFlow::State(s1_id),
                ControlFlow::State(s2_id),
            ])),
        });
        assert!(sdfg
            .validate()
            .iter()
            .all(|d| d.severity != crate::Severity::Error));
        sdfg
    }

    #[test]
    fn ccs_tracks_contributions_to_output() {
        let sdfg = fig2_sdfg();
        let ccs = compute_ccs(&sdfg, "O", &["M", "N"]);
        // O depends on A and B, which depend on M.  C, E, N do not contribute.
        assert!(ccs.contributing_arrays.contains("O"));
        assert!(ccs.contributing_arrays.contains("A"));
        assert!(ccs.contributing_arrays.contains("B"));
        assert!(ccs.contributing_arrays.contains("M"));
        assert!(!ccs.contributing_arrays.contains("C"));
        assert!(!ccs.contributing_arrays.contains("E"));
        assert!(!ccs.contributing_arrays.contains("N"));
    }

    #[test]
    fn ccs_marks_only_contributing_nodes() {
        let sdfg = fig2_sdfg();
        let ccs = compute_ccs(&sdfg, "O", &["M", "N"]);
        // state_1 has three map chains (A, B, C); only the A and B chains are
        // in the CCS: 3 nodes each (access src, map, access dst) = 6 nodes.
        let s1_nodes = ccs.nodes_of(0);
        assert_eq!(s1_nodes.len(), 6, "CCS of state_1: {s1_nodes:?}");
        // state_2: only the O chain (4 nodes: A access, B access, map, O access).
        let s2_nodes = ccs.nodes_of(1);
        assert_eq!(s2_nodes.len(), 4, "CCS of state_2: {s2_nodes:?}");
    }

    #[test]
    fn ccs_with_output_e_tracks_c_and_n() {
        let sdfg = fig2_sdfg();
        let ccs = compute_ccs(&sdfg, "E", &["M", "N"]);
        assert!(ccs.contributing_arrays.contains("C"));
        assert!(ccs.contributing_arrays.contains("N"));
        assert!(!ccs.contributing_arrays.contains("A"));
        assert!(!ccs.contributing_arrays.contains("M"));
    }

    #[test]
    fn loop_fixed_point_terminates() {
        let sdfg = fig2_sdfg();
        let ccs = compute_ccs(&sdfg, "O", &["M", "N"]);
        // The live set stabilises after at most two body passes plus the
        // confirming pass.
        assert!(ccs.loop_iterations <= sdfg.arrays.len() + 1);
        assert!(ccs.loop_iterations >= 2);
    }

    #[test]
    fn branch_over_approximates_and_tracks_condition() {
        let mut sdfg = Sdfg::new("branchy");
        sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        sdfg.add_array("O", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();
        sdfg.add_array("P", ArrayDesc::input(vec![SymExpr::int(4)]))
            .unwrap();

        // then: O = X * 2 ; else: O = Y * 3
        let build = |src: &str| {
            let mut g = DataflowGraph::new();
            let mut body = DataflowGraph::new();
            let r = body.add_access(src);
            let t = body.add_tasklet(Tasklet::new("s", "o", E::input("x").mul(E::c(2.0))));
            let w = body.add_access("O");
            body.add_edge(
                r,
                None,
                t,
                Some("x"),
                Memlet::element(src, vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                t,
                Some("o"),
                w,
                None,
                Memlet::element("O", vec![SymExpr::sym("i")]),
            );
            let rn = g.add_access(src);
            let m = g.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::int(4))],
                body,
            });
            let wn = g.add_access("O");
            g.add_edge(rn, None, m, None, Memlet::all(src));
            g.add_edge(m, None, wn, None, Memlet::all("O"));
            g
        };
        let then_id = sdfg.add_state(State {
            name: "then".into(),
            graph: build("X"),
        });
        let else_id = sdfg.add_state(State {
            name: "else".into(),
            graph: build("Y"),
        });
        sdfg.cfg = ControlFlow::Branch(BranchRegion {
            cond: CondExpr::Cmp {
                lhs: CondOperand::Element {
                    array: "P".into(),
                    index: vec![SymExpr::int(0)],
                },
                op: CmpOp::Gt,
                rhs: CondOperand::Const(0.0),
            },
            then_body: Box::new(ControlFlow::State(then_id)),
            else_body: Some(Box::new(ControlFlow::State(else_id))),
        });
        let ccs = compute_ccs(&sdfg, "O", &["X", "Y", "P"]);
        assert!(ccs.contributing_arrays.contains("X"));
        assert!(ccs.contributing_arrays.contains("Y"));
        // The branch condition array must be preserved.
        assert!(ccs.contributing_arrays.contains("P"));
        assert!(ccs.state_active(then_id));
        assert!(ccs.state_active(else_id));
    }

    #[test]
    fn full_overwrite_detection() {
        let desc = ArrayDesc::input(vec![SymExpr::sym("N"), SymExpr::sym("N")]);
        assert!(is_full_overwrite(&Subset::all(), &desc, false));
        assert!(!is_full_overwrite(&Subset::all(), &desc, true));
        let full = Subset(vec![
            IndexRange::range(SymExpr::int(0), SymExpr::sym("N")),
            IndexRange::range(SymExpr::int(0), SymExpr::sym("N")),
        ]);
        assert!(is_full_overwrite(&full, &desc, false));
        let partial = Subset(vec![
            IndexRange::range(SymExpr::int(0), SymExpr::sym("N")),
            IndexRange::idx(SymExpr::int(3)),
        ]);
        assert!(!is_full_overwrite(&partial, &desc, false));
        let scalar_desc = ArrayDesc::input(vec![SymExpr::int(1)]);
        assert!(is_full_overwrite(
            &Subset::indices(vec![SymExpr::int(0)]),
            &scalar_desc,
            false
        ));
    }

    #[test]
    fn trip_count_handles_negative_steps() {
        let bind = HashMap::new();
        assert_eq!(
            loop_trip_count(&SymExpr::int(0), &SymExpr::int(10), &SymExpr::int(1), &bind),
            10
        );
        assert_eq!(
            loop_trip_count(
                &SymExpr::int(9),
                &SymExpr::int(-1),
                &SymExpr::int(-1),
                &bind
            ),
            10
        );
        assert_eq!(
            loop_trip_count(&SymExpr::int(0), &SymExpr::int(10), &SymExpr::int(3), &bind),
            4
        );
        assert_eq!(
            loop_trip_count(&SymExpr::int(0), &SymExpr::int(0), &SymExpr::int(1), &bind),
            0
        );
    }

    #[test]
    fn library_node_in_ccs() {
        let mut sdfg = Sdfg::new("mm");
        sdfg.add_symbol("N");
        for n in ["A", "B", "C"] {
            sdfg.add_array(
                n,
                ArrayDesc::input(vec![SymExpr::sym("N"), SymExpr::sym("N")]),
            )
            .unwrap();
        }
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let b = g.add_access("B");
        let mm = g.add_library(LibraryOp::MATMUL);
        let c = g.add_access("C");
        g.add_edge(a, None, mm, Some("A"), Memlet::all("A"));
        g.add_edge(b, None, mm, Some("B"), Memlet::all("B"));
        g.add_edge(mm, Some("C"), c, None, Memlet::all("C"));
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::State(sid);
        let ccs = compute_ccs(&sdfg, "C", &["A", "B"]);
        assert_eq!(ccs.nodes_of(sid).len(), 4);
        assert!(ccs.contributing_arrays.contains("A"));
        assert!(ccs.contributing_arrays.contains("B"));
        // Activity: an operand outside `wrt` gets no adjoint, though the
        // product still reads it.
        let ccs = compute_ccs(&sdfg, "C", &["B"]);
        assert_eq!(ccs.nodes_of(sid).len(), 4);
        let arrays: Vec<&str> = ccs.contributing_arrays.iter().map(|a| a.as_str()).collect();
        assert_eq!(arrays, ["B", "C"]);
    }

    /// The CCS stops at the `wrt` inputs: with `N` the only independent
    /// input, nothing `O` depends on is varied, so only `O` itself is left
    /// and no node of either state is marked; with `M`, the CCS is the one
    /// of both inputs, less `N`.
    #[test]
    fn ccs_keeps_only_arrays_varied_by_the_wrt_inputs() {
        let sdfg = fig2_sdfg();
        let ccs = compute_ccs(&sdfg, "O", &["N"]);
        let arrays: Vec<&str> = ccs.contributing_arrays.iter().map(|a| a.as_str()).collect();
        assert_eq!(arrays, ["O"]);
        assert!(!ccs.state_active(0));
        let both = compute_ccs(&sdfg, "O", &["M", "N"]);
        let m = compute_ccs(&sdfg, "O", &["M"]);
        assert_eq!(m.contributing_arrays, both.contributing_arrays);
        assert_eq!(m.per_state, both.per_state);
    }

    /// A branch condition on an array that no `wrt` input varies stays out of
    /// the CCS (the condition is replayed from a stored flag either way).
    #[test]
    fn branch_condition_outside_the_varied_set_is_not_kept() {
        let mut sdfg = Sdfg::new("cond");
        for name in ["X", "P", "O"] {
            sdfg.add_array(name, ArrayDesc::input(vec![SymExpr::int(1)]))
                .unwrap();
        }
        let mut g = DataflowGraph::new();
        let r = g.add_access("X");
        let t = g.add_tasklet(Tasklet::new("s", "o", E::input("x").mul(E::c(2.0))));
        let w = g.add_access("O");
        let at = vec![SymExpr::int(0)];
        g.add_edge(r, None, t, Some("x"), Memlet::element("X", at.clone()));
        g.add_edge(t, Some("o"), w, None, Memlet::element("O", at.clone()));
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::Branch(BranchRegion {
            cond: CondExpr::Cmp {
                lhs: CondOperand::Element {
                    array: "P".into(),
                    index: at,
                },
                op: CmpOp::Gt,
                rhs: CondOperand::Const(0.0),
            },
            then_body: Box::new(ControlFlow::State(sid)),
            else_body: None,
        });
        let ccs = compute_ccs(&sdfg, "O", &["X"]);
        let arrays: Vec<&str> = ccs.contributing_arrays.iter().map(|a| a.as_str()).collect();
        assert_eq!(arrays, ["O", "X"]);
        let ccs = compute_ccs(&sdfg, "O", &["X", "P"]);
        assert!(ccs.contributing_arrays.contains("P"));
    }
}
